"""The traced benchmark run wraps library names listed in perfbench/tracer.py.

A rename or deletion of one of them would only show when that run crashes,
so the names are checked here, against the tracer's own tables.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracer()


@pytest.mark.parametrize("module, names", sorted(TRACED.FUNCTIONS.items()))
def test_traced_functions_are_bound(module, names):
    home = importlib.import_module(f"hscontrol.{module}")
    for name in names:
        assert callable(getattr(home, name, None)), f"hscontrol.{module}.{name} is gone"


def test_traced_constructors_are_bound():
    systems = importlib.import_module("hscontrol.systems")
    for name in TRACED.CONSTRUCTED:
        assert inspect.isclass(getattr(systems, name, None)), f"hscontrol.systems.{name} is gone"


def test_run_batch_noise_paths_is_the_fourth_parameter():
    # the path-step counter reads the noise paths as positional argument 3
    from hscontrol.sim import run_batch

    params = list(inspect.signature(run_batch).parameters)
    assert params[3] == "noise_paths"
