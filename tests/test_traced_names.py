"""The traced benchmark run wraps library names listed in perfbench/tracer.py.

A rename or deletion of one of them would only show when that run crashes,
so the names are checked here, against the tracer's own tables.
"""

import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import hscontrol as hc
from hscontrol.examples import build_heat_problem, build_shift_network

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


def test_traced_hooks_read_the_attributes_of_real_results():
    # the hooks read .p of a Riccati pass, .iterations of a gain search and
    # .feasible of a level test; a rename there would only crash a traced run
    heat, net = build_heat_problem(1, 16), build_shift_network(12)
    rec = SimpleNamespace(counters=Counter())
    TRACED._after_riccati(rec, (), {}, hc.solve_backward_riccati(heat.system, heat.cost))
    search = hc.hinf_norm(net)
    TRACED._after_hinf_norm(rec, (), {}, search)
    TRACED._after_brl_check(rec, (), {}, hc.brl_check(net, 2.0 * search.value))
    assert rec.counters == {
        "riccati.steps": heat.system.steps,
        "hinf.bisection_iterations": search.iterations,
        "hinf.brl_check.feasible": 1,
    }
