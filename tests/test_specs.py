"""The CLI runs over ``specs/`` and the examples, as ``specs/digests.py`` makes them."""

import importlib.util
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent.parent / "specs" / "digests.py"


def test_every_spec_run_exits_zero(capsys):
    spec = importlib.util.spec_from_file_location("spec_digests", DIGESTS)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    assert digests.main_digests() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("exit ")] == []
    # one stdout digest per run, and at least one output file beside some
    stdouts = [line for line in lines if line.endswith("/stdout")]
    assert len(stdouts) == len(digests.RUNS)
    assert len(lines) > len(stdouts)
