"""The CLI runs over ``specs/`` and the examples, as ``specs/digests.py`` makes them."""

import importlib.util
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent.parent / "specs" / "digests.py"


def test_every_spec_run_exits_zero(capsys):
    # the second listing in one process equals the first, so nothing a run
    # keeps between calls (a cache on a module or an operator) changes a byte
    spec = importlib.util.spec_from_file_location("spec_digests", DIGESTS)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    listings = []
    for _ in range(2):
        assert digests.main_digests() == 0
        listings.append(capsys.readouterr().out.splitlines())
    lines = listings[0]
    assert [line for line in lines if line.startswith("exit ")] == []
    # one stdout digest per run, and at least one output file beside some
    stdouts = [line for line in lines if line.endswith("/stdout")]
    assert len(stdouts) == len(digests.RUNS)
    assert len(lines) > len(stdouts)
    assert listings[1] == lines
