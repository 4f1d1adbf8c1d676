"""Print one SHA-256 per file written by the CLI runs over ``specs/``.

Runs sixteen ``hscontrol`` subcommands in-process, each with ``--out`` into
its own folder of a temporary directory: ten over the JSON files here and
the six examples.  Each run's standard output is digested as a file named
``stdout``.  To check that a change keeps every output byte for byte, run it
once per tree and compare:

    PYTHONPATH=old/src python specs/digests.py > old.txt
    PYTHONPATH=new/src python specs/digests.py > new.txt
    diff old.txt new.txt

A run that exits non-zero is reported on its own line as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from hscontrol.cli import main
from hscontrol.examples import EXAMPLE_IDS

SPECS = Path(__file__).resolve().parent
SYSTEM, COST, X0 = (str(SPECS / f"demo_{part}.json") for part in ("system", "cost", "x0"))
SHIFT = str(SPECS / "shift_network.json")
GAME, GAME_X0 = str(SPECS / "coupled_game.json"), str(SPECS / "coupled_game_x0.json")

RUNS = {
    "lq-solve": ["lq-solve", "--system", SYSTEM, "--cost", COST, "--x0", X0],
    "brl-check-1.7": ["brl-check", "--system", SHIFT, "--gamma", "1.7"],
    "brl-check-1.2": ["brl-check", "--system", SHIFT, "--gamma", "1.2"],
    "hinf-norm": ["hinf-norm", "--system", SHIFT],
    "hinf-norm-1e-9": ["hinf-norm", "--system", SHIFT, "--tol-gamma", "1e-9"],
    "nash-solve": ["nash-solve", "--system", GAME, "--gamma", "2", "--rho", "0.5", "--x0", GAME_X0],
    "hinf-design": ["hinf-design", "--system", GAME, "--gamma", "2"],
    "h2hinf-design": ["h2hinf-design", "--system", GAME, "--gamma", "2", "--x0", GAME_X0],
    "simulate-3-cost": ["simulate", "--system", SYSTEM, "--cost", COST, "--x0", X0, "--seed", "3"],
    "simulate-11": ["simulate", "--system", SYSTEM, "--x0", X0, "--seed", "11"],
    **{f"example-{eid}": ["example", eid] for eid in EXAMPLE_IDS},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main_digests() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS.items():
            out = Path(tmp) / name
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = main(argv + ["--out", str(out)])
            # the stdout names the temporary folder, which differs per call
            text = captured.getvalue().replace(str(out), "<out>")
            if code != 0:
                print(f"exit {code}  {name}")
            print(f"{_sha256(text.encode())}  {name}/stdout")
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                print(f"{_sha256(path.read_bytes())}  {name}/{path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
