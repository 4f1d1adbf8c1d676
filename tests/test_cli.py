import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hscontrol as hc
import hscontrol.serialize as ser
from hscontrol import cli
from hscontrol.cli import EXIT_BAD_INPUT, EXIT_INFEASIBLE, EXIT_LIMITS, EXIT_OK, main


SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"

DEMO_SYSTEM = str(SPEC_DIR / "demo_system.json")
DEMO_COST = str(SPEC_DIR / "demo_cost.json")
DEMO_X0 = str(SPEC_DIR / "demo_x0.json")
SHIFT = str(SPEC_DIR / "shift_network.json")
GAME = str(SPEC_DIR / "coupled_game.json")
GAME_X0 = str(SPEC_DIR / "coupled_game_x0.json")


def read_report(out_dir):
    with open(Path(out_dir) / "report.json") as fh:
        return json.load(fh)


def test_lq_solve_success(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["lq-solve", "--system", DEMO_SYSTEM, "--cost", DEMO_COST,
                 "--x0", DEMO_X0, "--out", str(out)])
    assert code == EXIT_OK
    report = read_report(out)
    assert report["status"] == "solved"
    assert report["value"] == pytest.approx(2.149491119982309, rel=1e-12)
    text = capsys.readouterr().out
    assert "solved" in text


def test_lq_solve_infeasible_exit(tmp_path):
    system = ser.parse_system(Path(DEMO_SYSTEM))
    bad_cost = {
        "m": {"variant": "identity"},
        "l": {"variant": "zero"},
        "r": {"variant": "scaled", "factor": -1.0, "of": {"variant": "identity"}},
        "terminal": {"variant": "identity"},
    }
    cost_path = tmp_path / "cost.json"
    cost_path.write_text(json.dumps(bad_cost))
    code = main(["lq-solve", "--system", DEMO_SYSTEM, "--cost", str(cost_path),
                 "--x0", DEMO_X0])
    assert code == EXIT_INFEASIBLE


def test_brl_check_reports_feasibility(tmp_path):
    out = tmp_path / "run"
    code = main(["brl-check", "--system", SHIFT, "--gamma", "1.7",
                 "--out", str(out)])
    assert code == EXIT_OK
    report = read_report(out)
    assert report["feasible"] is True
    out2 = tmp_path / "run2"
    code = main(["brl-check", "--system", SHIFT, "--gamma", "1.6",
                 "--out", str(out2)])
    assert code == EXIT_OK  # a clean infeasibility verdict is a success
    report2 = read_report(out2)
    assert report2["feasible"] is False
    assert report2["failing_step"] == 1


def test_hinf_norm_matches_library(tmp_path):
    out = tmp_path / "run"
    code = main(["hinf-norm", "--system", SHIFT, "--tol-gamma", "1e-6",
                 "--out", str(out)])
    assert code == EXIT_OK
    report = read_report(out)
    assert report["value"] == pytest.approx(3.0 * np.sqrt(5.0) / 4.0, abs=1e-4)


def test_nash_solve_and_values(tmp_path):
    out = tmp_path / "run"
    code = main(["nash-solve", "--system", GAME, "--gamma", "2.0", "--rho", "0.0",
                 "--x0", GAME_X0, "--out", str(out)])
    assert code == EXIT_OK
    report = read_report(out)
    assert report["status"] == "solved"
    assert report["j1"] == pytest.approx(-2.70, abs=1e-10)
    assert report["j2"] == pytest.approx(2.74, abs=1e-10)


def test_nash_solve_infeasible_level():
    code = main(["nash-solve", "--system", GAME, "--gamma", "0.9"])
    assert code == EXIT_INFEASIBLE


def test_nash_solve_without_start_state(tmp_path):
    out = tmp_path / "run"
    code = main(["nash-solve", "--system", GAME, "--gamma", "2.0",
                 "--out", str(out)])
    assert code == EXIT_OK
    report = read_report(out)
    assert report["status"] == "solved"
    assert report["j1"] is None
    assert report["j2"] is None


def test_hinf_design_success_and_closed_loop_check(tmp_path):
    out = tmp_path / "run"
    code = main(["hinf-design", "--system", GAME, "--gamma", "2.0",
                 "--out", str(out)])
    assert code == EXIT_OK
    report = read_report(out)
    assert report["closed_loop_feasible"] is True


def test_hinf_design_infeasible_exit():
    code = main(["hinf-design", "--system", GAME, "--gamma", "0.5"])
    assert code == EXIT_INFEASIBLE


def test_h2hinf_design_reports_energy(tmp_path):
    out = tmp_path / "run"
    code = main(["h2hinf-design", "--system", GAME, "--gamma", "2.0",
                 "--x0", GAME_X0, "--out", str(out)])
    assert code == EXIT_OK
    report = read_report(out)
    assert report["j2"] == pytest.approx(2.74, abs=1e-10)


def test_simulate_writes_trajectory(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--system", DEMO_SYSTEM, "--cost", DEMO_COST,
                 "--x0", DEMO_X0, "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    report = read_report(out)
    assert "mean_cost" in report
    csv_path = out / "trajectory.csv"
    assert csv_path.exists()
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["k", "coordinate", "value"]


def test_trajectory_holds_plain_numbers(tmp_path):
    # every value parses with float() and equals the simulated state
    out = tmp_path / "run"
    code = main(["simulate", "--system", DEMO_SYSTEM, "--cost", DEMO_COST,
                 "--x0", DEMO_X0, "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    system = ser.parse_system(Path(DEMO_SYSTEM))
    problem = hc.LQProblem(system, ser.parse_cost(Path(DEMO_COST), system),
                           ser.parse_vector(Path(DEMO_X0), system.state_space))
    policy = hc.optimal_policy(problem, hc.solve_lq(problem))
    noise = np.array(read_report(out)["noise"])
    states = hc.simulate(system, policy, problem.x0, noise, problem.cost).states
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == states.size
    for row in rows:
        k, i, value = row.split(",")
        assert float(value) == states[int(k), int(i)]


def test_simulate_rejects_two_input_spec():
    code = main(["simulate", "--system", GAME, "--x0", GAME_X0])
    assert code == EXIT_BAD_INPUT


def test_wrong_system_type_exit(capsys):
    code = main(["brl-check", "--system", DEMO_SYSTEM, "--gamma", "2"])
    assert code == EXIT_BAD_INPUT
    assert "brl-check needs a 'disturbed' system file" in capsys.readouterr().err


def _overflowing_specs(tmp_path):
    # A = 1e200 I on a 2-dim state over horizon 3: every recursion overflows
    big = {"variant": "scaled", "factor": 1e200, "of": {"variant": "identity"}}
    e1, e2 = {"kind": "euclidean", "dim": 1}, {"kind": "euclidean", "dim": 2}
    first = {"variant": "filling", "count": 1}
    second = {"variant": "dense", "matrix": [[0.0], [1.0]]}
    zero = {"variant": "zero"}
    specs = {
        "controlled": {"type": "controlled", "horizon": 3, "state_space": e2,
                       "control_space": e1, "a": big, "b": first, "c": zero, "d": zero},
        "disturbed": {"type": "disturbed", "horizon": 3, "state_space": e2,
                      "disturbance_space": e2, "output_space": e2, "a": big,
                      "b1": {"variant": "identity"}, "c": zero, "d1": zero,
                      "cbar": {"variant": "identity"}, "dbar": zero},
        "two_input": {"type": "two_input", "horizon": 3, "state_space": e2,
                      "disturbance_space": e1, "control_space": e1,
                      "output_space": {"kind": "euclidean", "dim": 3}, "a": big,
                      "b1": first, "b2": second, "c": zero, "d1": zero, "d2": zero,
                      "cbar": {"variant": "filling", "count": 2},
                      "gbar": {"variant": "dense", "matrix": [[0.0], [0.0], [1.0]]}},
        "x0": {"coords": [1.0, 1.0]},
        # C = 9e76 over two steps: each path is finite, but the terminal
        # cost of some Monte Carlo replications overflows
        "noisy": {"type": "controlled", "horizon": 1, "state_space": e1,
                  "control_space": e1, "a": zero, "b": zero,
                  "c": {"variant": "dense", "matrix": [[9e76]]}, "d": zero},
        "x1": {"coords": [1.0]},
        # two inputs of weight 1e-10 (a trapezoid grid of one 2e-10 step)
        # driven through 1e149: W_u Rk(1) is about 2e298, Rk(1) about 2e308
        "tiny_inputs": {"type": "controlled", "horizon": 1, "state_space": e2,
                        "control_space": {"kind": "l2_line", "half_width": 1e-10,
                                          "spacing": 2e-10},
                        "a": {"variant": "scaled", "factor": 0.5, "of": {"variant": "identity"}},
                        "b": {"variant": "dense", "matrix": [[1e149, 1e149], [1e149, 1e149]]},
                        "c": zero, "d": zero},
    }
    for name, spec in specs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    return {name: str(tmp_path / f"{name}.json") for name in specs}


@pytest.mark.parametrize("argv", [
    ["lq-solve", "--system", "controlled", "--cost", DEMO_COST, "--x0", "x0"],
    ["brl-check", "--system", "disturbed", "--gamma", "2"],
    ["hinf-norm", "--system", "disturbed"],
    ["nash-solve", "--system", "two_input", "--gamma", "2"],
    ["hinf-design", "--system", "two_input", "--gamma", "2"],
    ["h2hinf-design", "--system", "two_input", "--gamma", "2", "--x0", "x0"],
    ["simulate", "--system", "disturbed", "--x0", "x0"],
    ["simulate", "--system", "noisy", "--cost", DEMO_COST, "--x0", "x1", "--seed", "0"],
    ["lq-solve", "--system", "tiny_inputs", "--cost", DEMO_COST, "--x0", "x0"],
])
def test_overflow_exits_with_limits(tmp_path, capsys, argv):
    # overflow is refused with the step or block named, before any verdict,
    # and numpy warns of none of the arithmetic that is checked afterwards
    specs = _overflowing_specs(tmp_path)
    out = tmp_path / "run"
    code = main([specs.get(arg, arg) for arg in argv] + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_LIMITS
    assert "not finite" in captured.err
    assert "Traceback" not in captured.err
    assert "RuntimeWarning" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_parse_failure_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bad": 1}')
    code = main(["hinf-norm", "--system", str(bad)])
    assert code == EXIT_BAD_INPUT


def test_non_finite_start_state_exit(tmp_path, capsys):
    x0 = tmp_path / "x0.json"
    x0.write_text('{"coords": [NaN, 0.0]}')
    out = tmp_path / "run"
    code = main(["lq-solve", "--system", DEMO_SYSTEM, "--cost", DEMO_COST,
                 "--x0", str(x0), "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert "coords" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("out_flag", [False, True])
@pytest.mark.parametrize("bad_file", ["system", "cost"])
def test_non_finite_number_exit(tmp_path, capsys, bad_file, out_flag):
    # NaN in a dense matrix, or a literal beyond the float range in a factor
    system_text = Path(DEMO_SYSTEM).read_text()
    cost_text = Path(DEMO_COST).read_text()
    if bad_file == "system":
        system = json.loads(system_text)
        system["a"]["matrix"][0][1] = float("nan")
        system_text, field = json.dumps(system), "matrix"
    else:
        cost = json.loads(cost_text)
        cost["r"] = {"variant": "scaled", "factor": 1.0, "of": {"variant": "identity"}}
        cost_text, field = json.dumps(cost).replace('"factor": 1.0', '"factor": 1e400'), "factor"
    (tmp_path / "system.json").write_text(system_text)
    (tmp_path / "cost.json").write_text(cost_text)
    out = tmp_path / "run"
    argv = ["lq-solve", "--system", str(tmp_path / "system.json"),
            "--cost", str(tmp_path / "cost.json"), "--x0", DEMO_X0]
    code = main(argv + (["--out", str(out)] if out_flag else []))
    assert code == EXIT_BAD_INPUT
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_oversized_spec_refused_at_parse_time(tmp_path, capsys):
    # a 2 KB spec asking for a 200000-dim state space: refused by the size
    # cap before any array is built, instead of dying in the allocator
    spec = json.loads(Path(SHIFT).read_text())
    spec["state_space"]["dim"] = 200000
    (tmp_path / "big.json").write_text(json.dumps(spec))
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        code = main(["brl-check", "--system", str(tmp_path / "big.json"), "--gamma", "1.7",
                     "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "state_space: dim 200000 exceeds the cap" in err
    assert peak < 1 << 20
    assert not out.exists()


@pytest.mark.parametrize("dim", ["0", "-3", "200000"])
def test_example_dim_outside_the_caps_refused(tmp_path, capsys, dim):
    # --dim 0 used to run at the default size; 200000 would build dense
    # iterates of hundreds of GB before any size check
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        code = main(["example", "ex3", "--dim", dim, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert f"--dim must be between 1 and {ser.MAX_DIM}, got {dim}" in captured.err
    assert captured.out == ""
    assert peak < 1 << 20
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["hinf-norm", "--system", SHIFT, "--tol-gamma", "0"], "tol"),
    (["hinf-norm", "--system", SHIFT, "--tol-gamma", "nan"], "tol"),
    (["brl-check", "--system", SHIFT, "--gamma", "nan"], "gamma"),
    (["brl-check", "--system", SHIFT, "--gamma", "1e200"], "gamma"),
    (["nash-solve", "--system", GAME, "--gamma", "1e200"], "gamma"),
    (["brl-check", "--system", SHIFT, "--gamma", "-5"], "gamma"),
])
def test_degenerate_level_arguments_exit(tmp_path, capsys, argv, name):
    # a zero tolerance never ended, a NaN tolerance gave a wrong norm, a NaN
    # level died in the eigensolver, 1e200 overflowed when squared and a
    # negative level was squared into a feasible one
    out = tmp_path / "run"
    code = main(argv + ["--out", str(out)])
    assert code == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} must be ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("kind", ["directory", "latin-1"])
def test_unreadable_system_file_exit(tmp_path, capsys, kind):
    path = tmp_path / "system.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes('{"type": "disturbed", "note": "caf\u00e9"}'.encode("latin-1"))
    out = tmp_path / "run"
    code = main(["brl-check", "--system", str(path), "--gamma", "1.7", "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert f"{path}: cannot read" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_non_integer_size_exit(tmp_path, capsys):
    spec = json.loads(Path(SHIFT).read_text())
    spec["state_space"]["dim"] = 2.7
    (tmp_path / "frac.json").write_text(json.dumps(spec))
    out = tmp_path / "run"
    code = main(["brl-check", "--system", str(tmp_path / "frac.json"), "--gamma", "1.7",
                 "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert "dim 2.7 is not an integer" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_exit(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    code = main(["simulate", "--system", DEMO_SYSTEM, "--cost", DEMO_COST,
                 "--x0", DEMO_X0, "--seed", "-1", "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    assert "--seed" in capsys.readouterr().err
    assert not (out / "report.json").exists()

    # a seed past the 128-bit key is refused before any file is parsed
    def refused(*args, **kwargs):
        raise AssertionError("work started before --seed was checked")

    monkeypatch.setattr(cli, "parse_system", refused)
    monkeypatch.setattr(cli, "solve_lq", refused)
    code = main(["simulate", "--system", DEMO_SYSTEM, "--cost", DEMO_COST,
                 "--x0", DEMO_X0, "--seed", str(2**128), "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err and "2^128" in captured.err
    assert not (out / "report.json").exists()


def test_memory_error_exits_with_limits(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "brl_check", exhausted)
    code = main(["brl-check", "--system", SHIFT, "--gamma", "1.7"])
    assert code == EXIT_LIMITS
    assert "out of memory" in capsys.readouterr().err


def test_missing_file_exit(tmp_path):
    code = main(["hinf-norm", "--system", str(tmp_path / "none.json")])
    assert code == EXIT_BAD_INPUT


def test_resolution_limit_exit():
    code = main(["example", "ex3", "--dim", "4"])
    assert code == EXIT_LIMITS


def test_example_ex1_refuses_dim(capsys):
    # ex1's grid is fixed; --dim was ignored with exit 0
    code = main(["example", "ex1", "--dim", "5"])
    assert code == EXIT_BAD_INPUT
    assert "--dim does not apply to ex1" in capsys.readouterr().err


def test_unknown_example_exit():
    code = main(["example", "nope"])
    assert code == EXIT_BAD_INPUT


def test_example_emits_full_manifest(tmp_path, capsys):
    out = tmp_path / "ex4"
    code = main(["example", "ex4", "--out", str(out)])
    assert code == EXIT_OK
    report = read_report(out)
    assert report["ok"] is True
    assert (out / "summary.txt").exists()
    assert (out / "ex4_value_surface.csv").exists()
    text = capsys.readouterr().out
    assert "ok" in text or "MISMATCH" in text


def test_example_mismatch_still_exits_zero(tmp_path):
    # a completed run with comparison mismatches is still a run
    out = tmp_path / "ex2"
    code = main(["example", "ex2-case2", "--out", str(out)])
    assert code == EXIT_OK
    report = read_report(out)
    assert report["ok"] is False


def test_reruns_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = main(["nash-solve", "--system", GAME, "--gamma", "2.5",
                     "--rho", "0.5", "--x0", GAME_X0, "--out", str(out)])
        assert code == EXIT_OK
    for name in ("report.json", "summary.txt"):
        fa = out_a / name
        fb = out_b / name
        if fa.exists() or fb.exists():
            assert fa.read_bytes() == fb.read_bytes()


def test_simulate_reruns_are_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["simulate", "--system", DEMO_SYSTEM, "--cost", DEMO_COST,
                     "--x0", DEMO_X0, "--seed", "11", "--out", str(out)])
        assert code == EXIT_OK
        outs.append(out)
    a, b = outs
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["simulate", "--system", DEMO_SYSTEM, "--cost", DEMO_COST, "--x0", DEMO_X0],
    ["lq-solve", "--system", DEMO_SYSTEM, "--cost", DEMO_COST, "--x0", DEMO_X0],
    ["example", "ex1"],
], ids=["simulate", "lq-solve", "example"])
def test_unwritable_output_directory_is_bad_input(tmp_path, capsys, argv):
    # simulate wrote its trajectory outside the guarded block and ended in a
    # NotADirectoryError traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(argv + ["--out", str(blocker / "run")])
    assert code == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write ")
    assert captured.out == ""  # no summary of a run whose outputs were not written
    assert blocker.read_text() == ""


def test_h2hinf_design_reports_the_level_diagnostic(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["h2hinf-design", "--system", GAME, "--gamma", "1e6",
                 "--x0", GAME_X0, "--out", str(out)])
    assert code == EXIT_OK
    assert "note: level 1e+06 is effectively infinite" in capsys.readouterr().out
    assert read_report(out)["diagnostic"].startswith("level 1e+06 is effectively infinite")


def _write(tmp_path, name, spec):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_a_weight_whose_residual_overflows_is_bad_input(tmp_path, capsys):
    e2 = {"kind": "euclidean", "dim": 2}
    ident, zero = {"variant": "identity"}, {"variant": "zero"}
    system = _write(tmp_path, "system", {
        "type": "controlled", "horizon": 1, "state_space": e2, "control_space": e2,
        "a": ident, "b": ident, "c": zero, "d": zero})
    cost = _write(tmp_path, "cost", {
        "m": ident, "l": zero, "terminal": ident,
        "r": {"variant": "dense", "matrix": [[1.0, 1e160], [0.0, 1.0]]}})
    x0 = _write(tmp_path, "x0", {"coords": [1.0, 1.0]})
    code = main(["lq-solve", "--system", system, "--cost", cost, "--x0", x0,
                 "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert "R(0)" in err and "RuntimeWarning" not in err
