"""Tests of the benchmark's own machinery: checkers, exit code and tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hscontrol  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckLog  # noqa: E402
from tracer import SpanRecorder, metric_names  # noqa: E402


def test_workload_names_match():
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)


def test_checker_rejects_wrong_value():
    log = CheckLog()
    assert log.close("right", 1.0 + 1e-12, 1.0, rtol=1e-9)
    assert not log.close("wrong", 1.1, 1.0, rtol=1e-9)
    assert not log.below("not below", 2.0, 2.0)
    assert not log.close("nan", float("nan"), 0.0, atol=1.0)
    assert log.attempted == 4
    assert [f.split(":")[0] for f in log.failures] == ["wrong", "not below", "nan"]


def test_workload_checker_names_a_wrong_gain():
    log = CheckLog()
    results = {"gain": workloads.SHIFT_GAIN + 1e-3, "sweep": [], "heat": []}
    workloads.structured_check({}, results, log)
    assert log.failed == 1
    assert log.failures[0].startswith("structured.gain")


def test_wrong_result_makes_the_command_fail(monkeypatch, capsys):
    wrong = {
        "status": hscontrol.STATUS_SOLVED,
        "value": 10.0,
        "exact": 10.0,
        "csq_expected": 12.0,
        "csq_residual": 0.0,
        "mc_mean": 11.0,  # 100 standard errors away from the exact value
        "mc_std_error": 0.01,
    }
    monkeypatch.setitem(
        workloads.WORKLOADS,
        "expectation",
        workloads.Workload(
            lambda seed: {}, lambda seed: {}, lambda inputs: dict(wrong), workloads.expectation_check, None
        ),
    )
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    code = run.main(["--workload", "expectation", "--seed", "1", "--seconds", "1"])
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] == 4 * result["failed"]
    assert "expectation.monte_carlo" in err


def test_tracer_counts_every_binding_and_restores_originals():
    original = hscontrol.hinf.brl_check
    dsys = hscontrol.examples.build_shift_network(16)
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert hscontrol.brl_check is not original
        estimate = hscontrol.hinf_norm(dsys, tol=1e-3)
    finally:
        recorder.uninstall()
    assert hscontrol.hinf.brl_check is original and hscontrol.brl_check is original
    assert hscontrol.examples.brl_check is original
    metrics, functions = recorder.metrics(1.0)
    assert set(metrics) | {"trace.overhead"} == set(metric_names())
    assert metrics["hinf.brl_check.calls"][0] == estimate.iterations
    assert metrics["hinf.bisection_iterations"][0] == estimate.iterations
    assert metrics["hinf.deterministic_norm_oracle.refused"][0] == 1
    norm = functions["hinf.hinf_norm"]
    assert 0.0 <= norm["self_s"] < norm["total_s"]
