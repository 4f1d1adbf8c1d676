"""Run the hscontrol benchmark.

    python3 perfbench/run.py --workload structured --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own process, one after another, as a closed loop
with a single caller.  A run sets up the workload's inputs, then repeats its
fixed study on freshly built inputs for ``--seconds`` seconds and checks
every result.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-module metrics of traced studies.  The last line of
standard output is one JSON object; the exit code is non-zero when a check
fails.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS thread keeps run-to-run spread low.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# The keys of workloads.WORKLOADS, spelled out because importing that module
# imports hscontrol, which set-up timing must include.
WORKLOADS = ("structured", "dense-game", "expectation")
SETUP_PROBES = 6  # extra set-ups, each in a fresh process, besides the run's own
PROBE_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 20


def timed_setup(name: str, seed: int):
    """Seconds from before ``import hscontrol`` until the inputs are built."""
    t0 = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed)
    return time.perf_counter() - t0, workload, inputs


def probe_setup(name: str, seed: int) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    out = subprocess.run(
        argv + ["--workload", name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_study(workload, inputs, log):
    """Time one study; its checks run after the timed region."""
    gc.collect()  # garbage left by earlier studies is not this study's cost
    t0 = time.perf_counter()
    try:
        results = workload.study(inputs)
    except Exception:
        log.record("study raised", False, traceback.format_exc(limit=3).strip())
        return None
    elapsed = time.perf_counter() - t0
    workload.check(inputs, results, log)
    return elapsed


def measure(name: str, seed: int, seconds: int, log) -> tuple[dict, dict]:
    start = time.perf_counter()
    setup_first, workload, inputs = timed_setup(name, seed)
    setup_samples = [setup_first]
    solve_samples = []
    rebuild_s = setup_first
    while True:
        t0 = time.perf_counter()
        elapsed = run_study(workload, inputs, log)
        if elapsed is None:
            break
        solve_samples.append(elapsed)
        del inputs
        next_study_s = time.perf_counter() - t0 + rebuild_s
        # One probe after each of the first studies spreads the set-up
        # samples over the run instead of one burst at its start.
        if len(setup_samples) <= SETUP_PROBES:
            setup_samples.append(probe_setup(name, seed))
        if time.perf_counter() - start + next_study_s > seconds:
            break
        # Fresh inputs for every study, so that nothing the library caches
        # on its operators carries over from one study to the next.
        t1 = time.perf_counter()
        inputs = workload.build(seed)
        rebuild_s = time.perf_counter() - t1
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "solve_s": (statistics.median(solve_samples) if solve_samples else float("nan"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"setup_s": setup_samples, "solve_s": solve_samples}
    return metrics, samples


def measure_traced(name: str, seed: int, seconds: int, log) -> tuple[dict, dict, dict]:
    """Alternate untraced and traced studies until ``seconds`` is used up.

    Each traced study also traces a set-up.  Counts come from the first
    traced study and must repeat exactly in the others; shares are medians.
    """
    import workloads
    from tracer import SpanRecorder

    start = time.perf_counter()
    workload = workloads.WORKLOADS[name]
    untraced, traced, studies, functions, spans = [], [], [], [], []
    while True:
        t0 = time.perf_counter()
        inputs = workload.build(seed)
        gc.collect()
        t1 = time.perf_counter()
        results = workload.study(inputs)
        untraced.append(time.perf_counter() - t1)
        workload.check(inputs, results, log)
        del inputs, results
        recorder = SpanRecorder()
        gc.collect()
        recorder.install()
        try:
            t2 = time.perf_counter()
            inputs = workload.setup(seed)
            t3 = time.perf_counter()
            results = workload.study(inputs)
            t4 = time.perf_counter()
        finally:
            recorder.uninstall()
        workload.check(inputs, results, log)
        del inputs, results
        traced.append(t4 - t3)
        metrics, table = recorder.metrics(t4 - t2)
        workload.trace_check({key: value for key, (value, _) in metrics.items()}, log)
        studies.append(metrics)
        functions.append(table)
        spans.append(recorder.spans)
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    first = studies[0]
    merged = {}
    for key, (value, unit) in first.items():
        if unit == "count":
            log.equal(f"trace.{key}.repeats", [m[key][0] for m in studies], [value] * len(studies))
            merged[key] = (value, unit)
        else:
            merged[key] = (statistics.median(m[key][0] for m in studies), unit)
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    merged["trace.overhead"] = (overhead, "ratio")
    samples = {"untraced_solve_s": untraced, "traced_solve_s": traced}
    return merged, samples, {"functions": functions, "spans": spans}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "git_commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_one(args) -> int:
    from checks import CheckLog

    log = CheckLog()
    if args.trace:
        metrics, samples, details = measure_traced(args.workload, args.seed, args.seconds, log)
    else:
        metrics, samples = measure(args.workload, args.seed, args.seconds, log)
        details = {}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "samples": samples,
        "sample_count": {k: len(v) for k, v in samples.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": log.attempted,
        "failed": log.failed,
        "failures": log.failures[:MAX_REPORTED_FAILURES],
        **details,
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record))

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
        f" samples={record['sample_count']}"
    )
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value:.6g} {unit}")
    print(
        f"  {'error_rate':48s} {log.failed / log.attempted:.6g} ratio"
        f" ({log.failed} of {log.attempted} checks failed)"
    )
    for failure in log.failures[:MAX_REPORTED_FAILURES]:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    if log.failed > MAX_REPORTED_FAILURES:
        print(f"... and {log.failed - MAX_REPORTED_FAILURES} more failed checks", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": log.failed == 0,
                "attempted": log.attempted,
                "failed": log.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if log.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: workload {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hscontrol" / "__init__.py").is_file():
        print(
            f"perfbench: no library sources at {SRC}; run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        if args.workload == "all":
            parser.error("--setup-probe needs one workload")
        print(repr(timed_setup(args.workload, args.seed)[0]))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
