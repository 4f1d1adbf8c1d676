"""Span recorder for the traced run.

Wraps the library's public functions from outside the library: every
``hscontrol`` module namespace that binds a listed function gets a wrapper,
so a call is recorded whichever module makes it.  Spans stay in memory
until the run ends; the originals are put back by ``uninstall``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

import numpy.linalg

# module -> function names wrapped under ``module.function``
FUNCTIONS = {
    "operators": ("weighted_symmetrize", "opnorm", "min_eig_selfadjoint"),
    "systems": ("closed_loop",),
    "serialize": ("system_to_json", "canonical_json", "system_from_json"),
    "riccati": ("solve_backward_riccati",),
    "lq": ("solve_lq", "expected_cost", "excess_cost", "completing_square_check"),
    "hinf": ("hinf_norm", "brl_check", "deterministic_norm_oracle"),
    "game": (
        "solve_coupled_riccati",
        "hinf_design",
        "h2hinf_design",
        "verify_nash_equilibrium",
        "game_energies",
    ),
    "sim": (
        "draw_noise_paths",
        "run_batch",
        "sign_paths",
        "enumerate_expectation",
        "monte_carlo_expectation",
    ),
    "examples": ("build_shift_network", "build_heat_problem"),
}
# numpy.linalg functions, each called by one library module only
LINALG = {"eigh": "operators.eigh", "svd": "hinf.svd", "solve": "game.linalg_solve"}
CONSTRUCTED = ("ControlledSystem", "DisturbedSystem", "TwoInputSystem", "CostSpec")
CONSTRUCT_NAME = "systems.construct"


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    return names + list(LINALG.values()) + [CONSTRUCT_NAME]


def metric_names() -> list[str]:
    """Every per-module metric a traced run reports, in a fixed order."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_share"]
    return names + [
        "riccati.steps",
        "hinf.bisection_iterations",
        "hinf.brl_check.feasible_share",
        "hinf.deterministic_norm_oracle.refused",
        "sim.run_batch.path_steps",
        "trace.overhead",
    ]


def _after_riccati(rec, args, kwargs, out):
    rec.counters["riccati.steps"] += sum(p is not None for p in out.p[:-1])


def _after_hinf_norm(rec, args, kwargs, out):
    rec.counters["hinf.bisection_iterations"] += out.iterations


def _after_brl_check(rec, args, kwargs, out):
    rec.counters["hinf.brl_check.feasible"] += bool(out.feasible)


def _after_run_batch(rec, args, kwargs, out):
    paths = args[3] if len(args) > 3 else kwargs["noise_paths"]
    reps, steps = numpy.shape(paths)
    rec.counters["sim.run_batch.path_steps"] += reps * steps


HOOKS = {
    "riccati.solve_backward_riccati": _after_riccati,
    "hinf.hinf_norm": _after_hinf_norm,
    "hinf.brl_check": _after_brl_check,
    "sim.run_batch": _after_run_batch,
}


class SpanRecorder:
    """Records one span per wrapped call: name, start, end, parent, error."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every listed function in every hscontrol namespace binding it."""
        modules = [
            m for n, m in list(sys.modules.items()) if n == "hscontrol" or n.startswith("hscontrol.")
        ]
        try:
            for mod, fns in FUNCTIONS.items():
                home = sys.modules[f"hscontrol.{mod}"]
                for fn in fns:
                    original = getattr(home, fn)
                    wrapper = self.wrap(f"{mod}.{fn}", original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._patch(m, attr, wrapper)
            for fn, name in LINALG.items():
                self._patch(numpy.linalg, fn, self.wrap(name, getattr(numpy.linalg, fn)))
            systems = sys.modules["hscontrol.systems"]
            for cls_name in CONSTRUCTED:
                cls = getattr(systems, cls_name)
                self._patch(cls, "__init__", self.wrap(CONSTRUCT_NAME, cls.__init__))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def table(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, span durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": {}, "durations": []}
            for name in span_names()
        }
        for i, (name, start, end, _, error) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["durations"].append(end - start)
            if error is not None:
                row["errors"][error] = row["errors"].get(error, 0) + 1
        return out

    def metrics(self, wall_s: float) -> tuple[dict, dict]:
        """(per-module metrics with units, per-function seconds for the result file).

        Every metric but ``trace.overhead``, which needs an untraced run.
        """
        table = self.table()
        metrics = {}
        seconds = {}
        for name, row in table.items():
            metrics[f"{name}.calls"] = (row["calls"], "count")
            metrics[f"{name}.self_share"] = (row["self_s"] / wall_s, "ratio")
            seconds[name] = {
                "calls": row["calls"],
                "self_s": row["self_s"],
                "total_s": row["total_s"],
                "p50_s": statistics.median(row["durations"]) if row["durations"] else None,
                "errors": row["errors"],
            }
        brl = table["hinf.brl_check"]["calls"]
        feasible = self.counters["hinf.brl_check.feasible"]
        oracle_errors = table["hinf.deterministic_norm_oracle"]["errors"]
        for key in ("riccati.steps", "hinf.bisection_iterations", "sim.run_batch.path_steps"):
            metrics[key] = (int(self.counters[key]), "count")
        metrics["hinf.brl_check.feasible_share"] = (feasible / brl if brl else 0.0, "ratio")
        refused = oracle_errors.get("OracleScopeError", 0)
        metrics["hinf.deterministic_norm_oracle.refused"] = (refused, "count")
        return metrics, seconds
