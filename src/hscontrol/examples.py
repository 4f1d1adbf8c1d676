"""Reference problem gallery with recorded anchor values.

Four worked systems exercise every solver end to end:

* ``ex1``        a smoothed line signal regulated by two scalar pushes;
* ``ex2-case*``  temperature control of a heated rod in sine modes;
* ``ex3``        a shift network whose disturbance gain has a closed form;
* ``ex4``        a rank-one coupled game solvable by hand.

Each runner builds its operators from first principles, solves, compares
against the recorded reference values, and (given an output directory)
writes figure data as CSV with a header row.  Comparisons always carry the
computed and reference values side by side.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .errors import ParseError, ResolutionError
from .game import GameParams, solve_coupled_riccati
from .hinf import brl_check, hinf_norm
from .lq import LQProblem, optimal_policy, solve_lq
from .operators import (
    DenseOperator,
    FillingOperator,
    GaussianConvolutionOperator,
    HeatSemigroupOperator,
    IdentityOperator,
    RightShiftOperator,
    ScaledOperator,
    ZeroOperator,
)
from .sim import simulate
from .spaces import HVector, ell2, euclidean, inner, l2_interval, l2_line
from .systems import ControlledSystem, CostSpec, DisturbedSystem, TwoInputSystem

EXAMPLE_IDS = ("ex1", "ex2-case1", "ex2-case2", "ex2-case3", "ex3", "ex4")

# recorded reference values for the four problems
SMOOTHING_COST = 24.052
SMOOTHING_INPUTS = (-0.63, 0.0)
# Published heat figures (inputs, value).  The plant of build_heat_problem
# does not produce them: case 1's value is above 20895.98, the cost of no
# input at all, and the published inputs cost 20169.0, 18499.7 and 79222.8
# on this plant, not the published values.  No other noise-free plant with
# HEAT_WEIGHTS does either: optima of one plant satisfy
# J1 = J2 + <u1, u2> and J3 = 5 J2 - <u3, u2>, which these figures miss by
# 385 and 5253.  They are kept for comparison; the reports mark them
# MISMATCH.
HEAT_REFERENCE = {
    1: ((-33.3, -6.8, -2.5), 22471.0),
    2: ((-122.4, -0.03, -0.01), 18010.0),
    3: ((-270.1, 6.2, 20.1), 62243.0),
}
SHIFT_NORM = float(3.0 * np.sqrt(5.0) / 4.0)

# waveform parameters of the ex1 input profile cos(kappa*carrier - omega*t)
WAVE_KAPPA = np.pi
WAVE_CARRIER = 2.0
WAVE_OMEGA = 0.1 * np.pi
WAVE_PHASE = 0.0


@dataclass(frozen=True)
class Comparison:
    """One computed-versus-reference line of an example report."""

    name: str
    computed: float
    reference: float
    tol: float
    mode: str  # "rel" or "abs"

    def __post_init__(self):
        object.__setattr__(self, "computed", float(self.computed))
        object.__setattr__(self, "reference", float(self.reference))
        object.__setattr__(self, "tol", float(self.tol))

    @property
    def error(self) -> float:
        gap = abs(self.computed - self.reference)
        if self.mode == "rel" and self.reference != 0.0:
            return gap / abs(self.reference)
        return gap

    @property
    def ok(self) -> bool:
        return self.error <= self.tol

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "computed": self.computed,
            "reference": self.reference,
            "error": self.error,
            "tol": self.tol,
            "mode": self.mode,
            "ok": self.ok,
        }


@dataclass
class ExampleReport:
    example_id: str
    comparisons: list[Comparison]
    quantities: dict
    files: list[str]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.comparisons)

    def to_json(self) -> dict:
        return {
            "example": self.example_id,
            "ok": self.ok,
            "comparisons": [c.to_json() for c in self.comparisons],
            "quantities": self.quantities,
            "files": self.files,
        }


def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> str:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
    return path.name


def build_smoothing_problem() -> LQProblem:
    """Two-push regulator for a Gaussian bump on the line.

    The signal lives on the fixed grid of spacing 0.05 over [-10, 10].  The
    free dynamics convolve it with a unit-width Gaussian kernel; each
    scalar input adds a cosine waveform supported on [-1, 1].  Stage
    weights are 10 on the signal and 1 on the input, with no terminal term,
    which is what makes the second push vanish at the optimum.
    """
    hs = l2_line(10.0, 0.05)
    us = euclidean(1)
    t = hs.grid()
    wave = np.cos(WAVE_KAPPA * WAVE_CARRIER - WAVE_OMEGA * t + WAVE_PHASE)
    wave[np.abs(t) > 1.0] = 0.0
    system = ControlledSystem(
        hs,
        us,
        1,
        GaussianConvolutionOperator(hs, 1.0),
        DenseOperator(wave[:, None], us, hs),
        ZeroOperator(hs),
        ZeroOperator(us, hs),
    )
    cost = CostSpec(
        system,
        ScaledOperator(10.0, IdentityOperator(hs)),
        ZeroOperator(hs, us),
        IdentityOperator(us),
        ZeroOperator(hs),
    )
    x0 = HVector(hs, np.exp(-(t**2) / 2.0))
    return LQProblem(system, cost, x0)


def run_smoothing(out_dir: Path | None = None) -> ExampleReport:
    problem = build_smoothing_problem()
    solution = solve_lq(problem)
    policy = optimal_policy(problem, solution)
    # the reported cost weighs the final signal like every other step, even
    # though the synthesis carries no terminal weight
    report_cost = CostSpec(
        problem.system,
        problem.cost.m(0),
        ZeroOperator(problem.system.state_space, problem.system.control_space),
        problem.cost.r(0),
        ScaledOperator(10.0, IdentityOperator(problem.system.state_space)),
    )
    bundle = simulate(problem.system, policy, problem.x0, np.zeros(2), report_cost)
    u0 = float(bundle.controls[0][0])
    u1 = float(bundle.controls[1][0])
    comparisons = [
        Comparison("cost", bundle.cost, SMOOTHING_COST, 0.01, "rel"),
        Comparison("u(0)", u0, SMOOTHING_INPUTS[0], 0.01, "abs"),
        Comparison("u(1)", u1, SMOOTHING_INPUTS[1], 1e-6, "abs"),
    ]
    files = []
    if out_dir is not None:
        t = problem.system.state_space.grid()
        rows = zip(t, bundle.states[0], bundle.states[2])
        files.append(_write_csv(Path(out_dir) / "ex1_signals.csv", ["t", "initial", "final"], rows))
    quantities = {
        "cost": bundle.cost,
        "inputs": [u0, u1],
        "synthesis_value": solution.value,
    }
    return ExampleReport("ex1", comparisons, quantities, files)


HEAT_WEIGHTS = {1: (10.0, 1.0, 10.0), 2: (10.0, 0.0, 10.0), 3: (50.0, -1.0, 50.0)}


def build_heat_problem(case: int, modes: int = 64) -> LQProblem:
    """Temperature control of a unit rod over three steps.

    The rod state lives in sine-mode coordinates; the free dynamics are the
    heat semigroup over one time unit with diffusivity 0.1, and the scalar
    input adds the profile x(1-x).  The three cases differ only in the
    quadratic weights (state, input, terminal), the last one indefinite.
    """
    if case not in HEAT_WEIGHTS:
        raise ParseError(f"unknown heat case {case!r}")
    if modes < 16:
        raise ResolutionError("fewer than 16 modes misstate the input profile")
    hs = l2_interval(1.0, modes)
    us = euclidean(1)
    n = hs.mode_index().astype(float)
    profile = np.where(n % 2 == 1, 4.0 * np.sqrt(2.0) / (n * np.pi) ** 3, 0.0)
    system = ControlledSystem(
        hs,
        us,
        2,
        HeatSemigroupOperator(hs, 0.1, 1.0),
        DenseOperator(profile[:, None], us, hs),
        ZeroOperator(hs),
        ZeroOperator(us, hs),
    )
    mw, rw, sw = HEAT_WEIGHTS[case]
    cost = CostSpec(
        system,
        ScaledOperator(mw, IdentityOperator(hs)),
        ZeroOperator(hs, us),
        DenseOperator(np.array([[rw]]), us),
        ScaledOperator(sw, IdentityOperator(hs)),
    )
    t0 = np.zeros(modes)
    t0[0] = 30.0 * np.sqrt(2.0)  # 60 sin(pi x) against the orthonormal mode
    return LQProblem(system, cost, HVector(hs, t0))


def run_heat(case: int, out_dir: Path | None = None, modes: int = 64) -> ExampleReport:
    problem = build_heat_problem(case, modes)
    solution = solve_lq(problem)
    policy = optimal_policy(problem, solution)
    bundle = simulate(problem.system, policy, problem.x0, np.zeros(3), problem.cost)
    inputs = [float(u[0]) for u in bundle.controls]
    ref_inputs, ref_value = HEAT_REFERENCE[case]
    comparisons = [
        Comparison(f"u({k})", inputs[k], ref_inputs[k], 0.01, "rel") for k in range(3)
    ]
    comparisons.append(Comparison("cost", solution.value, ref_value, 0.01, "rel"))
    files = []
    if out_dir is not None:
        x = np.linspace(0.0, 1.0, 101)
        n = problem.system.state_space.mode_index().astype(float)
        synth = np.sqrt(2.0) * np.sin(np.outer(x, n) * np.pi)
        field = synth @ bundle.states.T  # (points, steps+1)
        rows = (np.concatenate(([x[i]], field[i])) for i in range(x.size))
        files.append(
            _write_csv(
                Path(out_dir) / f"ex2-case{case}_temperature.csv",
                ["x", "T0", "T1", "T2", "T3"],
                rows,
            )
        )
    quantities = {
        "status": solution.status,
        "inputs": inputs,
        "value": solution.value,
        "pathwise_cost": bundle.cost,
    }
    return ExampleReport(f"ex2-case{case}", comparisons, quantities, files)


def build_shift_network(dim: int = 64) -> DisturbedSystem:
    """Six-step network of compression shifts with a four-channel disturbance.

    Odd steps push the state one slot right at weight sqrt(2)/2 and inject
    the disturbance into the leading four slots; even steps only compress by
    sqrt(2)/4.  The noise map mirrors the drift at every step.  The
    penalized output is the shifted state plus the first disturbance
    channel, so the feedthrough never overlaps the state term.
    """
    if dim < 12:
        raise ResolutionError("state truncation below 12 misstates the network gain")
    hs = ell2(dim)
    vs = euclidean(4)
    shift = RightShiftOperator(hs)
    odd_drift = ScaledOperator(np.sqrt(2.0) / 2.0, shift)
    even_drift = ScaledOperator(np.sqrt(2.0) / 4.0, IdentityOperator(hs))
    odd_inject = ScaledOperator(np.sqrt(2.0) / 2.0, FillingOperator(vs, hs, 4))
    no_inject = ZeroOperator(vs, hs)
    drift = [even_drift, odd_drift, even_drift, odd_drift, even_drift, odd_drift]
    inject = [no_inject, odd_inject, no_inject, odd_inject, no_inject, odd_inject]
    return DisturbedSystem(
        hs,
        vs,
        hs,
        5,
        drift,
        inject,
        list(drift),
        list(inject),
        shift,
        FillingOperator(vs, hs, 1),
    )


def shift_rho_min(step: int, gamma: float) -> float:
    """Closed-form smallest eigenvalue of the level test at each step."""
    if step in (0, 2, 4, 5):
        return gamma**2 - 1.0
    if step == 3:
        return gamma**2 - 9.0 / 4.0
    if step == 1:
        return gamma**2 - 41.0 / 16.0 - 25.0 / (64.0 * (gamma**2 - 5.0 / 4.0))
    raise ParseError(f"no closed form for step {step}")


def run_shift_network(out_dir: Path | None = None, dim: int = 64) -> ExampleReport:
    dsys = build_shift_network(dim)
    estimate = hinf_norm(dsys, tol=1e-6)
    grid = np.linspace(1.3, 2.5, 20)
    groups = {"steps 0,2,4,5": (0, 2, 4, 5), "step 3": (3,), "step 1": (1,)}
    worst = {name: 0.0 for name in groups}
    rows = []
    for gamma in grid:
        run = brl_check(dsys, float(gamma))
        for step in range(dsys.steps):
            computed = run.min_pi3_eig(step)
            closed = shift_rho_min(step, float(gamma))
            rows.append((gamma, step, computed, closed))
            for name, steps in groups.items():
                if step in steps:
                    worst[name] = max(worst[name], abs(computed - closed))
    comparisons = [Comparison("gain", estimate.value, SHIFT_NORM, 1e-4, "abs")]
    for name in groups:
        comparisons.append(
            Comparison(f"level-test eigenvalue dev, {name}", worst[name], 0.0, 1e-10, "abs")
        )
    files = []
    if out_dir is not None:
        files.append(
            _write_csv(
                Path(out_dir) / "ex3_feasibility_margins.csv",
                ["gamma", "step", "computed", "closed_form"],
                ((g, int(s), c, f) for g, s, c, f in rows),
            )
        )
    quantities = {
        "gain": estimate.value,
        "gain_reference": float(SHIFT_NORM),
        "bisection_iterations": estimate.iterations,
    }
    return ExampleReport("ex3", comparisons, quantities, files)


def build_coupled_game(dim: int = 64) -> tuple[TwoInputSystem, HVector]:
    """One-step game on a rank-one network: halve, inject, shift.

    Both players act through the leading coordinate; the drift and the noise
    map both halve the state and add the two inputs.  The penalized output
    shifts the state right into a one-larger truncation, which keeps the
    shift an exact isometry, with the control feedthrough slot staying
    clean.  The initial state is the geometric profile (1, 1/sqrt(2), ...).
    """
    if dim < 8:
        raise ResolutionError("state truncation below 8 distorts the game values")
    hs = ell2(dim)
    vs = euclidean(1)
    us = euclidean(1)
    zs = ell2(dim + 1)
    half = ScaledOperator(0.5, IdentityOperator(hs))
    inject_v = FillingOperator(vs, hs, 1)
    inject_u = FillingOperator(us, hs, 1)
    sys2 = TwoInputSystem(
        hs,
        vs,
        us,
        zs,
        1,
        half,
        inject_v,
        inject_u,
        half,
        inject_v,
        inject_u,
        RightShiftOperator(hs, zs),
        FillingOperator(us, zs, 1),
    )
    x0 = HVector(hs, np.sqrt(0.5) ** np.arange(dim))
    return sys2, x0


def closed_game_forms(gamma: float, rho: float, dim: int) -> dict:
    """Hand-solved iterates and gains of the rank-one game."""
    den = 3.0 * gamma**2 - 2.0
    u1 = 1.0 / den
    u2 = -(gamma**2) / den
    o1 = -u1 - 2.0 * u2 - 2.0 * u1 * u2 - 3.0 * u2**2
    o2 = 2.0 * u1 + u2 + 2.0 * u1 * u2 + (2.0 - rho**2) * u1**2
    lead = np.zeros((dim, dim))
    lead[0, 0] = 1.0
    eye = np.eye(dim)
    return {
        "p1": -1.5 * eye + o1 * lead,
        "p2": 1.5 * eye + o2 * lead,
        "k1": u1,
        "k2": u2,
        "omega": (o1, o2),
    }


def nash_value_surface(sys2: TwoInputSystem, x0: HVector, gammas, rhos):
    """Game values over a (gamma, rho) grid; cells solve independently."""
    gammas = np.asarray(gammas, dtype=float)
    rhos = np.asarray(rhos, dtype=float)
    j1 = np.zeros((gammas.size, rhos.size))
    j2 = np.zeros_like(j1)

    for i, j in product(range(gammas.size), range(rhos.size)):
        sol = solve_coupled_riccati(sys2, GameParams(gammas[i], rhos[j]), x0)
        j1[i, j] = sol.j1
        j2[i, j] = sol.j2
    return j1, j2


def run_coupled_game(out_dir: Path | None = None, dim: int = 64) -> ExampleReport:
    sys2, x0 = build_coupled_game(dim)
    hs = sys2.state_space
    worst = {"P1(0)": 0.0, "P2(0)": 0.0, "K1(0)": 0.0, "K2(0)": 0.0}
    for gamma, rho in product((2.0, 2.5, 3.0), (0.0, 0.5, 1.0)):
        sol = solve_coupled_riccati(sys2, GameParams(gamma, rho), x0)
        forms = closed_game_forms(gamma, rho, hs.dim)
        worst["P1(0)"] = max(worst["P1(0)"], np.linalg.norm(sol.p1[0].matrix - forms["p1"], 2))
        worst["P2(0)"] = max(worst["P2(0)"], np.linalg.norm(sol.p2[0].matrix - forms["p2"], 2))
        k1 = sol.v_gains[0].matrix.copy()
        k2 = sol.u_gains[0].matrix.copy()
        k1[0, 0] -= forms["k1"]
        k2[0, 0] -= forms["k2"]
        worst["K1(0)"] = max(worst["K1(0)"], float(np.max(np.abs(k1))))
        worst["K2(0)"] = max(worst["K2(0)"], float(np.max(np.abs(k2))))
    zero_sum = 0.0
    for level in (2.0, 2.5, 3.0):
        sol = solve_coupled_riccati(sys2, GameParams(level, level), x0)
        for k in range(sys2.steps + 1):
            zero_sum = max(zero_sum, np.linalg.norm(sol.p1[k].matrix + sol.p2[k].matrix, 2))
    spot = solve_coupled_riccati(sys2, GameParams(2.0, 0.0), x0)
    # reference values depend on the truncation through |x0|^2 = 2(1 - 2^-dim)
    o1, o2 = closed_game_forms(2.0, 0.0, hs.dim)["omega"]
    x0_sq = inner(x0, x0)
    j1_ref = -1.5 * x0_sq + o1
    j2_ref = 1.5 * x0_sq + o2
    comparisons = [
        Comparison(f"{name} dev over 9-point grid", dev, 0.0, 1e-10, "abs")
        for name, dev in worst.items()
    ]
    comparisons.append(Comparison("zero-sum residual", zero_sum, 0.0, 1e-10, "abs"))
    comparisons.append(Comparison("J1 at (2, 0)", spot.j1, j1_ref, 1e-10, "abs"))
    comparisons.append(Comparison("J2 at (2, 0)", spot.j2, j2_ref, 1e-10, "abs"))
    files = []
    if out_dir is not None:
        gammas = np.linspace(2.0, 3.0, 11)
        rhos = np.linspace(0.0, 1.0, 11)
        j1, j2 = nash_value_surface(sys2, x0, gammas, rhos)
        rows = (
            (gammas[i], rhos[j], j1[i, j], j2[i, j])
            for i in range(gammas.size)
            for j in range(rhos.size)
        )
        files.append(
            _write_csv(Path(out_dir) / "ex4_value_surface.csv", ["gamma", "rho", "j1", "j2"], rows)
        )
    quantities = {
        "j1": spot.j1,
        "j2": spot.j2,
        "gains": [float(spot.v_gains[0].matrix[0, 0]), float(spot.u_gains[0].matrix[0, 0])],
    }
    return ExampleReport("ex4", comparisons, quantities, files)


def run_example(example_id: str, out_dir=None, dim: int | None = None) -> ExampleReport:
    """Solve one gallery problem and compare against its recorded values."""
    out = Path(out_dir) if out_dir is not None else None
    if example_id == "ex1":
        if dim is not None:
            raise ParseError(f"--dim does not apply to ex1, whose grid is fixed; got {dim}")
        return run_smoothing(out)
    if example_id.startswith("ex2-case"):
        case = example_id.removeprefix("ex2-case")
        if case in ("1", "2", "3"):
            kwargs = {"modes": dim} if dim is not None else {}
            return run_heat(int(case), out, **kwargs)
    if example_id == "ex3":
        kwargs = {"dim": dim} if dim is not None else {}
        return run_shift_network(out, **kwargs)
    if example_id == "ex4":
        kwargs = {"dim": dim} if dim is not None else {}
        return run_coupled_game(out, **kwargs)
    raise ParseError(f"unknown example id {example_id!r}; expected one of {', '.join(EXAMPLE_IDS)}")
