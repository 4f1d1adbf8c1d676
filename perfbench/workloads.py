"""The benchmark's three workloads.

Each workload has a ``setup(seed)`` that generates, builds and validates its
inputs, a ``study(inputs)`` that makes the fixed sequence of library calls
and returns plain results, and a ``check(inputs, results, log)`` that compares
every result with a value computed independently of the call that made it.
The seed only shapes the inputs; the amount of work in a study does not
depend on it, so that run-to-run spread measures the machine, not the seed.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple

import numpy as np

import hscontrol as hc
from hscontrol import examples, serialize

from checks import CheckLog

# ---------------------------------------------------------------- structured

SHIFT_DIM = 256
HEAT_MODES = 256
HEAT_CASES = (1, 2, 3)
SWEEP_LEVELS = 6
WEIGHT_SCALINGS = 8
SHIFT_GAIN = 3.0 * math.sqrt(5.0) / 4.0  # closed form of the network's gain


def _scaled_problem(problem: hc.LQProblem, c: float) -> hc.LQProblem:
    cost = problem.cost
    steps = problem.system.steps
    scaled = hc.CostSpec(
        problem.system,
        [hc.ScaledOperator(c, cost.m(k)) for k in range(steps)],
        [hc.ScaledOperator(c, cost.l(k)) for k in range(steps)],
        [hc.ScaledOperator(c, cost.r(k)) for k in range(steps)],
        hc.ScaledOperator(c, cost.terminal),
    )
    return hc.LQProblem(problem.system, scaled, problem.x0)


def structured_setup(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    levels = rng.uniform(1.3, 2.5, SWEEP_LEVELS)
    scalings = np.exp(rng.uniform(math.log(0.25), math.log(4.0), WEIGHT_SCALINGS))
    heat = []
    for case in HEAT_CASES:
        base = examples.build_heat_problem(case, HEAT_MODES)
        heat.append((case, 1.0, base))
        heat.extend((case, float(c), _scaled_problem(base, float(c))) for c in scalings)
    return {
        "network": examples.build_shift_network(SHIFT_DIM),
        "levels": [float(g) for g in levels],
        "heat": heat,
    }


def structured_study(inputs: dict) -> dict:
    dsys = inputs["network"]
    gain = hc.hinf_norm(dsys, tol=1e-6)
    sweep = []
    for gamma in inputs["levels"]:
        run = hc.brl_check(dsys, gamma)
        sweep.append((gamma, [run.min_pi3_eig(k) for k in range(dsys.steps)]))
    heat = []
    for case, c, problem in inputs["heat"]:
        sol = hc.solve_lq(problem)
        csq = hc.completing_square_check(problem, sol, hc.optimal_policy(problem, sol))
        heat.append((case, c, sol.status, sol.value, csq.residual))
    return {"gain": gain.value, "sweep": sweep, "heat": heat}


def structured_check(inputs: dict, results: dict, log: CheckLog) -> None:
    log.close("structured.gain", results["gain"], SHIFT_GAIN, atol=1e-4)
    for gamma, eigs in results["sweep"]:
        worst = max(abs(e - examples.shift_rho_min(k, gamma)) for k, e in enumerate(eigs))
        log.close(f"structured.rho_min(gamma={gamma:.6f})", worst, 0.0, atol=1e-10)
    recorded = {case: value for case, c, _, value, _ in results["heat"] if c == 1.0}
    for case, c, status, value, residual in results["heat"]:
        tag = f"structured.heat(case={case}, scale={c:.6f})"
        if not log.equal(f"{tag}.status", status, hc.STATUS_SOLVED):
            continue
        log.close(f"{tag}.square_completion", residual, 0.0, atol=1e-8 * (1.0 + abs(value)))
        if c != 1.0:
            log.close(f"{tag}.value_scaling", value, c * recorded[case], rtol=1e-10)


def structured_trace_check(counts: dict, log: CheckLog) -> None:
    log.equal(
        "structured.trace.brl_check_calls",
        counts["hinf.brl_check.calls"],
        counts["hinf.bisection_iterations"] + SWEEP_LEVELS,
    )


# ---------------------------------------------------------------- dense-game

GAME_DIM = 96
GAME_INPUTS = 4
GAME_HORIZON = 7
GAME_FACTORS = (1.1, 1.25, 1.5)
GAME_GRID = 5
NASH_DEVIATIONS = 20
# A fixed bisection bracket makes every gain computation take the same
# number of feasibility tests at every seed.
GAIN_BRACKET = 16.0
GAIN_TOL = 1e-6


def _random_family(rng, steps: int, var: float, dom, hs) -> list:
    """One dense map into the state space per step, entries N(0, var / dim)."""
    scale, shape = math.sqrt(var / hs.dim), (hs.dim, dom.dim)
    return [hc.DenseOperator(rng.normal(0.0, scale, shape), dom, hs) for _ in range(steps)]


def _dense_game_system(seed: int) -> tuple[hc.TwoInputSystem, hc.HVector]:
    rng = np.random.default_rng(seed)
    n, m = GAME_DIM, GAME_INPUTS
    steps = GAME_HORIZON + 1
    hs, vs, us, zs = hc.ell2(n), hc.euclidean(m), hc.euclidean(m), hc.euclidean(n + m)
    cbar = np.zeros((n + m, n))
    cbar[:n] = 0.5 * np.eye(n)
    gbar = np.zeros((n + m, m))
    gbar[n:] = np.eye(m)
    sys2 = hc.TwoInputSystem(
        hs,
        vs,
        us,
        zs,
        GAME_HORIZON,
        _random_family(rng, steps, 0.81, hs, hs),
        _random_family(rng, steps, 1.0, vs, hs),
        _random_family(rng, steps, 1.0, us, hs),
        _random_family(rng, steps, 0.09, hs, hs),
        _random_family(rng, steps, 0.09, vs, hs),
        _random_family(rng, steps, 0.09, us, hs),
        hc.DenseOperator(cbar, hs, zs),
        hc.DenseOperator(gbar, us, zs),
    )
    x0 = hc.HVector(hs, rng.standard_normal(n) / math.sqrt(n))
    return sys2, x0


def dense_game_build(seed: int) -> dict:
    sys2, x0 = _dense_game_system(seed)
    return {"system": sys2, "x0": x0, "seed": seed}


def dense_game_setup(seed: int) -> dict:
    """The built system goes through JSON and the parsed copy is studied."""
    inputs = dense_game_build(seed)
    built = inputs["system"]
    text = serialize.canonical_json(hc.system_to_json(built))
    return {**inputs, "system": hc.system_from_json(json.loads(text)), "built": built}


def _gain(dsys: hc.DisturbedSystem) -> float:
    return hc.hinf_norm(dsys, lo=0.0, hi=GAIN_BRACKET, tol=GAIN_TOL).value


def dense_game_study(inputs: dict) -> dict:
    sys2, x0 = inputs["system"], inputs["x0"]
    zero = [hc.ZeroOperator(sys2.state_space, sys2.control_space)] * sys2.steps
    g0 = _gain(hc.closed_loop(sys2, zero))
    levels = []
    for f in GAME_FACTORS:
        gamma = f * g0
        design = hc.hinf_design(sys2, gamma)
        mixed = hc.h2hinf_design(sys2, gamma, x0)
        params = hc.GameParams(gamma, 0.5 * gamma)
        sol = hc.solve_coupled_riccati(sys2, params, x0)
        nash = hc.verify_nash_equilibrium(
            sys2, params, sol, x0, deviations=NASH_DEVIATIONS, seed=inputs["seed"]
        )
        p1, p2 = design.solution.p1[0].matrix, design.solution.p2[0].matrix
        levels.append(
            {
                "gamma": gamma,
                "design_gain": _gain(design.closed),
                "mixed_gain": _gain(mixed.closed),
                "zero_sum_gap": float(np.linalg.norm(p1 + p2, 2)),
                "p_scale": float(np.linalg.norm(p2, 2)),
                "nash": nash,
            }
        )
    grid = []
    for gamma in g0 * np.linspace(GAME_FACTORS[0], GAME_FACTORS[-1], GAME_GRID):
        for rho in gamma * np.linspace(0.0, 1.0, GAME_GRID):
            sol = hc.solve_coupled_riccati(sys2, hc.GameParams(float(gamma), float(rho)), x0)
            grid.append((float(gamma), float(rho), sol.status, sol.j1, sol.j2))
    return {"g0": g0, "levels": levels, "grid": grid}


def _operators_equal(a: hc.OperatorFamily, b: hc.OperatorFamily) -> bool:
    return all(np.array_equal(a(k).matrix, b(k).matrix) for k in range(a.steps))


def dense_game_check(inputs: dict, results: dict, log: CheckLog) -> None:
    if "built" in inputs:
        built, parsed = inputs["built"], inputs["system"]
        for name in ("a", "b1", "b2", "c", "d1", "d2", "cbar", "gbar"):
            log.record(
                f"dense-game.json_roundtrip.{name}",
                _operators_equal(getattr(built, name), getattr(parsed, name)),
                "matrices differ after the JSON round trip",
            )
    for lv in results["levels"]:
        tag = f"dense-game(gamma={lv['gamma']:.6f})"
        log.below(f"{tag}.design_gain", lv["design_gain"], lv["gamma"])
        log.below(f"{tag}.mixed_gain", lv["mixed_gain"], lv["gamma"])
        log.close(f"{tag}.zero_sum", lv["zero_sum_gap"], 0.0, atol=1e-8 * (1.0 + lv["p_scale"]))
        nash = lv["nash"]
        for player, margin, value in (
            (1, nash.worst_j1_margin, nash.j1_star),
            (2, nash.worst_j2_margin, nash.j2_star),
        ):
            log.at_least(f"{tag}.nash_j{player}_margin", margin, -1e-8 * (1.0 + abs(value)))
    for gamma, rho, status, j1, j2 in results["grid"]:
        tag = f"dense-game.grid(gamma={gamma:.6f}, rho={rho:.6f})"
        if log.equal(f"{tag}.status", status, hc.STATUS_SOLVED):
            finite = math.isfinite(j1) and math.isfinite(j2)
            log.record(f"{tag}.values", finite, f"j1={j1}, j2={j2}")


def dense_game_trace_check(counts: dict, log: CheckLog) -> None:
    gains = 1 + 2 * len(GAME_FACTORS)
    tests = 1 + math.ceil(math.log2(GAIN_BRACKET / GAIN_TOL))  # bracket check, then halvings
    for key in ("hinf.bisection_iterations", "hinf.brl_check.calls"):
        log.equal(f"dense-game.trace.{key}", counts[key], gains * tests)
    log.equal(
        "dense-game.trace.coupled_solves",
        counts["game.solve_coupled_riccati.calls"],
        3 * len(GAME_FACTORS) + GAME_GRID**2,
    )


# ---------------------------------------------------------------- expectation

EXP_DIM = 32
EXP_INPUTS = 2
EXP_HORIZON = 13
MC_REPS = 40_000


def expectation_setup(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n, m = EXP_DIM, EXP_INPUTS
    steps = EXP_HORIZON + 1
    hs, us = hc.ell2(n), hc.euclidean(m)
    system = hc.ControlledSystem(
        hs,
        us,
        EXP_HORIZON,
        _random_family(rng, steps, 0.81, hs, hs),
        _random_family(rng, steps, 1.0, us, hs),
        _random_family(rng, steps, 0.09, hs, hs),
        _random_family(rng, steps, 0.09, us, hs),
    )
    cost = hc.CostSpec(
        system,
        hc.IdentityOperator(hs),
        hc.ZeroOperator(hs, us),
        hc.IdentityOperator(us),
        hc.IdentityOperator(hs),
    )
    x0 = hc.HVector(hs, rng.standard_normal(n))
    return {
        "problem": hc.LQProblem(system, cost, x0),
        "gain_shift": [0.1 * rng.standard_normal((m, n)) / math.sqrt(n) for _ in range(steps)],
        "offsets": [0.1 * rng.standard_normal(m) for _ in range(steps)],
        "seed": seed,
    }


def expectation_study(inputs: dict) -> dict:
    problem = inputs["problem"]
    system, hs, us = problem.system, problem.system.state_space, problem.system.control_space
    sol = hc.solve_lq(problem)
    policy = hc.optimal_policy(problem, sol)
    exact = hc.expected_cost(problem, policy)
    shifted = [
        hc.DenseOperator(g.matrix + d, hs, us) for g, d in zip(sol.gains, inputs["gain_shift"])
    ]
    perturbed = hc.Policy(system, gains=shifted, inputs=inputs["offsets"])
    csq = hc.completing_square_check(problem, sol, perturbed)
    mc = hc.monte_carlo_expectation(
        system, problem.cost, policy, problem.x0, MC_REPS, seed=inputs["seed"]
    )
    return {
        "status": sol.status,
        "value": sol.value,
        "exact": exact.value,
        "csq_expected": csq.expected,
        "csq_residual": csq.residual,
        "mc_mean": mc.mean,
        "mc_std_error": mc.std_error,
    }


def expectation_check(inputs: dict, results: dict, log: CheckLog) -> None:
    log.equal("expectation.status", results["status"], hc.STATUS_SOLVED)
    log.close("expectation.enumerated_vs_lq", results["exact"], results["value"], rtol=1e-9)
    log.close(
        "expectation.square_completion",
        results["csq_residual"],
        0.0,
        atol=1e-8 * abs(results["csq_expected"]),
    )
    log.close(
        "expectation.monte_carlo",
        results["mc_mean"],
        results["exact"],
        atol=4.0 * results["mc_std_error"],
    )


def expectation_trace_check(counts: dict, log: CheckLog) -> None:
    steps = EXP_HORIZON + 1
    # three enumerations (optimal cost, then the perturbed cost and its
    # excess), one Monte Carlo batch
    log.equal(
        "expectation.trace.run_batch_path_steps",
        counts["sim.run_batch.path_steps"],
        3 * 2**steps * steps + MC_REPS * steps,
    )


class Workload(NamedTuple):
    setup: Callable[[int], dict]  # what a caller pays before the study
    build: Callable[[int], dict]  # fresh inputs equal to setup's, for further studies
    study: Callable[[dict], dict]
    check: Callable[[dict, dict, CheckLog], None]
    trace_check: Callable[[dict, CheckLog], None]  # exact counts of a traced study


WORKLOADS = {
    "structured": Workload(
        structured_setup,
        structured_setup,
        structured_study,
        structured_check,
        structured_trace_check,
    ),
    "dense-game": Workload(
        dense_game_setup,
        dense_game_build,
        dense_game_study,
        dense_game_check,
        dense_game_trace_check,
    ),
    "expectation": Workload(
        expectation_setup,
        expectation_setup,
        expectation_study,
        expectation_check,
        expectation_trace_check,
    ),
}
