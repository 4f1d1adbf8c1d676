"""Command-line front end.

Every solver gets a subcommand that reads JSON problem files, prints a short
summary, and (with --out) writes a deterministic file set: report.json,
summary.txt, and any figure or trajectory CSVs.  Identical inputs produce
byte-identical outputs.

Exit codes are stable: 0 success, 2 bad input (parse or model-assumption
failure, or a size above the caps of ``serialize``), 3 solver infeasibility,
4 resolution, floating-point range, enumeration or memory limits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    AssumptionError,
    ControlError,
    DimensionError,
    EnumerationLimitError,
    NotSelfAdjointError,
    ParseError,
    ResolutionError,
)
from .examples import EXAMPLE_IDS, run_example
from .game import GameParams, h2hinf_design, hinf_design, solve_coupled_riccati
from .hinf import brl_check, hinf_norm
from .lq import LQProblem, optimal_policy, solve_lq
from .serialize import (
    MAX_DIM,
    canonical_json,
    operator_to_json,
    parse_cost,
    parse_system,
    parse_vector,
)
from .sim import Policy, _checked_seed, draw_noise_paths, monte_carlo_expectation, simulate
from .systems import ControlledSystem, DisturbedSystem, TwoInputSystem

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_LIMITS = 4


def emit_outputs(report: dict, out_dir, summary_lines: list[str], files=(), texts=None) -> list[str]:
    """Write the deterministic file set and return the manifest.

    ``texts`` maps further file names to their contents; ``files`` names
    files already written under ``out_dir``.
    """
    out = Path(out_dir)
    written = {"report.json": canonical_json(report)}
    if summary_lines:
        written["summary.txt"] = "\n".join(summary_lines) + "\n"
    written.update(texts or {})
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in written.items():
            (out / name).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write outputs under {out}: {exc}") from exc
    return [*written, *files]


def _finish(args, report: dict, summary_lines: list[str], files=(), texts=None) -> None:
    """Write the outputs under ``--out``, if given, then print the summary.

    Writing first means a run whose outputs cannot be written prints nothing
    to stdout before it fails.
    """
    manifest = None
    if args.out is not None:
        manifest = emit_outputs(report, args.out, summary_lines, files, texts)
    for line in summary_lines:
        print(line)
    if manifest is not None:
        print(f"wrote {', '.join(manifest)} to {args.out}")


def _gain_list(gains) -> list:
    return [operator_to_json(g) if g is not None else None for g in gains]


def _require_type(system, wanted, what: str):
    if not isinstance(system, wanted):
        raise ParseError(f"{what} needs a {wanted.KIND!r} system file")
    return system


def cmd_lq_solve(args) -> int:
    system = _require_type(parse_system(args.system), ControlledSystem, "lq-solve")
    cost = parse_cost(args.cost, system)
    x0 = parse_vector(args.x0, system.state_space)
    problem = LQProblem(system, cost, x0)
    sol = solve_lq(problem)
    report = {
        "command": "lq-solve",
        "status": sol.status,
        "value": sol.value,
        "failing_step": sol.failing_step,
        "gains": _gain_list(sol.gains),
        "min_completion_eigs": [c.min_eig if c is not None else None for c in sol.rk_certs],
    }
    lines = [f"status = {sol.status}"]
    if sol.value is not None:
        lines.append(f"value = {sol.value!r}")
    if sol.failing_step is not None:
        lines.append(f"failing step = {sol.failing_step}")
    _finish(args, report, lines)
    return EXIT_OK if sol.solved else EXIT_INFEASIBLE


def cmd_brl_check(args) -> int:
    dsys = _require_type(parse_system(args.system), DisturbedSystem, "brl-check")
    run = brl_check(dsys, args.gamma)
    report = {
        "command": "brl-check",
        "gamma": args.gamma,
        "feasible": run.feasible,
        "failing_step": run.failing_step,
        "completed": run.completed,
        "min_level_eigs": [c.min_eig if c is not None else None for c in run.pi3_certs],
    }
    lines = [f"gamma = {args.gamma!r}", f"feasible = {str(run.feasible).lower()}"]
    if run.failing_step is not None:
        lines.append(f"failing step = {run.failing_step}")
    _finish(args, report, lines)
    return EXIT_OK


def cmd_hinf_norm(args) -> int:
    dsys = _require_type(parse_system(args.system), DisturbedSystem, "hinf-norm")
    est = hinf_norm(dsys, tol=args.tol_gamma)
    report = {
        "command": "hinf-norm",
        "value": est.value,
        "bracket": [est.lo, est.hi],
        "iterations": est.iterations,
        "tol": args.tol_gamma,
    }
    _finish(args, report, [f"norm = {est.value!r}", f"iterations = {est.iterations}"])
    return EXIT_OK


def cmd_nash_solve(args) -> int:
    sys2 = _require_type(parse_system(args.system), TwoInputSystem, "nash-solve")
    x0 = parse_vector(args.x0, sys2.state_space) if args.x0 else None
    sol = solve_coupled_riccati(sys2, GameParams(args.gamma, args.rho), x0)
    report = {
        "command": "nash-solve",
        "gamma": args.gamma,
        "rho": args.rho,
        "status": sol.status,
        "failing_step": sol.failing_step,
        "detail": sol.failing_detail,
        "coupling_residual": sol.coupling_residual,
        "disturbance_gains": _gain_list(sol.v_gains),
        "control_gains": _gain_list(sol.u_gains),
        "j1": sol.j1,
        "j2": sol.j2,
    }
    lines = [f"status = {sol.status}"]
    if sol.j1 is not None:
        lines.append(f"j1 = {sol.j1!r}")
        lines.append(f"j2 = {sol.j2!r}")
    if sol.failing_step is not None:
        lines.append(f"failing step = {sol.failing_step}")
    _finish(args, report, lines)
    return EXIT_OK if sol.solved else EXIT_INFEASIBLE


def cmd_hinf_design(args) -> int:
    sys2 = _require_type(parse_system(args.system), TwoInputSystem, "hinf-design")
    design = hinf_design(sys2, args.gamma)
    verdict = brl_check(design.closed, args.gamma)
    report = {
        "command": "hinf-design",
        "gamma": args.gamma,
        "control_gains": _gain_list(design.solution.u_gains),
        "closed_loop_feasible": verdict.feasible,
    }
    lines = [
        f"gamma = {args.gamma!r}",
        f"closed-loop gain below gamma = {str(verdict.feasible).lower()}",
    ]
    _finish(args, report, lines)
    return EXIT_OK


def cmd_h2hinf_design(args) -> int:
    sys2 = _require_type(parse_system(args.system), TwoInputSystem, "h2hinf-design")
    x0 = parse_vector(args.x0, sys2.state_space)
    design = h2hinf_design(sys2, args.gamma, x0)
    report = {
        "command": "h2hinf-design",
        "gamma": args.gamma,
        "j2": design.solution.j2,
        "control_gains": _gain_list(design.solution.u_gains),
        "diagnostic": design.diagnostic,
    }
    lines = [f"gamma = {args.gamma!r}", f"j2 = {design.solution.j2!r}"]
    if design.diagnostic:
        lines.append(f"note: {design.diagnostic}")
    _finish(args, report, lines)
    return EXIT_OK


def cmd_simulate(args) -> int:
    _checked_seed(args.seed, "--seed")
    system = parse_system(args.system)
    if isinstance(system, TwoInputSystem):
        raise ParseError("simulate needs a controlled or disturbed system file")
    view = system.as_controlled() if isinstance(system, DisturbedSystem) else system
    x0 = parse_vector(args.x0, view.state_space)
    cost = parse_cost(args.cost, view) if args.cost else None
    if cost is not None:
        problem = LQProblem(view, cost, x0)
        policy = optimal_policy(problem, solve_lq(problem))
        policy_kind = "lq-optimal"
    else:
        policy = Policy(view)
        policy_kind = "zero"
    noise = draw_noise_paths(args.seed, 1, view.steps)[0]
    bundle = simulate(system, policy, x0, noise, cost)
    report = {
        "command": "simulate",
        "seed": args.seed,
        "policy": policy_kind,
        "noise": noise.tolist(),
        "pathwise_cost": bundle.cost,
    }
    lines = [f"policy = {policy_kind}", f"seed = {args.seed}"]
    if cost is not None:
        mc = monte_carlo_expectation(view, cost, policy, x0, reps=256, seed=args.seed)
        report["mean_cost"] = mc.mean
        report["half_width"] = mc.half_width
        report["reps"] = mc.reps
        lines.append(f"mean cost = {mc.mean!r} +- {mc.half_width!r} (95%, {mc.reps} reps)")
    texts = {}
    if args.out is not None:
        rows = ["k,coordinate,value"]
        for k in range(bundle.states.shape[0]):
            for i in range(bundle.states.shape[1]):
                rows.append(f"{k},{i},{float(bundle.states[k, i])!r}")
        texts["trajectory.csv"] = "\n".join(rows) + "\n"
    _finish(args, report, lines, texts=texts)
    return EXIT_OK


def cmd_example(args) -> int:
    if args.dim is not None and not 0 < args.dim <= MAX_DIM:
        raise ParseError(f"--dim must be between 1 and {MAX_DIM}, got {args.dim}")
    report = run_example(args.id, out_dir=args.out, dim=args.dim)
    lines = [f"example = {report.example_id}"]
    for comp in report.comparisons:
        verdict = "ok" if comp.ok else "MISMATCH"
        lines.append(
            f"{comp.name}: computed={comp.computed!r} reference={comp.reference!r} "
            f"error={comp.error:.3e} tol={comp.tol:g} [{verdict}]"
        )
    _finish(args, report.to_json(), lines, list(report.files))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hscontrol",
        description="Finite-horizon control and attenuation for linear systems with multiplicative noise.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, **flags):
        p = sub.add_parser(name)
        if flags.get("system"):
            p.add_argument("--system", required=True, help="system JSON file")
        if flags.get("cost") == "required":
            p.add_argument("--cost", required=True, help="cost JSON file")
        elif flags.get("cost"):
            p.add_argument("--cost", help="cost JSON file")
        if flags.get("x0") == "required":
            p.add_argument("--x0", required=True, help="initial state JSON file")
        elif flags.get("x0"):
            p.add_argument("--x0", help="initial state JSON file")
        if flags.get("gamma"):
            p.add_argument("--gamma", type=float, required=True, help="attenuation level")
        if flags.get("rho"):
            p.add_argument("--rho", type=float, default=0.0, help="state penalty level")
        if flags.get("seed"):
            p.add_argument("--seed", type=int, default=0, help="noise seed")
        if flags.get("tol_gamma"):
            p.add_argument("--tol-gamma", type=float, default=1e-6, help="bisection tolerance")
        p.add_argument("--out", help="output directory")
        p.set_defaults(func=func)
        return p

    add("lq-solve", cmd_lq_solve, system=True, cost="required", x0="required")
    add("brl-check", cmd_brl_check, system=True, gamma=True)
    add("hinf-norm", cmd_hinf_norm, system=True, tol_gamma=True)
    add("nash-solve", cmd_nash_solve, system=True, gamma=True, rho=True, x0=True)
    add("hinf-design", cmd_hinf_design, system=True, gamma=True)
    add("h2hinf-design", cmd_h2hinf_design, system=True, gamma=True, x0="required")
    add("simulate", cmd_simulate, system=True, cost=True, x0="required", seed=True)
    p_ex = sub.add_parser("example")
    p_ex.add_argument("id", help=f"one of {', '.join(EXAMPLE_IDS)}")
    p_ex.add_argument("--dim", type=int, help="state truncation override")
    p_ex.add_argument("--out", help="output directory")
    p_ex.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, AssumptionError, DimensionError, NotSelfAdjointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ResolutionError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMITS
    except MemoryError:
        print("error: out of memory; reduce the dimensions or the horizon", file=sys.stderr)
        return EXIT_LIMITS
    except ControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
