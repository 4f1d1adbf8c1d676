"""Finite-horizon linear-quadratic control with multiplicative noise.

The optimal feedback and value come straight from the backward recursion, so
a solve returns that recursion's record: if every completion term is
uniformly positive, u(k) = K(k) x(k) minimizes the expected cost and the
minimum equals <P(0) x0, x0>.  With indefinite weights the same recursion
still decides well-posedness through its status.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .sim import (
    ExactExpectation,
    Policy,
    enumerate_expectation,
    run_batch,
    sign_paths,
)
from .spaces import HVector, inner
from .systems import ControlledSystem, CostSpec
from .riccati import RiccatiSolution, solve_backward_riccati


@dataclass
class LQProblem:
    system: ControlledSystem
    cost: CostSpec
    x0: HVector

    def __post_init__(self):
        if self.x0.space != self.system.state_space:
            raise DimensionError("initial state does not live on the state space")


def solve_lq(problem: LQProblem) -> RiccatiSolution:
    """The backward pass of the problem's system and cost, with its ``value`` at x0.

    ``value`` is <P(0) x0, x0> when the recursion reached step 0, else None.
    """
    sol = solve_backward_riccati(problem.system, problem.cost)
    if sol.p[0] is not None:
        sol.value = inner(sol.p[0].apply(problem.x0), problem.x0)
    return sol


def optimal_policy(problem: LQProblem, solution: RiccatiSolution) -> Policy:
    if any(g is None for g in solution.gains):
        raise DomainError(solution.failing_step, "no feedback below the failing step")
    return Policy(problem.system, gains=solution.gains)


def expected_cost(problem: LQProblem, policy: Policy) -> ExactExpectation:
    """Exact E[J] of a policy under two-point noise (see sim for why exact)."""
    return enumerate_expectation(problem.system, problem.cost, policy, problem.x0)


def excess_cost(problem: LQProblem, solution: RiccatiSolution, policy: Policy) -> float:
    """Exact E of the completed square sum_k <Rk (u - Kx), (u - Kx)>."""
    if any(op is None for op in solution.rk):
        raise DomainError(solution.failing_step, "completion terms missing below the failing step")
    wu = problem.system.control_space.weights
    gain_mats = [g.matrix for g in solution.gains]
    rk_mats = [op.matrix for op in solution.rk]

    def stage(k, x, u):
        delta = u - x @ gain_mats[k].T
        return np.einsum("pi,pi->p", (delta @ rk_mats[k].T) * wu[None, :], delta)

    vals = run_batch(
        problem.system, policy, problem.x0, sign_paths(problem.system.steps), stage
    )
    return float(np.mean(vals))


@dataclass(frozen=True)
class SquareCompletionCheck:
    """Numerical witness for E[J(u)] = <P(0)x0, x0> + E[completed square]."""

    expected: float
    predicted: float
    residual: float


def completing_square_check(
    problem: LQProblem, solution: RiccatiSolution, policy: Policy
) -> SquareCompletionCheck:
    """Compare the enumerated cost of any policy against the value identity.

    The identity holds for every admissible policy, not just the optimum, so
    it doubles as an end-to-end consistency check between the backward pass
    and the simulator.
    """
    lhs = expected_cost(problem, policy).value
    excess = excess_cost(problem, solution, policy)  # refuses a pass that stopped early
    rhs = inner(solution.p[0].apply(problem.x0), problem.x0) + excess
    return SquareCompletionCheck(lhs, rhs, abs(lhs - rhs))
