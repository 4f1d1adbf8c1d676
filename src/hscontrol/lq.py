"""Finite-horizon linear-quadratic control with multiplicative noise.

The optimal feedback and value come straight from the backward recursion: if
every completion term is uniformly positive, u(k) = K(k) x(k) minimizes the
expected cost and the minimum equals <P(0) x0, x0>.  With indefinite weights
the same recursion still decides well-posedness through its status.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .operators import Operator
from .sim import (
    ExactExpectation,
    Policy,
    enumerate_expectation,
    run_batch,
    sign_paths,
)
from .spaces import HVector
from .systems import ControlledSystem, CostSpec
from .riccati import RiccatiSolution, STATUS_SOLVED, solve_backward_riccati


@dataclass
class LQProblem:
    system: ControlledSystem
    cost: CostSpec
    x0: HVector

    def __post_init__(self):
        if self.x0.space != self.system.state_space:
            raise DimensionError("initial state does not live on the state space")


@dataclass
class LQSolution:
    """Feedback synthesis result.

    ``value`` is <P(0) x0, x0> whenever the recursion reached step 0; it is
    the guaranteed minimum only when ``status`` is solved.  ``gains`` hold the
    candidate feedback for every step the recursion covered.
    """

    status: str
    value: float | None
    gains: list[Operator | None]
    riccati: RiccatiSolution

    @property
    def solved(self) -> bool:
        return self.status == STATUS_SOLVED


def solve_lq(problem: LQProblem) -> LQSolution:
    sol = solve_backward_riccati(problem.system, problem.cost)
    value = None
    if sol.p[0] is not None:
        value = sol.value(problem.x0)
    return LQSolution(sol.status, value, list(sol.gains), sol)


def optimal_policy(problem: LQProblem, solution: LQSolution) -> Policy:
    if any(g is None for g in solution.gains):
        raise DomainError(solution.riccati.failing_step, "no feedback below the failing step")
    return Policy(problem.system, gains=solution.gains)


def expected_cost(problem: LQProblem, policy: Policy) -> ExactExpectation:
    """Exact E[J] of a policy under two-point noise (see sim for why exact)."""
    return enumerate_expectation(problem.system, problem.cost, policy, problem.x0)


def excess_cost(problem: LQProblem, solution: LQSolution, policy: Policy) -> float:
    """Exact E of the completed square sum_k <Rk (u - Kx), (u - Kx)>."""
    riccati = solution.riccati
    if any(op is None for op in riccati.rk):
        raise DomainError(riccati.failing_step, "completion terms missing below the failing step")
    wu = problem.system.control_space.weights
    gain_mats = [g.matrix for g in riccati.gains]
    rk_mats = [op.matrix for op in riccati.rk]

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
    problem: LQProblem, solution: LQSolution, policy: Policy
) -> SquareCompletionCheck:
    """Compare the enumerated cost of any policy against the value identity.

    The identity holds for every admissible policy, not just the optimum, so
    it doubles as an end-to-end consistency check between the backward pass
    and the simulator.
    """
    lhs = expected_cost(problem, policy).value
    rhs = solution.value + excess_cost(problem, solution, policy)
    return SquareCompletionCheck(lhs, rhs, abs(lhs - rhs))
