import numpy as np
import pytest

import hscontrol as hc
from helpers import (
    open_loop_quadratic,
    random_controlled,
    random_psd_cost,
    random_solved_problem,
    random_x0,
)


def ones_problem():
    """Scalar single-step problem with every coefficient equal to one."""
    hs = hc.euclidean(1)
    us = hc.euclidean(1)
    one = hc.IdentityOperator(hs)
    b = hc.DenseOperator(np.array([[1.0]]), us, hs)
    system = hc.ControlledSystem(hs, us, 0, one, b, hc.ZeroOperator(hs),
                                 hc.ZeroOperator(us, hs))
    cost = hc.CostSpec(system, one, hc.ZeroOperator(hs, us),
                       hc.IdentityOperator(us), one)
    return hc.LQProblem(system, cost, hc.HVector(hs, np.array([1.0])))


def pathwise_cost(problem, controls, noises):
    """Cost of one open-loop control sequence along one noise path."""
    policy = hc.Policy(problem.system, inputs=controls)
    return hc.simulate(problem.system, policy, problem.x0, noises, problem.cost).cost


def test_pathwise_cost_worked_example():
    # x(1) = 1 - 0.5 = 0.5; cost = 1*1 + 1*0.25 + 1*0.25 = 1.5
    problem = ones_problem()
    value = pathwise_cost(problem, [np.array([-0.5])], np.array([0.0]))
    assert value == 1.5


def test_pathwise_cost_requires_full_schedule():
    problem = ones_problem()
    with pytest.raises(hc.DimensionError):
        pathwise_cost(problem, [], np.array([0.0]))


def test_single_step_optimum_known_in_closed_form():
    # value = m + s a^2 - (s a b)^2 / (r + s b^2) = 1 + 1 - 1/2 = 3/2
    problem = ones_problem()
    sol = hc.solve_lq(problem)
    assert sol.solved
    assert sol.value == pytest.approx(1.5, abs=1e-14)
    assert sol.gains[0].matrix[0, 0] == pytest.approx(-0.5, abs=1e-14)


def test_value_matches_exact_enumeration():
    rng = np.random.default_rng(0)
    for weighted in (False, True):
        for _ in range(10):
            problem = random_solved_problem(rng, weighted=weighted)
            sol = hc.solve_lq(problem)
            res = hc.expected_cost(problem, hc.optimal_policy(problem, sol))
            assert res.value == pytest.approx(sol.value, rel=1e-10, abs=1e-10)


def test_noise_free_value_matches_open_loop_optimum():
    rng = np.random.default_rng(4)
    for weighted in (False, True):
        for _ in range(5):
            system = random_controlled(rng, noisy=False, weighted=weighted)
            problem = hc.LQProblem(system, random_psd_cost(rng, system),
                                   random_x0(rng, system.state_space))
            sol = hc.solve_lq(problem)
            c, g, h = open_loop_quadratic(problem)
            assert sol.solved and np.linalg.eigvalsh(h)[0] > 0.0
            assert sol.value == pytest.approx(c - g @ np.linalg.solve(h, g),
                                              rel=1e-9, abs=1e-9)
    noisy = random_solved_problem(rng)
    with pytest.raises(ValueError, match="C or D is nonzero"):
        open_loop_quadratic(noisy)


def test_optimal_policy_beats_perturbations():
    rng = np.random.default_rng(1)
    problem = random_solved_problem(rng, allow_indefinite=False)
    sol = hc.solve_lq(problem)
    best = sol.value
    du = problem.system.control_space.dim
    for _ in range(50):
        offsets = [0.3 * rng.standard_normal(du) for _ in range(problem.system.steps)]
        pol = hc.Policy(problem.system,
                        gains=[g for g in sol.gains],
                        inputs=offsets)
        other = hc.expected_cost(problem, pol).value
        assert other >= best - 1e-10


def test_completing_square_residual_small_for_any_policy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        problem = random_solved_problem(rng)
        sol = hc.solve_lq(problem)
        du = problem.system.control_space.dim
        pol = hc.Policy(problem.system,
                        inputs=[rng.standard_normal(du)
                                for _ in range(problem.system.steps)])
        expected = hc.expected_cost(problem, pol).value
        resid = hc.completing_square_check(problem, sol, pol).residual
        assert resid <= 1e-8 * (1.0 + abs(expected))


def test_excess_cost_nonnegative_and_zero_at_optimum():
    rng = np.random.default_rng(3)
    problem = random_solved_problem(rng, allow_indefinite=False)
    sol = hc.solve_lq(problem)
    opt = hc.optimal_policy(problem, sol)
    assert hc.excess_cost(problem, sol, opt) == pytest.approx(0.0, abs=1e-10)
    du = problem.system.control_space.dim
    pol = hc.Policy(problem.system,
                    inputs=[rng.standard_normal(du)
                            for _ in range(problem.system.steps)])
    excess = hc.excess_cost(problem, sol, pol)
    assert excess >= 0.0
    direct = hc.expected_cost(problem, pol).value
    assert direct - sol.value == pytest.approx(excess, rel=1e-8, abs=1e-8)


def test_well_posedness_certificate_positive_case():
    rng = np.random.default_rng(4)
    problem = random_solved_problem(rng)
    sol = hc.solve_lq(problem)
    assert sol.solved
    assert sol.status == "solved"
    assert sol.value == pytest.approx(sol.riccati.value(problem.x0))


def test_indefinite_state_weight_can_still_solve():
    """Negative M with strong terminal weight stays in the solvable domain."""
    hs = hc.euclidean(1)
    us = hc.euclidean(1)
    one = hc.IdentityOperator(hs)
    b = hc.DenseOperator(np.array([[1.0]]), us, hs)
    system = hc.ControlledSystem(hs, us, 1, one, b, hc.ZeroOperator(hs),
                                 hc.ZeroOperator(us, hs))
    cost = hc.CostSpec(
        system,
        hc.ScaledOperator(-0.1, one),
        hc.ZeroOperator(hs, us),
        hc.IdentityOperator(us),
        hc.ScaledOperator(2.0, one),
    )
    problem = hc.LQProblem(system, cost, hc.HVector(hs, np.array([1.0])))
    sol = hc.solve_lq(problem)
    assert sol.solved
    res = hc.expected_cost(problem, hc.optimal_policy(problem, sol))
    assert res.value == pytest.approx(sol.value, rel=1e-12)


def test_solve_lq_reports_failure_status():
    # R = -1 cancels B*PB = 1, so the completion term is singular at step 0
    hs = hc.euclidean(1)
    us = hc.euclidean(1)
    one = hc.IdentityOperator(hs)
    b = hc.DenseOperator(np.array([[1.0]]), us, hs)
    system = hc.ControlledSystem(hs, us, 0, one, b, hc.ZeroOperator(hs),
                                 hc.ZeroOperator(us, hs))
    cost = hc.CostSpec(system, one, hc.ZeroOperator(hs, us),
                       hc.DenseOperator(np.array([[-1.0]]), us), one)
    problem = hc.LQProblem(system, cost, hc.HVector(hs, np.array([1.0])))
    sol = hc.solve_lq(problem)
    assert not sol.solved
    assert sol.status == "domain_failure"
    assert sol.value is None
