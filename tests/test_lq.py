import tracemalloc

import numpy as np
import pytest

import hscontrol as hc
from hscontrol import riccati
from helpers import (
    assert_pinned,
    assert_same_bits,
    heat_weight_problems,
    open_loop_quadratic,
    random_controlled,
    random_psd_cost,
    random_solved_problem,
    random_x0,
    record_matrix_builds,
    with_weights,
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


def test_initial_state_from_another_space_is_bad_input():
    # a mismatched x0 is a shape error, not a recursion failure at step 0
    problem = ones_problem()
    x0 = hc.HVector(hc.euclidean(2), np.ones(2))
    with pytest.raises(hc.DimensionError, match="^initial state does not live on the state space$"):
        hc.LQProblem(problem.system, problem.cost, x0)


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
    assert sol.value == pytest.approx(hc.inner(sol.p[0].apply(problem.x0), problem.x0))


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
    # the record refuses a policy and a completed square below the failing step
    with pytest.raises(hc.DomainError) as err:
        hc.optimal_policy(problem, sol)
    assert err.value.step == 0
    with pytest.raises(hc.DomainError) as err:
        hc.excess_cost(problem, sol, hc.Policy(system))
    assert err.value.step == 0


def test_solve_lq_is_the_riccati_pass_with_its_value():
    rng = np.random.default_rng(12)
    for weighted in (False, True):
        for _ in range(3):
            problem = random_solved_problem(rng, weighted=weighted)
            got = hc.solve_lq(problem)
            want = hc.solve_backward_riccati(problem.system, problem.cost)
            assert isinstance(got, hc.RiccatiSolution) and want.value is None
            # the square completes from either record: it reads P(0), not the value
            checks = [hc.completing_square_check(problem, s, hc.optimal_policy(problem, s))
                      for s in (got, want)]
            assert_same_bits(*checks)
            want.value = hc.inner(want.p[0].apply(problem.x0), problem.x0)
            assert_same_bits(got, want)  # every field, the value's bits included


def _line_weight_problems():
    """A noisy plant on an ``l2_line`` grid, whose weights are not 1, with diagonal weights.

    Its dynamics are a Gaussian convolution, so it runs the n x n pass.
    """
    rng = np.random.default_rng(71)
    hs, us = hc.l2_line(2.0, 0.05), hc.euclidean(1)
    conv = hc.GaussianConvolutionOperator(hs, 1.0)
    b = hc.DenseOperator(rng.standard_normal((hs.dim, 1)), us, hs)
    system = hc.ControlledSystem(hs, us, 2, conv, b, hc.ScaledOperator(0.3, conv),
                                 hc.ZeroOperator(us, hs))
    diag = hc.DiagonalOperator(rng.uniform(0.5, 2.0, hs.dim), hs)
    for m, terminal in ((diag, hc.ScaledOperator(2.0, diag)),
                        (hc.ScaledOperator(2.0, hc.ScaledOperator(0.5, diag)),
                         hc.ScaledOperator(-0.25, hc.ScaledOperator(4.0, diag)))):
        cost = hc.CostSpec(system, m, hc.ZeroOperator(hs, us), hc.IdentityOperator(us), terminal)
        yield hc.LQProblem(system, cost, random_x0(rng, hs))


def _diagonal_weight_problems():
    """LQ problems whose M and terminal weight are diagonal by type: heat and line plants."""
    yield from heat_weight_problems()
    yield from _line_weight_problems()


def _respelled(problem, respell):
    """The problem with ``respell(op)`` for M and the terminal weight."""
    cost = problem.cost
    return with_weights(problem, [respell(op) for op in cost.m], respell(cost.terminal))


def test_diagonal_weights_keep_the_bits_of_their_matrices():
    # On the n x n pass a diagonal weight has the bits of its dense matrix.
    # The completing-square check runs on the problem as given in both
    # cases: the simulator's stage costs take the weights' native products,
    # whose bits differ from those of their dense matrices.  The heat plants
    # take the low-rank pass, which agrees with their dense weights to
    # rounding (test_riccati::test_low_rank_pass_matches_the_n_by_n_pass).
    for problem in _line_weight_problems():
        hs = problem.system.state_space
        got = hc.solve_lq(problem)
        want = hc.solve_lq(_respelled(problem, lambda op: hc.DenseOperator(op.matrix, hs)))
        assert isinstance(got.p[0], hc.DenseOperator)
        assert_same_bits(got, want)
        if all(g is not None for g in got.gains):
            checks = [hc.completing_square_check(problem, sol, hc.optimal_policy(problem, sol))
                      for sol in (got, want)]
            assert_same_bits(*checks)


def test_low_rank_pass_keeps_its_bits_whatever_the_spelling_of_a_diagonal_weight():
    # a scaled identity and the diagonal operator of its entries
    for problem in heat_weight_problems():
        hs = problem.system.state_space
        got = hc.solve_lq(problem)
        want = hc.solve_lq(_respelled(
            problem, lambda op: hc.DiagonalOperator(np.diagonal(op.matrix).copy(), hs)))
        assert isinstance(got.p[0], riccati.DiagonalPlusLowRank)
        assert isinstance(problem.cost.terminal, hc.ScaledOperator)
        assert_same_bits(got, want)


def test_solve_lq_builds_no_matrix_of_a_diagonal_weight(monkeypatch):
    problems = list(_diagonal_weight_problems())
    weights = set()  # ids of every M and terminal weight, and of the operators they scale
    for problem in problems:
        for op in [*problem.cost.m, problem.cost.terminal]:
            while isinstance(op, hc.ScaledOperator):
                weights.add(id(op))
                op = op.inner_op
            weights.add(id(op))
    built = record_matrix_builds(monkeypatch)
    for problem in problems:
        hc.solve_lq(problem)
    assert built  # the zero L weights are still built
    assert [op for op in built if id(op) in weights] == []


def test_heat_solve_at_4096_modes_holds_no_state_sized_square():
    # one 4096 x 4096 iterate is 128 MiB; the low-rank pass keeps d, U and S
    tracemalloc.start()
    try:
        problem = hc.examples.build_heat_problem(1, 4096)
        sol = hc.solve_lq(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert sol.solved
    p, x = sol.p[0], problem.x0.coords  # <P x, x> = x^T (diag(d) + U S U^T) x
    ux = p.u.T @ x
    assert_pinned(sol.value, x @ (p.d * x) + ux @ p.s @ ux, rtol=1e-13)


def test_heat_solve_builds_no_state_sized_matrix(monkeypatch):
    problem = hc.examples.build_heat_problem(1, 256)
    built = record_matrix_builds(monkeypatch)
    sol = hc.solve_lq(problem)
    assert sol.solved
    assert built  # the 1 x 256 zero L weights are still built
    assert [op for op in built if op.domain.dim == op.codomain.dim == 256] == []


def test_square_completion_on_the_heat_rod_holds_no_state_sized_square(monkeypatch):
    # the rollouts advance the states through the rod's diagonal A and zero C
    # by their own row products, so no 1024 x 1024 matrix (8 MiB) is built
    problem = hc.examples.build_heat_problem(1, 1024)
    sol = hc.solve_lq(problem)
    policy = hc.optimal_policy(problem, sol)
    built = record_matrix_builds(monkeypatch)
    tracemalloc.start()
    try:
        check = hc.completing_square_check(problem, sol, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [op for op in built if op.domain.dim == op.codomain.dim == 1024] == []
    assert peak < 2 << 20
    assert check.residual <= 1e-8 * (1.0 + abs(check.expected))
