import warnings

import numpy as np
import pytest

import hscontrol as hc
from hscontrol import game, riccati
from helpers import (
    assert_pinned,
    assert_same_bits,
    completion_reference,
    explicit_zero_steps,
    heat_weight_problems,
    random_controlled,
    random_disturbed,
    random_psd_cost,
    random_x0,
    solvable_game,
)


def scalar_problem(rng, horizon):
    """Random scalar coefficients as plain floats plus the packaged system."""
    hs = hc.euclidean(1)
    us = hc.euclidean(1)
    steps = horizon + 1
    coeff = {
        name: rng.uniform(-1.2, 1.2, size=steps)
        for name in ("a", "b", "c", "d", "l")
    }
    coeff["m"] = rng.uniform(0.0, 2.0, size=steps)
    coeff["r"] = rng.uniform(0.3, 2.0, size=steps)
    s_term = float(rng.uniform(0.0, 2.0))

    def fam(vals, dom, cod):
        return [hc.DenseOperator(np.array([[v]]), dom, cod) for v in vals]

    system = hc.ControlledSystem(
        hs, us, horizon,
        fam(coeff["a"], hs, hs), fam(coeff["b"], us, hs),
        fam(coeff["c"], hs, hs), fam(coeff["d"], us, hs),
    )
    cost = hc.CostSpec(
        system,
        fam(coeff["m"], hs, hs), fam(coeff["l"], hs, us), fam(coeff["r"], us, us),
        hc.DenseOperator(np.array([[s_term]]), hs),
    )
    return system, cost, coeff, s_term


def scalar_backward_recursion(coeff, s_term, horizon):
    """Textbook scalar recursion, written without any package code."""
    p = s_term
    ps = [p]
    gains = []
    for k in range(horizon, -1, -1):
        a, b, c, d = coeff["a"][k], coeff["b"][k], coeff["c"][k], coeff["d"][k]
        m, l, r = coeff["m"][k], coeff["l"][k], coeff["r"][k]
        rk = r + p * (b * b + d * d)
        gk = l + p * (b * a + d * c)
        p = m + p * (a * a + c * c) - gk * gk / rk
        ps.append(p)
        gains.append(-gk / rk)
    return list(reversed(ps)), list(reversed(gains))


def test_scalar_recursion_matches_independent_oracle():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(100):
        horizon = int(rng.integers(0, 7))
        system, cost, coeff, s_term = scalar_problem(rng, horizon)
        expect_p, expect_gains = scalar_backward_recursion(coeff, s_term, horizon)
        sol = hc.solve_backward_riccati(system, cost)
        if not sol.solved:
            # oracle only compares completed recursions
            continue
        got_p = [op.matrix[0, 0] for op in sol.p]
        got_g = [op.matrix[0, 0] for op in sol.gains]
        assert np.allclose(got_p, expect_p, rtol=1e-12, atol=1e-12)
        assert np.allclose(got_g, expect_gains, rtol=1e-12, atol=1e-12)
        checked += 1
    assert checked > 60


def test_solution_layout():
    rng = np.random.default_rng(1)
    system = random_controlled(rng)
    cost = random_psd_cost(rng, system)
    sol = hc.solve_backward_riccati(system, cost)
    assert sol.status == "solved"
    assert sol.solved
    assert len(sol.p) == system.steps + 1
    assert len(sol.gains) == system.steps
    assert len(sol.rk) == system.steps
    assert np.allclose(sol.p[-1].matrix, cost.terminal.matrix)


def test_value_is_quadratic_in_x0():
    rng = np.random.default_rng(2)
    system = random_controlled(rng)
    cost = random_psd_cost(rng, system)
    sol = hc.solve_backward_riccati(system, cost)
    x0 = random_x0(rng, system.state_space)
    v1 = hc.inner(sol.p[0].apply(x0), x0)
    x2 = hc.HVector(system.state_space, 2.0 * x0.coords)
    v2 = hc.inner(sol.p[0].apply(x2), x2)
    assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


def test_psd_data_always_solves():
    rng = np.random.default_rng(4)
    for _ in range(25):
        system = random_controlled(rng, dim_max=4, horizon_max=5)
        cost = random_psd_cost(rng, system)
        sol = hc.solve_backward_riccati(system, cost)
        assert sol.solved
        worst = min(hc.min_eig_selfadjoint(p).min_eig for p in sol.p)
        assert worst >= -1e-8


def test_domain_failure_reported_with_step():
    # R + B* S B + D* S D = 0 at the single step: no bounded inverse
    hs = hc.euclidean(1)
    us = hc.euclidean(1)
    one = hc.IdentityOperator(hs)
    b = hc.DenseOperator(np.array([[1.0]]), us, hs)
    system = hc.ControlledSystem(hs, us, 0, one, b, hc.ZeroOperator(hs),
                                 hc.ZeroOperator(us, hs))
    cost = hc.CostSpec(
        system, one, hc.ZeroOperator(hs, us),
        hc.DenseOperator(np.array([[-1.0]]), us), one,
    )
    sol = hc.solve_backward_riccati(system, cost)
    assert sol.status == "domain_failure"
    assert not sol.solved
    assert sol.failing_step == 0
    assert sol.p[0] is None


def test_step_refusal_names_step_condition_and_cap(monkeypatch):
    # Rk = R = diag(1, 1e-3) has condition number 1e3, above a cap of 10
    hs = hc.euclidean(1)
    us = hc.euclidean(2)
    system = hc.ControlledSystem(hs, us, 1, hc.IdentityOperator(hs), hc.ZeroOperator(us, hs),
                                 hc.ZeroOperator(hs), hc.ZeroOperator(us, hs))
    cost = hc.CostSpec(system, hc.IdentityOperator(hs), hc.ZeroOperator(hs, us),
                       hc.DiagonalOperator(np.array([1.0, 1e-3]), us), hc.IdentityOperator(hs))
    monkeypatch.setattr(hc.operators, "KAPPA_MAX", 10.0)
    sol = hc.solve_backward_riccati(system, cost)
    assert sol.breakdown == 1
    assert sol.status == "domain_failure"
    assert sol.rk_certs[1].cond == 1e3
    monkeypatch.setattr(hc.operators, "KAPPA_MAX", 1e3)
    sol = hc.solve_backward_riccati(system, cost)
    assert sol.p[1].matrix[0, 0] == 2.0


def test_failing_step_is_largest_failing_index():
    # same degenerate completion term at every step: the recursion
    # stops immediately at k = N, the first step it visits
    hs = hc.euclidean(1)
    us = hc.euclidean(1)
    one = hc.IdentityOperator(hs)
    zero_u = hc.ZeroOperator(us, hs)
    b = hc.DenseOperator(np.array([[1.0]]), us, hs)
    horizon = 3
    system = hc.ControlledSystem(hs, us, horizon, one, b,
                                 hc.ZeroOperator(hs), zero_u)
    cost = hc.CostSpec(
        system, one, hc.ZeroOperator(hs, us),
        hc.DenseOperator(np.array([[-1.0]]), us), one,
    )
    sol = hc.solve_backward_riccati(system, cost)
    assert sol.status == "domain_failure"
    assert sol.failing_step == horizon


def test_not_uniformly_positive_status():
    # indefinite R with invertible completion term: recursion completes
    # but positivity fails, which downgrades the status
    hs = hc.euclidean(1)
    us = hc.euclidean(1)
    one = hc.IdentityOperator(hs)
    b = hc.DenseOperator(np.array([[1.0]]), us, hs)
    system = hc.ControlledSystem(hs, us, 0, one, b, hc.ZeroOperator(hs),
                                 hc.ZeroOperator(us, hs))
    cost = hc.CostSpec(
        system, one, hc.ZeroOperator(hs, us),
        hc.DenseOperator(np.array([[-2.0]]), us),
        hc.IdentityOperator(hs),
    )
    sol = hc.solve_backward_riccati(system, cost)
    assert sol.status == "not_uniformly_positive"
    assert not sol.solved
    assert sol.failing_step == 0
    # the recursion itself completed
    assert sol.p[0] is not None


def test_completion_terms_shapes():
    rng = np.random.default_rng(6)
    system = random_controlled(rng, dim_max=3, horizon_max=2)
    cost = random_psd_cost(rng, system)
    sol = hc.solve_backward_riccati(system, cost)
    rk, gain = sol.rk[system.horizon], sol.gains[system.horizon]
    assert rk.domain == system.control_space
    assert rk.codomain == system.control_space
    assert gain.domain == system.state_space
    assert gain.codomain == system.control_space


def test_step_exports_pin_the_full_pass_on_weighted_spaces():
    rng = np.random.default_rng(7)
    for _ in range(3):
        system = random_controlled(rng, dim_max=5, horizon_max=4, weighted=True)
        cost = random_psd_cost(rng, system)
        sol = hc.solve_backward_riccati(system, cost)
        assert sol.solved
        for k in range(system.steps):
            pn = sol.p[k + 1]
            # the step through the operator algebra, weighted adjoints included
            a, b, c, d = system.a(k), system.b(k), system.c(k), system.d(k)
            rk_ref = cost.r(k) + b.adjoint() @ pn @ b + d.adjoint() @ pn @ d
            gk_ref = cost.l(k) + b.adjoint() @ pn @ a + d.adjoint() @ pn @ c
            m_ref = cost.m(k) + a.adjoint() @ pn @ a + c.adjoint() @ pn @ c
            assert_pinned(sol.rk[k].matrix, rk_ref.matrix)
            p_ref, gain_ref = completion_reference(m_ref, gk_ref, rk_ref)
            assert_pinned(sol.p[k].matrix, p_ref)
            assert_pinned(sol.gains[k].matrix, gain_ref)


def test_level_cost_pass_is_the_bounded_real_recursion():
    # the level-gamma test is this LQ problem on the disturbance channel:
    # M = -Cbar*Cbar, L = 0, R = gamma^2 I - Dbar*Dbar, zero terminal weight
    rng = np.random.default_rng(8)
    for weighted in (False, True):
        for _ in range(5):
            dsys = random_disturbed(rng, weighted=weighted)
            gain = hc.hinf_norm(dsys, tol=1e-6).value
            view = dsys.as_controlled()
            hs, vs = dsys.state_space, dsys.disturbance_space
            for gamma in (0.8 * gain, 1.2 * gain):
                cost = hc.CostSpec(
                    view,
                    [hc.ScaledOperator(-1.0, dsys.cbar(k).adjoint() @ dsys.cbar(k))
                     for k in range(dsys.steps)],
                    hc.ZeroOperator(hs, vs),
                    [hc.ScaledOperator(gamma**2, hc.IdentityOperator(vs))
                     + hc.ScaledOperator(-1.0, dsys.dbar(k).adjoint() @ dsys.dbar(k))
                     for k in range(dsys.steps)],
                    hc.ZeroOperator(hs),
                )
                sol = hc.solve_backward_riccati(view, cost)
                run = hc.brl_check(dsys, gamma)
                assert run.feasible == sol.solved
                for k in range(dsys.steps + 1):
                    assert (sol.p[k] is None) == (run.y[k] is None)
                    if run.y[k] is not None:
                        assert_pinned(sol.p[k].matrix, run.y[k].matrix)


def _zero_terminal_problems(rng):
    """LQ problems with a zero terminal weight: weighted or not, noise-free
    (ZeroOperator C and D) or not, with horizon 0 among them."""
    problems = []
    for weighted in (False, True):
        for noisy in (False, True):
            for horizon_max in (0, 4):
                system = random_controlled(rng, horizon_max=horizon_max, noisy=noisy,
                                           weighted=weighted)
                cost = random_psd_cost(rng, system)
                problems.append((system, hc.CostSpec(system, list(cost.m), list(cost.l),
                                                     list(cost.r),
                                                     hc.ZeroOperator(system.state_space))))
    return problems


def test_zero_terminal_step_skips_its_congruences_with_the_same_bits(monkeypatch):
    rng = np.random.default_rng(41)
    problems = _zero_terminal_problems(rng)
    got = [hc.solve_backward_riccati(system, cost) for system, cost in problems]
    explicit_zero_steps(monkeypatch, riccati)
    want = [hc.solve_backward_riccati(system, cost) for system, cost in problems]
    assert_same_bits(got, want)


def test_step_from_a_zero_iterate_runs_no_congruence(monkeypatch):
    # horizon 0 with a zero terminal weight: the only step has P(1) = 0
    rng = np.random.default_rng(42)
    system, cost = next(
        (s, c) for s, c in _zero_terminal_problems(rng) if s.horizon == 0
    )
    calls = []
    real = riccati.congruence
    monkeypatch.setattr(riccati, "congruence", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    sol = hc.solve_backward_riccati(system, cost)
    assert calls == []
    assert_same_bits(sol.rk[0].matrix, 0.5 * (cost.r(0).matrix + cost.r(0).matrix.T))
    # G = L there: the gain and iterate of the plain completion of (M, L, R)
    p_ref, gain_ref = completion_reference(cost.m(0), cost.l(0), cost.r(0))
    assert_pinned(sol.gains[0].matrix, gain_ref)
    assert_pinned(sol.p[0].matrix, p_ref)


def test_coupled_solve_from_zero_terminals_keeps_its_bits(monkeypatch):
    rng = np.random.default_rng(43)
    games = [solvable_game(rng, weighted=weighted)[:3] for weighted in (False, True, False, True)]
    got = [hc.solve_coupled_riccati(*g) for g in games]
    explicit_zero_steps(monkeypatch, game)
    want = [hc.solve_coupled_riccati(*g) for g in games]
    assert_same_bits(got, want)


def test_diagonal_weights_add_with_the_bits_of_their_arrays():
    # signed zeros included: the sum with the Gram array turns the -0.0 of
    # a term into +0.0 wherever the weight's zero is +0.0
    rng = np.random.default_rng(44)
    hs = hc.Space(hc.spaces.KIND_EUCLIDEAN, 5, np.exp(rng.uniform(-1.0, 1.0, 5)))
    diag = hc.DiagonalOperator(np.array([1.5, -0.0, 0.0, -2.0, 3.0]), hs)
    weights = [hc.IdentityOperator(hs), diag, hc.ScaledOperator(-2.0, diag),
               hc.ScaledOperator(3.0, hc.ScaledOperator(-1.0, hc.IdentityOperator(hs))),
               hc.ZeroOperator(hs), hc.ScaledOperator(-1.0, hc.ZeroOperator(hs))]
    term = rng.standard_normal((5, 5))
    term[0, 1] = term[1, 1] = term[2, 2] = term[3, 4] = -0.0
    term[4, 0] = 0.0
    for op in weights:
        as_array = hs.weights[:, None] * op.matrix
        gram = riccati._state_gram(op, hs.weights)
        assert isinstance(gram, riccati.DiagonalGram)
        assert_same_bits(gram.array(), as_array)
        assert_same_bits(riccati._plus_weight(gram, None), as_array + 0.0)
        assert_same_bits(riccati._plus_weight(gram, term), as_array + term)
    dense = hc.DenseOperator(np.diag(np.ones(5)), hs)
    assert isinstance(riccati._state_gram(dense, hs.weights), np.ndarray)


def test_iterates_become_coordinates_with_the_bits_of_the_division():
    # unit weights skip the division by W; a weighted space keeps it
    rng = np.random.default_rng(71)
    g = rng.standard_normal((6, 6)) * np.exp(rng.uniform(-700, 700, (6, 6)))
    g[0, 1], g[2, 3], g[4, 4] = -0.0, 5e-324, -5e-324
    for hs in (hc.euclidean(6), hc.ell2(6), hc.Space(hc.spaces.KIND_EUCLIDEAN, 6,
                                                      np.r_[1.0, 0.5, 3.0, 1.0, 1.0, 0.25])):
        want = np.divide(g, hs.weights[:, None])
        got = hc.operators.coordinate_operators([g.copy(), None], hs)
        assert got[1] is None
        assert_same_bits(got[0].matrix, want)


def _diagonal_plant(rng, hs, du=1, horizon=2, noise=False, feedthrough=False,
                    terminal_low=0.0):
    """A random plant with A, C, M and the terminal weight diagonal by type."""
    us = hc.euclidean(du)
    steps = horizon + 1
    a = [hc.DiagonalOperator(rng.uniform(-1.0, 1.0, hs.dim), hs) for _ in range(steps)]
    b = [hc.DenseOperator(rng.standard_normal((hs.dim, du)), us, hs) for _ in range(steps)]
    c = [hc.DiagonalOperator(rng.uniform(-0.5, 0.5, hs.dim), hs) if noise else hc.ZeroOperator(hs)
         for _ in range(steps)]
    d = [hc.DenseOperator(0.5 * rng.standard_normal((hs.dim, du)), us, hs) if feedthrough
         else hc.ZeroOperator(us, hs) for _ in range(steps)]
    system = hc.ControlledSystem(hs, us, horizon, a, b, c, d)
    m = [hc.ScaledOperator(float(rng.uniform(0.1, 2.0)), hc.IdentityOperator(hs)),
         *(hc.DiagonalOperator(rng.uniform(0.0, 2.0, hs.dim), hs) for _ in range(horizon))]
    l = [hc.DenseOperator(0.1 * rng.standard_normal((du, hs.dim)), hs, us) for _ in range(steps)]
    r = [hc.DenseOperator(np.diag(rng.uniform(0.5, 2.0, du)), us) for _ in range(steps)]
    terminal = hc.DiagonalOperator(rng.uniform(terminal_low, 2.0, hs.dim), hs)
    cost = hc.CostSpec(system, m, l, r, terminal)
    return hc.LQProblem(system, cost, random_x0(rng, hs))


def _singular_rk_plant(rng, hs):
    """A diagonal plant whose Rk at step N-1 is exactly singular: R and B miss one input."""
    problem = _diagonal_plant(rng, hs, du=2, horizon=3)
    system, cost, us = problem.system, problem.cost, problem.system.control_space
    b, r = list(system.b), list(cost.r)
    blind = b[2].matrix.copy()
    blind[:, 1] = 0.0
    b[2], r[2] = hc.DenseOperator(blind, us, hs), hc.DenseOperator(np.diag([1.0, 0.0]), us)
    system = hc.ControlledSystem(hs, us, 3, list(system.a), b, list(system.c), list(system.d))
    cost = hc.CostSpec(system, list(cost.m), list(cost.l), r, cost.terminal)
    return hc.LQProblem(system, cost, problem.x0)


def _dense_reference(problem):
    """The problem with A, C, M and the terminal weight as DenseOperators of their matrices."""
    system, cost = problem.system, problem.cost
    hs = system.state_space

    def dense(ops):
        return [op if isinstance(op, hc.ZeroOperator) else hc.DenseOperator(op.matrix, hs)
                for op in ops]

    ref = hc.ControlledSystem(hs, system.control_space, system.horizon, dense(system.a),
                              list(system.b), dense(system.c), list(system.d))
    ref_cost = hc.CostSpec(ref, dense(cost.m), list(cost.l), list(cost.r),
                           hc.DenseOperator(cost.terminal.matrix, hs))
    return hc.LQProblem(ref, ref_cost, problem.x0)


def _low_rank_problems():
    rng = np.random.default_rng(2608)
    line = hc.l2_line(1.0, 0.05)  # 41 grid points with trapezoid weights
    for hs in (hc.euclidean(40), line):
        yield _diagonal_plant(rng, hs)
        yield _diagonal_plant(rng, hs, du=2, horizon=3, feedthrough=True)
        yield _diagonal_plant(rng, hs, noise=True)
        yield _diagonal_plant(rng, hs, noise=True, feedthrough=True)
        for _ in range(3):
            yield _diagonal_plant(rng, hs, du=2, horizon=1, noise=True, terminal_low=-2.0)
        yield _singular_rk_plant(rng, hs)
    for case in (1, 2, 3):
        for modes in (16, 512):
            yield hc.examples.build_heat_problem(case, modes)
    yield from heat_weight_problems()  # at 64 and 256 modes


def test_low_rank_pass_matches_the_n_by_n_pass():
    statuses = set()
    for problem in _low_rank_problems():
        got, want = hc.solve_lq(problem), hc.solve_lq(_dense_reference(problem))
        assert isinstance(got.p[-1], riccati.DiagonalPlusLowRank)
        assert isinstance(want.p[-1], hc.DenseOperator)
        statuses.add(got.status)
        for field in ("status", "breakdown", "nonpositive", "failing_step"):
            assert getattr(got, field) == getattr(want, field), field
        assert (got.value is None) == (want.value is None)
        if want.value is not None:
            assert_pinned(got.value, want.value, rtol=1e-12)
        for name in ("p", "gains", "rk"):
            for g, w in zip(getattr(got, name), getattr(want, name)):
                assert (g is None) == (w is None)
                if w is not None:
                    assert_pinned(g.matrix, w.matrix, rtol=1e-12)
    assert statuses == {riccati.STATUS_SOLVED, riccati.STATUS_DOMAIN_FAILURE,
                        riccati.STATUS_NOT_UNIFORMLY_POSITIVE}


def test_low_rank_iterates_multiply_as_their_matrices():
    rng = np.random.default_rng(2609)
    problem = _diagonal_plant(rng, hc.l2_line(1.0, 0.05), du=2, horizon=1, noise=True,
                              feedthrough=True)
    p = hc.solve_lq(problem).p[0]
    matrix = p.matrix
    x = rng.standard_normal((41, 3))
    assert p.u.shape == (41, 6)  # 2 + 2 (2 + 2 * 0) columns
    assert_pinned(p.apply_array(x[:, 0]), matrix @ x[:, 0], rtol=1e-13)
    assert_pinned(p.apply_array(x), matrix @ x, rtol=1e-13)
    assert_pinned(p.rmatmul(x.T), x.T @ matrix, rtol=1e-13)
    g = rng.standard_normal((41, 41))
    assert_pinned(p.sandwich(g), matrix.T @ g @ matrix, rtol=1e-12)
    assert p.matrix is not matrix  # built on request, not kept


def test_a_rank_past_the_share_runs_the_n_by_n_pass_with_its_bits():
    # the rank doubles at every step with noise: 1, 3, 7, 15 > 40 / 4 columns
    rng = np.random.default_rng(2610)
    for hs in (hc.euclidean(40), hc.l2_line(1.0, 0.05)):
        problem = _diagonal_plant(rng, hs, horizon=3, noise=True, feedthrough=True)
        got = hc.solve_lq(problem)
        assert isinstance(got.p[0], hc.DenseOperator)
        assert_same_bits(got, hc.solve_lq(_dense_reference(problem)))
        shorter = _diagonal_plant(rng, hs, horizon=2, noise=True, feedthrough=True)
        assert isinstance(hc.solve_lq(shorter).p[0], riccati.DiagonalPlusLowRank)  # 7 columns


def _small_input_weight_plant(b, r):
    """A = I/2 on two unit-weight states, one input of weight 1e-10 through
    B = b (1, 1)^T, C = D = 0, M = I, L = 0, R = r, terminal I; horizon 1."""
    hs = hc.euclidean(2)
    us = hc.Space(hc.spaces.KIND_EUCLIDEAN, 1, np.array([1e-10]))
    system = hc.ControlledSystem(hs, us, 1, hc.DenseOperator(0.5 * np.eye(2), hs),
                                 hc.DenseOperator(b * np.ones((2, 1)), us, hs),
                                 hc.ZeroOperator(hs), hc.ZeroOperator(us, hs))
    cost = hc.CostSpec(system, hc.IdentityOperator(hs), hc.ZeroOperator(hs, us),
                       hc.DenseOperator(np.array([[r]]), us), hc.IdentityOperator(hs))
    return system, cost


def test_a_term_finite_in_gram_form_but_not_in_its_frame_is_refused():
    # W_u Rk(1) = 1e-10 + 2e298 is finite, Rk(1) = 2e308 is not: an
    # overflow, not a domain failure
    system, cost = _small_input_weight_plant(1e149, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(hc.ResolutionError,
                           match="^completion term Rk at step 1 is not finite"):
            hc.solve_backward_riccati(system, cost)


def test_a_term_above_2_to_1023_in_coordinates_is_certified():
    # Rk = 1.5e308 is finite: its Gram form 1.5e298 certifies it, where the
    # frame round trip overflowed in 0.5 (s + s^T)
    system, cost = _small_input_weight_plant(1.0, 1.5e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = hc.solve_backward_riccati(system, cost)
    assert sol.solved
    for cert in sol.rk_certs:
        assert cert.min_eig == pytest.approx(1.5e308, rel=1e-12)
        assert cert.max_eig == cert.min_eig and cert.sym_residual == 0.0
