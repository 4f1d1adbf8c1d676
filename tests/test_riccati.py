import numpy as np
import pytest

import hscontrol as hc
from hscontrol import game, riccati
from helpers import (
    assert_pinned,
    assert_same_bits,
    completion_reference,
    explicit_zero_completion,
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
    v1 = sol.value(x0)
    v2 = sol.value(hc.HVector(system.state_space, 2.0 * x0.coords))
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
    rk, gk = sol.rk[system.horizon], sol.gk[system.horizon]
    assert rk.domain == system.control_space
    assert rk.codomain == system.control_space
    assert gk.domain == system.state_space
    assert gk.codomain == system.control_space


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
            assert_pinned(sol.gk[k].matrix, gk_ref.matrix)
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
    monkeypatch.setattr(riccati, "_completion_arrays", explicit_zero_completion)
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
    assert_same_bits(sol.gk[0].matrix, cost.l(0).matrix + 0.0)


def test_coupled_solve_from_zero_terminals_keeps_its_bits(monkeypatch):
    rng = np.random.default_rng(43)
    games = [solvable_game(rng, weighted=weighted)[:3] for weighted in (False, True, False, True)]
    got = [hc.solve_coupled_riccati(*g) for g in games]
    monkeypatch.setattr(game, "_completion_arrays", explicit_zero_completion)
    want = [hc.solve_coupled_riccati(*g) for g in games]
    assert_same_bits(got, want)
