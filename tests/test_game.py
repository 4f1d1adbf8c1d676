import dataclasses
import tracemalloc

import numpy as np
import pytest

import hscontrol as hc
from hscontrol import game
from hscontrol.examples import build_coupled_game, closed_game_forms
from helpers import (
    GAMMA_LADDER,
    assert_pinned,
    enumerated_nash_margins,
    feasible_design,
    open_loop_view,
    perturbation_gain,
    random_two_input,
    random_x0,
    solvable_game,
)


DIM = 16


@pytest.fixture(scope="module")
def rank_one_game():
    return build_coupled_game(dim=DIM)


@pytest.mark.parametrize("gamma", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
def test_rank_one_game_matches_hand_solution(rank_one_game, gamma, rho):
    sys2, x0 = rank_one_game
    sol = hc.solve_coupled_riccati(sys2, hc.GameParams(gamma, rho), x0)
    assert sol.solved
    forms = closed_game_forms(gamma, rho, DIM)
    assert np.max(np.abs(sol.p1[0].matrix - forms["p1"])) < 1e-10
    assert np.max(np.abs(sol.p2[0].matrix - forms["p2"])) < 1e-10
    k1 = sol.v_gains[0].matrix
    k2 = sol.u_gains[0].matrix
    expect_k1 = np.zeros((1, DIM))
    expect_k1[0, 0] = forms["k1"]
    expect_k2 = np.zeros((1, DIM))
    expect_k2[0, 0] = forms["k2"]
    assert np.max(np.abs(k1 - expect_k1)) < 1e-10
    assert np.max(np.abs(k2 - expect_k2)) < 1e-10
    # final-step iterates are the terminal output grams
    assert np.max(np.abs(sol.p1[1].matrix + np.eye(DIM))) < 1e-12
    assert np.max(np.abs(sol.p2[1].matrix - np.eye(DIM))) < 1e-12
    assert np.max(np.abs(sol.v_gains[1].matrix)) < 1e-12
    assert np.max(np.abs(sol.u_gains[1].matrix)) < 1e-12


def test_rank_one_game_values(rank_one_game):
    sys2, x0 = rank_one_game
    sol = hc.solve_coupled_riccati(sys2, hc.GameParams(2.0, 0.0), x0)
    norm_sq = 2.0 * (1.0 - 2.0 ** -DIM)
    forms = closed_game_forms(2.0, 0.0, DIM)
    o1, o2 = forms["omega"]
    expect_j1 = -1.5 * norm_sq + o1  # x0 leads with coordinate 1
    expect_j2 = 1.5 * norm_sq + o2
    assert sol.j1 == pytest.approx(expect_j1, abs=1e-12)
    assert sol.j2 == pytest.approx(expect_j2, abs=1e-12)


@pytest.mark.parametrize("gamma", [2.0, 2.5, 3.0])
def test_zero_sum_specialization(rank_one_game, gamma):
    sys2, x0 = rank_one_game
    sol = hc.solve_coupled_riccati(sys2, hc.GameParams(gamma, gamma), x0)
    assert sol.solved
    # at rho = gamma the two players' weights are exact negatives, so the
    # iterates cancel to the last bit, not just to round-off
    for k in range(len(sol.p1)):
        assert np.array_equal(sol.p1[k].matrix + sol.p2[k].matrix, np.zeros((DIM, DIM)))
    assert sol.j1 + sol.j2 == 0.0


def test_coupling_residual_small(rank_one_game):
    sys2, x0 = rank_one_game
    sol = hc.solve_coupled_riccati(sys2, hc.GameParams(2.0, 0.5), x0)
    assert sol.coupling_residual < 1e-10


def test_nash_equilibrium_on_rank_one_game(rank_one_game):
    sys2, x0 = rank_one_game
    params = hc.GameParams(2.0, 0.5)
    sol = hc.solve_coupled_riccati(sys2, params, x0)
    report = hc.verify_nash_equilibrium(sys2, params, sol, x0, deviations=50)
    assert report.worst_j1_margin >= -1e-8
    assert report.worst_j2_margin >= -1e-8
    assert report.j1_star == pytest.approx(sol.j1, rel=1e-8, abs=1e-8)
    assert report.j2_star == pytest.approx(sol.j2, rel=1e-8, abs=1e-8)


def test_nash_equilibrium_on_random_games():
    rng = np.random.default_rng(0)
    for weighted in (False, True):
        for _ in range(5):
            sys2, params, x0, sol = solvable_game(rng, weighted=weighted)
            report = hc.verify_nash_equilibrium(sys2, params, sol, x0, deviations=20)
            assert report.worst_j1_margin >= -1e-8
            assert report.worst_j2_margin >= -1e-8


def test_audit_refuses_unsolved_game(rank_one_game):
    sys2, x0 = rank_one_game
    params = hc.GameParams(0.9, 0.0)  # below the feedthrough pole
    sol = hc.solve_coupled_riccati(sys2, params, x0)
    assert not sol.solved
    with pytest.raises(hc.GameDomainError):
        hc.verify_nash_equilibrium(sys2, params, sol, x0)


def test_solve_refuses_a_start_state_off_the_state_space(rank_one_game):
    sys2, _ = rank_one_game
    x0 = hc.HVector(hc.euclidean(DIM + 1), np.ones(DIM + 1))
    with pytest.raises(hc.DimensionError, match="initial state"):
        hc.solve_coupled_riccati(sys2, hc.GameParams(2.0, 0.5), x0)


@pytest.mark.parametrize("kwargs", [{"deviations": 0}, {"deviations": -3},
                                    {"deviations": 2.5}, {"seed": -1}, {"seed": 1.5}])
def test_audit_refuses_vacuous_deviations(rank_one_game, kwargs, monkeypatch):
    # no deviation reported a passing margin of inf; a bad argument is
    # refused before the equilibrium values are enumerated
    sys2, x0 = rank_one_game
    params = hc.GameParams(2.0, 0.5)
    sol = hc.solve_coupled_riccati(sys2, params, x0)
    (name, _), = kwargs.items()
    batches = []
    monkeypatch.setattr(game, "run_batch", lambda *args: batches.append(args))
    with pytest.raises(hc.DimensionError, match=f"^{name} must be "):
        hc.verify_nash_equilibrium(sys2, params, sol, x0, **kwargs)
    assert batches == []


def _audited_games():
    """Twelve solved random games, unit and weighted, at rho = 0, gamma/2 and gamma."""
    rng = np.random.default_rng(2901)
    return [solvable_game(rng, weighted=weighted, rho_share=share)
            for weighted in (False, True) for share in (0.0, 0.5, 1.0) for _ in range(2)]


def _assert_audits_agree(sys2, params, sol, x0, seed):
    got = hc.verify_nash_equilibrium(sys2, params, sol, x0, deviations=6, seed=seed)
    want = enumerated_nash_margins(sys2, params, sol, x0, 6, seed)
    assert (got.j1_star, got.j2_star) == (want.j1_star, want.j2_star)
    for margin, ref, value in ((got.worst_j1_margin, want.worst_j1_margin, want.j1_star),
                               (got.worst_j2_margin, want.worst_j2_margin, want.j2_star)):
        assert abs(margin - ref) <= 1e-9 * (1.0 + abs(value))
    return got


def test_audit_margins_match_enumeration():
    for seed, (sys2, params, x0, sol) in enumerate(_audited_games()):
        report = _assert_audits_agree(sys2, params, sol, x0, seed)
        assert min(report.worst_j1_margin, report.worst_j2_margin) >= -1e-8


def test_audit_of_wrong_gains_matches_enumeration():
    # the pass assumes no stationarity, so a control gain off the solution
    # shows the same negative margins as enumeration
    margins = []
    for seed, (sys2, params, x0, sol) in enumerate(_audited_games()):
        wrong = [hc.DenseOperator(-3.0 * g.matrix, g.domain, g.codomain) for g in sol.u_gains]
        report = _assert_audits_agree(
            sys2, params, dataclasses.replace(sol, u_gains=wrong), x0, seed
        )
        margins += [report.worst_j1_margin, report.worst_j2_margin]
    assert min(margins) < -1.0


def test_audit_in_blocks_of_two_deviations_matches_enumeration(monkeypatch):
    sys2, params, x0, sol = _audited_games()[7]
    dw = sys2.disturbance_space.dim + sys2.control_space.dim
    monkeypatch.setattr(game, "_BLOCK_BYTES", 16 * (sys2.state_space.dim + sys2.steps * dw))
    _assert_audits_agree(sys2, params, sol, x0, 7)


def test_audit_memory_does_not_grow_with_deviations(rank_one_game):
    # 10^5 deviations at once would hold 12.8 MB of pi rows alone
    sys2, x0 = rank_one_game
    params = hc.GameParams(2.0, 0.5)
    sol = hc.solve_coupled_riccati(sys2, params, x0)
    tracemalloc.start()
    try:
        report = hc.verify_nash_equilibrium(sys2, params, sol, x0, deviations=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert min(report.worst_j1_margin, report.worst_j2_margin) >= -1e-8


def test_audit_hands_run_batch_one_batch(rank_one_game, monkeypatch):
    sys2, x0 = rank_one_game
    params = hc.GameParams(2.0, 0.5)
    sol = hc.solve_coupled_riccati(sys2, params, x0)
    calls = []

    def counted(*args):
        calls.append(args)
        return hc.sim.run_batch(*args)

    monkeypatch.setattr(game, "run_batch", counted)
    # no upper cap on the seed: numpy's generator takes any non-negative int
    report = hc.verify_nash_equilibrium(sys2, params, sol, x0, deviations=30, seed=2**130)
    assert len(calls) == 1
    assert min(report.worst_j1_margin, report.worst_j2_margin) >= -1e-8


def test_one_condition_cap_decides_game_lq_and_level_test(monkeypatch):
    # game: from P1(1) = -Cbar*Cbar = -I, the disturbance weight at step 0
    # is gamma^2 I - B1*B1 = diag(4, 0.39), condition 10.26
    hs, vs, us, zs = hc.euclidean(2), hc.euclidean(2), hc.euclidean(1), hc.euclidean(3)
    zero, cbar, gbar = hc.ZeroOperator(hs), np.zeros((3, 2)), np.zeros((3, 1))
    cbar[:2], gbar[2] = np.eye(2), 1.0
    sys2 = hc.TwoInputSystem(
        hs, vs, us, zs, 1, zero, hc.DiagonalOperator(np.array([0.0, 1.9]), hs),
        hc.ZeroOperator(us, hs), zero, hc.ZeroOperator(vs, hs), hc.ZeroOperator(us, hs),
        hc.DenseOperator(cbar, hs, zs), hc.DenseOperator(gbar, us, zs),
    )
    params, x0 = hc.GameParams(2.0, 0.0), hc.HVector(hs, np.ones(2))
    # LQ: Rk = R = diag(1, 1e-3) at the last step, condition 1e3
    us2 = hc.euclidean(2)
    system = hc.ControlledSystem(hs, us2, 0, zero, hc.ZeroOperator(us2, hs),
                                 zero, hc.ZeroOperator(us2, hs))
    lq = hc.LQProblem(system, hc.CostSpec(
        system, hc.IdentityOperator(hs), hc.ZeroOperator(hs, us2),
        hc.DiagonalOperator(np.array([1.0, 1e-3]), us2), zero,
    ), x0)
    # level test: the last p3 of the shift network at gamma = 1.2 has condition 3.27
    dsys = hc.examples.build_shift_network(16)

    def verdicts():
        return (hc.solve_coupled_riccati(sys2, params, x0).status,
                hc.solve_lq(lq).status, hc.brl_check(dsys, 1.2).completed)

    assert verdicts() == ("solved", "solved", True)
    assert hc.solve_coupled_riccati(sys2, params, x0).r1_certs[0].cond == pytest.approx(4 / 0.39)
    monkeypatch.setattr(hc.operators, "KAPPA_MAX", 3.0)
    assert verdicts() == ("domain_failure", "domain_failure", False)
    sol = hc.solve_coupled_riccati(sys2, params, x0)
    assert sol.failing_step == 0
    assert sol.failing_detail == (
        "disturbance weight at step 0: condition number 1.026e+01 exceeds 3.0e+00"
    )


def test_unsolved_game_reports_failing_step(rank_one_game):
    sys2, x0 = rank_one_game
    sol = hc.solve_coupled_riccati(sys2, hc.GameParams(0.9, 0.0), x0)
    assert sol.status == "domain_failure"
    assert sol.failing_step == 0
    assert sol.failing_detail.startswith("disturbance weight at step 0: ")
    # the walk stops at the failing step: nothing at or below it, all above it
    for k in range(sys2.steps):
        below = k <= sol.failing_step
        for entries in (sol.p1, sol.p2, sol.v_gains, sol.u_gains):
            assert (entries[k] is None) == below
    assert sol.p1[sys2.steps] is not None and sol.p2[sys2.steps] is not None
    assert sol.j1 is None and sol.j2 is None


def test_design_closed_loop_passes_gain_check():
    rng = np.random.default_rng(1)
    found = 0
    for _ in range(8):
        sys2 = random_two_input(rng)
        hit = feasible_design(sys2)
        if hit is None:
            continue
        gamma, design = hit
        run = hc.brl_check(design.closed, gamma)
        assert run.feasible, f"closed loop fails its own level {gamma}"
        found += 1
    assert found >= 5


def test_design_zero_sum_iterate_consistency():
    rng = np.random.default_rng(2)
    for weighted in (False, True):
        sys2 = random_two_input(rng, weighted=weighted)
        hit = feasible_design(sys2)
        assert hit is not None
        gamma, design = hit
        sol = design.solution
        for k in range(len(sol.p1)):
            assert not np.any(sol.p1[k].matrix + sol.p2[k].matrix)
        assert sol.j1 + sol.j2 == 0.0


def test_design_infeasible_below_open_loop_norm():
    rng = np.random.default_rng(3)
    sys2 = random_two_input(rng, noisy=False, controlled=False)
    dsys = open_loop_view(sys2)
    norm = hc.deterministic_norm_oracle(dsys).value
    if norm < 0.1:
        pytest.skip("degenerate draw")
    with pytest.raises(hc.DesignInfeasibleError):
        hc.hinf_design(sys2, 0.8 * norm)


def test_uncontrollable_infeasibility_has_oracle_witness():
    rng = np.random.default_rng(4)
    sys2 = random_two_input(rng, noisy=False, controlled=False)
    dsys = open_loop_view(sys2)
    oracle = hc.deterministic_norm_oracle(dsys)
    if oracle.value < 0.1:
        pytest.skip("degenerate draw")
    gamma = 0.8 * oracle.value
    with pytest.raises(hc.DesignInfeasibleError):
        hc.hinf_design(sys2, gamma)
    gain = perturbation_gain(dsys, oracle.witness)
    assert gain >= gamma


def test_h2hinf_design_rank_one_values(rank_one_game):
    sys2, x0 = rank_one_game
    res = hc.h2hinf_design(sys2, 2.0, x0)
    assert res.diagnostic is None
    # worst-case output energy from the hand-solved iterate
    forms = closed_game_forms(2.0, 0.0, DIM)
    norm_sq = 2.0 * (1.0 - 2.0 ** -DIM)
    expect_j2 = 1.5 * norm_sq + forms["omega"][1]
    assert res.solution.j2 == pytest.approx(expect_j2, abs=1e-12)
    run = hc.brl_check(res.closed, 2.0)
    assert run.feasible


def test_h2hinf_design_large_level_diagnostic(rank_one_game):
    sys2, x0 = rank_one_game
    res = hc.h2hinf_design(sys2, 1e6, x0)
    assert res.diagnostic is not None
    assert "level" in res.diagnostic


def test_h2hinf_design_infeasible_level(rank_one_game):
    sys2, x0 = rank_one_game
    with pytest.raises(hc.DesignInfeasibleError):
        hc.h2hinf_design(sys2, 0.5, x0)


def test_game_params_validation():
    with pytest.raises(hc.DimensionError):
        hc.GameParams(gamma=0.0)
    with pytest.raises(hc.DimensionError):
        hc.GameParams(gamma=1.0, rho=-0.5)
    # a level whose square overflows used to escape as OverflowError
    for gamma, rho in ((1e200, 0.0), (2.0, 1e200), (np.nan, 0.0), (2.0, np.nan)):
        with pytest.raises(hc.DimensionError, match="with a finite square"):
            hc.GameParams(gamma=gamma, rho=rho)


def test_game_costs_consistent_with_energies(rank_one_game):
    sys2, x0 = rank_one_game
    params = hc.GameParams(2.0, 0.5)
    sol = hc.solve_coupled_riccati(sys2, params, x0)
    view = sys2.as_controlled()
    gains = [hc.DenseOperator(np.vstack([kv.matrix, ku.matrix]), sys2.state_space,
                              view.control_space)
             for kv, ku in zip(sol.v_gains, sol.u_gains)]
    j1, j2 = hc.game_costs(sys2, params, x0, hc.Policy(view, gains))
    assert j1 == pytest.approx(sol.j1, rel=1e-8, abs=1e-8)
    assert j2 == pytest.approx(sol.j2, rel=1e-8, abs=1e-8)


def test_cross_coupled_step_pins_the_coupled_pass_on_weighted_spaces():
    rng = np.random.default_rng(13)
    for _ in range(3):
        sys2, params, x0, sol = solvable_game(rng, weighted=True)
        vs, us = sys2.disturbance_space, sys2.control_space
        for k in range(sys2.steps):
            p1n, p2n = sol.p1[k + 1], sol.p2[k + 1]
            k1, k2 = sol.v_gains[k], sol.u_gains[k]
            # stationarity and the player-1 iterate through the operator algebra
            a, c, cbar = sys2.a(k), sys2.c(k), sys2.cbar(k)
            b1, d1, b2, d2 = sys2.b1(k), sys2.d1(k), sys2.b2(k), sys2.d2(k)
            r1 = (hc.ScaledOperator(params.gamma**2, hc.IdentityOperator(vs))
                  + b1.adjoint() @ p1n @ b1 + d1.adjoint() @ p1n @ d1)
            r2 = hc.IdentityOperator(us) + b2.adjoint() @ p2n @ b2 + d2.adjoint() @ p2n @ d2
            # the certified weights are these operators: their spectra agree
            assert_pinned(sol.r1_certs[k].min_eig, min(np.linalg.eigvals(r1.matrix).real))
            assert_pinned(sol.r2_certs[k].min_eig, min(np.linalg.eigvals(r2.matrix).real))
            g1 = b1.adjoint() @ p1n @ (a + b2 @ k2) + d1.adjoint() @ p1n @ (c + d2 @ k2)
            assert_pinned((r1 @ k1).matrix, -g1.matrix)
            acl2, ccl2 = a + b2 @ k2, c + d2 @ k2
            p1_ref = (acl2.adjoint() @ p1n @ acl2 + ccl2.adjoint() @ p1n @ ccl2
                      + hc.ScaledOperator(-1.0, k2.adjoint() @ k2 + cbar.adjoint() @ cbar
                                          + k1.adjoint() @ r1 @ k1))
            assert_pinned(sol.p1[k].matrix, p1_ref.matrix)


def test_singular_gain_coupling_is_refused_at_its_step():
    # [[r1, s12], [s21, r2]] = [[1, 1], [1, 1]] has no inverse
    one = np.array([[1.0]])
    with pytest.raises(hc.CouplingSingularError) as err:
        game._solve_coupling(one, one, one, one, one, one, 4)
    assert err.value.step == 4
    assert "step 4" in str(err.value)


def test_stacked_view_of_two_input_system():
    rng = np.random.default_rng(17)
    sys2 = random_two_input(rng, weighted=True)
    view = sys2.as_controlled()
    vs, us = sys2.disturbance_space, sys2.control_space
    assert view.state_space == sys2.state_space
    assert view.horizon == sys2.horizon
    assert np.array_equal(view.control_space.weights, np.concatenate([vs.weights, us.weights]))
    for k in range(sys2.steps):
        assert view.a(k) is sys2.a(k) and view.c(k) is sys2.c(k)
        assert np.array_equal(view.b(k).matrix, np.hstack([sys2.b1(k).matrix, sys2.b2(k).matrix]))
        assert np.array_equal(view.d(k).matrix, np.hstack([sys2.d1(k).matrix, sys2.d2(k).matrix]))


def test_game_costs_refuses_policy_off_the_stacked_input(rank_one_game):
    sys2, x0 = rank_one_game
    off_view = hc.ControlledSystem(sys2.state_space, sys2.control_space, sys2.horizon,
                                   list(sys2.a), list(sys2.b2), list(sys2.c), list(sys2.d2))
    with pytest.raises(hc.DimensionError):
        hc.game_costs(sys2, hc.GameParams(2.0), x0, hc.Policy(off_view))


@pytest.mark.parametrize("weighted", [False, True])
def test_each_player_recursion_is_a_plain_pass(weighted):
    """With the other player's gain closed, each player runs an ordinary pass.

    Player 1 facing u = K2 x runs the bounded-real test of the closed loop:
    its output is Cbar + Gbar K2, so M = -Cbar*Cbar - K2*K2 and R = gamma^2 I.
    Player 2 facing v = K1 x runs the LQ pass on the v-closed plant with
    M = Cbar*Cbar - rho^2 K1*K1, R = I and a zero terminal weight.
    """
    rng = np.random.default_rng(23 + weighted)
    for _ in range(3):
        sys2, params, x0, sol = solvable_game(rng, weighted=weighted)
        hs, us = sys2.state_space, sys2.control_space
        run = hc.brl_check(hc.closed_loop(sys2, sol.u_gains), params.gamma)
        assert run.feasible
        k1 = sol.v_gains
        v_closed = hc.ControlledSystem(
            hs, us, sys2.horizon,
            [sys2.a(k) + sys2.b1(k) @ k1[k] for k in range(sys2.steps)],
            list(sys2.b2),
            [sys2.c(k) + sys2.d1(k) @ k1[k] for k in range(sys2.steps)],
            list(sys2.d2),
        )
        m = [sys2.cbar(k).adjoint() @ sys2.cbar(k)
             + hc.ScaledOperator(-params.rho**2, k1[k].adjoint() @ k1[k])
             for k in range(sys2.steps)]
        cost = hc.CostSpec(v_closed, m, hc.ZeroOperator(hs, us), hc.IdentityOperator(us),
                           hc.ZeroOperator(hs))
        lq = hc.solve_backward_riccati(v_closed, cost)
        assert lq.solved
        for k in range(sys2.steps + 1):
            assert_pinned(sol.p1[k].matrix, run.y[k].matrix)
            assert_pinned(sol.p2[k].matrix, lq.p[k].matrix)
        for k in range(sys2.steps):
            assert_pinned(sol.v_gains[k].matrix, run.worst_gains[k].matrix)
            assert_pinned(sol.u_gains[k].matrix, lq.gains[k].matrix)
