import numpy as np
import pytest

import hscontrol as hc
from hscontrol.examples import build_coupled_game, closed_game_forms
from helpers import (
    GAMMA_LADDER,
    assert_pinned,
    feasible_design,
    open_loop_view,
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
    for k in range(len(sol.p1)):
        total = sol.p1[k].matrix + sol.p2[k].matrix
        assert np.max(np.abs(total)) < 1e-10
    assert sol.j1 + sol.j2 == pytest.approx(0.0, abs=1e-10)


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


def test_unsolved_game_reports_failing_step(rank_one_game):
    sys2, x0 = rank_one_game
    sol = hc.solve_coupled_riccati(sys2, hc.GameParams(0.9, 0.0), x0)
    assert sol.status != "solved"
    assert sol.failing_step is not None
    assert sol.failing_detail


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
            assert np.max(np.abs(sol.p1[k].matrix + sol.p2[k].matrix)) < 1e-9
            assert np.max(np.abs(design.p[k].matrix - sol.p2[k].matrix)) < 1e-12


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
    gain = hc.perturbation_gain(dsys, oracle.witness)
    assert gain >= gamma


def test_h2hinf_design_rank_one_values(rank_one_game):
    sys2, x0 = rank_one_game
    res = hc.h2hinf_design(sys2, 2.0, x0)
    assert res.diagnostic is None
    # worst-case output energy from the hand-solved iterate
    forms = closed_game_forms(2.0, 0.0, DIM)
    norm_sq = 2.0 * (1.0 - 2.0 ** -DIM)
    expect_j2 = 1.5 * norm_sq + forms["omega"][1]
    assert res.j2 == pytest.approx(expect_j2, abs=1e-12)
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


def test_game_costs_consistent_with_energies(rank_one_game):
    sys2, x0 = rank_one_game
    params = hc.GameParams(2.0, 0.5)
    sol = hc.solve_coupled_riccati(sys2, params, x0)
    sched_v = hc.InputSchedule(gains=list(sol.v_gains))
    sched_u = hc.InputSchedule(gains=list(sol.u_gains))
    j1, j2 = hc.game_costs(sys2, params, x0, sched_v, sched_u)
    assert j1 == pytest.approx(sol.j1, rel=1e-8, abs=1e-8)
    assert j2 == pytest.approx(sol.j2, rel=1e-8, abs=1e-8)


def test_cross_coupled_step_pins_the_coupled_pass_on_weighted_spaces():
    rng = np.random.default_rng(13)
    adj = hc.adjoint
    for _ in range(3):
        sys2, params, x0, sol = solvable_game(rng, weighted=True)
        vs, us = sys2.disturbance_space, sys2.control_space
        for k in range(sys2.steps):
            p1n, p2n = sol.p1[k + 1], sol.p2[k + 1]
            k1, k2, p1, p2 = hc.cross_coupled_step(sys2, params, k, p1n, p2n)
            assert_pinned(k1.matrix, sol.v_gains[k].matrix)
            assert_pinned(k2.matrix, sol.u_gains[k].matrix)
            assert_pinned(p1.matrix, sol.p1[k].matrix)
            assert_pinned(p2.matrix, sol.p2[k].matrix)
            # stationarity and the player-1 iterate through the operator algebra
            a, c, cbar = sys2.a(k), sys2.c(k), sys2.cbar(k)
            b1, d1, b2, d2 = sys2.b1(k), sys2.d1(k), sys2.b2(k), sys2.d2(k)
            r1 = (hc.IdentityOperator(vs).scaled(params.gamma**2)
                  + adj(b1) @ p1n @ b1 + adj(d1) @ p1n @ d1)
            r2 = hc.IdentityOperator(us) + adj(b2) @ p2n @ b2 + adj(d2) @ p2n @ d2
            assert_pinned(r1.matrix, sol.r1[k].matrix)
            assert_pinned(r2.matrix, sol.r2[k].matrix)
            g1 = adj(b1) @ p1n @ (a + b2 @ k2) + adj(d1) @ p1n @ (c + d2 @ k2)
            assert_pinned((r1 @ k1).matrix, -g1.matrix)
            acl2, ccl2 = a + b2 @ k2, c + d2 @ k2
            p1_ref = (adj(acl2) @ p1n @ acl2 + adj(ccl2) @ p1n @ ccl2
                      + (adj(k2) @ k2 + adj(cbar) @ cbar + adj(k1) @ r1 @ k1).scaled(-1.0))
            assert_pinned(p1.matrix, p1_ref.matrix)
