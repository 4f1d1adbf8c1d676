import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hscontrol as hc
from hscontrol import sim
from hscontrol.sim import run_batch, stage_cost_batch, terminal_cost_batch
from helpers import (
    dense,
    random_controlled,
    random_disturbed,
    random_psd_cost,
    random_solved_problem,
    random_x0,
    record_matrix_builds,
    replication_noise,
    solvable_game,
    space,
)


HS = hc.euclidean(1)
US = hc.euclidean(1)
ID = hc.IdentityOperator(HS)
ZH = hc.ZeroOperator(HS)
ZU = hc.ZeroOperator(US, HS)


def scalar_system(horizon, a=1.0, b=0.0, c=0.0, d=0.0):
    return hc.ControlledSystem(
        HS, US, horizon,
        hc.ScaledOperator(a, ID), hc.DenseOperator(np.array([[b]]), US, HS),
        hc.ScaledOperator(c, ID), hc.DenseOperator(np.array([[d]]), US, HS),
    )


def unit_cost(system, m=1.0, r=1.0, s=1.0):
    return hc.CostSpec(
        system,
        hc.ScaledOperator(m, hc.IdentityOperator(system.state_space)),
        hc.ZeroOperator(system.state_space, system.control_space),
        hc.ScaledOperator(r, hc.IdentityOperator(system.control_space)),
        hc.ScaledOperator(s, hc.IdentityOperator(system.state_space)),
    )


def x0_one():
    return hc.HVector(HS, np.array([1.0]))


def test_rollout_starts_at_x0():
    sys_ = scalar_system(3, a=0.5)
    traj = hc.simulate(sys_, hc.Policy(sys_), x0_one(), np.zeros(4))
    assert traj.states[0, 0] == 1.0


def test_identity_dynamics_hold_state():
    sys_ = scalar_system(5, a=1.0)
    traj = hc.simulate(sys_, hc.Policy(sys_), x0_one(), np.zeros(6))
    assert np.allclose(traj.states, 1.0)


def test_doubling_dynamics():
    sys_ = scalar_system(3, a=2.0)
    traj = hc.simulate(sys_, hc.Policy(sys_), x0_one(), np.zeros(4))
    assert np.allclose(traj.states.ravel(), [1.0, 2.0, 4.0, 8.0, 16.0])


def test_rollout_satisfies_recurrence():
    rng = np.random.default_rng(0)
    sys_ = random_controlled(rng)
    x0 = random_x0(rng, sys_.state_space)
    inputs = [rng.standard_normal(sys_.control_space.dim) for _ in range(sys_.steps)]
    noises = rng.standard_normal(sys_.steps)
    pol = hc.Policy(sys_, inputs=inputs)
    traj = hc.simulate(sys_, pol, x0, noises)
    assert np.array_equal(traj.controls, np.array(inputs))
    for k in range(sys_.steps):
        drift = sys_.a(k).matrix @ traj.states[k] + sys_.b(k).matrix @ traj.controls[k]
        diff = sys_.c(k).matrix @ traj.states[k] + sys_.d(k).matrix @ traj.controls[k]
        expect = drift + noises[k] * diff
        assert np.max(np.abs(traj.states[k + 1] - expect)) < 1e-12


def test_terminal_only_noise_expectation_is_one():
    # x(1) = noise * x(0); E <x(1), x(1)> = 1 for unit x0
    sys_ = scalar_system(0, a=0.0, c=1.0)
    cost = unit_cost(sys_, m=0.0, r=0.0, s=1.0)
    res = hc.enumerate_expectation(sys_, cost, hc.Policy(sys_), x0_one())
    assert res.value == pytest.approx(1.0, abs=1e-14)
    assert res.paths == 2


def test_enumeration_equals_single_path_when_noise_free():
    rng = np.random.default_rng(1)
    sys_ = random_controlled(rng, noisy=False)
    cost = random_psd_cost(rng, sys_)
    x0 = random_x0(rng, sys_.state_space)
    pol = hc.Policy(sys_, inputs=[rng.standard_normal(sys_.control_space.dim)
                                  for _ in range(sys_.steps)])
    res = hc.enumerate_expectation(sys_, cost, pol, x0)
    direct = hc.simulate(sys_, pol, x0, np.zeros(sys_.steps), cost=cost).cost
    assert res.value == pytest.approx(direct, rel=1e-12)


def test_simulate_bundle_reports_outputs_and_cost():
    rng = np.random.default_rng(2)
    sys_ = scalar_system(2, a=0.5, b=1.0)
    cost = unit_cost(sys_)
    pol = hc.Policy(sys_, inputs=[np.array([0.1]), np.array([0.2]), np.array([0.0])])
    bundle = hc.simulate(sys_, pol, x0_one(), np.zeros(3), cost=cost)
    assert bundle.states.shape == (4, 1)
    assert bundle.outputs is None
    # x = 1, 0.6, 0.5, 0.25 under u = 0.1, 0.2, 0: sum of x^2 + u^2, then x(3)^2
    states = [1.0, 0.6, 0.5, 0.25]
    assert np.allclose(bundle.states.ravel(), states, rtol=1e-15, atol=0.0)
    expect = sum(x * x for x in states[:3]) + 0.1**2 + 0.2**2 + states[3] ** 2
    assert bundle.cost == pytest.approx(expect, rel=1e-14)
    assert hc.simulate(sys_, pol, x0_one(), np.zeros(3)).cost is None


def test_simulate_disturbed_outputs_follow_the_output_map():
    rng = np.random.default_rng(4)
    dsys = random_disturbed(rng, weighted=True)
    x0 = random_x0(rng, dsys.state_space)
    inputs = [rng.standard_normal(dsys.disturbance_space.dim) for _ in range(dsys.steps)]
    pol = hc.Policy(dsys.as_controlled(), inputs=inputs)
    traj = hc.simulate(dsys, pol, x0, rng.standard_normal(dsys.steps))
    for k in range(dsys.steps):
        expect = dsys.cbar(k).matrix @ traj.states[k] + dsys.dbar(k).matrix @ inputs[k]
        assert np.max(np.abs(traj.outputs[k] - expect)) < 1e-12


def test_simulate_needs_one_noise_factor_per_step():
    sys_ = scalar_system(2, a=0.5)
    for noises in (np.zeros(2), np.zeros(4), np.zeros((1, 3)), 0.0):
        with pytest.raises(hc.DimensionError):
            hc.simulate(sys_, hc.Policy(sys_), x0_one(), noises)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_noise_is_bad_input_not_an_overflow(bad):
    # a NaN factor on the heat plant used to be refused as an overflow by
    # simulate, and to come back from run_batch as a NaN total
    heat = hc.examples.build_heat_problem(1, 16)
    system, x0, policy = heat.system, heat.x0, hc.Policy(heat.system)
    noises = np.zeros(system.steps)
    noises[0] = bad
    with pytest.raises(hc.DimensionError, match=f"path 0 holds {bad} at step 0"):
        hc.simulate(system, policy, x0, noises)
    paths = np.zeros((4, system.steps))
    paths[2, 1] = bad
    with pytest.raises(hc.DimensionError, match=f"path 2 holds {bad} at step 1"):
        run_batch(system, policy, x0, paths, lambda k, x, u: np.zeros(x.shape[0]))
    # a finite path on a plant that overflows is still refused as an overflow
    big = scalar_system(2, a=1e200)
    with pytest.raises(hc.ResolutionError, match="overflows"):
        hc.simulate(big, hc.Policy(big), x0_one(), np.zeros(big.steps))


def test_monte_carlo_deterministic_functional_has_zero_half_width():
    sys_ = scalar_system(2, a=2.0)
    cost = unit_cost(sys_)
    mc = hc.monte_carlo_expectation(sys_, cost, hc.Policy(sys_), x0_one(),
                                    reps=64, seed=0)
    assert mc.half_width == 0.0
    assert mc.std_error == 0.0


def test_monte_carlo_seed_determinism():
    sys_ = scalar_system(3, a=0.8, c=0.6)
    cost = unit_cost(sys_)
    a = hc.monte_carlo_expectation(sys_, cost, hc.Policy(sys_), x0_one(),
                                   reps=500, seed=7)
    b = hc.monte_carlo_expectation(sys_, cost, hc.Policy(sys_), x0_one(),
                                   reps=500, seed=7)
    assert a.mean == b.mean
    assert a.half_width == b.half_width
    c = hc.monte_carlo_expectation(sys_, cost, hc.Policy(sys_), x0_one(),
                                   reps=500, seed=8)
    assert c.mean != a.mean


def test_monte_carlo_covers_enumerated_value():
    """95 percent intervals cover the exact value about as often as they should.

    With 30 independent cases, seeds 500 + i, each check fails a correct
    estimator with a stated probability, so no seed base has to be picked:

    * at least 24 of the 30 intervals cover (fails with probability 5.7e-4
      under exact 95 percent coverage);
    * with z = (mean - exact) / std_error per case, the sum of z^2 lies in the
      central 0.998 interval of chi^2 with 30 degrees of freedom, [11.59,
      59.70] (fails with probability 2e-3).  This also catches intervals
      that are too wide, which a coverage count alone cannot.
    """
    rng = np.random.default_rng(3)
    hits = 0
    total = 30
    z2 = 0.0
    for i in range(total):
        sys_ = random_controlled(rng, dim_max=3, horizon_max=4)
        cost = random_psd_cost(rng, sys_)
        x0 = random_x0(rng, sys_.state_space)
        pol = hc.Policy(sys_)
        exact = hc.enumerate_expectation(sys_, cost, pol, x0).value
        mc = hc.monte_carlo_expectation(sys_, cost, pol, x0, reps=4000, seed=500 + i)
        if abs(mc.mean - exact) <= mc.half_width:
            hits += 1
        z2 += ((mc.mean - exact) / mc.std_error) ** 2
    assert hits >= 24, f"only {hits}/{total} intervals covered the exact value"
    assert 11.59 <= z2 <= 59.70, f"sum of z^2 over {total} cases is {z2}"


def affine_plant(dim, steps=4, seed=None):
    """A dim-state, 2-input plant with stage costs and an affine policy."""
    rng = np.random.default_rng(dim if seed is None else seed)
    hs, us = hc.euclidean(dim), hc.euclidean(2)
    s = 0.9 / np.sqrt(dim)
    sys_ = hc.ControlledSystem(
        hs, us, steps - 1,
        [dense(rng, hs, hs, s) for _ in range(steps)],
        [dense(rng, us, hs, s) for _ in range(steps)],
        [dense(rng, hs, hs, s / 2) for _ in range(steps)],
        [dense(rng, us, hs, s / 2) for _ in range(steps)],
    )
    cost = hc.CostSpec(sys_, hc.IdentityOperator(hs), hc.ZeroOperator(hs, us),
                       hc.IdentityOperator(us), hc.IdentityOperator(hs))
    pol = hc.Policy(sys_, [dense(rng, hs, us, 0.3) for _ in range(steps)],
                    [rng.standard_normal(2) for _ in range(steps)])
    return sys_, cost, pol, random_x0(rng, hs)


# dim 1 runs on a smaller block, so that 3·block + 17 replications stay cheap
@pytest.mark.parametrize("dim, block_bytes", [(1, 8 * 1024), (32, None), (130, None)])
def test_monte_carlo_blocks_match_one_batch(dim, block_bytes, monkeypatch):
    """Mean, std_error and half_width have the bits of one run_batch over every path."""
    if block_bytes is not None:
        monkeypatch.setattr(sim, "_BLOCK_BYTES", block_bytes)
    block = max(1, sim._BLOCK_BYTES // (8 * dim))
    sys_, cost, pol, x0 = affine_plant(dim)
    for reps in sorted({2, max(2, block - 1), block, block + 1, 3 * block + 17}):
        got = hc.monte_carlo_expectation(sys_, cost, pol, x0, reps, seed=reps)
        vals = run_batch(sys_, pol, x0, hc.draw_noise_paths(reps, reps, sys_.steps),
                         lambda k, x, u: stage_cost_batch(cost, k, x, u),
                         lambda x: terminal_cost_batch(cost, x))
        std_error = float(np.std(vals, ddof=1) / np.sqrt(reps))
        assert got.reps == reps
        assert got.mean == float(np.mean(vals))
        assert got.std_error == std_error
        assert got.half_width == 1.96 * std_error


def test_monte_carlo_noise_memory_is_per_block(monkeypatch):
    """Traced peak grows by a few bytes per replication, not by a path's 8·steps.

    Blocks of 1000 rows, so that both runs fill whole blocks; the real block
    at dim 4 holds 16384 rows.
    """
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 8 * 4 * 1000)
    hs, us = hc.euclidean(4), hc.euclidean(1)
    rng = np.random.default_rng(6)
    sys_ = hc.ControlledSystem(hs, us, 29, dense(rng, hs, hs, 0.4), dense(rng, us, hs, 0.4),
                               dense(rng, hs, hs, 0.2), hc.ZeroOperator(us, hs))
    cost = unit_cost(sys_)
    x0 = random_x0(rng, hs)
    peaks = {}
    for reps in (4_000, 40_000):
        tracemalloc.start()
        try:
            hc.monte_carlo_expectation(sys_, cost, hc.Policy(sys_), x0, reps, seed=1)
            peaks[reps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the (40000, 30) paths alone would add 8.6 MB
    assert peaks[40_000] - peaks[4_000] < 16 * 36_000 + 256 * 1024


def test_monte_carlo_builds_no_state_sized_matrix_of_the_heat_rod(monkeypatch):
    # the rollout advances states through each operator's own row product,
    # so the diagonal A and the zero C of the rod are never made n x n
    problem = hc.examples.build_heat_problem(1, modes=64)
    policy = hc.optimal_policy(problem, hc.solve_lq(problem))
    built = record_matrix_builds(monkeypatch)
    for block_rows in (500, 100):  # one block of 500 replications, then five
        monkeypatch.setattr(sim, "_BLOCK_BYTES", 8 * 64 * block_rows)  # 64 modes
        hc.monte_carlo_expectation(problem.system, problem.cost, policy, problem.x0, 500)
    assert [op for op in built if op.domain.dim == op.codomain.dim == 64] == []


def test_monte_carlo_rolls_out_reps_times_steps_path_steps(monkeypatch):
    # the traced benchmark counts Monte Carlo work as the paths passed to run_batch
    sys_, cost, pol, x0 = affine_plant(32, steps=3)
    path_steps = []

    def counted(system, policy, x0, noise_paths, *args):
        path_steps.append(noise_paths.size)
        return run_batch(system, policy, x0, noise_paths, *args)

    monkeypatch.setattr(hc.sim, "run_batch", counted)
    reps = 3 * max(1, sim._BLOCK_BYTES // (8 * 32)) + 5
    hc.monte_carlo_expectation(sys_, cost, pol, x0, reps, seed=2)
    assert sum(path_steps) == reps * sys_.steps


def test_identity_weight_stage_cost_makes_no_copy(monkeypatch):
    sys_, cost, pol, x0 = affine_plant(5)
    x = np.random.default_rng(1).standard_normal((7, 5))
    u = np.random.default_rng(2).standard_normal((7, 2))
    want = stage_cost_batch(cost, 0, x, u), terminal_cost_batch(cost, x)

    def refused(self, x):
        raise AssertionError("identity rmatmul called")

    monkeypatch.setattr(hc.IdentityOperator, "rmatmul", refused)
    got = stage_cost_batch(cost, 0, x, u), terminal_cost_batch(cost, x)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    np.testing.assert_allclose(want[1], np.einsum("pi,pi->p", x, x), rtol=1e-15)


def test_gaussian_noise_moment_contract():
    draws = hc.draw_noise_paths(seed=123, reps=1000, steps=1000)
    flat = draws.ravel()
    n = flat.size
    assert n == 10 ** 6
    assert abs(flat.mean()) < 4.0 / np.sqrt(n)
    assert abs(flat.var() - 1.0) < 0.01
    lag1 = np.mean(flat[:-1] * flat[1:])
    assert abs(lag1) < 4.0 / np.sqrt(n - 1)


def test_replication_streams_are_order_independent():
    want = replication_noise(9, 3, 5)
    hc.draw_noise_paths(seed=9, reps=1, steps=50)
    assert hc.draw_noise_paths(seed=9, reps=4, steps=5)[3].tobytes() == want.tobytes()
    assert sim._noise_rows(9, 3, 4, 5)[0].tobytes() == want.tobytes()
    assert sim._noise_rows(9, 2, 9, 5)[1].tobytes() == want.tobytes()


def test_enumeration_path_count_and_limit():
    sys_ = scalar_system(2, a=1.0, c=0.5)
    cost = unit_cost(sys_)
    res = hc.enumerate_expectation(sys_, cost, hc.Policy(sys_), x0_one())
    assert res.paths == 8
    long_sys = scalar_system(hc.ENUMERATION_MAX_STEPS, a=1.0, c=0.5)
    with pytest.raises(hc.EnumerationLimitError):
        hc.enumerate_expectation(long_sys, unit_cost(long_sys),
                                 hc.Policy(long_sys), x0_one())


def test_enumeration_matches_manual_average():
    sys_ = scalar_system(1, a=1.0, c=1.0)
    cost = unit_cost(sys_, m=0.0, r=0.0, s=1.0)
    pol = hc.Policy(sys_)
    res = hc.enumerate_expectation(sys_, cost, pol, x0_one())
    total = 0.0
    for s0 in (-1.0, 1.0):
        for s1 in (-1.0, 1.0):
            total += hc.simulate(sys_, pol, x0_one(), np.array([s0, s1]), cost=cost).cost
    assert res.value == pytest.approx(total / 4.0, rel=1e-14)


def test_gain_policy_feeds_back_state():
    sys_ = scalar_system(1, a=1.0, b=1.0)
    gain = hc.DenseOperator(np.array([[-0.5]]), HS, US)
    pol = hc.Policy(sys_, gains=[gain, gain])
    traj = hc.simulate(sys_, pol, x0_one(), np.zeros(2))
    assert traj.controls[0, 0] == pytest.approx(-0.5)
    assert traj.states[1, 0] == pytest.approx(0.5)
    assert traj.controls[1, 0] == pytest.approx(-0.25)


def per_path_totals(system, gains, inputs, x0, paths, stage, terminal=None):
    """Reference totals: a plain loop that advances one path at a time."""
    totals = []
    for noise in paths:
        x, total = x0.coords.copy(), 0.0
        for k in range(system.steps):
            u = gains[k] @ x + inputs[k]
            total = total + stage(k, x[None, :], u[None, :])[0]
            drift = system.a(k).matrix @ x + system.b(k).matrix @ u
            x = drift + noise[k] * (system.c(k).matrix @ x + system.d(k).matrix @ u)
        if terminal is not None:
            total = total + terminal(x[None, :])[0]
        totals.append(total)
    return np.array(totals)


def noise_batches(rng, steps):
    signs = hc.sign_paths(steps)
    duplicated = np.vstack([signs, signs[rng.integers(0, len(signs), 5)]])
    yield signs
    yield duplicated[rng.permutation(len(duplicated))]
    yield rng.standard_normal((40, steps))
    yield rng.standard_normal((1, steps))
    # one repeated first entry (as -0.0 and 0.0) makes every column a sort key
    tied = rng.standard_normal((40, steps))
    tied[[7, 30], 0] = [0.0, -0.0]
    yield tied


@pytest.mark.parametrize("weighted", [False, True])
def test_run_batch_matches_per_path_recursion(weighted):
    check_run_batch_against_per_path(np.random.default_rng(20 + weighted), weighted)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("budget_rows", [1, 5, 16])
def test_blocked_run_batch_matches_per_path_recursion(weighted, budget_rows, monkeypatch):
    # blocks of max(1, budget_rows // dim) rows: a handful of rows, often one
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 8 * budget_rows)
    check_run_batch_against_per_path(np.random.default_rng(40 + budget_rows), weighted)


def check_run_batch_against_per_path(rng, weighted):
    for _ in range(6):
        sys_ = random_controlled(rng, horizon_max=5, weighted=weighted)
        hs, us = sys_.state_space, sys_.control_space
        cost = random_psd_cost(rng, sys_)
        x0 = random_x0(rng, hs)
        gains = [0.3 * rng.standard_normal((us.dim, hs.dim)) for _ in range(sys_.steps)]
        inputs = [rng.standard_normal(us.dim) for _ in range(sys_.steps)]
        pol = hc.Policy(sys_, [hc.DenseOperator(g, hs, us) for g in gains], inputs)

        def scalar_stage(k, x, u):
            return stage_cost_batch(cost, k, x, u)

        def terminal(x):
            return terminal_cost_batch(cost, x)

        def pair_stage(k, x, u):
            return np.column_stack([np.einsum("pi,pi->p", x * hs.weights, x),
                                    np.einsum("pi,pi->p", u * us.weights, u)])

        for paths in noise_batches(rng, sys_.steps):
            got = run_batch(sys_, pol, x0, paths, scalar_stage, terminal)
            want = per_path_totals(sys_, gains, inputs, x0, paths, scalar_stage, terminal)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            got = run_batch(sys_, pol, x0, paths, pair_stage)
            want = per_path_totals(sys_, gains, inputs, x0, paths, pair_stage)
            assert got.shape == (len(paths), 2)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        empty = np.empty((0, sys_.steps))
        assert run_batch(sys_, pol, x0, empty, scalar_stage, terminal).shape == (0,)
        assert run_batch(sys_, pol, x0, empty, pair_stage).shape == (0, 2)


@pytest.mark.parametrize("block_bytes", [None, 8 * 3])
@pytest.mark.parametrize("parts", ["gains", "inputs", "both", "neither"])
@pytest.mark.parametrize("weighted", [False, True])
def test_folded_rollout_matches_native_and_per_path(weighted, parts, block_bytes, monkeypatch):
    """Dense plants roll out on (A + BK, C + DK) and the offset rows (Bf, Df).

    The totals agree with the native row products of A, B, C and D and with
    the per-path recursion to 1e-13 relative, but not to the bit.  A tiny
    block budget puts one to three rows in a block.
    """
    if block_bytes is not None:
        monkeypatch.setattr(sim, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(len(parts) + 10 * weighted)
    for _ in range(4):
        sys_ = random_controlled(rng, horizon_max=5, weighted=weighted)
        hs, us = sys_.state_space, sys_.control_space
        cost = random_psd_cost(rng, sys_)
        x0 = random_x0(rng, hs)
        has_gains, has_inputs = parts in ("gains", "both"), parts in ("inputs", "both")
        gains = [0.3 * rng.standard_normal((us.dim, hs.dim)) if has_gains
                 else np.zeros((us.dim, hs.dim)) for _ in range(sys_.steps)]
        inputs = [rng.standard_normal(us.dim) if has_inputs else np.zeros(us.dim)
                  for _ in range(sys_.steps)]
        pol = hc.Policy(sys_, [hc.DenseOperator(g, hs, us) for g in gains] if has_gains else None,
                        inputs if has_inputs else None)
        assert sim._closed_loop_maps(sys_, pol) is not None

        def stage(k, x, u):
            return stage_cost_batch(cost, k, x, u)

        def terminal(x):
            return terminal_cost_batch(cost, x)

        for paths in (hc.sign_paths(sys_.steps), rng.standard_normal((30, sys_.steps))):
            folded = run_batch(sys_, pol, x0, paths, stage, terminal)
            with monkeypatch.context() as native:
                native.setattr(sim, "_closed_loop_maps", lambda system, policy: None)
                opened = run_batch(sys_, pol, x0, paths, stage, terminal)
            want = per_path_totals(sys_, gains, inputs, x0, paths, stage, terminal)
            np.testing.assert_allclose(folded, opened, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(folded, want, rtol=1e-13, atol=0.0)


def test_closed_loop_maps_are_built_once_per_run_batch_call(monkeypatch):
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 8 * 5 * 7)  # dim 5: seven rows a block
    sys_, cost, pol, x0 = affine_plant(5)
    calls = {"maps": 0, "blocks": 0}

    def counted(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(sim, "_closed_loop_maps", counted("maps", sim._closed_loop_maps))
    monkeypatch.setattr(sim, "_run_block", counted("blocks", sim._run_block))
    run_batch(sys_, pol, x0, hc.sign_paths(sys_.steps),
              lambda k, x, u: stage_cost_batch(cost, k, x, u))
    assert calls == {"maps": 1, "blocks": 3}  # 16 sign paths in blocks of 7


def test_dense_plants_fold_only_while_the_maps_fit_the_cap(monkeypatch):
    # 2·steps maps of n x n doubles: a dense plant past the cap rolls out
    # on its native row products, with the same totals to rounding
    sys_, cost, pol, x0 = affine_plant(6, steps=3)
    size = 2 * 3 * 6 * 6 * 8
    paths = hc.sign_paths(3)

    def run():
        return run_batch(sys_, pol, x0, paths, lambda k, x, u: stage_cost_batch(cost, k, x, u))

    monkeypatch.setattr(sim, "_FOLD_MAX_BYTES", size)
    assert sim._closed_loop_maps(sys_, pol) is not None
    folded = run()
    monkeypatch.setattr(sim, "_FOLD_MAX_BYTES", size - 1)
    assert sim._closed_loop_maps(sys_, pol) is None
    np.testing.assert_allclose(run(), folded, rtol=1e-13, atol=0.0)


def test_expected_cost_of_a_large_heat_rod_builds_no_state_sized_matrix(monkeypatch):
    # the heat semigroup does not keep a matrix, so the rollout keeps its
    # native row products: an n x n array at 4096 modes would take 128 MiB
    modes = 4096
    problem = hc.examples.build_heat_problem(1, modes=modes)
    policy = hc.optimal_policy(problem, hc.solve_lq(problem))
    assert sim._closed_loop_maps(problem.system, policy) is None
    built = record_matrix_builds(monkeypatch)
    tracemalloc.start()
    try:
        hc.expected_cost(problem, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [op for op in built if op.domain.dim == op.codomain.dim == modes] == []
    assert peak < 8 * modes * modes // 16  # a sixteenth of one n x n array


def test_run_batch_advances_each_distinct_prefix_once():
    def rows_seen(paths):
        sys_ = scalar_system(paths.shape[1] - 1, a=0.9, c=0.5)
        seen = []

        def stage(k, x, u):
            seen.append(x.shape[0])
            return np.zeros(x.shape[0])

        def terminal(x):
            seen.append(x.shape[0])
            return np.zeros(x.shape[0])

        run_batch(sys_, hc.Policy(sys_), x0_one(), paths, stage, terminal)
        return seen

    assert rows_seen(hc.sign_paths(10)) == [2**k for k in range(11)]
    reps = 64
    gauss = hc.draw_noise_paths(seed=2, reps=reps, steps=10)
    assert rows_seen(gauss) == [1] + [reps] * 10


def lexsorted(paths):
    return paths[np.lexsort(paths.T[::-1])]


@pytest.mark.parametrize("block_rows", [1, 7, 64])
def test_blocked_run_batch_advances_each_prefix_once_per_block(block_rows, monkeypatch):
    """Rows at step k: at least the distinct k-prefixes, at most (blocks - 1) more.

    The bound holds for batches grouped by prefix, as sign paths and
    Gaussian draws come; a permuted batch is not regrouped, so it is held
    to its values only.
    """
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 8 * block_rows)  # dim 1
    rng = np.random.default_rng(block_rows)
    signs = hc.sign_paths(8)
    duplicated = np.vstack([signs, signs[rng.integers(0, len(signs), 9)]])
    sampled = signs[rng.integers(0, len(signs), 50)]
    grouped = [
        signs,
        lexsorted(duplicated),
        hc.draw_noise_paths(seed=3, reps=50, steps=8),
        lexsorted(sampled),
    ]
    permuted = [duplicated[rng.permutation(len(duplicated))], sampled]
    sys_ = scalar_system(signs.shape[1] - 1, a=0.9, c=0.5)
    for paths, is_grouped in [(p, True) for p in grouped] + [(p, False) for p in permuted]:
        seen = []

        def stage(k, x, u):
            seen.append(x.shape[0])
            return x[:, 0] ** 2

        def terminal(x):
            seen.append(x.shape[0])
            return x[:, 0]

        # a block's rows all pass through every step before the next block starts
        got = run_batch(sys_, hc.Policy(sys_), x0_one(), paths, stage, terminal)
        zeros = [np.zeros((1, 1))] * sys_.steps
        want = per_path_totals(sys_, zeros, [np.zeros(1)] * sys_.steps, x0_one(), paths,
                               lambda k, x, u: x[:, 0] ** 2, lambda x: x[:, 0])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        if not is_grouped:
            continue
        blocks = -(-len(paths) // block_rows)
        per_step = np.array(seen).reshape(blocks, paths.shape[1] + 1).sum(axis=0)
        for k, rows in enumerate(per_step):
            distinct = len(np.unique(paths[:, :k], axis=0)) if k else 1
            assert distinct <= rows <= distinct + blocks - 1


def is_lexsorted(paths):
    return np.array_equal(np.lexsort(paths.T[::-1]), np.arange(len(paths)))


def test_sign_paths_are_in_lexicographic_order():
    for n in range(1, 11):
        paths = hc.sign_paths(n)
        assert is_lexsorted(paths)
        assert np.array_equal(lexsorted(paths), paths)


@pytest.mark.parametrize("steps, why", [(-1, "non-negative"), (2.5, "integer")])
def test_bad_sign_path_length_refused(steps, why):
    with pytest.raises(hc.DimensionError, match=f"^steps .*{why}"):
        hc.sign_paths(steps)


def test_library_batches_are_grouped_by_prefix(monkeypatch):
    """Every batch the library hands run_batch is sorted or shares no first step.

    run_batch shares states between adjacent rows only, so an unsorted batch
    with a repeated first-step noise would advance its shared prefixes more
    than once.  Enumeration passes sign paths, Monte Carlo and simulate pass
    Gaussian or single rows.
    """
    batches = []

    def recorded(system, policy, x0, noise_paths, *args):
        batches.append(np.asarray(noise_paths))
        return run_batch(system, policy, x0, noise_paths, *args)

    for module in (hc.sim, hc.lq, hc.game):
        monkeypatch.setattr(module, "run_batch", recorded)
    rng = np.random.default_rng(70)
    problem = random_solved_problem(rng, allow_indefinite=False)
    sol = hc.solve_lq(problem)
    hc.completing_square_check(problem, sol, hc.optimal_policy(problem, sol))
    sys2, params, x0, game = solvable_game(rng)
    hc.verify_nash_equilibrium(sys2, params, game, x0, deviations=4)
    pol = hc.Policy(problem.system)
    hc.monte_carlo_expectation(problem.system, problem.cost, pol, problem.x0, 300, seed=1)
    hc.simulate(problem.system, pol, problem.x0,
                rng.standard_normal(problem.system.steps), cost=problem.cost)
    assert len(batches) >= 5
    for paths in batches:
        assert is_lexsorted(paths) or len(np.unique(paths[:, 0])) == len(paths)


@pytest.mark.parametrize("dim", [1, 32, 64, 100, 130])
def test_run_batch_row_bits_depend_only_on_its_block(dim):
    """One run over 3·B + 17 Gaussian rows has the bits of one run per B-row slice."""
    block = max(1, sim._BLOCK_BYTES // (8 * dim))
    rng = np.random.default_rng(dim)
    for _ in range(3):
        sys_, cost, pol, x0 = affine_plant(dim, steps=int(rng.integers(1, 5)),
                                           seed=int(rng.integers(1 << 30)))
        paths = rng.standard_normal((3 * block + 17, sys_.steps))

        def run(rows):
            return run_batch(sys_, pol, x0, rows,
                             lambda k, x, u: stage_cost_batch(cost, k, x, u),
                             lambda x: terminal_cost_batch(cost, x))

        sliced = [run(paths[start : start + block]) for start in range(0, len(paths), block)]
        assert run(paths).tobytes() == np.concatenate(sliced).tobytes()


def test_run_batch_memory_is_bounded_per_block():
    """Traced peak of one run over the 2^16 sign paths at dim 64.

    The paths alone take 8.4 MB; a rollout over all rows at once holds
    several (2^16, 64) float arrays of 33.5 MB each.
    """
    hs, us = hc.ell2(64), hc.euclidean(2)
    rng = np.random.default_rng(5)
    ident = hc.IdentityOperator(hs)
    sys_ = hc.ControlledSystem(hs, us, 15, hc.ScaledOperator(0.5, ident), dense(rng, us, hs),
                               hc.ScaledOperator(0.3, ident), hc.ZeroOperator(us, hs))
    cost = unit_cost(sys_)
    x0 = random_x0(rng, hs)
    paths = hc.sign_paths(16)
    tracemalloc.start()
    try:
        run_batch(sys_, hc.Policy(sys_), x0, paths,
                  lambda k, x, u: stage_cost_batch(cost, k, x, u),
                  lambda x: terminal_cost_batch(cost, x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * paths.nbytes + 4 * 2**20


def test_stage_costs_match_inner_products():
    """Each row's stage and terminal cost against HVector inner products.

    Weights of every structured kind, scaled, zero and dense, on weighted
    spaces, with a non-symmetric dense cross weight L.
    """
    rng = np.random.default_rng(8)
    n, m = 5, 3
    hs = hc.Space(hc.spaces.KIND_L2_INTERVAL, n, np.exp(rng.uniform(-1.0, 1.0, n)), length=2.0)
    us = space(rng, m, weighted=True)

    def selfadjoint(sp):
        g = rng.standard_normal((sp.dim, sp.dim))
        return hc.DenseOperator((g + g.T) / sp.weights[:, None], sp)

    def weights(sp):
        ident = hc.IdentityOperator(sp)
        ops = {
            "identity": ident,
            "diagonal": hc.DiagonalOperator(rng.standard_normal(sp.dim), sp),
            "scaled": hc.ScaledOperator(-1.7, ident),
            "zero": hc.ZeroOperator(sp),
            "dense": selfadjoint(sp),
            "scaled-dense": hc.ScaledOperator(0.6, selfadjoint(sp)),
        }
        if sp.kind == hc.spaces.KIND_L2_INTERVAL:
            ops["heat"] = hc.HeatSemigroupOperator(sp, 0.3, 0.5)
        return ops

    zero = hc.ZeroOperator(hs)
    sys_ = hc.ControlledSystem(hs, us, 0, zero, hc.ZeroOperator(us, hs), zero,
                               hc.ZeroOperator(us, hs))
    x = rng.standard_normal((4, n))
    u = rng.standard_normal((4, m))
    crosses = [dense(rng, hs, us), hc.ZeroOperator(hs, us)]
    m_ops, r_ops = weights(hs), list(weights(us).values())
    for i, (name, m_op) in enumerate(m_ops.items()):
        for l_op in crosses:
            r_op = r_ops[i % len(r_ops)]
            cost = hc.CostSpec(sys_, m_op, l_op, r_op, m_op)
            got = stage_cost_batch(cost, 0, x, u)
            term = terminal_cost_batch(cost, x)
            for p in range(len(x)):
                xp, up = hc.HVector(hs, x[p]), hc.HVector(us, u[p])
                want = (hc.inner(m_op.apply(xp), xp) + 2.0 * hc.inner(l_op.apply(xp), up)
                        + hc.inner(r_op.apply(up), up))
                assert got[p] == pytest.approx(want, rel=1e-12, abs=1e-12), name
                assert term[p] == pytest.approx(hc.inner(m_op.apply(xp), xp),
                                                rel=1e-12, abs=1e-12), name


@pytest.mark.parametrize("seed, r, name", [
    (-1, 0, "seed"), (None, 0, "seed"), (1.5, 0, "seed"),
    (0, -1, "r"), (0, None, "r"), (0, 1.5, "r"), (0, 2**32, "r"), (2**128, 0, "seed"),
])
def test_replication_rng_refuses_bad_arguments(seed, r, name):
    # the per-row reference, replication_noise, checks its arguments itself
    with pytest.raises(hc.DimensionError, match=f"^{name} "):
        replication_noise(seed, r, 3)


def test_replication_noise_accepts_the_largest_key_and_row():
    seed, r = 2**128 - 1, 2**32 - 1
    got = sim._noise_rows(seed, r, r + 1, 3)
    assert got.shape == (1, 3)
    assert got[0].tobytes() == replication_noise(seed, r, 3).tobytes()


# seeds above 2^32 and 2^64 fill more than one word of the key
@pytest.mark.parametrize("reps", [0, 1, 1061])
def test_noise_paths_are_the_replication_streams(reps):
    for seed, steps in [(41, 6), (41, 1), (41, 7), (2**40 + 5, 7), (2**100 + 3, 4)]:
        got = hc.draw_noise_paths(seed=seed, reps=reps, steps=steps)
        want = np.empty((reps, steps))
        for r in range(reps):
            want[r] = replication_noise(seed, r, steps)
        assert got.shape == (reps, steps)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 5, 14])
def test_noise_rows_of_any_split_are_the_full_draw(steps):
    full = hc.draw_noise_paths(seed=2**40 + 5, reps=300, steps=steps)
    for cuts in ([0, 300], [0, 1, 300], [0, 7, 8, 151, 300], [0, 299, 300], [0, 0, 113, 300]):
        parts = [sim._noise_rows(2**40 + 5, s, t, steps) for s, t in zip(cuts, cuts[1:])]
        assert all(p.shape == (t - s, steps) for p, s, t in zip(parts, cuts, cuts[1:]))
        assert np.concatenate(parts).tobytes() == full.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 300])
def test_noise_rows_of_any_chunk_size_are_the_full_draw(chunk, monkeypatch):
    want = hc.draw_noise_paths(seed=2**40 + 5, reps=300, steps=14)
    monkeypatch.setattr(sim, "_NOISE_CHUNK_ROWS", chunk)
    assert hc.draw_noise_paths(seed=2**40 + 5, reps=300, steps=14).tobytes() == want.tobytes()
    assert sim._noise_rows(2**40 + 5, 5, 300, 14).tobytes() == want[5:].tobytes()


def test_noise_draw_peaks_at_a_small_multiple_of_its_result():
    # the rows are transformed in chunks into the result, so the temporaries
    # do not grow with the draw
    tracemalloc.start()
    try:
        draws = hc.draw_noise_paths(seed=1, reps=10**5, steps=14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.flags.c_contiguous
    assert peak < 2.5 * draws.nbytes  # 10.7 MiB


def test_largest_key_is_a_seed():
    sys_ = scalar_system(2, a=0.5, c=0.5)
    got = hc.draw_noise_paths(seed=2**128 - 1, reps=3, steps=3)
    assert got[2].tobytes() == replication_noise(2**128 - 1, 2, 3).tobytes()
    mc = hc.monte_carlo_expectation(sys_, unit_cost(sys_), hc.Policy(sys_), x0_one(),
                                    reps=4, seed=2**128 - 1)
    assert np.isfinite(mc.mean)


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.0, 2.5, "3", None, 2**128])
def test_bad_seed_refused(seed):
    with pytest.raises(hc.DimensionError, match="seed"):
        hc.draw_noise_paths(seed=seed, reps=2, steps=3)
    sys_ = scalar_system(2, a=0.5, c=0.5)
    with pytest.raises(hc.DimensionError, match="seed"):
        hc.monte_carlo_expectation(sys_, unit_cost(sys_), hc.Policy(sys_), x0_one(),
                                   reps=4, seed=seed)


def test_noise_arguments_checked_before_any_work(monkeypatch):
    with pytest.raises(hc.DimensionError, match="reps"):
        hc.draw_noise_paths(seed=0, reps=-1, steps=3)
    with pytest.raises(hc.DimensionError, match="steps"):
        hc.draw_noise_paths(seed=0, reps=3, steps=-2)
    with pytest.raises(hc.DimensionError, match="reps"):
        hc.draw_noise_paths(seed=0, reps=2.0, steps=3)
    # refused before allocating
    with pytest.raises(hc.DimensionError, match="reps"):
        hc.draw_noise_paths(seed=0, reps=2**32 + 1, steps=0)

    def refused(*args):
        raise AssertionError("work started before reps was checked")

    monkeypatch.setattr(sim, "run_batch", refused)
    monkeypatch.setattr(sim, "_noise_rows", refused)
    sys_ = scalar_system(2, a=0.5, c=0.5)
    for reps, why in [("3", "integer"), (None, "integer"), (2.0, "integer"),
                      (-1, "at least 2"), (0, "at least 2"), (1, "at least 2"),
                      (2**32 + 1, "exceeds 2\\^32")]:
        with pytest.raises(hc.DimensionError, match=f"^reps.*{why}"):
            hc.monte_carlo_expectation(sys_, unit_cost(sys_), hc.Policy(sys_), x0_one(),
                                       reps=reps, seed=0)


def test_import_leaves_numpy_random_unloaded():
    src = Path(hc.__file__).resolve().parents[1]
    code = "import hscontrol, sys; assert 'numpy.random' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
