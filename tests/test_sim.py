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
    random_x0,
    replication_rng,
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
    """95 percent intervals from pinned seeds must all cover the exact value.

    Coverage at this confidence fails one case in twenty on average, so the
    seed base is pinned to a draw where every interval covers; a regression
    in either the estimator or the interval will break many cases at once.
    """
    rng = np.random.default_rng(3)
    hits = 0
    total = 30
    for i in range(total):
        sys_ = random_controlled(rng, dim_max=3, horizon_max=4)
        cost = random_psd_cost(rng, sys_)
        x0 = random_x0(rng, sys_.state_space)
        pol = hc.Policy(sys_)
        exact = hc.enumerate_expectation(sys_, cost, pol, x0).value
        mc = hc.monte_carlo_expectation(sys_, cost, pol, x0, reps=4000, seed=500 + i)
        if abs(mc.mean - exact) <= mc.half_width:
            hits += 1
    assert hits == total, f"only {hits}/{total} intervals covered the exact value"


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
    a = replication_rng(9, 3).standard_normal(5)
    replication_rng(9, 0).standard_normal(50)
    b = replication_rng(9, 3).standard_normal(5)
    assert np.array_equal(a, b)


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


def test_prefix_order_is_the_lexicographic_order():
    rng = np.random.default_rng(60)
    for steps in (1, 4):
        for paths in noise_batches(rng, steps):
            want = np.lexsort(paths.T[::-1])
            assert np.array_equal(sim._prefix_order(paths), want)


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


@pytest.mark.parametrize("block_rows", [1, 7, 64])
def test_blocked_run_batch_advances_each_prefix_once_per_block(block_rows, monkeypatch):
    """Rows at step k: at least the distinct k-prefixes, at most (blocks - 1) more."""
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 8 * block_rows)  # dim 1
    rng = np.random.default_rng(block_rows)
    signs = hc.sign_paths(8)
    batches = [
        signs,
        np.vstack([signs, signs[rng.integers(0, len(signs), 9)]])[rng.permutation(len(signs) + 9)],
        hc.draw_noise_paths(seed=3, reps=50, steps=8),
        signs[rng.integers(0, len(signs), 50)],
    ]
    for paths in batches:
        sys_ = scalar_system(paths.shape[1] - 1, a=0.9, c=0.5)
        seen = []

        def stage(k, x, u):
            seen.append(x.shape[0])
            return np.zeros(x.shape[0])

        def terminal(x):
            seen.append(x.shape[0])
            return np.zeros(x.shape[0])

        # a block's rows all pass through every step before the next block starts
        run_batch(sys_, hc.Policy(sys_), x0_one(), paths, stage, terminal)
        blocks = -(-len(paths) // block_rows)
        per_step = np.array(seen).reshape(blocks, paths.shape[1] + 1).sum(axis=0)
        for k, rows in enumerate(per_step):
            distinct = len(np.unique(paths[:, :k], axis=0)) if k else 1
            assert distinct <= rows <= distinct + blocks - 1


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
    (0, -1, "r"), (0, None, "r"), (0, 1.5, "r"), (0, 2**32, "r"),
])
def test_replication_rng_refuses_bad_arguments(seed, r, name):
    with pytest.raises(hc.DimensionError, match=f"^{name} "):
        replication_rng(seed, r)


def test_replication_rng_accepts_the_largest_spawn_word():
    want = np.random.SeedSequence(entropy=2, spawn_key=(2**32 - 1,))
    got = replication_rng(2, 2**32 - 1).standard_normal(3)
    assert np.array_equal(got, np.random.default_rng(want).standard_normal(3))


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 3, 2**70 + 9, 2**130 + 1])
def test_spawned_states_match_seed_sequence(seed):
    spawn = np.array([0, 1, 2, 1023, 1024, 2**31, 2**32 - 1], dtype=np.uint32)
    want = [np.random.SeedSequence(entropy=seed, spawn_key=(int(r),)).generate_state(4, np.uint64)
            for r in spawn]
    got = sim._spawned_states(seed, spawn)
    assert got.dtype == np.uint64
    assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("reps", [0, 1, sim._SEED_CHUNK + 37])
def test_noise_paths_are_the_replication_streams(reps):
    # a seed above 2^32 has two words
    for seed, steps in [(41, 6), (41, 1), (41, 7), (2**40 + 5, 7)]:
        got = hc.draw_noise_paths(seed=seed, reps=reps, steps=steps)
        want = np.empty((reps, steps))
        for r in range(reps):
            want[r] = replication_rng(seed, r).standard_normal(steps)
        assert got.shape == (reps, steps)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.0, 2.5, "3", None])
def test_bad_seed_refused(seed):
    with pytest.raises(hc.DimensionError, match="seed"):
        hc.draw_noise_paths(seed=seed, reps=2, steps=3)
    sys_ = scalar_system(2, a=0.5, c=0.5)
    with pytest.raises(hc.DimensionError, match="seed"):
        hc.monte_carlo_expectation(sys_, unit_cost(sys_), hc.Policy(sys_), x0_one(),
                                   reps=4, seed=seed)


def test_noise_arguments_checked_before_any_work():
    with pytest.raises(hc.DimensionError, match="reps"):
        hc.draw_noise_paths(seed=0, reps=-1, steps=3)
    with pytest.raises(hc.DimensionError, match="steps"):
        hc.draw_noise_paths(seed=0, reps=3, steps=-2)
    with pytest.raises(hc.DimensionError, match="reps"):
        hc.draw_noise_paths(seed=0, reps=2.0, steps=3)
    # a larger r would need a second spawn word; refused before allocating
    with pytest.raises(hc.DimensionError, match="reps"):
        hc.draw_noise_paths(seed=0, reps=2**32 + 1, steps=0)


def test_import_leaves_numpy_random_unloaded():
    src = Path(hc.__file__).resolve().parents[1]
    code = "import hscontrol, sys; assert 'numpy.random' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
