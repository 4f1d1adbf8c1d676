import numpy as np
import pytest

import hscontrol as hc
from hscontrol import hinf, riccati
from helpers import (
    assert_pinned,
    assert_same_bits,
    completion_reference,
    dense,
    explicit_zero_completion,
    fixed_feedback_iterates,
    perturbation_gain,
    random_disturbed,
    random_psd_cost,
    random_solved_problem,
    solvable_game,
    space,
)


def unit_delay(dim=3, horizon=4):
    """x(k+1) = v(k), z(k) = x(k): the output replays the disturbance."""
    hs = hc.euclidean(dim)
    zero = hc.ZeroOperator(hs)
    ident = hc.IdentityOperator(hs)
    return hc.DisturbedSystem(hs, hs, hs, horizon, zero, ident, zero, zero,
                              ident, zero)


def perturbation_outputs(dsys, v, noises):
    """Outputs z(k) of a disturbance sequence along one noise path, from x(0) = 0."""
    policy = hc.Policy(dsys.as_controlled(), inputs=v)
    return hc.simulate(dsys, policy, hc.zero_vector(dsys.state_space), noises).outputs


def test_eval_perturbation_zero_disturbance_gives_zero_output():
    rng = np.random.default_rng(0)
    dsys = random_disturbed(rng)
    dv = dsys.disturbance_space.dim
    v = [np.zeros(dv) for _ in range(dsys.steps)]
    noises = rng.standard_normal(dsys.steps)
    outputs = perturbation_outputs(dsys, v, noises)
    assert float(np.max(np.abs(outputs))) == 0.0


def test_eval_perturbation_unit_delay():
    dsys = unit_delay()
    rng = np.random.default_rng(1)
    v = [rng.standard_normal(3) for _ in range(dsys.steps)]
    outputs = perturbation_outputs(dsys, v, np.zeros(dsys.steps))
    assert np.allclose(outputs[0], 0.0)
    for k in range(1, dsys.steps):
        assert np.allclose(outputs[k], v[k - 1])


def test_unit_delay_norm_is_one():
    dsys = unit_delay()
    est = hc.hinf_norm(dsys, tol=1e-8)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_level_recursion_starts_at_negative_output_gram():
    rng = np.random.default_rng(2)
    dsys = random_disturbed(rng)
    gamma = 2.0 * hc.deterministic_norm_oracle(
        hc.DisturbedSystem(
            dsys.state_space, dsys.disturbance_space, dsys.output_space,
            dsys.horizon,
            [dsys.a(k) for k in range(dsys.steps)],
            [dsys.b1(k) for k in range(dsys.steps)],
            hc.ZeroOperator(dsys.state_space),
            hc.ZeroOperator(dsys.disturbance_space, dsys.state_space),
            [dsys.cbar(k) for k in range(dsys.steps)],
            [dsys.dbar(k) for k in range(dsys.steps)],
        )
    ).value + 1.0
    run = hc.brl_check(dsys, gamma)
    n = dsys.horizon
    cn = dsys.cbar(n).matrix
    target = -(cn.T @ cn)
    assert np.allclose(run.y[n].matrix, target, atol=1e-12)
    cert = hc.min_eig_selfadjoint(run.y[n])
    assert cert.min_eig <= 1e-12


def test_feasibility_iff_above_norm_noise_free():
    rng = np.random.default_rng(3)
    for _ in range(10):
        dsys = random_disturbed(rng, noisy=False)
        norm = hc.deterministic_norm_oracle(dsys).value
        if norm < 1e-6:
            continue
        assert hc.brl_check(dsys, 1.02 * norm).feasible
        assert not hc.brl_check(dsys, 0.98 * norm).feasible


def test_bisection_matches_oracle_noise_free():
    rng = np.random.default_rng(4)
    for weighted in (False, True):
        for _ in range(10):
            dsys = random_disturbed(rng, noisy=False, weighted=weighted)
            norm = hc.deterministic_norm_oracle(dsys).value
            if norm < 1e-3:
                continue
            est = hc.hinf_norm(dsys, tol=1e-7)
            assert abs(est.value - norm) <= 1e-5


def test_oracle_witness_attains_the_norm():
    rng = np.random.default_rng(5)
    dsys = random_disturbed(rng, noisy=False)
    oracle = hc.deterministic_norm_oracle(dsys)
    if oracle.value < 1e-6:
        pytest.skip("degenerate draw")
    gain = perturbation_gain(dsys, oracle.witness)
    assert gain == pytest.approx(oracle.value, rel=1e-10)


def test_oracle_refuses_noisy_systems():
    rng = np.random.default_rng(6)
    dsys = random_disturbed(rng, noisy=True)
    with pytest.raises(hc.OracleScopeError):
        hc.deterministic_norm_oracle(dsys)


def scope_refused_by_exact_norms(dsys):
    """The oracle's scope rule evaluated with an SVD for every norm."""
    steps = range(dsys.steps)
    scale = max(hc.opnorm(dsys.a(k)) + hc.opnorm(dsys.b1(k)) for k in steps)
    return any(hc.opnorm(op) > 1e-14 * (1.0 + scale)
               for k in steps for op in (dsys.c(k), dsys.d1(k)))


@pytest.mark.parametrize("weighted", [False, True])
def test_oracle_scope_decided_by_frobenius_bounds_first(weighted, monkeypatch):
    """Bounds that prove C != 0 refuse with no SVD; the decision never changes.

    With A = a I at dim 16, |A|_F = 4 |A|: C = 1e-13 I is provably noisy at
    a = 1, left open by the bounds but noisy at a = 5, and within the
    tolerance at a = 20.
    """
    rng = np.random.default_rng(30 + weighted)
    hs, vs = space(rng, 16, weighted), space(rng, 2, weighted)
    ident = hc.IdentityOperator(hs)

    def plant(a, c):
        return hc.DisturbedSystem(
            hs, vs, hs, 2, hc.ScaledOperator(a, ident), dense(rng, vs, hs, 0.1), c,
            hc.ZeroOperator(vs, hs), ident, hc.ZeroOperator(vs, hs),
        )

    svds = []

    def counted_opnorm(op):
        svds.append(op)
        return hc.opnorm(op)

    monkeypatch.setattr(hinf, "opnorm", counted_opnorm)
    barely = hc.ScaledOperator(1e-13, ident)
    cases = [
        (plant(0.5, hc.ZeroOperator(hs)), False, True),
        (plant(1.0, barely), True, False),
        (plant(5.0, barely), True, True),
        (plant(20.0, barely), False, True),
        (plant(0.5, [dense(rng, hs, hs, 0.1) for _ in range(3)]), True, False),
    ]
    for dsys, refused, needs_svd in cases:
        assert scope_refused_by_exact_norms(dsys) == refused
        svds.clear()
        if refused:
            with pytest.raises(hc.OracleScopeError):
                hc.deterministic_norm_oracle(dsys)
        else:
            hc.deterministic_norm_oracle(dsys)
        assert bool(svds) == needs_svd


def test_noisy_norm_is_at_least_the_noise_free_norm():
    """State noise adds output energy here because Cbar = I lifts the state."""
    hs = hc.euclidean(2)
    ident = hc.IdentityOperator(hs)
    zero = hc.ZeroOperator(hs)
    half = hc.ScaledOperator(0.5, ident)
    noisy = hc.DisturbedSystem(hs, hs, hs, 3, half, ident, half, zero, ident, zero)
    quiet = hc.DisturbedSystem(hs, hs, hs, 3, half, ident, zero, zero, ident, zero)
    n_noisy = hc.hinf_norm(noisy, tol=1e-7).value
    n_quiet = hc.hinf_norm(quiet, tol=1e-7).value
    assert n_noisy > n_quiet


def test_memoryless_chain_matches_closed_form():
    # A = 0 makes each v(k) feed exactly one output z(k+1) through
    # Cbar(k+1) B1(k), so the norm is the largest of those block norms
    rng = np.random.default_rng(7)
    hs = hc.euclidean(3)
    vs = hc.euclidean(2)
    zs = hc.euclidean(4)
    horizon = 3
    steps = horizon + 1
    zero_h = hc.ZeroOperator(hs)
    zero_vh = hc.ZeroOperator(vs, hs)
    b1 = [hc.DenseOperator(rng.standard_normal((3, 2)), vs, hs) for _ in range(steps)]
    cbar = [hc.DenseOperator(rng.standard_normal((4, 3)), hs, zs) for _ in range(steps)]
    dbar = [hc.ZeroOperator(vs, zs) for _ in range(steps)]
    chain = hc.DisturbedSystem(hs, vs, zs, horizon, zero_h, b1, zero_h,
                               zero_vh, cbar, dbar)
    blocks = [np.linalg.norm(cbar[k + 1].matrix @ b1[k].matrix, 2)
              for k in range(horizon)]
    expect = max(blocks)
    oracle = hc.deterministic_norm_oracle(chain)
    assert oracle.value == pytest.approx(expect, rel=1e-10)
    est = hc.hinf_norm(chain, tol=1e-8)
    assert est.value == pytest.approx(expect, abs=1e-5)


def test_monotone_feasibility_in_gamma():
    rng = np.random.default_rng(8)
    dsys = random_disturbed(rng, noisy=True)
    norm = hc.hinf_norm(dsys, tol=1e-6).value
    grid = np.linspace(0.5 * norm, 1.5 * norm, 10)
    flags = [hc.brl_check(dsys, g).feasible for g in grid]
    for lo, hi in zip(flags, flags[1:]):
        assert hi or not lo, f"feasibility not monotone: {flags}"


def test_worst_gain_schedule_reproduces_level_iterates():
    rng = np.random.default_rng(9)
    dsys = random_disturbed(rng, noisy=True)
    gamma = 1.05 * hc.hinf_norm(dsys, tol=1e-6).value
    run = hc.brl_check(dsys, gamma)
    assert run.feasible
    y_again = fixed_feedback_iterates(dsys, gamma, run.worst_gains)
    worst = max(np.max(np.abs(y_again[k].matrix - run.y[k].matrix))
                for k in range(dsys.steps + 1))
    scale = 1.0 + max(np.max(np.abs(y.matrix)) for y in run.y)
    assert worst <= 1e-8 * scale


def test_stationary_gain_minimizes_the_f_iterates():
    rng = np.random.default_rng(10)
    dsys = random_disturbed(rng, noisy=True)
    gamma = 1.1 * hc.hinf_norm(dsys, tol=1e-6).value
    run = hc.brl_check(dsys, gamma)
    dv = dsys.disturbance_space.dim
    dx = dsys.state_space.dim
    gains = [hc.DenseOperator(0.2 * rng.standard_normal((dv, dx)),
                              dsys.state_space, dsys.disturbance_space)
             for _ in range(dsys.steps)]
    # the last gain never acts on the terminal iterate; zeroing it keeps
    # the terminal identity exact
    gains[-1] = hc.ZeroOperator(dsys.state_space, dsys.disturbance_space)
    y_f = fixed_feedback_iterates(dsys, gamma, gains)
    n = dsys.horizon
    assert np.allclose(y_f[n].matrix, run.y[n].matrix, atol=1e-12)
    # with every level term positive the stationary gain is the pointwise
    # minimizer, so the closed recursion sits below any fixed schedule
    for k in range(dsys.steps):
        diff = y_f[k].matrix - run.y[k].matrix
        cert = hc.min_eig_selfadjoint(hc.DenseOperator(diff, dsys.state_space))
        assert cert.min_eig >= -1e-8


def test_infeasible_run_reports_largest_failing_step():
    rng = np.random.default_rng(11)
    dsys = random_disturbed(rng, noisy=True)
    norm = hc.hinf_norm(dsys, tol=1e-6).value
    run = hc.brl_check(dsys, 0.5 * norm)
    assert not run.feasible
    assert run.failing_step is not None
    assert 0 <= run.failing_step <= dsys.horizon
    assert run.min_pi3_eig(run.failing_step) <= 0.0 or not run.completed


def test_stop_at_failure_halts_early():
    # the stopped walk decides as the full walk does, certifies the same p3
    # spectra on every step it reaches, and halts at the failing step
    rng = np.random.default_rng(12)
    for _ in range(3):
        dsys = random_disturbed(rng, noisy=True)
        norm = hc.hinf_norm(dsys, tol=1e-6).value
        for gamma, feasible in ((0.5 * norm, False), (2.0 * norm, True)):
            full = hc.brl_check(dsys, gamma)
            stop = hc.brl_check(dsys, gamma, stop_at_failure=True)
            assert (stop.feasible, stop.failing_step) == (full.feasible, full.failing_step)
            assert stop.feasible == feasible and stop.completed == feasible
            assert stop.y is None and full.completed
            reached = [k for k, cert in enumerate(stop.pi3_certs) if cert is not None]
            assert min(reached) == (0 if feasible else stop.failing_step)
            for k in reached:
                assert stop.min_pi3_eig(k) == full.min_pi3_eig(k)


@pytest.mark.parametrize("build", [
    lambda: hc.examples.build_shift_network(64),
    lambda: random_disturbed(np.random.default_rng(5), noisy=True),
], ids=["shift64", "noisy"])
def test_hinf_norm_runs_one_brl_check_per_iteration(build, monkeypatch):
    dsys = build()
    calls = []
    real = hinf.brl_check

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(hinf, "brl_check", counting)
    tol = 1e-6
    est = hc.hinf_norm(dsys, tol=tol)
    monkeypatch.undo()
    assert len(calls) == est.iterations > 0
    assert hc.brl_check(dsys, est.hi).feasible
    if est.lo > 0.0:
        assert not hc.brl_check(dsys, est.lo).feasible
    assert est.hi - est.lo <= tol


def _matrices(ops):
    return [None if op is None else op.matrix.copy() for op in ops]


def test_step_buffers_do_not_leak_between_calls(monkeypatch):
    # later solves on systems of the same sizes, at other levels and weights,
    # leave the arrays of earlier results untouched
    rng = np.random.default_rng(31)
    dsys = random_disturbed(rng, noisy=True)
    net = hc.examples.build_shift_network(16)
    lq = random_solved_problem(rng)
    sys2, params, x0, _ = solvable_game(rng)

    def outputs(level, case, cost, scale):
        runs = [hc.brl_check(d, level) for d in (dsys, net)]
        heat = hc.examples.build_heat_problem(case, 16)
        sols = [hc.solve_backward_riccati(p.system, p.cost) for p in (heat, lq)]
        sols.append(hc.solve_backward_riccati(lq.system, cost))
        game = hc.solve_coupled_riccati(sys2, hc.GameParams(scale * params.gamma, params.rho), x0)
        kept = [op for run in runs for op in run.y + run.worst_gains]
        kept += [op for sol in sols for op in sol.p + sol.gains + sol.rk + sol.gk]
        return kept + game.p1 + game.p2

    built = []  # the level terms of every check and search, with their cached heads
    real_terms = hinf._level_terms
    monkeypatch.setattr(hinf, "_level_terms", lambda d: built.append(real_terms(d)) or built[-1])
    first = outputs(1.7, 3, lq.cost, 1.0)
    copies = _matrices(first)
    heads = [[None if a is None else a.copy() for a in t.head] for t in built]
    assert len(heads) == 2
    outputs(2.3, 1, random_psd_cost(rng, lq.system), 2.0)
    for d in (dsys, net):
        hc.hinf_norm(d)
    for op, want in zip(first, copies):
        if op is not None:
            assert op.matrix.tobytes() == want.tobytes()
    # a full check and two searches later, the heads of the first checks are as they were
    assert_same_bits([list(t.head) for t in built[:2]], heads)


def _level_test_systems(rng):
    """Draws for the level tests: weighted or not, noise-free (ZeroOperator C
    and D1) or not, with and without feedthrough, horizon 0 among them, and
    one with ZeroOperator B1 and D1."""
    systems = [
        random_disturbed(rng, horizon_max=horizon, noisy=noisy, with_feedthrough=fed,
                         weighted=weighted)
        for weighted in (False, True) for noisy in (False, True)
        for fed, horizon in ((True, 0), (False, 4), (True, 5))
    ]
    d = systems[-1]
    no_input = hc.ZeroOperator(d.disturbance_space, d.state_space)
    systems.append(hc.DisturbedSystem(d.state_space, d.disturbance_space, d.output_space,
                                      d.horizon, list(d.a), no_input, list(d.c), no_input,
                                      list(d.cbar), list(d.dbar)))
    return systems


def test_level_tests_of_a_search_equal_fresh_and_explicit_zero_checks(monkeypatch):
    # every level a search tests gives the bits of a fresh check, and both
    # give those of a pass without the head that runs every congruence, on
    # an explicit zero P(N+1) at step N
    rng = np.random.default_rng(51)
    systems = _level_test_systems(rng)
    assert any(d.horizon == 0 for d in systems)
    tested = []
    real = hinf.brl_check

    def recording(dsys, level, *args, **kwargs):
        tested.append((dsys, level, real(dsys, level, *args, **kwargs)))
        return tested[-1][2]

    monkeypatch.setattr(hinf, "brl_check", recording)
    for dsys in systems:
        hc.hinf_norm(dsys, tol=1e-6)
    monkeypatch.undo()
    assert len(tested) > 20 * len(systems)
    fresh = [[real(d, level, stop_at_failure=stop) for stop in (True, False)]
             for d, level, _ in tested]
    assert_same_bits([run for *_, run in tested], [stop for stop, _ in fresh])
    monkeypatch.setattr(riccati, "_completion_arrays", explicit_zero_completion)
    monkeypatch.setattr(hinf._LevelTerms, "head_sums", lambda terms, gram_last: None)
    want = [[real(d, level, stop_at_failure=stop) for stop in (True, False)]
            for d, level, _ in tested]
    assert_same_bits(fresh, want)


def test_search_head_is_computed_once_and_never_written(monkeypatch):
    systems = [hc.examples.build_shift_network(16)]
    systems += [d for d in _level_test_systems(np.random.default_rng(52)) if d.horizon > 0]
    levels = (0.5, 1.2, 1.7, 2.0)
    made = []
    real = hinf._step_congruences
    monkeypatch.setattr(hinf, "_step_congruences", lambda *a: made.append(real(*a)) or made[-1])
    for dsys in systems:
        made.clear()
        terms = hinf._level_terms(dsys)
        hc.brl_check(dsys, 2.0, terms=terms)
        head = [None if a is None else a.copy() for a in terms.head]
        # full walks turn their iterates into coordinates in place, and walks
        # at other levels add other weights to the head
        runs = [hc.brl_check(dsys, level, stop_at_failure=stop, terms=terms)
                for level in levels for stop in (False, True)]
        hc.hinf_norm(dsys)
        assert len(made) == 2  # once for these terms, once for the search
        assert_same_bits(list(terms.head), head)
        assert_same_bits(runs, [hc.brl_check(dsys, level, stop_at_failure=stop)
                                for level in levels for stop in (False, True)])


def test_feedthrough_margin_and_uniform_positivity():
    # from the zero terminal iterate the last p3 is gamma^2 I - Dbar*Dbar
    dsys = unit_delay()
    # Dbar = 0 so the margin is exactly gamma^2
    run = hc.brl_check(dsys, 2.0)
    assert run.min_pi3_eig(dsys.horizon) == pytest.approx(4.0)
    assert run.feasible
    hs = dsys.state_space
    dbar = hc.IdentityOperator(hs)
    zero = hc.ZeroOperator(hs)
    withd = hc.DisturbedSystem(hs, hs, hs, 2, zero, hc.IdentityOperator(hs),
                               zero, zero, zero, dbar)
    assert hc.brl_check(withd, 2.0).min_pi3_eig(withd.horizon) == pytest.approx(3.0)
    run = hc.brl_check(withd, 0.999)
    assert run.min_pi3_eig(withd.horizon) <= 0.0
    assert not run.feasible
    # gamma below the feedthrough norm can never be feasible
    assert not hc.brl_check(withd, 0.9).feasible


def test_conditioning_breakdown_is_infeasible(monkeypatch):
    # under a condition cap of 1.5 the last p3 of the shift network at
    # gamma = 1.2 has condition 3.27, so the walk stops before step 0 and
    # proves nothing
    monkeypatch.setattr(hc.operators, "KAPPA_MAX", 1.5)
    dsys = hc.examples.build_shift_network(16)
    run = hc.brl_check(dsys, 1.2)
    assert not run.completed
    assert not run.feasible
    assert run.failing_step == dsys.horizon
    assert run.min_pi3_eig(dsys.horizon) > 0.0
    assert run.y[0] is None
    # a capped bisection may only err upward from the gain 3 sqrt(5) / 4
    est = hc.hinf_norm(dsys, tol=1e-6)
    assert est.value >= 3.0 * np.sqrt(5.0) / 4.0 - 1e-6


def test_nonpositive_step_above_a_breakdown_is_the_failing_step():
    # gamma = 1/2: p3(1) = gamma^2 - |Dbar(1)|^2 = -3/4 is invertible but
    # negative, Y(1) = -Cbar*Cbar = -1, and p3(0) = gamma^2 + (1/2)^2 Y(1) = 0
    hs, zs = hc.euclidean(1), hc.euclidean(2)
    zero = hc.ZeroOperator(hs)
    cbar = hc.DenseOperator(np.array([[1.0], [0.0]]), hs, zs)
    dbar = [hc.ZeroOperator(hs, zs), hc.DenseOperator(np.array([[0.0], [1.0]]), hs, zs)]
    dsys = hc.DisturbedSystem(hs, hs, zs, 1, zero, hc.ScaledOperator(0.5, hc.IdentityOperator(hs)),
                              zero, zero, cbar, dbar)
    run = hc.brl_check(dsys, 0.5)
    assert run.min_pi3_eig(1) < 0.0 and run.min_pi3_eig(0) == 0.0
    assert not run.completed and not run.feasible
    assert run.failing_step == 1


def test_hinf_norm_bracket_validation():
    dsys = unit_delay()
    with pytest.raises(hc.BracketError):
        hc.hinf_norm(dsys, lo=-1.0)
    with pytest.raises(hc.BracketError):
        hc.hinf_norm(dsys, lo=0.0, hi=0.5)  # supplied cap below the norm
    with pytest.raises(hc.BracketError, match="lower bound 5.0 is feasible"):
        hc.hinf_norm(dsys, lo=5.0)  # a floor above the gain of 1
    with pytest.raises(hc.BracketError, match="not below upper bound"):
        hc.hinf_norm(dsys, lo=3.0, hi=2.0)


def _scaled_output(dsys, c):
    """The system with Cbar and Dbar scaled by c, whose gain is c times the original."""
    scaled = [[hc.ScaledOperator(c, op) for op in fam] for fam in (dsys.cbar, dsys.dbar)]
    return hc.DisturbedSystem(dsys.state_space, dsys.disturbance_space, dsys.output_space,
                              dsys.horizon, list(dsys.a), list(dsys.b1), list(dsys.c),
                              list(dsys.d1), *scaled)


def test_hinf_norm_gain_does_not_depend_on_output_units():
    # the doubling from 1 reaches the gain 1.677e6 of the rescaled network
    net = hc.examples.build_shift_network(64)
    gains = [hc.hinf_norm(_scaled_output(net, c), tol=1e-9 * c).value / c for c in (1.0, 1e6)]
    assert gains[1] == pytest.approx(gains[0], rel=1e-8)
    assert gains[0] == pytest.approx(3.0 * np.sqrt(5.0) / 4.0, rel=1e-8)


def test_hinf_norm_doubling_stops_at_the_last_level_with_a_finite_square(monkeypatch):
    dsys = hc.examples.build_shift_network(16)  # noisy, so no oracle bound
    levels = []

    def infeasible(d, level, *args, **kwargs):
        levels.append(level)
        return hinf.BoundedRealRun(level, False, d.horizon, False, None, [], [])

    monkeypatch.setattr(hinf, "brl_check", infeasible)
    with pytest.raises(hc.BracketError, match="no feasible level found up to") as exc_info:
        hc.hinf_norm(dsys)
    assert levels == [2.0**j for j in range(512)]
    assert str(levels[-1]) in str(exc_info.value)


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0}, {"tol": -1e-6}, {"tol": np.nan}, {"tol": np.inf},
    {"lo": np.nan}, {"hi": np.inf}, {"hi": np.nan},
])
def test_hinf_norm_refuses_degenerate_arguments(kwargs):
    (name, _), = kwargs.items()
    with pytest.raises(hc.DimensionError, match=f"^{name} must be "):
        hc.hinf_norm(unit_delay(), **kwargs)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, 1e200, -1.0, 0.0])
def test_brl_check_refuses_non_finite_level(gamma):
    with pytest.raises(hc.DimensionError, match="^gamma must be finite"):
        hc.brl_check(unit_delay(), gamma)


def test_hinf_norm_stops_at_adjacent_floats():
    # a tolerance below the float spacing at the gain cannot be met; the
    # bisection ends when no float lies strictly inside the bracket
    est = hc.hinf_norm(unit_delay(), lo=0.0, hi=8.0, tol=1e-300)
    assert est.hi == np.nextafter(est.lo, np.inf)
    assert est.value == pytest.approx(1.0, abs=1e-8)
    assert est.iterations < 100


def test_hinf_norm_accepts_explicit_bracket():
    dsys = unit_delay()
    est = hc.hinf_norm(dsys, lo=0.0, hi=8.0, tol=1e-8)
    assert est.value == pytest.approx(1.0, abs=1e-6)
    assert est.lo <= est.value <= est.hi


def test_attenuation_terms_pin_the_level_recursion_on_weighted_spaces():
    rng = np.random.default_rng(12)
    for _ in range(3):
        dsys = random_disturbed(rng, weighted=True)
        gamma = 1.5 * hc.hinf_norm(dsys, tol=1e-4).value + 0.1
        run = hc.brl_check(dsys, gamma)
        assert run.feasible
        for k in range(dsys.steps):
            yn = run.y[k + 1]
            # the terms through the operator algebra, weighted adjoints included
            a, b1, c, d1 = dsys.a(k), dsys.b1(k), dsys.c(k), dsys.d1(k)
            cbar, dbar = dsys.cbar(k), dsys.dbar(k)
            p1 = (a.adjoint() @ yn @ a + c.adjoint() @ yn @ c
                  + hc.ScaledOperator(-1.0, cbar.adjoint() @ cbar))
            p2 = b1.adjoint() @ yn @ a + d1.adjoint() @ yn @ c
            p3 = (hc.ScaledOperator(gamma**2, hc.IdentityOperator(dsys.disturbance_space))
                  + hc.ScaledOperator(-1.0, dbar.adjoint() @ dbar)
                  + b1.adjoint() @ yn @ b1 + d1.adjoint() @ yn @ d1)
            assert hc.min_eig_selfadjoint(p3).min_eig == pytest.approx(
                run.pi3_certs[k].min_eig, rel=1e-10, abs=1e-12)
            y_ref, gain_ref = completion_reference(p1, p2, p3)
            assert_pinned(run.y[k].matrix, y_ref)
            assert_pinned(run.worst_gains[k].matrix, gain_ref)
