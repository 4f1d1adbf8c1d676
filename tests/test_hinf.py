import json
from pathlib import Path

import numpy as np
import pytest

import hscontrol as hc
from hscontrol import hinf, riccati, serialize
from helpers import (
    assert_pinned,
    assert_same_bits,
    completion_reference,
    dense,
    explicit_zero_steps,
    family,
    fixed_feedback_iterates,
    perturbation_gain,
    random_disturbed,
    random_psd_cost,
    random_solved_problem,
    record_matrix_builds,
    solvable_game,
    space,
)

SHIFT_SPEC = Path(__file__).resolve().parent.parent / "specs" / "shift_network.json"


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


def test_min_pi3_eig_refuses_a_step_the_stopped_walk_never_reached():
    run = hc.brl_check(hc.examples.build_shift_network(12), 1.0, stop_at_failure=True)
    assert run.failing_step == 5
    with pytest.raises(hc.DimensionError, match="never evaluated step 0"):
        run.min_pi3_eig(0)


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
        kept += [op for sol in sols for op in sol.p + sol.gains + sol.rk]
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
    explicit_zero_steps(monkeypatch, riccati)
    monkeypatch.setattr(hinf._LevelTerms, "head_sums", lambda terms, gram_last: None)
    want = [[real(d, level, stop_at_failure=stop) for stop in (True, False)]
            for d, level, _ in tested]
    assert_same_bits(fresh, want)


def test_bisection_walks_form_no_state_term_where_they_stop_or_at_step_0(monkeypatch):
    # Q = M + A*PA + C*PC is formed only to step on past a certified Rk: a
    # stop-at-failure walk forms none at its failing step nor at step 0,
    # whose iterate it does not keep, and a full walk forms every one and
    # returns P(0) with the bits of the step that forms Q first
    rng = np.random.default_rng(54)
    for weighted in (False, True):
        dsys = next(d for d in iter(lambda: random_disturbed(rng, horizon_max=7,
                                                             weighted=weighted), None)
                    if d.horizon >= 5 and d.state_space.dim >= 3)
        n = dsys.horizon
        terms = hinf._level_terms(dsys)
        assert terms.plan is None  # the n x n pass
        levels = {}
        for level in np.geomspace(1e-2, 1e2, 400):
            failing = hc.brl_check(dsys, level).failing_step
            kind = "feasible" if failing is None else "step 0" if failing == 0 else (
                "inside" if failing < n - 1 else "late")
            levels.setdefault(kind, (level, failing))
        assert {"feasible", "step 0", "inside"} <= set(levels)
        terms.walk(levels["feasible"][0], stop_at_failure=True)  # computes the head
        formed, products = [], []
        real_term, real_congruence = riccati._state_term, riccati.congruence
        monkeypatch.setattr(riccati, "_state_term",
                            lambda *a: formed.append(a[3]) or real_term(*a))
        monkeypatch.setattr(riccati, "congruence",
                            lambda *a, **kw: products.append(1) or real_congruence(*a, **kw))
        for kind, (level, failing) in levels.items():
            formed.clear()
            products.clear()
            sol = terms.walk(level, stop_at_failure=True)
            assert sol.failing_step == failing
            last = 1 if failing is None else failing + 1
            assert formed == list(range(n, last - 1, -1))
            # none at step N (zero P(N+1)) nor at N-1 (the head), A and C at the rest
            assert len(products) == 2 * len([k for k in formed if k < n - 1])
        formed.clear()
        full = terms.walk(levels["step 0"][0], stop_at_failure=False)
        assert formed == list(range(n, -1, -1))
        monkeypatch.undo()
        explicit_zero_steps(monkeypatch, riccati)
        monkeypatch.setattr(hinf._LevelTerms, "head_sums", lambda terms, gram_last: None)
        want = hinf._level_terms(dsys).walk(levels["step 0"][0], stop_at_failure=False)
        monkeypatch.undo()
        assert_same_bits(full.p[0], want.p[0])
        assert_same_bits(full, want)


def test_level_test_refuses_a_gain_that_overflows_at_step_0():
    # P(1) = -1e306 and B = 1e-153 give Rk(0) = 3, but G(0) = B*P(1)A(0)
    # overflows; a bisection test forms no P(0), where that would show, so
    # it refuses the gain itself
    e = hc.euclidean(1)

    def scalar(x):
        return hc.DenseOperator(np.array([[x]]), e)

    dsys = hc.DisturbedSystem(e, e, e, 1, [scalar(1e300), scalar(1.0)], scalar(1e-153),
                              hc.ZeroOperator(e), hc.ZeroOperator(e), scalar(1e153),
                              hc.ZeroOperator(e))
    for stop in (True, False):
        with pytest.raises(hc.ResolutionError, match="at step 0 is not finite"):
            hc.brl_check(dsys, 2.0, stop_at_failure=stop)


def test_search_head_is_computed_once_and_never_written(monkeypatch):
    systems = [hc.examples.build_shift_network(16)]
    systems += [d for d in _level_test_systems(np.random.default_rng(52)) if d.horizon > 0]
    levels = (0.5, 1.2, 1.7, 2.0)
    made = []
    # the head's thin sums: the walks take theirs through the riccati module
    real = hinf._thin_sums
    monkeypatch.setattr(hinf, "_thin_sums", lambda *a: made.append(real(*a)) or made[-1])
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
        # once for these terms, and once for each terms object of the search:
        # the plant's, or the view's and the plant's that certify its bracket
        searched = 1 if hinf._reachable_view(dsys) is None else 2
        assert len(made) == 1 + searched
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


def _thin_plant(rng, dim, drift, noisy=True, weighted=False):
    """A plant on dim states whose disturbance reaches few of them.

    One or two disturbance channels enter through a dense B1, and D1 is a
    multiple of it.  The drift is a scaled shift or a diagonal; the noise
    map is a diagonal with other entries, so C_k R_k leaves A_k R_k + ran B1.
    """
    hs = space(rng, dim, weighted)
    vs = space(rng, int(rng.integers(1, 3)), weighted)
    horizon = 3 if vs.dim == 1 else 2
    zs = space(rng, 4, weighted)
    steps = horizon + 1
    if drift == "shift":
        a = hc.ScaledOperator(0.9, hc.RightShiftOperator(hs))
    else:
        a = hc.DiagonalOperator(rng.uniform(-0.9, 0.9, dim), hs)
    b1 = dense(rng, vs, hs, 1.0 / np.sqrt(dim))
    if noisy:
        c = hc.DiagonalOperator(rng.uniform(-0.5, 0.5, dim), hs)
        d1 = hc.ScaledOperator(0.3, b1)
    else:
        c, d1 = hc.ZeroOperator(hs), hc.ZeroOperator(vs, hs)
    cm = np.zeros((zs.dim, dim))
    cm[:3] = rng.standard_normal((3, dim)) / np.sqrt(dim)
    dm = np.zeros((zs.dim, vs.dim))
    dm[3] = 0.5 * rng.standard_normal(vs.dim)
    return hc.DisturbedSystem(hs, vs, zs, horizon, a, b1, c, d1,
                              hc.DenseOperator(cm, hs, zs), hc.DenseOperator(dm, vs, zs))


def _thin_plants():
    rng = np.random.default_rng(61)
    return [_thin_plant(rng, int(rng.integers(40, 201)), drift, noisy, weighted)
            for drift in ("shift", "diagonal") for noisy in (True, False)
            for weighted in (False, True)]


def _uncompressed(monkeypatch, f, *args, **kwargs):
    monkeypatch.setattr(hinf, "_reachable_view", lambda dsys: None)
    try:
        return f(*args, **kwargs)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_search_on_the_reachable_view_matches_the_full_search(tol, monkeypatch):
    for dsys in _thin_plants():
        view = hinf._reachable_view(dsys)
        assert view is not None and view.state_space.dim <= dsys.state_space.dim / 4
        got = hc.hinf_norm(dsys, tol=tol)
        want = _uncompressed(monkeypatch, hc.hinf_norm, dsys, tol=tol)
        assert got.iterations == want.iterations
        for field in ("value", "lo", "hi"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-10)


def test_reachable_view_has_the_level_spectra_of_the_plant():
    # p3 acts on the disturbance space and is the same operator on the view
    for dsys in _thin_plants():
        view = hinf._reachable_view(dsys)
        gain = hc.hinf_norm(dsys, tol=1e-6).value
        for gamma in (0.8 * gain, 1.2 * gain):
            full, small = hc.brl_check(dsys, gamma), hc.brl_check(view, gamma)
            assert small.feasible == full.feasible
            assert small.failing_step == full.failing_step
            for k in range(dsys.steps):
                if full.pi3_certs[k] is not None:
                    scale = 1.0 + full.pi3_certs[k].norm
                    assert abs(small.min_pi3_eig(k) - full.min_pi3_eig(k)) <= 1e-10 * scale
                    assert abs(small.pi3_certs[k].max_eig - full.pi3_certs[k].max_eig) <= (
                        1e-10 * scale)


def test_full_rank_plants_decline_the_view_and_keep_their_bits(monkeypatch):
    rng = np.random.default_rng(62)
    plants = [random_disturbed(rng, dim_max=8, weighted=weighted, noisy=noisy)
              for weighted in (False, True) for noisy in (False, True) for _ in range(3)]
    plants += [_thin_plant(rng, 12, "diagonal", weighted=True)]  # 12 / 4 = 3 states
    for dsys in plants:
        assert hinf._reachable_view(dsys) is None
        got = hc.hinf_norm(dsys, tol=1e-8)
        assert_same_bits(got, _uncompressed(monkeypatch, hc.hinf_norm, dsys, tol=1e-8))


def test_view_declines_once_the_reached_dimension_passes_a_quarter(monkeypatch):
    # R_1 of the dense plant has 2 dimensions, above 7 / 4, so the growth
    # stops before it forms the images of step 1
    rng = np.random.default_rng(63)
    hs, vs, zs = hc.euclidean(7), hc.euclidean(1), hc.euclidean(8)
    frames = []
    real = hinf._span
    monkeypatch.setattr(hinf, "_span", lambda frame: frames.append(frame.shape) or real(frame))
    dsys = hc.DisturbedSystem(hs, vs, zs, 4, dense(rng, hs, hs), dense(rng, vs, hs),
                              dense(rng, hs, hs), dense(rng, vs, hs),
                              hc.DenseOperator(np.eye(8, 7), hs, zs), hc.ZeroOperator(vs, zs))
    assert hinf._reachable_view(dsys) is None
    assert max(cols for _, cols in frames) == 2


def test_weak_and_strong_inputs_both_enter_the_view():
    # B1 at 1e-20 beside D1 at 1: a rank decided on the stacked images would
    # drop ran B1, which alone reaches the output
    hs, vs, zs = hc.ell2(40), hc.euclidean(2), hc.euclidean(1)
    b1 = np.zeros((40, 2))
    b1[0, 0] = 1e-20
    d1 = np.zeros((40, 2))
    d1[1, 1] = 1.0
    cbar = np.zeros((1, 40))
    cbar[0, 0] = 1e20
    dsys = hc.DisturbedSystem(hs, vs, zs, 1, hc.ZeroOperator(hs), hc.DenseOperator(b1, vs, hs),
                              hc.ZeroOperator(hs), hc.DenseOperator(d1, vs, hs),
                              hc.DenseOperator(cbar, hs, zs), hc.ZeroOperator(vs, zs))
    assert hinf._reachable_view(dsys).state_space.dim == 2
    assert hc.hinf_norm(dsys, tol=1e-9).value == pytest.approx(1.0, rel=1e-8)


def test_overflowing_images_decline_the_view():
    hs, vs = hc.ell2(64), hc.euclidean(1)
    huge = hc.DenseOperator(np.full((64, 64), 1e308), hs)  # A @ A e1 overflows
    dsys = hc.DisturbedSystem(hs, vs, hs, 3, huge, hc.FillingOperator(vs, hs, 1),
                              hc.ZeroOperator(hs), hc.ZeroOperator(vs, hs),
                              hc.IdentityOperator(hs), hc.ZeroOperator(vs, hs))
    assert hinf._reachable_view(dsys) is None
    with pytest.raises(hc.ResolutionError, match="not finite"):
        hc.hinf_norm(dsys)


def _weak_inside_one_input(noisy):
    """B1 with columns 1e-20 e0 and e1, and Cbar = 1e20 e0*: the gain is 1 along e0.

    ``_span`` decides B1's rank at its own scale and drops e0, so the view
    only has e1, which Cbar does not see.
    """
    hs, vs, zs = hc.ell2(40), hc.euclidean(2), hc.euclidean(1)
    b1 = np.zeros((40, 2))
    b1[0, 0], b1[1, 1] = 1e-20, 1.0
    cbar = np.zeros((1, 40))
    cbar[0, 0] = 1e20
    c = hc.DiagonalOperator(np.r_[0.0, 0.0, np.full(38, 0.3)], hs) if noisy else hc.ZeroOperator(hs)
    return hc.DisturbedSystem(hs, vs, zs, 1, hc.ZeroOperator(hs), hc.DenseOperator(b1, vs, hs),
                              c, hc.ZeroOperator(vs, hs), hc.DenseOperator(cbar, hs, zs),
                              hc.ZeroOperator(vs, zs))


@pytest.mark.parametrize("noisy", [False, True])
def test_a_view_that_drops_a_weak_direction_falls_back_to_the_full_search(noisy, monkeypatch):
    dsys = _weak_inside_one_input(noisy)
    view = hinf._reachable_view(dsys)
    assert view.state_space.dim == 1
    assert hc.hinf_norm(view, tol=1e-9).value < 1e-3  # what an uncertified view would return
    got = hc.hinf_norm(dsys, tol=1e-9)
    assert got.value == pytest.approx(1.0, rel=1e-8)
    assert_same_bits(got, _uncompressed(monkeypatch, hc.hinf_norm, dsys, tol=1e-9))


def _output_scaled(dsys, factor):
    """The plant with Cbar and Dbar scaled by factor, so its gain too."""
    return hc.DisturbedSystem(dsys.state_space, dsys.disturbance_space, dsys.output_space,
                              dsys.horizon, list(dsys.a), list(dsys.b1), list(dsys.c),
                              list(dsys.d1), [hc.ScaledOperator(factor, op) for op in dsys.cbar],
                              [hc.ScaledOperator(factor, op) for op in dsys.dbar])


@pytest.mark.parametrize("factor, bracket", [
    (0.5, lambda gain: {}),
    (2.0, lambda gain: {}),
    (0.5, lambda gain: {"lo": 0.1, "hi": 50.0}),
    (2.0, lambda gain: {"lo": 0.1, "hi": 50.0}),
    (0.5, lambda gain: {"lo": 0.75 * gain}),  # feasible on the view only: a BracketError there
])
def test_an_uncertified_view_bracket_gives_the_full_search(factor, bracket, monkeypatch):
    # a view whose gain is half (hi fails the full test) or twice (lo passes
    # it) the plant's is discarded, with or without a supplied bracket
    dsys = _thin_plants()[0]
    bracket = bracket(hc.hinf_norm(dsys, tol=1e-8).value)
    wrong = _output_scaled(hinf._reachable_view(dsys), factor)
    want = _uncompressed(monkeypatch, hc.hinf_norm, dsys, tol=1e-8, **bracket)
    monkeypatch.setattr(hinf, "_reachable_view", lambda d: wrong)
    assert_same_bits(hc.hinf_norm(dsys, tol=1e-8, **bracket), want)


def test_the_oracle_runs_on_the_full_plant(monkeypatch):
    seen = []
    real = hinf.deterministic_norm_oracle
    monkeypatch.setattr(hinf, "deterministic_norm_oracle", lambda d: seen.append(d) or real(d))
    for dsys in _thin_plants():
        seen.clear()
        hc.hinf_norm(dsys)
        assert seen == [dsys]


def _monomial(rng, kind, hs):
    """A monomial operator on hs of the given kind, scaled by a random factor half the time."""
    op = {
        "shift": lambda: hc.RightShiftOperator(hs),
        "filling": lambda: hc.FillingOperator(hs, hs, int(rng.integers(1, hs.dim))),
        "diagonal": lambda: hc.DiagonalOperator(rng.uniform(-0.9, 0.9, hs.dim), hs),
        "identity": lambda: hc.IdentityOperator(hs),
        "zero": lambda: hc.ZeroOperator(hs),
    }[kind]()
    return op if rng.random() < 0.5 else hc.ScaledOperator(rng.uniform(-0.9, 0.9), op)


def _twin(op):
    """Another object with the matrix of ``op``, as a spec file would give it."""
    return serialize.operator_from_json(serialize.operator_to_json(op), op.domain, op.codomain)


def _monomial_plant(rng, hs, noise):
    """A plant with monomial A, C and Cbar on hs, and C = A by value, another C, or C = 0.

    The disturbance enters through dense maps, and Cbar is a scaled shift
    into, or a filling of, an output space one dimension larger.
    """
    weighted = not (hs.weights == 1.0).all()
    dv, horizon = (1, 2) if noise == "other" else (2, 3)  # a rank of 7 or 8 <= 40 / 4
    vs, zs = space(rng, dv, weighted), space(rng, hs.dim + 2, weighted)
    steps, s = horizon + 1, 1.0 / np.sqrt(hs.dim)
    kinds = ("shift", "filling", "diagonal", "identity", "zero")
    a = [_monomial(rng, kind, hs) for kind in rng.choice(kinds, steps)]
    if noise == "twin":
        c, d1 = [_twin(op) for op in a], family(rng, vs, hs, steps, 0.3 * s)
    elif noise == "other":
        c = [hc.ScaledOperator(0.5, _monomial(rng, kind, hs)) for kind in rng.choice(kinds[:4], steps)]
        d1 = family(rng, vs, hs, steps, 0.3 * s)
    else:
        c, d1 = [hc.ZeroOperator(hs)] * steps, [hc.ZeroOperator(vs, hs)] * steps
    cbar = [hc.ScaledOperator(rng.uniform(0.5, 1.5), hc.RightShiftOperator(hs, zs))
            if rng.random() < 0.5 else hc.FillingOperator(hs, zs, int(rng.integers(1, hs.dim)))
            for _ in range(steps)]
    dbar = np.zeros((zs.dim, dv))
    dbar[-1] = 0.5 * rng.standard_normal(dv)  # the slot that Cbar never fills
    return hc.DisturbedSystem(hs, vs, zs, horizon, a, family(rng, vs, hs, steps, s), c, d1,
                              cbar, hc.DenseOperator(dbar, vs, zs))


def _monomial_plants():
    rng = np.random.default_rng(2801)
    for hs in (hc.euclidean(40), hc.l2_line(1.0, 0.05)):  # 41 trapezoid-weighted points
        for noise in ("twin", "other", "zero"):
            for _ in range(2):
                yield noise, _monomial_plant(rng, hs, noise)


def test_low_rank_level_walk_matches_the_n_by_n_pass(monkeypatch):
    outcomes = set()
    for noise, dsys in _monomial_plants():
        terms = hinf._level_terms(dsys)
        assert terms.plan is not None and terms.scratch is None
        gain = hc.hinf_norm(dsys, tol=1e-6).value
        for gamma in (0.6 * gain, 0.95 * gain, 1.05 * gain, 1.5 * gain):
            for stop in (False, True):
                got = hc.brl_check(dsys, gamma, stop, terms=terms)
                monkeypatch.setattr(hinf, "_low_rank_plan", lambda *args: None)
                want = hc.brl_check(dsys, gamma, stop)
                monkeypatch.undo()
                outcomes.add((got.feasible, stop))
                for field in ("feasible", "failing_step", "completed"):
                    assert getattr(got, field) == getattr(want, field), field
                for g, w in zip(got.pi3_certs, want.pi3_certs):
                    assert (g is None) == (w is None)
                    if w is not None:
                        assert abs(g.min_eig - w.min_eig) <= 1e-10 * (1.0 + w.norm)
                for g, w in zip(got.worst_gains, want.worst_gains):
                    assert (g is None) == (w is None)
                    if w is not None:
                        assert_pinned(g.matrix, w.matrix)
                if stop:
                    assert got.y is None and want.y is None
                    continue
                assert isinstance(got.y[0], riccati.DiagonalPlusLowRank)
                assert isinstance(want.y[0], hc.DenseOperator)
                for g, w in zip(got.y, want.y):
                    assert (g is None) == (w is None)
                    if w is not None:
                        assert_pinned(g.matrix, w.matrix)
                if noise != "other" and got.completed:
                    # C = A shares A's columns and C = 0 adds none: dv columns a step
                    assert got.y[0].u.shape[1] == dsys.steps * dsys.disturbance_space.dim
    assert outcomes == {(f, stop) for f in (False, True) for stop in (False, True)}


def test_the_parsed_shift_network_takes_the_low_rank_pass():
    built = hc.examples.build_shift_network(256)
    parsed = serialize.system_from_json(json.loads(serialize.canonical_json(
        hc.system_to_json(built))))
    assert parsed.a(1) is not parsed.c(1)  # equal by value only
    for dsys in (built, parsed):
        run = hc.brl_check(dsys, 1.7)
        assert isinstance(run.y[0], riccati.DiagonalPlusLowRank)
        assert run.y[0].u.shape[1] == 24  # 6 steps of 4 disturbance channels
        for k in range(dsys.steps):
            assert run.min_pi3_eig(k) == pytest.approx(hc.examples.shift_rho_min(k, 1.7),
                                                       abs=1e-10)


def test_the_spec_network_declines_the_plan_and_keeps_its_bits(monkeypatch):
    # at 64 dims the last rank, 24, passes 64 / 4: the n x n pass runs, and
    # -Cbar*Cbar as a diagonal adds with the bits of the array it was
    dsys = serialize.parse_system(str(SHIFT_SPEC))
    assert dsys.state_space.dim == 64
    assert hinf._level_terms(dsys).plan is None

    def outputs():
        runs = [hc.brl_check(dsys, gamma, stop) for gamma in (1.2, 1.7) for stop in (False, True)]
        return runs + [hc.hinf_norm(dsys), hc.hinf_norm(dsys, tol=1e-9)]

    got = outputs()
    assert isinstance(hinf._level_terms(dsys).neg_cbar_sq[0], riccati.DiagonalGram)
    monkeypatch.setattr(hinf, "_neg_output_gram", lambda op: -hc.operators.gram(op))
    assert_same_bits(got, outputs())


def test_output_gram_of_a_monomial_is_the_diagonal_of_its_gram():
    rng = np.random.default_rng(2802)
    for hs in (hc.euclidean(12), hc.l2_line(1.0, 0.1)):
        zs = space(rng, hs.dim + 2, weighted=True)
        ops = [hc.RightShiftOperator(hs, zs), hc.FillingOperator(hs, zs, 5),
               hc.ScaledOperator(-1.3, hc.ScaledOperator(0.7, hc.RightShiftOperator(hs, zs))),
               hc.ScaledOperator(0.4, hc.DiagonalOperator(rng.standard_normal(hs.dim), hs)),
               hc.ZeroOperator(hs, zs)]
        for op in ops:
            got = hinf._neg_output_gram(op)
            want = -hc.operators.gram(op)
            assert isinstance(got, riccati.DiagonalGram)
            assert got.diag.tobytes() == np.diagonal(want).copy().tobytes()
            assert np.array_equal(got.array(), want)
        assert isinstance(hinf._neg_output_gram(dense(rng, hs, zs)), np.ndarray)


def test_level_test_on_a_2048_dim_network_builds_no_state_sized_matrix(monkeypatch):
    dsys = hc.examples.build_shift_network(2048)
    built = record_matrix_builds(monkeypatch)
    run = hc.brl_check(dsys, 1.7)
    assert run.feasible
    assert [op for op in built if op.domain.dim == op.codomain.dim == 2048] == []
    assert run.min_pi3_eig(1) == pytest.approx(hc.examples.shift_rho_min(1, 1.7), abs=1e-10)


def test_oracle_scope_reads_each_distinct_operator_once(monkeypatch):
    # the network's operators are monomial, so their norms come from their
    # column values and no state-sized matrix is built
    dsys = hc.examples.build_shift_network(64)
    built = record_matrix_builds(monkeypatch)
    with pytest.raises(hc.OracleScopeError):
        hinf._check_noise_free(dsys)
    assert [op for op in built if op.domain.dim == op.codomain.dim == 64] == []
    # a dense plant's A, B1, C and D1 are two operators (C = A and D1 = B1);
    # scaled dense operators keep no matrix, so a second read would build
    # another
    rng = np.random.default_rng(2903)
    hs, vs = hc.euclidean(8), hc.euclidean(2)
    a = hc.ScaledOperator(0.5, dense(rng, hs, hs))
    b1 = hc.ScaledOperator(0.5, dense(rng, vs, hs))
    dsys = hc.DisturbedSystem(hs, vs, hs, 2, [a] * 3, [b1] * 3, [a] * 3, [b1] * 3,
                              hc.IdentityOperator(hs), hc.ZeroOperator(vs, hs))
    built.clear()
    with pytest.raises(hc.OracleScopeError):
        hinf._check_noise_free(dsys)
    ids = [id(op) for op in built]
    assert len(ids) == len(set(ids))
    assert {id(a), id(b1)} <= set(ids)


def test_monomial_norms_come_from_column_values(monkeypatch):
    # the frame values give the Frobenius bounds and the exact norm of the
    # matrix, on weighted spaces too, without building it
    rng = np.random.default_rng(2904)
    for hs in (hc.euclidean(12), hc.l2_line(1.0, 0.1)):
        zs = space(rng, hs.dim + 2, weighted=True)
        ops = [hc.RightShiftOperator(hs, zs), hc.FillingOperator(hs, zs, 5),
               hc.ScaledOperator(-1.3, hc.RightShiftOperator(hs, zs)),
               hc.ScaledOperator(0.4, hc.DiagonalOperator(rng.standard_normal(hs.dim), hs)),
               hc.IdentityOperator(hs), hc.ZeroOperator(hs, zs)]
        want = []
        for op in ops:
            s = hc.operators._sframe(op.matrix, op.codomain.weights, op.domain.weights)
            fro = np.linalg.norm(s)
            want.append((fro / np.sqrt(min(s.shape)), fro, hc.operators.opnorm(op)))
        built = record_matrix_builds(monkeypatch)
        for op, (lo, hi, norm) in zip(ops, want):
            assert hinf._opnorm_bounds(op) == pytest.approx((lo, hi), rel=1e-14, abs=0.0)
            assert hinf._exact_norm(op) == pytest.approx(norm, rel=1e-14, abs=0.0)
        assert built == []
        monkeypatch.undo()


def test_gain_search_on_a_2048_dim_network_builds_no_state_sized_matrix(monkeypatch):
    # the reachable view grows and compresses through row products, and the
    # oracle's scope check reads column values
    want = hc.hinf_norm(hc.examples.build_shift_network(64))
    dsys = hc.examples.build_shift_network(2048)
    built = record_matrix_builds(monkeypatch)
    est = hc.hinf_norm(dsys)
    assert [op for op in built if op.domain.dim == op.codomain.dim == 2048] == []
    assert (est.value, est.lo, est.hi, est.iterations) == (
        want.value, want.lo, want.hi, want.iterations)
