"""Shared random problem generators and independent references for the test suite.

Every generator takes an explicit numpy Generator so runs are
reproducible.  The references are written on the public operator algebra
and exact enumeration, so a library path never serves as its own check.  Dimensions and horizons stay small enough that exact
two-point noise enumeration is cheap.  With ``weighted`` set, every space
gets random positive quadrature weights instead of unit weights, so that a
weight left out of a recursion shows up in the independent checks.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import hscontrol as hc


def space(rng, dim, weighted=False):
    """Unit-weight R^dim, or R^dim with weights drawn from [1/4, 4]."""
    if not weighted:
        return hc.euclidean(dim)
    weights = np.exp(rng.uniform(np.log(0.25), np.log(4.0), dim))
    return hc.Space(hc.spaces.KIND_EUCLIDEAN, dim, weights)


def assert_pinned(got, want, rtol=1e-10):
    """Coordinate arrays agree to rtol relative to the size of ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = 1.0 + np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * scale


def dense(rng, dom, cod, scale=1.0):
    return hc.DenseOperator(scale * rng.standard_normal((cod.dim, dom.dim)), dom, cod)


def family(rng, dom, cod, steps, scale=1.0):
    return [dense(rng, dom, cod, scale) for _ in range(steps)]


def random_controlled(rng, dim_max=6, horizon_max=6, noisy=True, weighted=False):
    dim = int(rng.integers(1, dim_max + 1))
    du = int(rng.integers(1, dim + 1))
    horizon = int(rng.integers(0, horizon_max + 1))
    hs = space(rng, dim, weighted)
    us = space(rng, du, weighted)
    steps = horizon + 1
    s = 0.9 / np.sqrt(dim)
    a = family(rng, hs, hs, steps, s)
    b = family(rng, us, hs, steps, s)
    if noisy:
        c = family(rng, hs, hs, steps, 0.5 * s)
        d = family(rng, us, hs, steps, 0.5 * s)
    else:
        c = [hc.ZeroOperator(hs) for _ in range(steps)]
        d = [hc.ZeroOperator(us, hs) for _ in range(steps)]
    return hc.ControlledSystem(hs, us, horizon, a, b, c, d)


def random_psd_cost(rng, system):
    """Stage blocks [[M, L*], [L, R]] >= 0 with R > 0 and a PSD terminal.

    Each block is drawn as a symmetric PSD Gram form W X and divided by the
    weights, which makes it self-adjoint for the weighted inner product.
    """
    hs = system.state_space
    us = system.control_space
    dim, du = hs.dim, us.dim
    wh, wu = hs.weights[:, None], us.weights[:, None]
    m, l, r = [], [], []
    for _ in range(system.steps):
        g = rng.standard_normal((dim + du, dim + du)) / np.sqrt(dim + du)
        w = g @ g.T
        m.append(hc.DenseOperator(w[:dim, :dim] / wh, hs))
        l.append(hc.DenseOperator(w[dim:, :dim] / wu, hs, us))
        r.append(hc.DenseOperator((w[dim:, dim:] + 0.1 * np.eye(du)) / wu, us))
    gt = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    terminal = hc.DenseOperator((gt @ gt.T) / wh, hs)
    return hc.CostSpec(system, m, l, r, terminal)


def random_solved_problem(rng, dim_max=6, horizon_max=6, allow_indefinite=True, weighted=False):
    """A random LQ problem whose Riccati recursion is known to solve.

    Half the draws shift the state weight down so the stage cost is
    indefinite; those are kept only when the recursion still certifies
    uniform positivity, so every returned problem has status "solved".
    """
    for _ in range(50):
        system = random_controlled(rng, dim_max, horizon_max, weighted=weighted)
        cost = random_psd_cost(rng, system)
        if allow_indefinite and rng.random() < 0.5:
            hs = system.state_space
            shift = 0.05 * float(rng.random())
            m = [
                hc.DenseOperator(op.matrix - shift * np.eye(hs.dim), hs)
                for op in (cost.m(k) for k in range(system.steps))
            ]
            cost = hc.CostSpec(system, m, [cost.l(k) for k in range(system.steps)],
                               [cost.r(k) for k in range(system.steps)], cost.terminal)
        problem = hc.LQProblem(system, cost, random_x0(rng, system.state_space))
        if hc.solve_lq(problem).solved:
            return problem
    raise AssertionError("generator failed to produce a solvable problem")


def with_weights(problem, m, terminal, scale=None):
    """The problem with state weights ``m`` and ``terminal``, and L, R scaled by ``scale``."""
    cost, system = problem.cost, problem.system
    l, r = list(cost.l), list(cost.r)
    if scale is not None:
        l, r = ([hc.ScaledOperator(scale, op) for op in ops] for ops in (l, r))
    return hc.LQProblem(system, hc.CostSpec(system, m, l, r, terminal), problem.x0)


def heat_weight_problems():
    """Heat cases 1-3 at 64 and 256 modes, with their weights diagonal by type.

    Each case comes as built, with the cost scaled by positive and negative
    factors, and with nested scalings that make the terminal weight
    indefinite.
    """
    for case in (1, 2, 3):
        for modes in (64, 256):
            base = hc.examples.build_heat_problem(case, modes)
            hs, cost = base.system.state_space, base.cost
            yield base
            for c in (0.37, -1.7):
                yield with_weights(base, [hc.ScaledOperator(c, op) for op in cost.m],
                                   hc.ScaledOperator(c, cost.terminal), scale=c)
            yield with_weights(
                base,
                hc.ScaledOperator(0.5, hc.ScaledOperator(3.0, hc.IdentityOperator(hs))),
                hc.ScaledOperator(-2.0, hc.ScaledOperator(1.5, hc.IdentityOperator(hs))),
            )


def open_loop_quadratic(problem):
    """Exact cost J(u) = c + 2 g.u + u.H u of an open-loop input schedule.

    u stacks the input coordinates of every step.  c, g and H come from
    exact enumeration (``hc.expected_cost``) at the zero schedule, at
    +-s_i e_i and at s_i e_i + s_j e_j, so they share no code with the
    Riccati recursion.  J is exactly quadratic, so any probe size is exact
    up to round-off, which costs about eps J(0) / s_i^2 in H_ii.  Each s_i
    is therefore chosen so that its probe moves the cost by about J(0)
    (from H_ii at unit probes), which keeps that round-off at eps relative
    to H.  With C = D = 0 the plant is deterministic and the open-loop
    optimum is the feedback optimum; with noise it is not, so such plants
    are refused.
    """
    system = problem.system
    for k in range(system.steps):
        if np.any(system.c(k).matrix) or np.any(system.d(k).matrix):
            raise ValueError(f"C or D is nonzero at step {k}: "
                             "the open-loop optimum is not the feedback optimum")
    du = system.control_space.dim
    m = system.steps * du

    def cost(u):
        policy = hc.Policy(system, inputs=np.reshape(u, (system.steps, du)))
        return hc.expected_cost(problem, policy).value

    c = cost(np.zeros(m))
    unit = np.array([(cost(e) + cost(-e)) / 2.0 - c for e in np.eye(m)])
    s = np.ones(m)
    moves = (unit != 0.0) & (c != 0.0)
    s[moves] = np.sqrt(abs(c) / np.abs(unit[moves]))
    probes = np.diag(s)
    plus = np.array([cost(e) for e in probes])
    minus = np.array([cost(-e) for e in probes])
    g = (plus - minus) / (4.0 * s)
    h = np.diag((plus + minus) / 2.0 - c)
    for i in range(m):
        for j in range(i):
            h[i, j] = h[j, i] = (cost(probes[i] + probes[j]) - plus[i] - plus[j] + c) / 2.0
    return c, g, h / np.outer(s, s)


def weight_identity_gap(weights, base, value, inputs, base_value, base_inputs):
    """J* - kappa J*_base - r <u*, u*_base> for two optima of one plant.

    ``weights`` and ``base`` are the (state, input, terminal) weights of two
    problems on one noise-free plant.  Their state and terminal weights
    differ by a common factor kappa, and ``base`` has no input weight, so
    J(u) = kappa J_base(u) + r |u|^2 for every input schedule u.  J_base is
    exactly quadratic about its optimum, J_base* + (u - u_b).H (u - u_b),
    and stationarity of J at u* gives kappa H (u* - u_b) = -r u*.  Together
    they make the gap zero whatever A, B, x0 or the basis normalisation
    are.  ``inputs`` stack the input coordinates of every step.
    """
    m, r, s = weights
    mb, rb, sb = base
    kappa = m / mb
    if rb != 0.0 or s != kappa * sb:
        raise ValueError("the state and terminal weights must scale together "
                         "and the base must not weigh the inputs")
    return value - kappa * base_value - r * float(np.dot(inputs, base_inputs))


def completion_reference(q, g, r):
    """(Q - G* R^-1 G, -R^-1 G) on coordinates, for a completion triple (Q, G, R).

    Built from ``np.linalg.solve`` and the weighted adjoint alone, so it shares
    no code with the backward passes it checks.
    """
    gain = -np.linalg.solve(r.matrix, g.matrix)
    return q.matrix + g.adjoint().matrix @ gain, gain


def explicit_zero_completion(system, weights, gram_next, k):
    """One backward step as written before a zero next iterate skipped its congruences.

    The (Q, Rk, G) of a step: every congruence without a ZeroOperator
    factor runs, each as its own two-sided product, on an explicit zero
    array when the next iterate is zero (None), and each term is
    (first + second) + weight.  ``explicit_zero_steps`` puts it in place
    of a module's step functions.
    """
    dim = system.state_space.dim
    x = np.zeros((dim, dim)) if gram_next is None else gram_next
    m, l, r = weights(k)
    a, b, c, d = system.a(k), system.b(k), system.c(k), system.d(k)

    def term(weight, *pairs):
        sums = [hc.operators.congruence(left, x, right) for left, right in pairs
                if not isinstance(left, hc.ZeroOperator) and not isinstance(right, hc.ZeroOperator)]
        if not sums:
            return weight + 0.0
        total = sums[0]
        for more in sums[1:]:
            total += more
        total += weight
        return total

    rk = term(r, (b, b), (d, d))
    return term(m, (a, a), (c, c)), 0.5 * (rk + rk.T), term(l, (b, a), (d, c))


def explicit_zero_steps(monkeypatch, module):
    """Run ``module``'s backward steps on ``explicit_zero_completion``.

    Its Rk and G stand in for ``_completion_terms`` and its Q for
    ``_state_term``; the sums a caller holds are ignored.
    """
    def terms(system, weights, gram, k, sums=None):
        return explicit_zero_completion(system, weights, gram, k)[1:]

    def state(system, weights, gram, k, q_sum=None):
        return explicit_zero_completion(system, weights, gram, k)[0]

    monkeypatch.setattr(module, "_completion_terms", terms)
    monkeypatch.setattr(module, "_state_term", state)


def frame_certified_inverse(m, w):
    """Independent reference for ``operators.certified_inverse``, from the coordinates ``m`` of M.

    M goes to the frame W^(1/2) M W^(-1/2), its residual is taken from the
    norms, the frame matrix is re-symmetrized, and the inverse mapped back.
    ``certified_inverse`` takes the Gram form W M instead: it agrees with
    this reference on m = gram / w to rounding, and on unit weights, for an
    exactly symmetric ``m`` whose re-symmetrization does not overflow, to
    the bit.
    """
    root = np.sqrt(w)
    s = m * (root[:, None] / root[None, :])
    resid = np.linalg.norm(s - s.T, "fro") / (1.0 + np.linalg.norm(s, "fro"))
    if resid > hc.operators.SYM_RTOL:
        raise hc.NotSelfAdjointError(f"symmetrization residual {resid:.3e}")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (s + s.T))
    small = float(np.min(np.abs(eigvals)))
    big = float(np.max(np.abs(eigvals)))
    cond = np.inf if small == 0.0 else big / small
    cert = hc.SelfAdjointCert(float(eigvals[0]), float(eigvals[-1]), cond, resid)
    if not cert.cond <= hc.operators.KAPPA_MAX:
        return cert, None
    u = eigvecs / np.sqrt(w)[:, None]
    return cert, (u / eigvals[None, :]) @ u.T


def assert_same_bits(got, want):
    """Two results hold the same bytes in every array, operator, certificate and number."""
    if isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
    elif isinstance(want, hc.Operator):
        assert_same_bits(got.matrix, want.matrix)
    elif isinstance(want, np.ndarray):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_same_bits(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, float):
        assert np.array(got).tobytes() == np.array(want).tobytes()
    else:
        assert got == want


def record_matrix_builds(monkeypatch):
    """A list that collects every operator whose ``_build_matrix`` runs from now on."""
    built = []
    classes = {cls for module in (hc.operators, hc.riccati) for cls in vars(module).values()
               if isinstance(cls, type) and "_build_matrix" in vars(cls)}
    for cls in classes:
        def counted(op, build=cls._build_matrix):
            built.append(op)
            return build(op)
        monkeypatch.setattr(cls, "_build_matrix", counted)
    return built


def fixed_feedback_iterates(dsys, gamma, gains):
    """Disturbance-player iterates under a fixed feedback v = F x, from a zero terminal.

    Y(k) = Acl* Y Acl + Ccl* Y Ccl - Zcl* Zcl + gamma^2 F* F with Acl = A + B1 F,
    Ccl = C + D1 F and Zcl = Cbar + Dbar F, through the operator algebra.  When
    Dbar* Cbar = 0 this is p1 + p2* F + F* p2 + F* p3 F of the level recursion,
    so the worst-case gains reproduce its iterates.
    """
    if len(gains) != dsys.steps:
        raise ValueError("need one disturbance gain per step")
    hs = dsys.state_space
    ys = [None] * dsys.steps + [hc.ZeroOperator(hs)]
    for k in range(dsys.steps - 1, -1, -1):
        f, y = gains[k], ys[k + 1]
        acl = dsys.a(k) + dsys.b1(k) @ f
        ccl = dsys.c(k) + dsys.d1(k) @ f
        zcl = dsys.cbar(k) + dsys.dbar(k) @ f
        step = (acl.adjoint() @ y @ acl + ccl.adjoint() @ y @ ccl
                + hc.ScaledOperator(-1.0, zcl.adjoint() @ zcl)
                + hc.ScaledOperator(gamma**2, f.adjoint() @ f))
        ys[k] = hc.DenseOperator(step.matrix, hs)
    return ys


def perturbation_gain(dsys, v_signal):
    """Realized gain sqrt(E sum |z|^2 / sum |v|^2) for an open-loop disturbance.

    The expectation over the multiplicative noise is taken exactly by path
    enumeration, so any nonzero signal produces a certified lower bound on
    the system gain.
    """
    if dsys.steps > hc.ENUMERATION_MAX_STEPS:
        raise hc.EnumerationLimitError("horizon too long for exact enumeration")
    if len(v_signal) != dsys.steps:
        raise hc.DimensionError("need one disturbance vector per step")
    wv = dsys.disturbance_space.weights
    wz = dsys.output_space.weights
    v_signal = [np.asarray(v, dtype=float) for v in v_signal]
    denom = sum(float(np.dot(wv * v, v)) for v in v_signal)
    if denom == 0.0:
        raise hc.DimensionError("disturbance signal is identically zero")
    view = dsys.as_controlled()
    policy = hc.Policy(view, inputs=v_signal)
    cb = [dsys.cbar(k).matrix for k in range(dsys.steps)]
    db = [dsys.dbar(k).matrix for k in range(dsys.steps)]

    def stage(k, x, u):
        z = x @ cb[k].T + u @ db[k].T
        return np.einsum("pi,pi->p", z * wz[None, :], z)

    vals = hc.sim.run_batch(view, policy, hc.zero_vector(dsys.state_space),
                            hc.sign_paths(dsys.steps), stage)
    return float(np.sqrt(np.mean(vals) / denom))


def random_x0(rng, space):
    return hc.HVector(space, rng.standard_normal(space.dim))


def replication_noise(seed, r, steps):
    """Row r of ``hc.draw_noise_paths(seed, reps, steps)``, written out for one row.

    One Philox 4x64 generator keyed by ``seed`` and set to row r's own
    counter, r·ceil(steps/4), gives the raw words; Box-Muller maps each pair
    (w1, w2) to sqrt(-2 ln u1)·(cos 2πu2, sin 2πu2), with u1 = ((w1 >> 11) +
    1)/2^53 in (0, 1] and u2 = (w2 >> 11)/2^53 in [0, 1).  ``seed`` is an
    integer below 2^128, the Philox key size, and ``r`` one below 2^32, the
    most replications one draw holds.
    """
    for name, value, bits in [("seed", seed, 128), ("r", r, 32)]:
        if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 1 << bits:
            raise hc.DimensionError(f"{name} must be an integer below 2^{bits}, got {value!r}")
    blocks = -(-steps // 4)
    words = [int(w) for w in np.random.Philox(key=seed, counter=r * blocks).random_raw(4 * blocks)]
    u1 = np.array([((w >> 11) + 1) / 2**53 for w in words[0::2]])
    u2 = np.array([(w >> 11) / 2**53 for w in words[1::2]])
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    normals = np.empty(4 * blocks)
    normals[0::2] = radius * np.cos(angle)
    normals[1::2] = radius * np.sin(angle)
    return normals[:steps]


def split_output_families(rng, hs, in_space, steps, state_rows, in_rows, zs,
                          state_scale=1.0, in_scale=0.5):
    """Cbar/Dbar pairs with disjoint output rows, so Dbar* Cbar = 0."""
    cbar, dbar = [], []
    for _ in range(steps):
        cm = np.zeros((zs.dim, hs.dim))
        cm[:state_rows] = state_scale * rng.standard_normal((state_rows, hs.dim))
        dm = np.zeros((zs.dim, in_space.dim))
        dm[state_rows:state_rows + in_rows] = in_scale * rng.standard_normal(
            (in_rows, in_space.dim))
        cbar.append(hc.DenseOperator(cm, hs, zs))
        dbar.append(hc.DenseOperator(dm, in_space, zs))
    return cbar, dbar


def random_disturbed(rng, dim_max=6, horizon_max=6, noisy=True, with_feedthrough=True,
                     weighted=False):
    dim = int(rng.integers(1, dim_max + 1))
    dv = int(rng.integers(1, dim + 1))
    horizon = int(rng.integers(0, horizon_max + 1))
    hs = space(rng, dim, weighted)
    vs = space(rng, dv, weighted)
    p = dim
    q = dv if with_feedthrough else 0
    zs = space(rng, p + max(q, 1) if q else p + 1, weighted)
    steps = horizon + 1
    s = 0.8 / np.sqrt(dim)
    a = family(rng, hs, hs, steps, s)
    b1 = family(rng, vs, hs, steps, s)
    if noisy:
        c = family(rng, hs, hs, steps, 0.4 * s)
        d1 = family(rng, vs, hs, steps, 0.4 * s)
    else:
        c = [hc.ZeroOperator(hs) for _ in range(steps)]
        d1 = [hc.ZeroOperator(vs, hs) for _ in range(steps)]
    cbar, dbar = split_output_families(rng, hs, vs, steps, p, q, zs)
    if not with_feedthrough:
        dbar = [hc.ZeroOperator(vs, zs) for _ in range(steps)]
    return hc.DisturbedSystem(hs, vs, zs, horizon, a, b1, c, d1, cbar, dbar)


def random_two_input(rng, dim_max=4, horizon_max=5, noisy=True, controlled=True,
                     weighted=False):
    """Two-input plant with orthonormal control feedthrough columns.

    With ``controlled`` false the control channel is zeroed out, which
    makes the plant's disturbance gain independent of any feedback.
    """
    dim = int(rng.integers(2, dim_max + 1))
    dv = int(rng.integers(1, 3))
    du = int(rng.integers(1, 3))
    horizon = int(rng.integers(1, horizon_max + 1))
    hs = space(rng, dim, weighted)
    vs = space(rng, dv, weighted)
    us = space(rng, du, weighted)
    zs = space(rng, dim + du, weighted)
    steps = horizon + 1
    s = 0.8 / np.sqrt(dim)
    a = family(rng, hs, hs, steps, s)
    b1 = family(rng, vs, hs, steps, s)
    if controlled:
        b2 = family(rng, us, hs, steps, s)
    else:
        b2 = [hc.ZeroOperator(us, hs) for _ in range(steps)]
    if noisy:
        c = family(rng, hs, hs, steps, 0.4 * s)
        d1 = family(rng, vs, hs, steps, 0.4 * s)
        d2 = family(rng, us, hs, steps, 0.4 * s) if controlled else [
            hc.ZeroOperator(us, hs) for _ in range(steps)]
    else:
        c = [hc.ZeroOperator(hs) for _ in range(steps)]
        d1 = [hc.ZeroOperator(vs, hs) for _ in range(steps)]
        d2 = [hc.ZeroOperator(us, hs) for _ in range(steps)]
    cbar = []
    for _ in range(steps):
        cm = np.zeros((zs.dim, dim))
        cm[:dim] = rng.standard_normal((dim, dim))
        cbar.append(hc.DenseOperator(cm, hs, zs))
    gm = np.zeros((zs.dim, du))
    gm[dim:] = np.diag(np.sqrt(us.weights / zs.weights[dim:]))  # Gbar* Gbar = I
    gbar = hc.DenseOperator(gm, us, zs)
    return hc.TwoInputSystem(hs, vs, us, zs, horizon, a, b1, b2, c, d1, d2, cbar, gbar)


def open_loop_view(sys2):
    """The u = 0 closed loop: the plant's raw disturbance-to-output map."""
    zero = [hc.ZeroOperator(sys2.state_space, sys2.control_space)
            for _ in range(sys2.steps)]
    return hc.closed_loop(sys2, zero)


GAMMA_LADDER = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def feasible_design(sys2, ladder=GAMMA_LADDER):
    """First ladder level where attenuation synthesis succeeds, or None."""
    for gamma in ladder:
        try:
            return gamma, hc.hinf_design(sys2, gamma)
        except hc.DesignInfeasibleError:
            continue
    return None


def solvable_game(rng, horizon_max=5, rho_choices=(0.0, 0.5, 1.0), weighted=False,
                  rho_share=None):
    """A random plant, level, and start with a solved coupled recursion.

    rho is drawn from ``rho_choices``, or is ``rho_share`` times gamma when given.
    """
    for _ in range(50):
        sys2 = random_two_input(rng, horizon_max=horizon_max, weighted=weighted)
        rho = float(rng.choice(rho_choices))
        x0 = random_x0(rng, sys2.state_space)
        for gamma in GAMMA_LADDER:
            if rho_share is not None:
                rho = rho_share * gamma
            if gamma < rho:
                continue
            params = hc.GameParams(gamma=gamma, rho=rho)
            sol = hc.solve_coupled_riccati(sys2, params, x0)
            if sol.solved:
                return sys2, params, x0, sol
    raise AssertionError("generator failed to produce a solvable game")


def enumerated_nash_margins(sys2, params, sol, x0, deviations, seed):
    """The Nash audit by enumeration: one ``game_costs`` per sampled deviation.

    The deviations are drawn as ``verify_nash_equilibrium`` draws them; each
    deviation's index is enumerated over the sign tree and the equilibrium
    value subtracted.  Returns a ``NashReport``.
    """
    view = sys2.as_controlled()
    gains = [
        hc.DenseOperator(np.vstack([kv.matrix, ku.matrix]), sys2.state_space, view.control_space)
        for kv, ku in zip(sol.v_gains, sol.u_gains)
    ]
    j1_star, j2_star = hc.game_costs(sys2, params, x0, hc.Policy(view, gains))
    rng = np.random.default_rng(seed)
    steps = sys2.steps
    dv, du = sys2.disturbance_space.dim, sys2.control_space.dim
    zv, zu = np.zeros(dv), np.zeros(du)
    worst1 = worst2 = np.inf
    for _ in range(deviations):
        v_off = [np.concatenate([0.5 * rng.standard_normal(dv), zu]) for _ in range(steps)]
        u_off = [np.concatenate([zv, 0.5 * rng.standard_normal(du)]) for _ in range(steps)]
        j1_dev, _ = hc.game_costs(sys2, params, x0, hc.Policy(view, gains, v_off))
        _, j2_dev = hc.game_costs(sys2, params, x0, hc.Policy(view, gains, u_off))
        worst1 = min(worst1, j1_dev - j1_star)
        worst2 = min(worst2, j2_dev - j2_star)
    return hc.NashReport(j1_star, j2_star, float(worst1), float(worst2))
