"""Two-player dynamic game on a noise-driven two-input system.

Player 1 picks the disturbance v and pays gamma^2 |v|^2 - |z|^2; player 2
picks the control u and pays |z|^2 - rho^2 |v|^2.  A linear feedback Nash
equilibrium exists exactly when two coupled backward recursions

    P1(k) = Acl2* P1' Acl2 + Ccl2* P1' Ccl2 - K2*K2 - Cbar*Cbar - K1* R1 K1
    P2(k) = Acl1* P2' Acl1 + Ccl1* P2' Ccl1 - rho^2 K1*K1 + Cbar*Cbar - K2* R2 K2

(primes denoting next iterates, Acl-i the dynamics closed by the other
player's gain) run to step 0 with both effective weights

    R1 = gamma^2 I + B1* P1' B1 + D1* P1' D1,
    R2 = I + B2* P2' B2 + D2* P2' D2

uniformly positive.  At each step the stationarity conditions K1 = -R1^-1 G1
and K2 = -R2^-1 G2 are jointly affine in (K1, K2) and are solved exactly as
one stacked linear system.

Both recursions carry their iterates in Gram form W P, so the weighted
adjoints of a step are plain transposes.

The level-gamma attenuation design is the zero-sum case rho = gamma (where
P1 + P2 vanishes identically), and the mixed design is rho = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CouplingSingularError,
    DesignInfeasibleError,
    DimensionError,
    GameDomainError,
)
from .operators import (
    KAPPA_MAX_DEFAULT,
    DenseOperator,
    Operator,
    SelfAdjointCert,
    certified_inverse,
    congruence,
    coordinate_operators,
    gram,
    positivity_tolerance,
)
from .riccati import STATUS_DOMAIN_FAILURE, STATUS_SOLVED
from .sim import sign_paths
from .spaces import HVector
from .systems import TwoInputSystem, closed_loop, DisturbedSystem

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITERS = 500


@dataclass(frozen=True)
class GameParams:
    """Level pair: gamma weights player 1's index, rho weights player 2's."""

    gamma: float
    rho: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.gamma < np.inf):
            raise DimensionError("gamma must be a positive finite real")
        if not (0.0 <= self.rho < np.inf):
            raise DimensionError("rho must be a nonnegative finite real")


def _solve_coupling(r1, s12, s21, r2, g1, g2, r1_inv, r2_inv, k):
    """Gains from the stacked affine stationarity system, with a fallback.

    Solves [[r1, s12], [s21, r2]] [K1; K2] = -[g1; g2] directly; if the stack
    is numerically singular, falls back to alternating substitution, which
    uses only the (already certified) inverses of r1 and r2.
    """
    dv = r1.shape[0]
    lhs = np.block([[r1, s12], [s21, r2]])
    rhs = -np.vstack([g1, g2])
    scale = 1.0 + max(np.linalg.norm(g1), np.linalg.norm(g2))
    try:
        stacked = np.linalg.solve(lhs, rhs)
        k1, k2 = stacked[:dv], stacked[dv:]
        resid = max(
            np.linalg.norm(r1 @ k1 + s12 @ k2 + g1),
            np.linalg.norm(r2 @ k2 + s21 @ k1 + g2),
        ) / scale
        if np.isfinite(resid) and resid <= 1e-8:
            return k1, k2, float(resid)
    except np.linalg.LinAlgError:
        pass
    k1 = np.zeros_like(g1)
    k2 = np.zeros_like(g2)
    for _ in range(FIXED_POINT_MAX_ITERS):
        k1_new = -r1_inv @ (g1 + s12 @ k2)
        k2_new = -r2_inv @ (g2 + s21 @ k1_new)
        change = max(np.max(np.abs(k1_new - k1)), np.max(np.abs(k2_new - k2)))
        k1, k2 = k1_new, k2_new
        if change <= FIXED_POINT_TOL * scale:
            resid = max(
                np.linalg.norm(r1 @ k1 + s12 @ k2 + g1),
                np.linalg.norm(r2 @ k2 + s21 @ k1 + g2),
            ) / scale
            return k1, k2, float(resid)
    raise CouplingSingularError(k, f"gain coupling at step {k} is singular and iteration stalled")


@dataclass
class _GameStep:
    p1: np.ndarray  # Gram forms W P1(k), W P2(k)
    p2: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    cert1: SelfAdjointCert
    cert2: SelfAdjointCert
    coupling_residual: float


def _cross_step_arrays(
    sys2: TwoInputSystem,
    params: GameParams,
    g1n: np.ndarray,
    g2n: np.ndarray,
    k: int,
    kappa_max: float,
) -> _GameStep:
    """One step on the Gram forms W P1', W P2'; returns the new Gram forms."""
    wv = sys2.disturbance_space.weights
    wu = sys2.control_space.weights
    a, c = sys2.a(k), sys2.c(k)
    b1, d1 = sys2.b1(k), sys2.d1(k)
    b2, d2 = sys2.b2(k), sys2.d2(k)

    r1g = (params.gamma**2) * np.diag(wv) + congruence(b1, g1n, b1) + congruence(d1, g1n, d1)
    r1g = 0.5 * (r1g + r1g.T)
    r2g = np.diag(wu) + congruence(b2, g2n, b2) + congruence(d2, g2n, d2)
    r2g = 0.5 * (r2g + r2g.T)
    r1, r2 = r1g / wv[:, None], r2g / wu[:, None]
    certs, inverses = [], []
    for mat, w, label in ((r1, wv, "disturbance weight"), (r2, wu, "control weight")):
        cert, inverse = certified_inverse(mat, w, kappa_max)
        tol = positivity_tolerance(cert.norm)
        if cert.min_eig <= tol:
            raise GameDomainError(
                k, f"{label} at step {k}: minimum eigenvalue {cert.min_eig:.6e} is not above {tol:.3e}"
            )
        if inverse is None:
            raise GameDomainError(
                k, f"{label} at step {k}: condition number {cert.cond:.3e} exceeds {kappa_max:.1e}"
            )
        certs.append(cert)
        inverses.append(inverse * w[None, :])
    (cert1, cert2), (r1_inv, r2_inv) = certs, inverses

    s12 = (congruence(b1, g1n, b2) + congruence(d1, g1n, d2)) / wv[:, None]
    s21 = (congruence(b2, g2n, b1) + congruence(d2, g2n, d1)) / wu[:, None]
    g1 = (congruence(b1, g1n, a) + congruence(d1, g1n, c)) / wv[:, None]
    g2 = (congruence(b2, g2n, a) + congruence(d2, g2n, c)) / wu[:, None]
    k1, k2, resid = _solve_coupling(r1, s12, s21, r2, g1, g2, r1_inv, r2_inv, k)

    am, cm = a.matrix, c.matrix
    acl2 = am + b2.matrix @ k2
    ccl2 = cm + d2.matrix @ k2
    acl1 = am + b1.matrix @ k1
    ccl1 = cm + d1.matrix @ k1
    cbar_sq = gram(sys2.cbar(k))
    p1 = acl2.T @ g1n @ acl2 + ccl2.T @ g1n @ ccl2
    p1 -= k2.T @ (wu[:, None] * k2) + cbar_sq + k1.T @ r1g @ k1
    p2 = acl1.T @ g2n @ acl1 + ccl1.T @ g2n @ ccl1
    p2 += -(params.rho**2) * (k1.T @ (wv[:, None] * k1)) + cbar_sq - k2.T @ r2g @ k2
    return _GameStep(
        0.5 * (p1 + p1.T),
        0.5 * (p2 + p2.T),
        k1,
        k2,
        r1,
        r2,
        cert1,
        cert2,
        resid,
    )


def cross_coupled_step(
    sys2: TwoInputSystem,
    params: GameParams,
    k: int,
    p1_next: Operator,
    p2_next: Operator,
    kappa_max: float = KAPPA_MAX_DEFAULT,
) -> tuple[Operator, Operator, Operator, Operator]:
    """One backward step of the coupled pair: (K1, K2, P1(k), P2(k))."""
    hs, vs, us = sys2.state_space, sys2.disturbance_space, sys2.control_space
    wh = hs.weights[:, None]
    res = _cross_step_arrays(
        sys2, params, wh * p1_next.matrix, wh * p2_next.matrix, k, kappa_max
    )
    return (
        DenseOperator(res.k1, hs, vs),
        DenseOperator(res.k2, hs, us),
        DenseOperator(res.p1 / wh, hs),
        DenseOperator(res.p2 / wh, hs),
    )


@dataclass
class CoupledSolution:
    """Backward pass of the coupled pair, values taken at the given x0.

    ``j1`` and ``j2`` are the equilibrium index values <P1(0)x0, x0> and
    <P2(0)x0, x0>; both are None unless the status is solved.  On a domain
    failure, entries below the failing step are None and the offending
    minimum eigenvalue is recorded.
    """

    params: GameParams
    status: str
    failing_step: int | None
    failing_detail: str | None
    p1: list[Operator | None]
    p2: list[Operator | None]
    v_gains: list[Operator | None]
    u_gains: list[Operator | None]
    r1: list[Operator | None]
    r2: list[Operator | None]
    r1_certs: list[SelfAdjointCert | None]
    r2_certs: list[SelfAdjointCert | None]
    coupling_residual: float
    j1: float | None = None
    j2: float | None = None
    x0: HVector | None = None

    @property
    def solved(self) -> bool:
        return self.status == STATUS_SOLVED


def solve_coupled_riccati(
    sys2: TwoInputSystem,
    params: GameParams,
    x0: HVector | None,
    kappa_max: float = KAPPA_MAX_DEFAULT,
) -> CoupledSolution:
    """Run both coupled recursions from zero terminal iterates.

    The step fails, and the status records it, when either player's
    effective weight stops being uniformly positive (with bounded inverse);
    a singular gain coupling is raised instead since it signals a numerical
    breakdown rather than game infeasibility.  Without an initial state the
    iterates and gains are still produced but the values j1, j2 stay None.
    """
    if x0 is not None and x0.space != sys2.state_space:
        raise DimensionError("initial state does not live on the state space")
    steps = sys2.steps
    hs, vs, us = sys2.state_space, sys2.disturbance_space, sys2.control_space
    dh = hs.dim
    grams1: list[np.ndarray | None] = [None] * steps + [np.zeros((dh, dh))]
    grams2: list[np.ndarray | None] = [None] * steps + [np.zeros((dh, dh))]
    v_gains: list[Operator | None] = [None] * steps
    u_gains: list[Operator | None] = [None] * steps
    r1_ops: list[Operator | None] = [None] * steps
    r2_ops: list[Operator | None] = [None] * steps
    certs1: list[SelfAdjointCert | None] = [None] * steps
    certs2: list[SelfAdjointCert | None] = [None] * steps
    status = STATUS_SOLVED
    failing = None
    detail = None
    worst_resid = 0.0
    for k in range(steps - 1, -1, -1):
        try:
            res = _cross_step_arrays(sys2, params, grams1[k + 1], grams2[k + 1], k, kappa_max)
        except GameDomainError as err:
            status = STATUS_DOMAIN_FAILURE
            failing = err.step
            detail = str(err)
            break
        grams1[k] = res.p1
        grams2[k] = res.p2
        v_gains[k] = DenseOperator(res.k1, hs, vs)
        u_gains[k] = DenseOperator(res.k2, hs, us)
        r1_ops[k] = DenseOperator(res.r1, vs)
        r2_ops[k] = DenseOperator(res.r2, us)
        certs1[k] = res.cert1
        certs2[k] = res.cert2
        worst_resid = max(worst_resid, res.coupling_residual)
    p1_ops = coordinate_operators(grams1, hs)
    p2_ops = coordinate_operators(grams2, hs)
    sol = CoupledSolution(
        params,
        status,
        failing,
        detail,
        p1_ops,
        p2_ops,
        v_gains,
        u_gains,
        r1_ops,
        r2_ops,
        certs1,
        certs2,
        worst_resid,
        x0=x0,
    )
    if sol.solved and x0 is not None:
        from .spaces import inner

        sol.j1 = inner(sol.p1[0].apply(x0), x0)
        sol.j2 = inner(sol.p2[0].apply(x0), x0)
    return sol


@dataclass
class InputSchedule:
    """Affine input v(k) = K(k) x(k) + f(k) for one player."""

    gains: list[Operator] | None = None
    offsets: list[np.ndarray] | None = None

    def batch(self, k: int, x: np.ndarray, dim: int) -> np.ndarray:
        out = np.zeros((x.shape[0], dim))
        if self.gains is not None:
            out += x @ self.gains[k].matrix.T
        if self.offsets is not None:
            out += np.asarray(self.offsets[k], dtype=float)[None, :]
        return out


def game_energies(
    sys2: TwoInputSystem,
    x0: HVector,
    v_schedule: InputSchedule,
    u_schedule: InputSchedule,
) -> tuple[float, float]:
    """Exact (E sum |z|^2, E sum |v|^2) under two-point noise enumeration."""
    steps = sys2.steps
    paths = sign_paths(steps)
    wv = sys2.disturbance_space.weights
    wz = sys2.output_space.weights
    x = np.tile(x0.coords, (paths.shape[0], 1))
    ez = np.zeros(paths.shape[0])
    ev = np.zeros(paths.shape[0])
    for k in range(steps):
        v = v_schedule.batch(k, x, sys2.disturbance_space.dim)
        u = u_schedule.batch(k, x, sys2.control_space.dim)
        z = x @ sys2.cbar(k).matrix.T + u @ sys2.gbar(k).matrix.T
        ez += np.einsum("pi,pi->p", z * wz[None, :], z)
        ev += np.einsum("pi,pi->p", v * wv[None, :], v)
        drift = x @ sys2.a(k).matrix.T + v @ sys2.b1(k).matrix.T + u @ sys2.b2(k).matrix.T
        diff = x @ sys2.c(k).matrix.T + v @ sys2.d1(k).matrix.T + u @ sys2.d2(k).matrix.T
        x = drift + paths[:, k][:, None] * diff
    return float(np.mean(ez)), float(np.mean(ev))


def game_costs(
    sys2: TwoInputSystem,
    params: GameParams,
    x0: HVector,
    v_schedule: InputSchedule,
    u_schedule: InputSchedule,
) -> tuple[float, float]:
    """Exact (J1, J2) index pair for arbitrary affine strategies."""
    ez, ev = game_energies(sys2, x0, v_schedule, u_schedule)
    j1 = (params.gamma**2) * ev - ez
    j2 = ez - (params.rho**2) * ev
    return j1, j2


@dataclass(frozen=True)
class NashReport:
    """Unilateral-deviation audit of a solved game.

    ``worst_j1_margin`` is the smallest J1(x0, u*, v) - J1(x0, u*, v*) over
    the sampled disturbance deviations (nonnegative at an equilibrium), and
    ``worst_j2_margin`` the control-side counterpart.
    """

    j1_star: float
    j2_star: float
    value_j1: float
    value_j2: float
    worst_j1_margin: float
    worst_j2_margin: float
    deviations: int


def verify_nash_equilibrium(
    sys2: TwoInputSystem,
    params: GameParams,
    solution: CoupledSolution,
    x0: HVector,
    deviations: int = 50,
    seed: int = 20260301,
    scale: float = 0.5,
) -> NashReport:
    """Check the two equilibrium inequalities against sampled deviations.

    All expectations are enumerated exactly, so a genuinely negative margin
    beyond round-off disproves the equilibrium rather than sampling error.
    """
    if not solution.solved:
        raise GameDomainError(solution.failing_step or 0, "cannot audit an unsolved game")
    star_v = InputSchedule(gains=list(solution.v_gains))
    star_u = InputSchedule(gains=list(solution.u_gains))
    j1_star, j2_star = game_costs(sys2, params, x0, star_v, star_u)
    rng = np.random.default_rng(seed)
    steps = sys2.steps
    dv = sys2.disturbance_space.dim
    du = sys2.control_space.dim
    worst1 = np.inf
    worst2 = np.inf
    for _ in range(deviations):
        v_off = [scale * rng.standard_normal(dv) for _ in range(steps)]
        u_off = [scale * rng.standard_normal(du) for _ in range(steps)]
        j1_dev, _ = game_costs(
            sys2, params, x0, InputSchedule(list(solution.v_gains), v_off), star_u
        )
        _, j2_dev = game_costs(
            sys2, params, x0, star_v, InputSchedule(list(solution.u_gains), u_off)
        )
        worst1 = min(worst1, j1_dev - j1_star)
        worst2 = min(worst2, j2_dev - j2_star)
    return NashReport(
        j1_star, j2_star, solution.j1, solution.j2, float(worst1), float(worst2), deviations
    )


@dataclass
class DesignResult:
    """Attenuation-level synthesis output (zero-sum specialization).

    ``p`` is the single iterate sequence P = P2 = -P1; the closed-loop system
    has the control absorbed and is ready for an independent gain check.
    """

    gamma: float
    p: list[Operator]
    u_gains: list[Operator]
    v_gains: list[Operator]
    closed: DisturbedSystem
    solution: CoupledSolution


def hinf_design(
    sys2: TwoInputSystem, gamma: float, kappa_max: float = KAPPA_MAX_DEFAULT
) -> DesignResult:
    """Feedback u = K2 x keeping the closed-loop disturbance gain below gamma.

    Runs the zero-sum game at rho = gamma; infeasibility of either positivity
    side condition is raised with the failing step and eigenvalue detail,
    since it certifies that no linear feedback achieves this level.
    """
    from .spaces import zero_vector

    params = GameParams(gamma=gamma, rho=gamma)
    sol = solve_coupled_riccati(sys2, params, zero_vector(sys2.state_space), kappa_max)
    if not sol.solved:
        raise DesignInfeasibleError(sol.failing_step, sol.failing_detail)
    u_gains = [g for g in sol.u_gains]
    return DesignResult(
        gamma, [p for p in sol.p2], u_gains, list(sol.v_gains), closed_loop(sys2, u_gains), sol
    )


@dataclass
class MixedDesignResult:
    """Joint attenuation / minimum-output-energy synthesis output.

    ``j2`` is the output energy at the worst-case disturbance from x0.  The
    ``diagnostic`` field is set when the requested level is so large that the
    result must not be read as a level-free least-energy design: the level
    still enters both recursions and there is no valid limit.
    """

    gamma: float
    p1: list[Operator]
    p2: list[Operator]
    u_gains: list[Operator]
    v_gains: list[Operator]
    j2: float
    closed: DisturbedSystem
    solution: CoupledSolution
    diagnostic: str | None = None


H2_LEVEL_DIAGNOSTIC_THRESHOLD = 1e6


def h2hinf_design(
    sys2: TwoInputSystem,
    gamma: float,
    x0: HVector,
    kappa_max: float = KAPPA_MAX_DEFAULT,
) -> MixedDesignResult:
    """Control keeping the gain below gamma while minimizing output energy
    against the worst-case disturbance; the game at rho = 0."""
    params = GameParams(gamma=gamma, rho=0.0)
    sol = solve_coupled_riccati(sys2, params, x0, kappa_max)
    if not sol.solved:
        raise DesignInfeasibleError(sol.failing_step, sol.failing_detail)
    diagnostic = None
    if gamma >= H2_LEVEL_DIAGNOSTIC_THRESHOLD:
        diagnostic = (
            f"level {gamma:g} is effectively infinite, but the design still depends on it; "
            "a pure least-energy design is not obtained as a limit and this result "
            "must be read at the stated level only"
        )
    u_gains = list(sol.u_gains)
    return MixedDesignResult(
        gamma,
        list(sol.p1),
        list(sol.p2),
        u_gains,
        list(sol.v_gains),
        sol.j2,
        closed_loop(sys2, u_gains),
        sol,
        diagnostic,
    )
