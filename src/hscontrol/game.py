"""Two-player dynamic game on a noise-driven two-input system.

Player 1 picks the disturbance v and pays gamma^2 |v|^2 - |z|^2; player 2
picks the control u and pays |z|^2 - rho^2 |v|^2.  On the stacked input
w = (v, u) the plant is ``sys2.as_controlled()``, with B = [B1 B2] and
D = [D1 D2], and as |z|^2 = |Cbar x|^2 + |u|^2 each index is an indefinite
LQ stage cost there:

    player 1:  M = -Cbar*Cbar,  L = 0,  R = diag(gamma^2 I, -I),
    player 2:  M =  Cbar*Cbar,  L = 0,  R = diag(-rho^2 I, I).

A feedback Nash step is the Riccati completion of ``riccati`` on that view
with each player's weights.  Player 1's v rows give R1, s12 and G1, player
2's u rows give R2, s21 and G2, and the two stationarity conditions
R1 K1 + s12 K2 = -G1 and s21 K1 + R2 K2 = -G2 are solved as one stacked
linear system.  Each new iterate is Q + G* K + K* G + K* Rk K, the player's
cost along w = K x with K = [K1; K2].  A linear feedback Nash equilibrium
exists exactly when the walk reaches step 0 with R1 and R2 uniformly
positive.  Iterates are carried in Gram form W P, as in ``riccati``.

The level-gamma attenuation design is the zero-sum case rho = gamma, where
the players' weights are exact negatives and P1 + P2 vanishes exactly; the
mixed design is rho = 0.
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
from . import operators
from .operators import (
    DenseOperator,
    Operator,
    SelfAdjointCert,
    _once_per_operator,
    certified_inverse,
    coordinate_operators,
    gram,
    positivity_tolerance,
    step_matrices,
)
from .riccati import (
    STATUS_DOMAIN_FAILURE,
    STATUS_SOLVED,
    StageWeights,
    StepScratch,
    _closed_gram,
    _completion_arrays,
    _require_finite,
)
from .sim import Policy, run_batch, sign_paths
from .spaces import HVector, inner, zero_vector
from .systems import DisturbedSystem, TwoInputSystem, closed_loop


@dataclass(frozen=True)
class GameParams:
    """Level pair: gamma weights player 1's index, rho weights player 2's."""

    gamma: float
    rho: float = 0.0

    def __post_init__(self):
        # the levels enter squared, so their squares must be finite too
        if not (0.0 < self.gamma and self.gamma * self.gamma < np.inf):
            raise DimensionError("gamma must be a positive finite real with a finite square")
        if not (0.0 <= self.rho and self.rho * self.rho < np.inf):
            raise DimensionError("rho must be a nonnegative finite real with a finite square")


def _solve_coupling(r1, s12, s21, r2, g1, g2, k):
    """Gains K1, K2 from the stacked stationarity system, and its relative residual.

    Solves [[r1, s12], [s21, r2]] [K1; K2] = -[g1; g2].  A stack that is
    numerically singular, or whose solution leaves a residual above 1e-8, is
    refused with CouplingSingularError.
    """
    dv = r1.shape[0]
    scale = 1.0 + max(np.linalg.norm(g1), np.linalg.norm(g2))
    try:
        stacked = np.linalg.solve(np.block([[r1, s12], [s21, r2]]), -np.vstack([g1, g2]))
    except np.linalg.LinAlgError as exc:
        raise CouplingSingularError(k, f"gain coupling at step {k} is singular") from exc
    k1, k2 = stacked[:dv], stacked[dv:]
    resid = max(
        np.linalg.norm(r1 @ k1 + s12 @ k2 + g1),
        np.linalg.norm(r2 @ k2 + s21 @ k1 + g2),
    ) / scale
    if not resid <= 1e-8:
        raise CouplingSingularError(
            k, f"gain coupling at step {k} leaves residual {resid:.3e} above 1e-8"
        )
    return k1, k2, float(resid)


def _player_weights(sys2: TwoInputSystem, params: GameParams) -> tuple[StageWeights, StageWeights]:
    """Gram-form stage weights (W_h M, W_w L, W_w R) of both players on the stacked input."""
    wv, wu = sys2.disturbance_space.weights, sys2.control_space.weights
    zero = np.zeros((wv.size + wu.size, sys2.state_space.dim))
    r1 = np.diag(np.concatenate([(params.gamma**2) * wv, -wu]))
    r2 = np.diag(np.concatenate([-(params.rho**2) * wv, wu]))
    cbar_sq = _once_per_operator(gram, sys2.cbar)
    neg_cbar_sq = _once_per_operator(lambda op: -gram(op), sys2.cbar)
    return (lambda k: (neg_cbar_sq[k], zero, r1)), (lambda k: (cbar_sq[k], zero, r2))


def _certify_weight(mat: np.ndarray, w: np.ndarray, label: str, k: int):
    """Certificate of a player's effective weight; GameDomainError unless it is in the domain."""
    cert, inverse = certified_inverse(mat, w)
    tol = positivity_tolerance(cert.norm)
    if cert.min_eig <= tol:
        raise GameDomainError(
            k, f"{label} at step {k}: minimum eigenvalue {cert.min_eig:.6e} is not above {tol:.3e}"
        )
    if inverse is None:
        cap = operators.KAPPA_MAX
        raise GameDomainError(
            k, f"{label} at step {k}: condition number {cert.cond:.3e} exceeds {cap:.1e}"
        )
    return cert


@dataclass
class CoupledSolution:
    """Backward pass of the coupled pair, values taken at the given x0.

    ``j1`` and ``j2`` are the equilibrium index values <P1(0)x0, x0> and
    <P2(0)x0, x0>; both are None unless the status is solved.  On a domain
    failure, the iterates, gains and weights at and below the failing step are
    None, and ``failing_detail`` names the step, the weight and its offending
    eigenvalue or condition number.
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


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked and refused below
def solve_coupled_riccati(
    sys2: TwoInputSystem,
    params: GameParams,
    x0: HVector | None,
) -> CoupledSolution:
    """Run both coupled recursions from zero terminal iterates.

    The step fails, and the status records it, when either player's
    effective weight stops being uniformly positive (with bounded inverse);
    a singular gain coupling, or a non-finite completion term or iterate
    (ResolutionError), is raised instead since it signals a numerical
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
    wv, wu = vs.weights, us.weights
    v, u = slice(None, vs.dim), slice(vs.dim, None)
    view, weights = sys2.as_controlled(), _player_weights(sys2, params)
    # both players' Q are alive at once, so each gets its own scratch
    scratch1, scratch2 = StepScratch(dh), StepScratch(dh)
    for k in range(steps - 1, -1, -1):
        # the terminal iterates are zero, which costs no congruence
        next1, next2 = (None, None) if k == steps - 1 else (grams1[k + 1], grams2[k + 1])
        q1, rk1, gk1 = _completion_arrays(view, weights[0], next1, k, scratch1)
        q2, rk2, gk2 = _completion_arrays(view, weights[1], next2, k, scratch2)
        # before the eigendecompositions and the coupling solve, which would
        # read a non-finite term as a verdict
        for player, rk, gk in ((1, rk1, gk1), (2, rk2, gk2)):
            _require_finite(rk, f"player {player} completion term Rk", k)
            _require_finite(gk, f"player {player} completion term G", k)
        r1, r2 = rk1[v, v] / wv[:, None], rk2[u, u] / wu[:, None]
        try:
            cert1 = _certify_weight(r1, wv, "disturbance weight", k)
            cert2 = _certify_weight(r2, wu, "control weight", k)
        except GameDomainError as err:
            status, failing, detail = STATUS_DOMAIN_FAILURE, err.step, str(err)
            break
        s12, s21 = rk1[v, u] / wv[:, None], rk2[u, v] / wu[:, None]
        g1, g2 = gk1[v] / wv[:, None], gk2[u] / wu[:, None]
        k1, k2, resid = _solve_coupling(r1, s12, s21, r2, g1, g2, k)
        gain = np.vstack([k1, k2])
        grams1[k] = _closed_gram(q1, gk1, rk1, gain, scratch1.spare)
        grams2[k] = _closed_gram(q2, gk2, rk2, gain, scratch2.spare)
        _require_finite(grams1[k], "player 1 iterate P1", k)
        _require_finite(grams2[k], "player 2 iterate P2", k)
        v_gains[k], u_gains[k] = DenseOperator(k1, hs, vs), DenseOperator(k2, hs, us)
        r1_ops[k], r2_ops[k] = DenseOperator(r1, vs), DenseOperator(r2, us)
        certs1[k], certs2[k] = cert1, cert2
        worst_resid = max(worst_resid, resid)
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
        sol.j1 = inner(sol.p1[0].apply(x0), x0)
        sol.j2 = inner(sol.p2[0].apply(x0), x0)
    return sol


def game_energies(sys2: TwoInputSystem, x0: HVector, policy: Policy) -> tuple[float, float]:
    """Exact (E sum |z|^2, E sum |v|^2) under two-point noise enumeration.

    ``policy`` is an affine law for the stacked input (v, u) of
    ``sys2.as_controlled()``.
    """
    dv, du = sys2.disturbance_space.dim, sys2.control_space.dim
    view = policy.system
    if view.state_space != sys2.state_space or view.control_space.dim != dv + du:
        raise DimensionError("policy does not act on the stacked input (v, u) of the system")
    wv = sys2.disturbance_space.weights
    wz = sys2.output_space.weights
    cbar, gbar = step_matrices(sys2.cbar), step_matrices(sys2.gbar)  # read in every block

    def stage(k, x, w):
        v, u = w[:, :dv], w[:, dv:]
        z = x @ cbar[k].T + u @ gbar[k].T
        ez = np.einsum("pi,pi->p", z * wz[None, :], z)
        ev = np.einsum("pi,pi->p", v * wv[None, :], v)
        return np.column_stack([ez, ev])

    vals = run_batch(view, policy, x0, sign_paths(sys2.steps), stage)
    return float(np.mean(vals[:, 0])), float(np.mean(vals[:, 1]))


def game_costs(
    sys2: TwoInputSystem, params: GameParams, x0: HVector, policy: Policy
) -> tuple[float, float]:
    """Exact (J1, J2) index pair for an affine law on the stacked input (v, u)."""
    ez, ev = game_energies(sys2, x0, policy)
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
) -> NashReport:
    """Check the two equilibrium inequalities against sampled deviations of scale 0.5.

    All expectations are enumerated exactly, so a genuinely negative margin
    beyond round-off disproves the equilibrium rather than sampling error.
    """
    if deviations < 1:
        raise DimensionError(f"deviations must be at least 1, got {deviations!r}")
    if not solution.solved:
        raise GameDomainError(solution.failing_step or 0, "cannot audit an unsolved game")
    view = sys2.as_controlled()
    gains = [
        DenseOperator(np.vstack([kv.matrix, ku.matrix]), sys2.state_space, view.control_space)
        for kv, ku in zip(solution.v_gains, solution.u_gains)
    ]
    j1_star, j2_star = game_costs(sys2, params, x0, Policy(view, gains))
    rng = np.random.default_rng(seed)
    steps = sys2.steps
    dv, du = sys2.disturbance_space.dim, sys2.control_space.dim
    zv, zu = np.zeros(dv), np.zeros(du)
    worst1 = worst2 = np.inf
    for _ in range(deviations):
        v_off = [np.concatenate([0.5 * rng.standard_normal(dv), zu]) for _ in range(steps)]
        u_off = [np.concatenate([zv, 0.5 * rng.standard_normal(du)]) for _ in range(steps)]
        j1_dev, _ = game_costs(sys2, params, x0, Policy(view, gains, v_off))
        _, j2_dev = game_costs(sys2, params, x0, Policy(view, gains, u_off))
        worst1 = min(worst1, j1_dev - j1_star)
        worst2 = min(worst2, j2_dev - j2_star)
    return NashReport(
        j1_star, j2_star, solution.j1, solution.j2, float(worst1), float(worst2), deviations
    )


@dataclass
class DesignResult:
    """Attenuation-level synthesis output.

    ``solution`` is the coupled pass the design comes from: its ``u_gains``
    are the feedback, and ``closed`` is the system with that control absorbed,
    ready for an independent gain check.  ``diagnostic`` is set when the
    requested level of a mixed design is so large that the result must not be
    read as a level-free least-energy design: the level still enters both
    recursions and there is no valid limit.
    """

    gamma: float
    closed: DisturbedSystem
    solution: CoupledSolution
    diagnostic: str | None = None


H2_LEVEL_DIAGNOSTIC_THRESHOLD = 1e6


def _design(
    sys2: TwoInputSystem, params: GameParams, x0: HVector, diagnostic: str | None = None
) -> DesignResult:
    """Solve the game, refuse an infeasible level, close the loop on u = K2 x."""
    sol = solve_coupled_riccati(sys2, params, x0)
    if not sol.solved:
        raise DesignInfeasibleError(sol.failing_step, sol.failing_detail)
    return DesignResult(params.gamma, closed_loop(sys2, sol.u_gains), sol, diagnostic)


def hinf_design(sys2: TwoInputSystem, gamma: float) -> DesignResult:
    """Feedback u = K2 x keeping the closed-loop disturbance gain below gamma.

    Runs the zero-sum game at rho = gamma, where P2 = -P1; infeasibility of
    either positivity side condition is raised with the failing step and
    eigenvalue detail, since it certifies that no linear feedback achieves
    this level.
    """
    params = GameParams(gamma=gamma, rho=gamma)
    return _design(sys2, params, zero_vector(sys2.state_space))


def h2hinf_design(sys2: TwoInputSystem, gamma: float, x0: HVector) -> DesignResult:
    """Control keeping the gain below gamma while minimizing output energy
    against the worst-case disturbance; the game at rho = 0.  The output
    energy from x0 is ``solution.j2``."""
    params = GameParams(gamma=gamma, rho=0.0)
    diagnostic = None
    if gamma >= H2_LEVEL_DIAGNOSTIC_THRESHOLD:
        diagnostic = (
            f"level {gamma:g} is effectively infinite, but the design still depends on it; "
            "a pure least-energy design is not obtained as a limit and this result "
            "must be read at the stated level only"
        )
    return _design(sys2, params, x0, diagnostic)
