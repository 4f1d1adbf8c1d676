"""Disturbance attenuation analysis for noise-driven linear systems.

The perturbation map sends a disturbance sequence to the penalized output
sequence, with zero initial state.  Whether its gain stays below a level
gamma is decided by a backward recursion

    Y(k) = p1 - p2* p3^-1 p2,      Y at step N+1 = 0,

with (X the next iterate)

    p1 = A*XA + C*XC - Cbar*Cbar,
    p2 = B1*XA + D1*XC,
    p3 = gamma^2 I - Dbar*Dbar + B1*XB1 + D1*XD1,

the gain being below gamma exactly when every p3 stays uniformly positive.
The recursion is continued through indefinite p3 as long as it remains
boundedly invertible, so the p3 spectra are reported for every step even at
infeasible levels; only a conditioning breakdown stops the walk early, and a
level whose walk stops there is infeasible.

This is the LQ Riccati recursion of ``riccati`` on the disturbance channel,
with M = -Cbar*Cbar, L = 0, R = gamma^2 I - Dbar*Dbar and a zero terminal
weight: p1 - p2* p3^-1 p2 is Q - G* Rk^-1 G, and the level test runs that
recursion's passes.  When Cbar is monomial by type, -Cbar*Cbar is diagonal,
and a plant whose A and C are monomial too (the shift network) runs the
low-rank pass whenever ``riccati._low_rank_plan`` accepts it, with
``riccati.DiagonalPlusLowRank`` iterates; any other runs the n x n pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, DimensionError, OracleScopeError, ResolutionError
from .operators import (
    DenseOperator,
    Operator,
    RANK_MAX_SHARE,
    SelfAdjointCert,
    _BOUND_MARGIN,
    _monomial_columns,
    _once_per_operator,
    _sframe,
    gram,
    opnorm,
    step_matrices,
)
from .riccati import (
    DiagonalGram,
    RiccatiSolution,
    StageWeights,
    StepScratch,
    _backward_pass,
    _low_rank_pass,
    _low_rank_plan,
    _state_sum,
    _thin_sums,
)
from .spaces import euclidean
from .systems import ControlledSystem, DisturbedSystem


def _neg_output_gram(op: Operator) -> np.ndarray | DiagonalGram:
    """W_h (-Cbar*Cbar) for Cbar = ``op``: a DiagonalGram when Cbar is monomial by type.

    ``gram`` takes the right product of M^T W with M.  For a monomial M, row
    j of M^T W holds one nonzero, M_ij w_i at the row i of column j, and the
    native right product maps each column on its own, so the right product
    of the one row that holds all those entries is the diagonal of ``gram``,
    with its bits.  The zero off the diagonal is that of -gram for a factor
    without negative values.
    """
    columns = _monomial_columns(op)
    if columns is None:
        return -gram(op)
    rows, values = columns
    nonzero = values != 0.0
    row = np.zeros((1, op.codomain.dim))
    row[0, rows[nonzero]] = values[nonzero] * op.codomain.weights[rows[nonzero]]
    return DiagonalGram(-op.rmatmul(row)[0], -0.0)


@dataclass
class _LevelTerms:
    """The part of the level test on one system that does not depend on gamma.

    The controlled view, the Gram forms W_h (-Cbar*Cbar) and W_v Dbar*Dbar of
    every step, each computed once per distinct operator, and the pass the
    walks take.  ``hinf_norm`` builds it once for all its tests.  A walk
    builds its level weights gamma^2 W_v - W_v Dbar*Dbar once per distinct
    Dbar.  The plan reads only the types of the weights and the plant's A and
    C, which gamma does not change: when ``riccati._low_rank_plan`` accepts
    the view, every walk is the low-rank pass.  Otherwise every walk is the
    n x n pass in one ``scratch``, with a head: the sums of step N-1, which
    do not depend on gamma, since from the zero terminal weight G(N) = L = 0
    and P(N) = sym(-Cbar*Cbar(N)) at every level.  The first walk to reach
    step N-1 computes them from its P(N), A*PA + C*PC, B*PB + D*PD and
    B*PA + D*PC; every walk adds its weights to them and only reads them.
    A bisection test forms no Q at its failing step nor at step 0 (see
    ``riccati``).
    """

    view: ControlledSystem
    neg_cbar_sq: list[np.ndarray | DiagonalGram]
    dbar_sq: list[np.ndarray]
    plan: list | None = field(init=False)
    scratch: StepScratch | None = field(init=False)
    head: tuple | None = None

    def __post_init__(self):
        self.plan = _low_rank_plan(self.view, self.weights(1.0), self._zero_terminal())
        dim = self.view.state_space.dim
        self.scratch = None if self.plan is not None else StepScratch(dim)

    def _zero_terminal(self) -> DiagonalGram:
        return DiagonalGram(np.zeros(self.view.state_space.dim), 0.0)

    def weights(self, gamma: float) -> StageWeights:
        """The LQ weights M = -Cbar*Cbar, L = 0, R = gamma^2 I - Dbar*Dbar in Gram form."""
        vs = self.view.control_space
        zero = np.zeros((vs.dim, self.view.state_space.dim))
        level = (gamma**2) * np.diag(vs.weights)
        # W_v (gamma^2 I - Dbar*Dbar) from W_v Dbar*Dbar
        rs = _once_per_operator(lambda sq: level - sq, self.dbar_sq)
        return lambda k: (self.neg_cbar_sq[k], zero, rs[k])

    def walk(self, gamma: float, stop_at_failure: bool) -> RiccatiSolution:
        """The level recursion at gamma, from the zero terminal weight."""
        weights = self.weights(gamma)
        if self.plan is not None:
            return _low_rank_pass(
                self.view, weights, self._zero_terminal(), self.plan, stop_at_failure
            )
        dim = self.view.state_space.dim
        return _backward_pass(
            self.view,
            weights,
            np.zeros((dim, dim)),
            stop_at_nonpositive=stop_at_failure,
            scratch=self.scratch,
            head=self.head_sums,
        )

    def passes(self, gamma: float) -> bool:
        """Whether the level test at gamma is feasible; stops at the first failure."""
        sol = self.walk(gamma, stop_at_failure=True)
        return sol.nonpositive is None and sol.breakdown is None

    def head_sums(self, gram_last: np.ndarray) -> tuple:
        if self.head is None:  # the walk's spare and work are free at this point
            k, out, s = self.view.steps - 2, np.empty_like(gram_last), self.scratch
            q_sum = _state_sum(self.view, gram_last, k, out, s.spare, s.work)
            self.head = (q_sum, *_thin_sums(self.view, gram_last, k))
        return self.head


def _level_terms(dsys: DisturbedSystem) -> _LevelTerms:
    return _LevelTerms(
        dsys.as_controlled(),
        _once_per_operator(_neg_output_gram, dsys.cbar),
        _once_per_operator(gram, dsys.dbar),
    )


@dataclass
class BoundedRealRun:
    """Record of one feasibility sweep at a fixed level.

    ``feasible`` requires the walk to reach step 0 with every p3 uniformly
    positive and boundedly invertible.  When it is not, ``failing_step`` is
    the largest step whose p3 is non-positive or not boundedly invertible (the
    first one met walking backward).  Iterates and worst-case gains below the
    step where the walk stopped are None.  ``completed`` tells whether the
    walk reached step 0, and ``y`` is None on a stop-at-failure run, which
    keeps no iterates.
    """

    gamma: float
    feasible: bool
    failing_step: int | None
    completed: bool
    y: list[Operator | None] | None
    pi3_certs: list[SelfAdjointCert | None]
    worst_gains: list[Operator | None]

    def min_pi3_eig(self, k: int) -> float:
        cert = self.pi3_certs[k]
        if cert is None:
            raise DimensionError(f"recursion never evaluated step {k}")
        return cert.min_eig


def brl_check(
    dsys: DisturbedSystem,
    gamma: float,
    stop_at_failure: bool = False,
    *,
    terms: _LevelTerms | None = None,
) -> BoundedRealRun:
    """Decide whether the disturbance gain is below gamma.

    The level recursion is the LQ Riccati pass on the disturbance channel
    with the weights of ``_LevelTerms.weights`` and a zero terminal weight, so
    Y(k) is P(k), p3 is Rk and the worst-case gain is the LQ gain.
    ``stop_at_failure`` abandons the walk at the first non-positive p3, which
    is enough for bisection, and keeps no iterates; by default the walk
    continues through indefinite but invertible p3 so every step's spectrum
    gets reported.  ``terms`` is the gamma-independent part of the test built
    from ``dsys``; it is built here when None.
    """
    if not (gamma > 0.0 and np.isfinite(gamma * gamma)):
        raise DimensionError(
            f"gamma must be finite and positive with a finite square, got {gamma!r}"
        )
    terms = _level_terms(dsys) if terms is None else terms
    sol = terms.walk(gamma, stop_at_failure)
    failing = sol.nonpositive if sol.nonpositive is not None else sol.breakdown
    # the walk stops at a breakdown, and with stop_at_failure at the first non-positive p3
    completed = sol.breakdown is None and not (stop_at_failure and sol.nonpositive is not None)
    return BoundedRealRun(gamma, failing is None, failing, completed, sol.p, sol.rk_certs, sol.gains)


def _span(frame: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning those of a finite ``frame``, as many as its numerical rank.

    The rank is ``numpy.linalg.matrix_rank``'s, taken after the entries are
    scaled to at most 1, so that no singular value overflows.
    """
    top = np.abs(frame).max(initial=0.0)
    if top == 0.0:
        return frame[:, :0]
    u, svals, _ = np.linalg.svd(frame / top, full_matrices=False)
    return u[:, svals > svals[0] * max(frame.shape) * np.finfo(float).eps]


@np.errstate(over="ignore", invalid="ignore")  # a plant that overflows is declined
def _reachable_view(dsys: DisturbedSystem) -> DisturbedSystem | None:
    """The plant compressed to the states that a disturbance reaches from x0 = 0, or None.

    The reachable subspaces are R_0 = {0} and R_{k+1} = A_k R_k + C_k R_k +
    ran B1_k + ran D1_k, and V is an orthonormal basis, in the state
    weights, of R_0 + ... + R_N.  The view has the states of V, unit
    weights, the maps V* W A_k V, V* W C_k V, V* W B1_k, V* W D1_k and
    Cbar_k V, and the same disturbance and output spaces and Dbar.  A_k
    and C_k map R_k into R_{k+1}, and B1_k and D1_k map into it, so every
    trajectory from 0 is one of the view's and the level recursion of the
    view agrees with the full one on R_k.  R_{N+1} is not needed: the level
    test's terminal weight is zero.  The rank of each of the four images is
    decided at that image's own scale, so a weak input is not lost beside a
    strong one; a direction weak inside one image is dropped, and
    ``hinf_norm`` certifies the view's bracket on the full plant for that.
    A and C, when they map R_k and when they are compressed, and Cbar act
    through their row products, so a monomial plant builds no n x n
    matrix; B1 and D1 are thin and are read as matrices.

    None when the dimension of V passes ``operators.RANK_MAX_SHARE`` of the
    state dimension, checked at every step, when nothing is reachable, or
    when an image is not finite.
    """
    hs, ds, zs = dsys.state_space, dsys.disturbance_space, dsys.output_space
    growth = range(dsys.steps - 1)  # step N maps into R_{N+1}, which is not needed
    b1, d1 = (step_matrices(f(k) for k in growth) for f in (dsys.b1, dsys.d1))
    root_w = np.sqrt(hs.weights)[:, None]  # frame coordinates are root_w * x
    reach = basis = np.zeros((hs.dim, 0))  # frame bases of R_k and of R_0 + ... + R_k
    for k in growth:
        images = [root_w * _times(op, reach / root_w) for op in (dsys.a(k), dsys.c(k))]
        images += [root_w * m[k] for m in (b1, d1)]
        if not all(np.isfinite(image).all() for image in images):
            return None
        reach = _span(np.hstack([_span(image) for image in images]))
        basis = _span(np.hstack([basis, reach]))
        if basis.shape[1] > RANK_MAX_SHARE * hs.dim:
            return None
    if basis.shape[1] == 0:  # a space has at least one dimension
        return None
    v, vw = basis / root_w, (basis * root_w).T  # V and V* W, with V* W V = I
    vs = euclidean(v.shape[1])

    def compress(family, f, domain, codomain):  # once per distinct operator
        return _once_per_operator(lambda op: DenseOperator(f(op), domain, codomain), family)

    return DisturbedSystem(
        vs,
        ds,
        zs,
        dsys.horizon,
        compress(dsys.a, lambda op: vw @ _times(op, v), vs, vs),
        compress(dsys.b1, lambda op: vw @ op.matrix, ds, vs),
        compress(dsys.c, lambda op: vw @ _times(op, v), vs, vs),
        compress(dsys.d1, lambda op: vw @ op.matrix, ds, vs),
        compress(dsys.cbar, lambda op: _times(op, v), vs, zs),
        list(dsys.dbar),
    )


def _times(op: Operator, x: np.ndarray) -> np.ndarray:
    """M x for a thin x, through the operator's row product: native for structured ones."""
    return op.apply_rows(x.T).T


@dataclass(frozen=True)
class NormEstimate:
    value: float
    iterations: int
    lo: float
    hi: float


def hinf_norm(
    dsys: DisturbedSystem,
    lo: float = 0.0,
    hi: float | None = None,
    tol: float = 1e-6,
) -> NormEstimate:
    """Disturbance gain by bisection on the feasibility predicate.

    An infeasible level is a lower bound and a feasible one an upper bound,
    so the gain is bracketed and bisected to ``tol``.  A supplied ``lo`` above
    0 is tested and refused if feasible; level 0 never is, since there p3 is
    -Dbar*Dbar at the last step.  When no upper bound is supplied, noise-free
    systems get twice the exact oracle value; otherwise the level is doubled
    from 1 until feasible, and refused once the next level's square is not
    finite (about 512 doublings).  Bisection also stops when the bracket has
    no float strictly inside it.

    When the reachable subspace is small (see ``_reachable_view``), the
    level tests run on the plant compressed to it, and the bracket they end
    with is then certified on the full plant: ``hi`` must pass the full
    level test, and ``lo``, when above 0, must fail it.  A bracket that is
    not certified, or a view search that ends in a ``BracketError``, is
    discarded and the search reruns on the full plant.  ``iterations``
    counts the level tests of the search whose bracket is returned; the one
    or two certifying tests are not among them.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise DimensionError(f"tol must be a finite positive number, got {tol!r}")
    for name, end in (("lo", lo), ("hi", hi)):
        if end is not None and not np.isfinite(end):
            raise DimensionError(f"{name} must be finite, got {end!r}")
    if lo < 0.0:
        raise BracketError("lower bound must be nonnegative")
    if hi is not None and lo >= hi:
        raise BracketError(f"lower bound {lo} is not below upper bound {hi}")
    view = _reachable_view(dsys)
    if view is not None:
        try:
            est = _bisect(view, dsys, lo, hi, tol)
        except BracketError:
            pass
        else:
            full = _level_terms(dsys)
            if full.passes(est.hi) and not (est.lo > 0.0 and full.passes(est.lo)):
                return est
    return _bisect(dsys, dsys, lo, hi, tol)


def _bisect(
    plant: DisturbedSystem, dsys: DisturbedSystem, lo: float, hi: float | None, tol: float
) -> NormEstimate:
    """``hinf_norm``'s search with its level tests on ``plant`` and its oracle on ``dsys``."""
    iterations = 0
    terms = _level_terms(plant)

    def feasible(level: float) -> bool:
        nonlocal iterations
        iterations += 1
        return brl_check(plant, level, stop_at_failure=True, terms=terms).feasible

    if lo > 0.0 and feasible(lo):
        raise BracketError(f"supplied lower bound {lo} is feasible")
    if hi is None:
        try:
            hi = max(2.0 * deterministic_norm_oracle(dsys).value, 1e-3)
        except OracleScopeError:
            hi = max(1.0, 2.0 * lo)
        while not feasible(hi):
            lo, hi = hi, 2.0 * hi
            if not float(hi) * float(hi) < np.inf:  # a level brl_check refuses
                raise BracketError(f"no feasible level found up to {lo}")
    elif not feasible(hi):
        raise BracketError(f"supplied upper bound {hi} is not feasible")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return NormEstimate(0.5 * (lo + hi), iterations, lo, hi)


_NOISE_RTOL = 1e-14


def _frame_values(op: Operator) -> np.ndarray | None:
    """|entries| of a monomial operator's orthonormal-frame matrix, one per column, else None."""
    columns = _monomial_columns(op)
    if columns is None:
        return None
    rows, values = columns
    return np.abs(values) * np.sqrt(op.codomain.weights[rows] / op.domain.weights)


def _opnorm_bounds(op: Operator) -> tuple[float, float]:
    """(lo, hi) around ``opnorm(op)``: |S|_F / sqrt(min(shape)) <= |S| <= |S|_F."""
    values = _frame_values(op)
    s = _sframe(op.matrix, op.codomain.weights, op.domain.weights) if values is None else values
    fro = float(np.linalg.norm(s))
    return fro / np.sqrt(min(op.domain.dim, op.codomain.dim)), fro


def _exact_norm(op: Operator) -> float:
    """``opnorm(op)``; a monomial operator's is its largest frame value."""
    values = _frame_values(op)
    return opnorm(op) if values is None else float(values.max(initial=0.0))


def _check_noise_free(dsys: DisturbedSystem) -> None:
    """Refuse unless every C and D1 has norm at most 1e-14 (1 + scale).

    scale = max_k |A(k)| + |B1(k)|.  Frobenius norms bound both sides, so a
    refusal they prove needs no SVD; the exact norms run only when the bounds
    leave the decision open, and the decision is the same either way.  Each
    kind of norm reads each distinct operator's matrix once, and a monomial
    operator's frame values instead of its matrix.
    """
    n = dsys.steps
    ops = [op for family in (dsys.a, dsys.b1, dsys.c, dsys.d1) for op in family]
    bounds = _once_per_operator(_opnorm_bounds, ops)
    scale_hi = max(a[1] + b1[1] for a, b1 in zip(bounds[:n], bounds[n : 2 * n]))
    bound = _BOUND_MARGIN * _NOISE_RTOL * (1.0 + scale_hi)
    noisy = any(lo > bound for lo, _ in bounds[2 * n :])
    if not noisy:
        norms = _once_per_operator(_exact_norm, ops)
        scale = max(a + b1 for a, b1 in zip(norms[:n], norms[n : 2 * n]))
        noisy = any(norm > _NOISE_RTOL * (1.0 + scale) for norm in norms[2 * n :])
    if noisy:
        raise OracleScopeError("oracle only covers noise-free systems (C = D1 = 0)")


@dataclass(frozen=True)
class OracleNorm:
    value: float
    witness: list[np.ndarray]


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked and refused below
def deterministic_norm_oracle(dsys: DisturbedSystem) -> OracleNorm:
    """Exact gain of a noise-free system via one singular value problem.

    With C = D1 = 0 the disturbance-to-output map is a known block lower
    triangular matrix; its largest singular value in the weighted geometry is
    the gain, and the top right singular vector is a maximizing disturbance.
    Refuses systems with noise in the loop, where no such reduction exists,
    and raises ResolutionError when the block matrix overflows.
    """
    _check_noise_free(dsys)
    steps = dsys.steps
    dv = dsys.disturbance_space.dim
    dz = dsys.output_space.dim
    a, cbar = step_matrices(dsys.a), step_matrices(dsys.cbar)  # read for every earlier step
    big = np.zeros((steps * dz, steps * dv))
    for j in range(steps):
        big[j * dz : (j + 1) * dz, j * dv : (j + 1) * dv] = dsys.dbar(j).matrix
        cur = dsys.b1(j).matrix
        for k in range(j + 1, steps):
            big[k * dz : (k + 1) * dz, j * dv : (j + 1) * dv] = cbar[k] @ cur
            cur = a[k] @ cur
    row_w = np.sqrt(np.tile(dsys.output_space.weights, steps))
    col_w = np.sqrt(np.tile(dsys.disturbance_space.weights, steps))
    weighted = big * row_w[:, None] / col_w[None, :]
    if not np.isfinite(weighted).all():
        raise ResolutionError(
            "oracle block matrix is not finite: the system overflows the floating-point range"
        )
    u_mat, svals, vt = np.linalg.svd(weighted)
    top = vt[0] / col_w
    witness = [top[j * dv : (j + 1) * dv].copy() for j in range(steps)]
    return OracleNorm(float(svals[0]), witness)
