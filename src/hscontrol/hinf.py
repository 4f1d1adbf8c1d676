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
weight: p1 - p2* p3^-1 p2 is Q - G* Rk^-1 G, and the level test runs that pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DimensionError, OracleScopeError, ResolutionError
from .operators import KAPPA_MAX_DEFAULT, Operator, SelfAdjointCert, _sframe, gram, opnorm
from .riccati import StageWeights, StepScratch, _backward_pass, _once_per_operator
from .systems import ControlledSystem, DisturbedSystem


@dataclass(frozen=True)
class _LevelTerms:
    """The part of the level test on one system that does not depend on gamma.

    The controlled view, the Gram forms W_h (-Cbar*Cbar) and W_v Dbar*Dbar of
    every step, each computed once per distinct operator, and the scratch of
    the backward pass.  ``hinf_norm`` builds it once for all its tests.
    """

    view: ControlledSystem
    neg_cbar_sq: list[np.ndarray]
    dbar_sq: list[np.ndarray]
    scratch: StepScratch

    def weights(self, gamma: float) -> StageWeights:
        """The LQ weights M = -Cbar*Cbar, L = 0, R = gamma^2 I - Dbar*Dbar in Gram form."""
        vs = self.view.control_space
        zero = np.zeros((vs.dim, self.view.state_space.dim))
        # W_v (gamma^2 I - Dbar*Dbar) from W_v Dbar*Dbar
        return lambda k: (
            self.neg_cbar_sq[k],
            zero,
            (gamma**2) * np.diag(vs.weights) - self.dbar_sq[k],
        )


def _level_terms(dsys: DisturbedSystem) -> _LevelTerms:
    return _LevelTerms(
        dsys.as_controlled(),
        _once_per_operator(lambda op: -gram(op), dsys.cbar),
        _once_per_operator(gram, dsys.dbar),
        StepScratch(dsys.state_space.dim),
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
    kappa_max: float = KAPPA_MAX_DEFAULT,
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
    dim = dsys.state_space.dim
    sol = _backward_pass(
        terms.view,
        terms.weights(gamma),
        np.zeros((dim, dim)),
        kappa_max,
        stop_at_nonpositive=stop_at_failure,
        scratch=terms.scratch,
    )
    failing = sol.nonpositive if sol.nonpositive is not None else sol.breakdown
    # the walk stops at a breakdown, and with stop_at_failure at the first non-positive p3
    completed = sol.breakdown is None and not (stop_at_failure and sol.nonpositive is not None)
    return BoundedRealRun(gamma, failing is None, failing, completed, sol.p, sol.rk_certs, sol.gains)


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
    kappa_max: float = KAPPA_MAX_DEFAULT,
) -> NormEstimate:
    """Disturbance gain by bisection on the feasibility predicate.

    An infeasible level is a lower bound and a feasible one an upper bound,
    so the gain is bracketed and bisected to ``tol``.  A supplied ``lo`` above
    0 is tested and refused if feasible; level 0 never is, since there p3 is
    -Dbar*Dbar at the last step.  When no upper bound is supplied, noise-free
    systems get twice the exact oracle value; otherwise the level is doubled
    from 1 until feasible, capped at 2**20.  Bisection also stops when the
    bracket has no float strictly inside it.
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
    iterations = 0
    terms = _level_terms(dsys)

    def feasible(level: float) -> bool:
        nonlocal iterations
        iterations += 1
        return brl_check(dsys, level, kappa_max, stop_at_failure=True, terms=terms).feasible

    if lo > 0.0 and feasible(lo):
        raise BracketError(f"supplied lower bound {lo} is feasible")
    if hi is None:
        try:
            hi = max(2.0 * deterministic_norm_oracle(dsys).value, 1e-3)
        except OracleScopeError:
            hi = max(1.0, 2.0 * lo)
        while not feasible(hi):
            lo = hi
            hi *= 2.0
            if hi > 2.0**20:
                raise BracketError(f"no feasible level found up to {hi}")
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
# Frobenius bounds must clear the threshold by this factor, which absorbs
# the round-off of the two norm computations they compare.
_BOUND_MARGIN = 1.0 + 1e-8


def _opnorm_bounds(op: Operator) -> tuple[float, float]:
    """(lo, hi) around ``opnorm(op)``: |S|_F / sqrt(min(shape)) <= |S| <= |S|_F."""
    s = _sframe(op.matrix, op.codomain.weights, op.domain.weights)
    fro = float(np.linalg.norm(s))
    return fro / np.sqrt(min(s.shape)), fro


def _check_noise_free(dsys: DisturbedSystem) -> None:
    """Refuse unless every C and D1 has norm at most 1e-14 (1 + scale).

    scale = max_k |A(k)| + |B1(k)|.  Frobenius norms bound both sides, so a
    refusal they prove needs no SVD; the exact norms run only when the bounds
    leave the decision open, and the decision is the same either way.
    """
    steps = range(dsys.steps)
    noise = [op for k in steps for op in (dsys.c(k), dsys.d1(k))]
    scale_hi = max(_opnorm_bounds(dsys.a(k))[1] + _opnorm_bounds(dsys.b1(k))[1] for k in steps)
    bound = _BOUND_MARGIN * _NOISE_RTOL * (1.0 + scale_hi)
    noisy = any(_opnorm_bounds(op)[0] > bound for op in noise)
    if not noisy:
        scale = max(opnorm(dsys.a(k)) + opnorm(dsys.b1(k)) for k in steps)
        noisy = any(opnorm(op) > _NOISE_RTOL * (1.0 + scale) for op in noise)
    if noisy:
        raise OracleScopeError("oracle only covers noise-free systems (C = D1 = 0)")


@dataclass(frozen=True)
class OracleNorm:
    value: float
    witness: list[np.ndarray]


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
    big = np.zeros((steps * dz, steps * dv))
    for j in range(steps):
        big[j * dz : (j + 1) * dz, j * dv : (j + 1) * dv] = dsys.dbar(j).matrix
        cur = dsys.b1(j).matrix
        for k in range(j + 1, steps):
            big[k * dz : (k + 1) * dz, j * dv : (j + 1) * dv] = dsys.cbar(k).matrix @ cur
            cur = dsys.a(k).matrix @ cur
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
