"""Backward operator Riccati recursion with noise-coupled completion terms.

Starting from the terminal weight and stepping backward,

    P(k) = A*PA + C*PC + M - G* Rk^-1 G,    P at step N+1 = terminal,

with the completion pair (written for P = P(k+1))

    Rk = R + B*PB + D*PD,
    G  = L + B*PA + D*PC.

A step is inside the recursion domain when Rk has a bounded inverse on the
truncation, meaning it is invertible with condition number at most
``kappa_max``.  No sign is required for domain membership; the solved status
additionally demands that every Rk is uniformly positive.

The pass carries each iterate in Gram form W P, with W the state weights.  It
is symmetric whenever P is self-adjoint, so every weighted adjoint in a step
becomes a plain transpose.  Weights enter only the small completion terms,
which are certified in the orthonormal frame, and the returned coordinates.
The pass takes its stage weights in that Gram form too, so the bounded-real
test of ``hinf`` runs the same pass on its level weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .operators import (
    KAPPA_MAX_DEFAULT,
    DenseOperator,
    Operator,
    SelfAdjointCert,
    block_selfadjoint_cert,
    certified_inverse,
    congruence,
    coordinate_operators,
    min_eig_selfadjoint,
    positivity_tolerance,
)
from .spaces import HVector, inner
from .systems import ControlledSystem, CostSpec

STATUS_SOLVED = "solved"
STATUS_DOMAIN_FAILURE = "domain_failure"
STATUS_NOT_UNIFORMLY_POSITIVE = "not_uniformly_positive"


# k -> Gram forms (W_h M, W_u L, W_u R) of the stage weights of a pass
StageWeights = Callable[[int], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _cost_weights(system: ControlledSystem, cost: CostSpec) -> StageWeights:
    wh = system.state_space.weights[:, None]
    wu = system.control_space.weights[:, None]
    return lambda k: (wh * cost.m(k).matrix, wu * cost.l(k).matrix, wu * cost.r(k).matrix)


def _completion_arrays(system: ControlledSystem, weights: StageWeights, gram_next: np.ndarray, k: int):
    """Gram forms W_h Q, W_u Rk (symmetrized) and W_u G for the next iterate W_h P.

    Q = M + A*PA + C*PC is the state part of the step, P(k) = Q - G* Rk^-1 G.
    """
    m, l, r = weights(k)
    a, b, c, d = system.a(k), system.b(k), system.c(k), system.d(k)
    q = m + (congruence(a, gram_next, a) + congruence(c, gram_next, c))
    rk = r + (congruence(b, gram_next, b) + congruence(d, gram_next, d))
    gk = l + (congruence(b, gram_next, a) + congruence(d, gram_next, c))
    return q, 0.5 * (rk + rk.T), gk


def _advance(q: np.ndarray, gk: np.ndarray, rk_inverse: np.ndarray):
    """Gain -Rk^-1 G and the new Gram iterate W_h (Q - G* Rk^-1 G), symmetrized."""
    gain = -rk_inverse @ gk
    g = q + gk.T @ gain
    return gain, 0.5 * (g + g.T)


def _closed_gram(q: np.ndarray, gk: np.ndarray, rk: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Gram iterate W_h (Q + G* K + K* G + K* Rk K), the cost along u = K x, symmetrized."""
    y = q + gain.T @ gk + gk.T @ gain + gain.T @ rk @ gain
    return 0.5 * (y + y.T)


@dataclass
class RiccatiSolution:
    """Backward pass record, indexed by step.

    ``p[k]`` is defined for every step the recursion reached.  ``breakdown``
    is the step whose completion term has no bounded inverse, where the walk
    stopped, and ``nonpositive`` the largest step whose completion term is not
    uniformly positive; either is None when there is no such step.  On a
    domain failure at step k0, entries 0..k0 are None and ``failing_step`` is
    k0 (the largest step outside the domain, hit first when walking
    backward).  With all steps in the domain but some completion term not
    uniformly positive, the status reports the largest offending step instead.
    """

    p: list[Operator | None]
    gains: list[Operator | None]
    rk: list[Operator | None]
    gk: list[Operator | None]
    rk_certs: list[SelfAdjointCert | None]
    breakdown: int | None
    nonpositive: int | None

    @property
    def status(self) -> str:
        if self.breakdown is not None:
            return STATUS_DOMAIN_FAILURE
        return STATUS_SOLVED if self.nonpositive is None else STATUS_NOT_UNIFORMLY_POSITIVE

    @property
    def failing_step(self) -> int | None:
        return self.breakdown if self.breakdown is not None else self.nonpositive

    @property
    def solved(self) -> bool:
        return self.status == STATUS_SOLVED

    def value(self, x0: HVector) -> float:
        """<P(0) x0, x0>, the optimal expected cost from x0."""
        if self.p[0] is None:
            raise DomainError(self.failing_step, "recursion never reached step 0")
        return inner(self.p[0].apply(x0), x0)


def _backward_pass(
    system: ControlledSystem,
    weights: StageWeights,
    terminal_gram: np.ndarray,
    kappa_max: float,
    stop_at_nonpositive: bool = False,
) -> RiccatiSolution:
    """Walk backward from the terminal Gram form W_h P(N+1) towards step 0.

    Each step certifies its completion term; the walk stops where that term
    has no bounded inverse, and with ``stop_at_nonpositive`` also at the first
    term that is not uniformly positive.  Indefinite but invertible terms are
    otherwise walked through, so every reached step reports its spectrum.
    """
    steps = system.steps
    hs, us = system.state_space, system.control_space
    wu = us.weights
    grams: list[np.ndarray | None] = [None] * steps + [terminal_gram]
    gains: list[Operator | None] = [None] * steps
    rk_ops: list[Operator | None] = [None] * steps
    gk_ops: list[Operator | None] = [None] * steps
    certs: list[SelfAdjointCert | None] = [None] * steps
    breakdown = nonpositive = None
    for k in range(steps - 1, -1, -1):
        q, rk, gk = _completion_arrays(system, weights, grams[k + 1], k)
        rk /= wu[:, None]
        cert, rk_inverse = certified_inverse(rk, wu, kappa_max)
        certs[k] = cert
        if nonpositive is None and cert.min_eig <= positivity_tolerance(cert.norm):
            nonpositive = k
            if stop_at_nonpositive:
                break
        if rk_inverse is None:
            breakdown = k
            break
        gain, grams[k] = _advance(q, gk, rk_inverse)
        gains[k] = DenseOperator(gain, hs, us)
        rk_ops[k] = DenseOperator(rk, us)
        gk_ops[k] = DenseOperator(gk / wu[:, None], hs, us)
    p_ops = coordinate_operators(grams, hs)
    return RiccatiSolution(p_ops, gains, rk_ops, gk_ops, certs, breakdown, nonpositive)


def solve_backward_riccati(
    system: ControlledSystem, cost: CostSpec, kappa_max: float = KAPPA_MAX_DEFAULT
) -> RiccatiSolution:
    """Run the full backward recursion and classify the outcome.

    Status is "solved" when every step is in the domain and every completion
    term is uniformly positive (minimum eigenvalue above the scale-aware
    tolerance); "domain_failure" when some completion term has no bounded
    inverse, stopping the recursion; "not_uniformly_positive" when the
    recursion completes but a completion term dips to or below the tolerance.
    """
    terminal = system.state_space.weights[:, None] * cost.terminal.matrix
    return _backward_pass(system, _cost_weights(system, cost), terminal, kappa_max)


@dataclass(frozen=True)
class PsdCostCertificate:
    """Outcome of the sufficient positivity check on the cost data.

    ``ok`` means: terminal weight positive semidefinite, every stage weight
    R strictly positive, and every stage block [[M, L*], [L, R]] positive
    semidefinite on the product space.  Under these conditions the backward
    recursion is guaranteed to come back solved with P(k) >= 0 throughout.
    """

    ok: bool
    terminal_min_eig: float
    min_control_eig: float
    min_stage_block_eig: float


def psd_cost_certificate(system: ControlledSystem, cost: CostSpec) -> PsdCostCertificate:
    term_cert = min_eig_selfadjoint(cost.terminal)
    term_ok = term_cert.min_eig >= -positivity_tolerance(term_cert.norm)
    min_r = np.inf
    min_block = np.inf
    r_ok = True
    block_ok = True
    for k in range(system.steps):
        r_cert = min_eig_selfadjoint(cost.r(k))
        min_r = min(min_r, r_cert.min_eig)
        if r_cert.min_eig <= positivity_tolerance(r_cert.norm):
            r_ok = False
        blk = block_selfadjoint_cert(cost.m(k), cost.l(k), cost.r(k))
        min_block = min(min_block, blk.min_eig)
        if blk.min_eig < -positivity_tolerance(blk.norm):
            block_ok = False
    return PsdCostCertificate(
        term_ok and r_ok and block_ok,
        float(term_cert.min_eig),
        float(min_r),
        float(min_block),
    )
