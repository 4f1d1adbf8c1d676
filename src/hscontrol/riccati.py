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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .operators import (
    KAPPA_MAX_DEFAULT,
    DenseOperator,
    Operator,
    SelfAdjointCert,
    _cert_from_eigs,
    _selfadjoint_eigs,
    block_selfadjoint_cert,
    congruence,
    coordinate_operators,
    gram_inverse,
    min_eig_selfadjoint,
    positivity_tolerance,
)
from .spaces import HVector, inner
from .systems import ControlledSystem, CostSpec

STATUS_SOLVED = "solved"
STATUS_DOMAIN_FAILURE = "domain_failure"
STATUS_NOT_UNIFORMLY_POSITIVE = "not_uniformly_positive"


@dataclass
class _StepArrays:
    gram: np.ndarray  # W P(k), the new iterate in Gram form
    rk: np.ndarray
    gk: np.ndarray
    gain: np.ndarray
    cert: SelfAdjointCert


def _completion_arrays(system: ControlledSystem, cost: CostSpec, gram_next: np.ndarray, k: int):
    """Gram forms W_u Rk (symmetrized) and W_u G for the next iterate W_h P."""
    wu = system.control_space.weights
    b, d = system.b(k), system.d(k)
    rk = wu[:, None] * cost.r(k).matrix
    rk += congruence(b, gram_next, b) + congruence(d, gram_next, d)
    gk = wu[:, None] * cost.l(k).matrix
    gk += congruence(b, gram_next, system.a(k)) + congruence(d, gram_next, system.c(k))
    return 0.5 * (rk + rk.T), gk


def _step_arrays(
    system: ControlledSystem,
    cost: CostSpec,
    gram_next: np.ndarray,
    k: int,
    kappa_max: float,
) -> _StepArrays:
    wh = system.state_space.weights
    wu = system.control_space.weights
    rk_gram, gk_gram = _completion_arrays(system, cost, gram_next, k)
    rk = rk_gram / wu[:, None]
    eigvals, eigvecs, resid = _selfadjoint_eigs(rk, wu)
    cert = _cert_from_eigs(eigvals, resid)
    if not np.isfinite(cert.cond) or cert.cond > kappa_max:
        raise DomainError(k, f"step {k}: completion term has condition {cert.cond:.3e}")
    gain = -gram_inverse(eigvals, eigvecs, wu) @ gk_gram
    a, c = system.a(k), system.c(k)
    g = wh[:, None] * cost.m(k).matrix
    g += congruence(a, gram_next, a) + congruence(c, gram_next, c) + gk_gram.T @ gain
    return _StepArrays(0.5 * (g + g.T), rk, gk_gram / wu[:, None], gain, cert)


def completion_terms(
    system: ControlledSystem, cost: CostSpec, p_next: Operator, k: int
) -> tuple[Operator, Operator]:
    """The pair (Rk, G) entering the step-k completion of squares."""
    wh, wu = system.state_space.weights, system.control_space.weights
    rk, gk = _completion_arrays(system, cost, wh[:, None] * p_next.matrix, k)
    us, hs = system.control_space, system.state_space
    return DenseOperator(rk / wu[:, None], us), DenseOperator(gk / wu[:, None], hs, us)


def riccati_step(
    system: ControlledSystem,
    cost: CostSpec,
    p_next: Operator,
    k: int,
    kappa_max: float = KAPPA_MAX_DEFAULT,
) -> tuple[Operator, Operator]:
    """One backward step; returns (P(k), gain K(k)) or raises DomainError."""
    hs, us = system.state_space, system.control_space
    wh = hs.weights[:, None]
    res = _step_arrays(system, cost, wh * p_next.matrix, k, kappa_max)
    return DenseOperator(res.gram / wh, hs), DenseOperator(res.gain, hs, us)


@dataclass
class RiccatiSolution:
    """Backward pass record.

    ``p[k]`` is defined for every step the recursion reached; on a domain
    failure at step k0, entries 0..k0 are None and ``failing_step`` is k0 (the
    largest step outside the domain, hit first when walking backward).  With
    all steps in the domain but some completion term not uniformly positive,
    the status reports the largest offending step instead.
    """

    status: str
    failing_step: int | None
    p: list[Operator | None]
    gains: list[Operator | None]
    rk: list[Operator | None]
    gk: list[Operator | None]
    rk_certs: list[SelfAdjointCert | None]

    @property
    def solved(self) -> bool:
        return self.status == STATUS_SOLVED

    def value(self, x0: HVector) -> float:
        """<P(0) x0, x0>, the optimal expected cost from x0."""
        if self.p[0] is None:
            raise DomainError(self.failing_step, "recursion never reached step 0")
        return inner(self.p[0].apply(x0), x0)


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
    steps = system.steps
    hs, us = system.state_space, system.control_space
    grams: list[np.ndarray | None] = [None] * (steps + 1)
    grams[steps] = hs.weights[:, None] * cost.terminal.matrix
    gains: list[Operator | None] = [None] * steps
    rk_ops: list[Operator | None] = [None] * steps
    gk_ops: list[Operator | None] = [None] * steps
    certs: list[SelfAdjointCert | None] = [None] * steps
    status = STATUS_SOLVED
    failing = None
    for k in range(steps - 1, -1, -1):
        try:
            res = _step_arrays(system, cost, grams[k + 1], k, kappa_max)
        except DomainError as err:
            status = STATUS_DOMAIN_FAILURE
            failing = err.step
            break
        grams[k] = res.gram
        gains[k] = DenseOperator(res.gain, hs, us)
        rk_ops[k] = DenseOperator(res.rk, us)
        gk_ops[k] = DenseOperator(res.gk, hs, us)
        certs[k] = res.cert
    if status != STATUS_DOMAIN_FAILURE:
        for k in range(steps - 1, -1, -1):
            cert = certs[k]
            if cert.min_eig <= positivity_tolerance(cert.norm):
                status = STATUS_NOT_UNIFORMLY_POSITIVE
                failing = k
                break
    p_ops = coordinate_operators(grams, hs)
    return RiccatiSolution(status, failing, p_ops, gains, rk_ops, gk_ops, certs)


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
