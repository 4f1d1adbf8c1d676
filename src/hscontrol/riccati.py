"""Backward operator Riccati recursion with noise-coupled completion terms.

Starting from the terminal weight and stepping backward,

    P(k) = A*PA + C*PC + M - G* Rk^-1 G,    P at step N+1 = terminal,

with the completion pair (written for P = P(k+1))

    Rk = R + B*PB + D*PD,
    G  = L + B*PA + D*PC.

A step is inside the recursion domain when Rk has a bounded inverse on the
truncation, meaning it is invertible with condition number at most
``operators.KAPPA_MAX``.  No sign is required for domain membership; the
solved status additionally demands that every Rk is uniformly positive.

The pass carries each iterate in Gram form W P, with W the state weights.  It
is symmetric whenever P is self-adjoint, so every weighted adjoint in a step
becomes a plain transpose.  Weights enter only the small completion terms,
which are certified in the orthonormal frame, and the returned coordinates.
The pass takes its stage weights in that Gram form too, so the bounded-real
test of ``hinf`` runs the same pass on its level weights.

The pass owns its scratch: Q, the G* K product and the inner products of the
congruences go into state-sized arrays of a ``StepScratch`` allocated once and
overwritten at every step, in the order of operations of the plain
expressions, so the values are the same as with fresh arrays.  The
congruences A*PA, C*PC, B*PB and D*PD are each one operator's two-sided
product, native for structured operators.  A congruence with a zero factor
is skipped, and a step whose next iterate is zero (the zero terminal weight
of the level test, the games and LQ) skips all of them: there Q = M, Rk = R
and G = L.  A walk that stops at the first non-positive
completion term keeps no iterates: it alternates between two arrays and
returns none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ResolutionError
from .operators import (
    DenseOperator,
    Operator,
    SelfAdjointCert,
    ZeroOperator,
    _once_per_operator,
    certified_inverse,
    congruence,
    coordinate_operators,
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
    ms = _once_per_operator(lambda op: wh * op.matrix, cost.m)
    ls = _once_per_operator(lambda op: wu * op.matrix, cost.l)
    rs = _once_per_operator(lambda op: wu * op.matrix, cost.r)
    return lambda k: (ms[k], ls[k], rs[k])


class StepScratch:
    """The state-sized arrays a backward pass overwrites at every step.

    ``q`` receives Q, ``spare`` a second congruence and then the G* K
    product, ``work`` the inner product of a congruence, and ``iterates`` are
    the two arrays a walk that keeps no iterates alternates between.  A
    scratch serves one recursion at a time: values read after the next step
    are copied out first.
    """

    def __init__(self, dim: int):
        self.q, self.spare, self.work = (np.empty((dim, dim)) for _ in range(3))
        self.iterates = (np.empty((dim, dim)), np.empty((dim, dim)))


def _congruence_sum(first, second, x, out=None, spare=None, work=None):
    """L1^T X R1 + L2^T X R2 for the pairs (L1, R1) and (L2, R2), or None if both vanish.

    The sum is taken in the order of that expression, with the congruences
    written into ``out`` and ``spare`` and their inner products into
    ``work`` (each allocated when None).  A pair with a ZeroOperator factor
    vanishes and is skipped, and so do both when X is None, a zero iterate.
    """
    pairs = [] if x is None else [
        (left, right)
        for left, right in (first, second)
        if not isinstance(left, ZeroOperator) and not isinstance(right, ZeroOperator)
    ]
    if not pairs:
        return None
    (left, right), *rest = pairs
    total = congruence(left, x, right, out=out, work=work)
    for left, right in rest:
        total += congruence(left, x, right, out=spare, work=work)
    return total


def _step_congruences(system: ControlledSystem, gram_next, k: int, out, spare, work):
    """The sums A*PA + C*PC (into ``out``), B*PB + D*PD and B*PA + D*PC of step k.

    P is the Gram form ``gram_next``, None when zero; a sum that vanishes is None.
    """
    a, b, c, d = system.a(k), system.b(k), system.c(k), system.d(k)
    return (
        _congruence_sum((a, a), (c, c), gram_next, out, spare, work),
        _congruence_sum((b, b), (d, d), gram_next),
        _congruence_sum((b, a), (d, c), gram_next),
    )


def _completion_arrays(
    system: ControlledSystem,
    weights: StageWeights,
    gram_next: np.ndarray | None,
    k: int,
    scratch: StepScratch,
    sums: tuple | None = None,
):
    """Gram forms W_h Q, W_u Rk (symmetrized) and W_u G for the next iterate W_h P.

    Q = M + A*PA + C*PC is the state part of the step, P(k) = Q - G* Rk^-1 G.
    Each term is its stage weight plus its congruence sum, or plus 0 when the
    sum vanishes; ``sums`` are those of ``gram_next`` if the caller holds
    them, and are only read.  Q is written into ``scratch.q``, which
    ``gram_next`` must not share memory with, nor with ``scratch.spare`` or
    ``scratch.work``.
    """
    m, l, r = weights(k)
    if sums is None:
        sums = _step_congruences(system, gram_next, k, scratch.q, scratch.spare, scratch.work)
    q_sum, r_sum, g_sum = sums
    rk = np.add(r, 0.0 if r_sum is None else r_sum)
    q = np.add(m, 0.0 if q_sum is None else q_sum, out=scratch.q)
    return q, 0.5 * (rk + rk.T), np.add(l, 0.0 if g_sum is None else g_sum)


def _require_finite(arr: np.ndarray, what: str, k: int) -> None:
    """Refuse a term of step k with an infinite or NaN entry, which overflow leaves."""
    if not np.isfinite(arr).all():
        raise ResolutionError(
            f"{what} at step {k} is not finite: the recursion overflows the floating-point range"
        )


def _symmetrized(g: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """0.5 (g + g^T) into ``out``, or into a new array when None."""
    out = np.add(g, g.T, out=out)
    out *= 0.5
    return out


def _advance(q, gk, rk_inverse, spare, out):
    """Gain -Rk^-1 G and the new Gram iterate W_h (Q - G* Rk^-1 G), symmetrized.

    The product G* K goes into ``spare`` and the iterate into ``out``, or a
    new array when None.
    """
    gain = -rk_inverse @ gk
    g = np.matmul(gk.T, gain, out=spare)
    g += q
    return gain, _symmetrized(g, out)


def _closed_gram(q, gk, rk, gain, spare):
    """Gram iterate W_h (Q + G* K + K* G + K* Rk K), the cost along u = K x, symmetrized.

    Overwrites ``q`` and ``spare``; the iterate is a new array.
    """
    y = np.matmul(gain.T, gk, out=spare)
    y += q
    y += np.matmul(gk.T, gain, out=q)
    y += np.matmul(gain.T @ rk, gain, out=q)
    return _symmetrized(y, None)


@dataclass
class RiccatiSolution:
    """Backward pass record, indexed by step.

    ``p[k]`` is defined for every step the recursion reached; ``p`` is None
    for a walk that stops at the first non-positive term, which keeps no
    iterates.  ``breakdown``
    is the step whose completion term has no bounded inverse, where the walk
    stopped, and ``nonpositive`` the largest step whose completion term is not
    uniformly positive; either is None when there is no such step.  On a
    domain failure at step k0, entries 0..k0 are None and ``failing_step`` is
    k0 (the largest step outside the domain, hit first when walking
    backward).  With all steps in the domain but some completion term not
    uniformly positive, the status reports the largest offending step instead.
    """

    p: list[Operator | None] | None
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
        if self.p is None or self.p[0] is None:
            raise DomainError(self.failing_step, "recursion never reached step 0")
        return inner(self.p[0].apply(x0), x0)


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked and refused below
def _backward_pass(
    system: ControlledSystem,
    weights: StageWeights,
    terminal_gram: np.ndarray,
    stop_at_nonpositive: bool = False,
    scratch: StepScratch | None = None,
    head: Callable[[np.ndarray], tuple] | None = None,
) -> RiccatiSolution:
    """Walk backward from the terminal Gram form W_h P(N+1) towards step 0.

    Each step certifies its completion term; the walk stops where that term
    has no bounded inverse, and with ``stop_at_nonpositive`` also at the first
    term that is not uniformly positive.  Indefinite but invertible terms are
    otherwise walked through, so every reached step reports its spectrum.
    A non-finite completion term or iterate, which overflow leaves, raises
    ResolutionError at the step where it first appears.
    A walk with ``stop_at_nonpositive`` keeps no iterates (``p`` is None).
    The step arrays live in ``scratch``, allocated here when None.  At step
    N-1 the walk takes its congruence sums from ``head(W_h P(N))`` when given.
    """
    steps = system.steps
    hs, us = system.state_space, system.control_space
    wu = us.weights
    scratch = StepScratch(hs.dim) if scratch is None else scratch
    keep = not stop_at_nonpositive
    grams: list[np.ndarray | None] = [None] * steps + [terminal_gram]
    current = terminal_gram if terminal_gram.any() else None  # None: zero, no congruences
    gains: list[Operator | None] = [None] * steps
    rk_ops: list[Operator | None] = [None] * steps
    gk_ops: list[Operator | None] = [None] * steps
    certs: list[SelfAdjointCert | None] = [None] * steps
    breakdown = nonpositive = None
    for k in range(steps - 1, -1, -1):
        sums = head(current) if head is not None and k == steps - 2 else None
        q, rk, gk = _completion_arrays(system, weights, current, k, scratch, sums)
        _require_finite(rk, "completion term Rk", k)  # before its eigendecomposition
        rk /= wu[:, None]
        cert, rk_inverse = certified_inverse(rk, wu)
        certs[k] = cert
        if nonpositive is None and cert.min_eig <= positivity_tolerance(cert.norm):
            nonpositive = k
            if stop_at_nonpositive:
                break
        if rk_inverse is None:
            breakdown = k
            break
        out = None if keep else scratch.iterates[k % 2]
        gain, current = _advance(q, gk, rk_inverse, scratch.spare, out)
        _require_finite(current, "iterate P", k)  # a non-finite G or Q shows here too
        if keep:
            grams[k] = current
        gains[k] = DenseOperator(gain, hs, us)
        rk_ops[k] = DenseOperator(rk, us)
        gk_ops[k] = DenseOperator(gk / wu[:, None], hs, us)
    p_ops = coordinate_operators(grams, hs) if keep else None
    return RiccatiSolution(p_ops, gains, rk_ops, gk_ops, certs, breakdown, nonpositive)


def solve_backward_riccati(system: ControlledSystem, cost: CostSpec) -> RiccatiSolution:
    """Run the full backward recursion and classify the outcome.

    Status is "solved" when every step is in the domain and every completion
    term is uniformly positive (minimum eigenvalue above the scale-aware
    tolerance); "domain_failure" when some completion term has no bounded
    inverse, stopping the recursion; "not_uniformly_positive" when the
    recursion completes but a completion term dips to or below the tolerance.
    """
    terminal = system.state_space.weights[:, None] * cost.terminal.matrix
    return _backward_pass(system, _cost_weights(system, cost), terminal)
