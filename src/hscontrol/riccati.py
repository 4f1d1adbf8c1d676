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

Both passes carry each iterate in Gram form W P, with W the state weights.
It is symmetric whenever P is self-adjoint, so every weighted adjoint in a
step becomes a plain transpose.  Weights enter only the small completion
terms, which are certified in the orthonormal frame, and the returned
coordinates.  The stage weights come in that Gram form too, so the
bounded-real test of ``hinf`` runs these passes on its level weights.  A
state or terminal weight of an LQ cost that is diagonal by type enters as
its weighted diagonal, a ``DiagonalGram``, and so does the level test's
-Cbar*Cbar when Cbar is monomial; the n x n pass adds it onto the diagonal
of the congruence sum with the bits of the sum with its n x n array.

The two passes share one loop, ``_walk``, so the certification of Rk, the
status rules and the refusal of non-finite terms are written once.  On a
plant whose A and C are monomial by type (at most one nonzero per row and
per column: diagonal, heat, zero, identity, shift, filling and scaled ones
of those) and whose M and terminal weight are diagonal, every Gram iterate
is exactly diag(d) + U S U^T with few columns in U, and the low-rank pass
keeps it in that form: a step of rank r costs O(n r (r + du)) and forms no
n x n array, and its iterates are ``DiagonalPlusLowRank`` operators.  A C(k)
with the matrix of A(k) shares its columns, so such a step adds du columns
instead of doubling them.  ``_low_rank_plan`` decides, once before the
first step, whether the rank of the last iterate, known from the shapes,
stays within ``operators.RANK_MAX_SHARE`` of n; if not, the n x n pass runs,
so a walk never switches passes.  The two agree to rounding, not to the
bit.  ``solve_backward_riccati`` and the bounded-real test of ``hinf``
choose their pass by that one plan; the games call the n x n pass directly.

An n x n step takes its thin terms first: one right product Y_B = P^T B
and one Y_D = P^T D give both B*PB + D*PD and B*PA + D*PC (``_thin_sums``)
at O(n^2 du).  Rk is certified next, and only then is Q = M + A*PA + C*PC
formed (``_state_term``): the step's two n^3 congruences, each one
operator's two-sided product, native for structured operators.  So no walk
forms Q where it stops, and a walk that keeps no iterates (every bisection
test of ``hinf``) forms none at step 0, whose iterate nothing reads.  A
congruence with a zero factor is skipped, and a step whose next iterate is
zero (the zero terminal weight of the level test, the games and LQ) skips
all of them: there Q = M, Rk = R and G = L.  Rk is certified from its
Gram form W_u Rk (``operators.certified_inverse``).  Each step takes fresh
arrays.  A walk that stops at the first non-positive completion term keeps
no iterates: it drops each one once the next is formed and returns none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ResolutionError
from .operators import (
    DenseOperator,
    Operator,
    RANK_MAX_SHARE,
    SelfAdjointCert,
    ZeroOperator,
    _diagonal_entries,
    _monomial_columns,
    _once_per_operator,
    certified_inverse,
    congruence,
    coordinate_operators,
    positivity_tolerance,
)
from .spaces import Space
from .systems import ControlledSystem, CostSpec

STATUS_SOLVED = "solved"
STATUS_DOMAIN_FAILURE = "domain_failure"
STATUS_NOT_UNIFORMLY_POSITIVE = "not_uniformly_positive"


class DiagonalGram(NamedTuple):
    """The Gram form W M of a state weight M that is diagonal by type.

    ``diag`` is its diagonal, and ``off`` the zero off the diagonal, with the
    sign that M's matrix gives it.
    """

    diag: np.ndarray
    off: float

    def array(self) -> np.ndarray:
        out = np.full((self.diag.size, self.diag.size), self.off)
        np.fill_diagonal(out, self.diag)
        return out


# k -> Gram forms (W_h M, W_u L, W_u R) of the stage weights of a pass; W_h M
# may be a DiagonalGram
StageWeights = Callable[[int], tuple[np.ndarray | DiagonalGram, np.ndarray, np.ndarray]]


def _state_gram(op: Operator, w: np.ndarray) -> np.ndarray | DiagonalGram:
    """W M for a state weight M and state weights w; a DiagonalGram if M is diagonal by type."""
    entries = _diagonal_entries(op)
    if entries is None:
        return w[:, None] * op.matrix
    diag, off = entries
    return DiagonalGram(w * diag, off)  # w > 0 keeps the zero's sign


def _cost_weights(system: ControlledSystem, cost: CostSpec) -> StageWeights:
    wh = system.state_space.weights
    wu = system.control_space.weights[:, None]
    ms = _once_per_operator(lambda op: _state_gram(op, wh), cost.m)
    ls = _once_per_operator(lambda op: wu * op.matrix, cost.l)
    rs = _once_per_operator(lambda op: wu * op.matrix, cost.r)
    return lambda k: (ms[k], ls[k], rs[k])


def _plus_weight(m, total):
    """W_h M + ``total`` as a new array, for a Gram array or a DiagonalGram; None is zero.

    A DiagonalGram adds its off-diagonal zero to every entry and its diagonal
    onto the diagonal of ``total``, which are the bits of the sum with its
    array.
    """
    if isinstance(m, np.ndarray):
        return m + (0.0 if total is None else total)
    if total is None:
        return m.array() + 0.0
    out = total + m.off
    np.fill_diagonal(out, m.diag + np.diagonal(total))
    return out


def _state_sum(system: ControlledSystem, gram, k: int):
    """A*PA + C*PC of step k for the Gram form ``gram`` of P, or None if it vanishes.

    A ZeroOperator factor is skipped, and so are both when ``gram`` is None,
    a zero iterate.
    """
    if gram is None:
        return None
    total = None
    for op in (system.a(k), system.c(k)):
        if isinstance(op, ZeroOperator):
            continue
        term = congruence(op, gram, op)
        total = term if total is None else np.add(total, term, out=total)
    return total


def _thin_sums(system: ControlledSystem, gram, k: int):
    """B*PB + D*PD and B*PA + D*PC of step k for the Gram form ``gram`` of P.

    Y_B = P^T B and Y_D = P^T D are each one right product and serve both
    sums, which are then the products ``congruence`` would take: L^T P L is
    Y_L^T L (or L's native two-sided product, for a structured L) and
    L^T P R is Y_L^T R.  A term with a ZeroOperator factor is skipped, and a
    sum without terms, as every sum of a zero ``gram`` (None), is None.
    """
    if gram is None:
        return None, None
    r_sum = g_sum = None
    for inp, state in ((system.b(k), system.a(k)), (system.d(k), system.c(k))):
        if isinstance(inp, ZeroOperator):
            continue
        native = type(inp).sandwich is not Operator.sandwich
        unread = state is inp or isinstance(state, ZeroOperator)
        thin = None if native and unread else inp.rmatmul(gram.T).T
        r = inp.sandwich(gram) if native else inp.rmatmul(thin)
        r_sum = r if r_sum is None else np.add(r_sum, r, out=r_sum)
        if isinstance(state, ZeroOperator):
            continue
        g = r.copy() if state is inp else state.rmatmul(thin)  # L^T P L both times
        g_sum = g if g_sum is None else np.add(g_sum, g, out=g_sum)
    return r_sum, g_sum


def _completion_terms(
    system: ControlledSystem, weights: StageWeights, gram_next, k: int, sums=None
):
    """W_u Rk and W_u G of step k for the next Gram iterate ``gram_next`` (None: zero).

    Each is its stage weight plus its sum from ``_thin_sums``, or plus 0 when
    the sum vanishes, and Rk x is then symmetrized as 0.5 (x + x^T).
    ``sums`` are those sums if the caller holds them, and are only read.
    """
    _, l, r = weights(k)
    r_sum, g_sum = _thin_sums(system, gram_next, k) if sums is None else sums
    rk = np.add(r, 0.0 if r_sum is None else r_sum)
    return 0.5 * (rk + rk.T), np.add(l, 0.0 if g_sum is None else g_sum)


def _state_term(system: ControlledSystem, weights: StageWeights, gram_next, k: int, q_sum=None):
    """W_h Q = W_h M + A*PA + C*PC of step k.

    Q is the state part of the step, P(k) = Q - G* Rk^-1 G; ``q_sum`` is its
    congruence sum if the caller holds it, and is only read.
    """
    if q_sum is None:
        q_sum = _state_sum(system, gram_next, k)
    return _plus_weight(weights(k)[0], q_sum)


def _require_finite(arr: np.ndarray, what: str, k: int) -> None:
    """Refuse a term of step k with an infinite or NaN entry, which overflow leaves."""
    if not np.isfinite(arr).all():
        raise ResolutionError(
            f"{what} at step {k} is not finite: the recursion overflows the floating-point range"
        )


def _symmetrized(g: np.ndarray) -> np.ndarray:
    """0.5 (g + g^T) as a new array."""
    out = g + g.T
    out *= 0.5
    return out


def _advance(q, gk, gain):
    """The new Gram iterate W_h (Q + G* K) for the gain K = -Rk^-1 G, symmetrized.

    Overwrites ``q``, the W_h Q of the step.
    """
    q += gk.T @ gain
    return _symmetrized(q)


def _closed_gram(q, gk, rk, gain):
    """Gram iterate W_h (Q + G* K + K* G + K* Rk K), the cost along u = K x, symmetrized.

    Overwrites ``q``, the W_h Q of the step.
    """
    q += gain.T @ gk
    q += gk.T @ gain
    q += (gain.T @ rk) @ gain
    return _symmetrized(q)


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
    ``value`` is <P(0) x0, x0> for the x0 of ``lq.solve_lq``, set when the
    recursion reached step 0; it is the guaranteed minimum only when the
    status is solved.
    """

    p: list[Operator | None] | None
    gains: list[Operator | None]
    rk: list[Operator | None]
    rk_certs: list[SelfAdjointCert | None]
    breakdown: int | None
    nonpositive: int | None
    value: float | None = None

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


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked and refused below
def _walk(system: ControlledSystem, start, complete, advance, stop_at_nonpositive=False):
    """The backward loop of both passes: certify each completion term and step.

    ``complete(k, current)`` gives W_u Rk, symmetrized as 0.5 (x + x^T),
    W_u G and a carry of step k from the next iterate ``current``;
    ``advance(carry, gk, gain, rk_inverse, k)`` forms the iterate of step k
    once Rk is certified.  The walk starts from ``start``.  It stops where Rk
    has no bounded inverse, and with ``stop_at_nonpositive`` also at the
    first Rk that is not uniformly positive; indefinite but invertible terms
    are otherwise walked through, so every reached step reports its
    spectrum.  Rk is certified from its Gram form (``certified_inverse``,
    which refuses an Rk that overflows the orthonormal frame) and divided
    into coordinates for the record afterwards.  A walk with
    ``stop_at_nonpositive`` keeps no iterates, so it forms none at step 0
    and refuses a non-finite gain there instead.  Returns the iterates of
    steps 0..N (None where not kept) and the record (``p`` is None).
    """
    steps = system.steps
    hs, us = system.state_space, system.control_space
    root = np.sqrt(us.weights)
    iterates: list = [None] * steps
    gains: list[Operator | None] = [None] * steps
    rk_ops: list[Operator | None] = [None] * steps
    certs: list[SelfAdjointCert | None] = [None] * steps
    breakdown = nonpositive = None
    current = start
    for k in range(steps - 1, -1, -1):
        rk, gk, carry = complete(k, current)
        cert, rk_inverse = certified_inverse(rk, root, f"completion term Rk at step {k}")
        certs[k] = cert
        if nonpositive is None and cert.min_eig <= positivity_tolerance(cert.norm):
            nonpositive = k
            if stop_at_nonpositive:
                break
        if rk_inverse is None:
            breakdown = k
            break
        gain = -rk_inverse @ gk
        if k > 0 or not stop_at_nonpositive:
            current = advance(carry, gk, gain, rk_inverse, k)
            if not stop_at_nonpositive:  # a stopping walk drops it at the next step
                iterates[k] = current
        else:
            _require_finite(gain, "gain", k)  # the iterate that would show it is not formed
        gains[k] = DenseOperator(gain, hs, us)
        rk_ops[k] = DenseOperator(np.divide(rk, us.weights[:, None], out=rk), us)
    return iterates, RiccatiSolution(None, gains, rk_ops, certs, breakdown, nonpositive)


def _backward_pass(
    system: ControlledSystem,
    weights: StageWeights,
    terminal_gram: np.ndarray,
    stop_at_nonpositive: bool = False,
    head: Callable[[np.ndarray], tuple] | None = None,
) -> RiccatiSolution:
    """The n x n pass: walk back from the terminal Gram form W_h P(N+1) towards step 0.

    The walk and its stopping rules are those of ``_walk``.  Each step takes
    its thin terms Rk and G first, and forms Q only once Rk is certified and
    the walk goes on.  A non-finite iterate, which overflow leaves, raises
    ResolutionError at the step where it first appears.  A walk with
    ``stop_at_nonpositive`` keeps no iterates (``p`` is None).  At step N-1
    the walk takes its sums (A*PA + C*PC, B*PB + D*PD, B*PA + D*PC) from
    ``head(W_h P(N))`` when given, unless that returns None.
    """
    steps = system.steps

    def complete(k, current):
        held = head(current) if head is not None and k == steps - 2 else None
        q_sum, sums = (None, None) if held is None else (held[0], held[1:])
        rk, gk = _completion_terms(system, weights, current, k, sums)
        return rk, gk, (current, q_sum)

    def advance(carry, gk, gain, rk_inverse, k):
        current, q_sum = carry
        current = _advance(_state_term(system, weights, current, k, q_sum), gk, gain)
        _require_finite(current, "iterate P", k)  # a non-finite G or Q shows here too
        return current

    start = terminal_gram if terminal_gram.any() else None  # None: zero, no congruences
    grams, sol = _walk(system, start, complete, advance, stop_at_nonpositive)
    if not stop_at_nonpositive:
        sol.p = coordinate_operators([*grams, terminal_gram], system.state_space)
    return sol


class DiagonalPlusLowRank(Operator):
    """A self-adjoint P with Gram form W P = diag(d) + U S U^T, as the low-rank pass returns.

    ``d`` holds n entries, ``u`` is n x r and ``s`` is r x r and symmetric;
    the coordinates are W^-1 (diag(d) + U S U^T).  Products with vectors and
    right products take O(n r) per vector and build no n x n array, and the
    two-sided product is the default's two right products.  The matrix is
    built on request and not kept.  Unlike the variants of ``operators``,
    this one overrides ``apply_array``: the default multiplies by the
    matrix, and every LQ solve reads P(0) x0.
    """

    _keeps_matrix = False

    def __init__(self, d: np.ndarray, u: np.ndarray, s: np.ndarray, space: Space):
        self.d, self.u, self.s = d, u, s
        self.domain = self.codomain = space

    def _gram_product(self, x):
        """(diag(d) + U S U^T) x for an array x of n rows."""
        return (self.d * x.T).T + self.u @ (self.s @ (self.u.T @ x))

    def apply_array(self, x):
        return (self._gram_product(x).T / self.domain.weights).T

    def rmatmul(self, x):
        # x W^-1 (diag(d) + U S U^T), the transpose of the Gram form times (x W^-1)^T
        return self._gram_product((x / self.codomain.weights).T).T

    def _build_matrix(self):
        out = _symmetrized(self.u @ self.s @ self.u.T)
        out[np.diag_indices_from(out)] += self.d
        return out / self.domain.weights[:, None]


def _block_diag(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix of two square blocks."""
    r1, r2 = first.shape[0], second.shape[0]
    out = np.zeros((r1 + r2, r1 + r2))
    out[:r1, :r1] = first
    out[r1:, r1:] = second
    return out


def _same_columns(first, second) -> bool:
    """Whether two ``_monomial_columns`` describe the same matrix."""
    (rows1, values1), (rows2, values2) = first, second
    return np.array_equal(values1, values2) and np.array_equal(
        np.where(values1 != 0.0, rows1, 0), np.where(values2 != 0.0, rows2, 0)
    )


def _low_rank_plan(system: ControlledSystem, weights: StageWeights, terminal) -> list | None:
    """The columns of A(k) and C(k) at each step, if the low-rank pass applies; else None.

    It applies when A and C are monomial by type (``_monomial_columns``), M
    and the terminal weight are diagonal (each a DiagonalGram), and the
    last iterate's rank r_0 stays within ``RANK_MAX_SHARE`` of n.  Step k's
    entry is (A's columns, C's), C's being None when C(k) is zero and A's
    own object when C(k) has A(k)'s matrix, compared by value.  Then C*PC
    is A*PA and the step adds no columns for it, so r_k = (2 if C(k) is
    another nonzero matrix else 1) r_{k+1} + du from r_{N+1} = 0.
    """
    if not isinstance(terminal, DiagonalGram) or not all(
        isinstance(weights(k)[0], DiagonalGram) for k in range(system.steps)
    ):
        return None
    a, c = (_once_per_operator(_monomial_columns, family) for family in (system.a, system.c))
    if None in a or None in c:
        return None
    plan = [
        (a_k, None if not c_k[1].any() else a_k if _same_columns(a_k, c_k) else c_k)
        for a_k, c_k in zip(a, c)
    ]
    rank = 0
    for a_k, c_k in reversed(plan):
        rank = (1 if c_k is None or c_k is a_k else 2) * rank + system.control_space.dim
    return plan if rank <= RANK_MAX_SHARE * system.state_space.dim else None


def _monomial_congruence(columns, d: np.ndarray, u: np.ndarray):
    """diag(M^T diag(d) M) and M^T U for a monomial M given by its columns."""
    rows, values = columns
    return values * values * d[rows], values[:, None] * u[rows]


def _low_rank_pass(
    system: ControlledSystem,
    weights: StageWeights,
    terminal: DiagonalGram,
    plan: list,
    stop_at_nonpositive: bool = False,
) -> RiccatiSolution:
    """The pass of a monomial plant: each Gram iterate W P kept as (d, U, S).

    With A and C monomial, A^T diag(d) A is the diagonal of A's squared
    values times d gathered from their rows, and A^T U gathers U's rows, so
    Q = A*PA + C*PC + M has the diagonal (A's part) + (C's part) + W_h M and
    the factor [A^T U, C^T U] with S twice on the diagonal; when C has A's
    matrix it has A's part twice and the factor A^T U with S + S.
    B*PB + D*PD and B*PA + D*PC come from products of B and D with d and U,
    and -G* Rk^-1 G appends the du columns of (W_u G)^T with -(W_u Rk)^-1.
    ``plan`` is that of ``_low_rank_plan``.  A step refuses overflow in U, S
    or the diagonal of its iterate.  A walk with ``stop_at_nonpositive``
    stops at the first non-positive Rk, as ``_walk`` does, and keeps no
    iterates (``p`` is None).
    """
    hs = system.state_space

    def complete(k, current):
        d, u, s = current
        (a, c), (m, l, r) = plan[k], weights(k)
        a_diag, a_u = _monomial_congruence(a, d, u)
        q_diag, q_u, q_s, c_u = a_diag + m.diag, a_u, s, None
        if c is a:
            q_diag += a_diag
            q_s, c_u = s + s, a_u
        elif c is not None:
            c_diag, c_u = _monomial_congruence(c, d, u)
            q_diag += c_diag
            q_u, q_s = np.hstack([a_u, c_u]), _block_diag(s, s)
        rk, gk = r + 0.0, l + 0.0
        for op, e, e_u in ((system.b(k), a, a_u), (system.d(k), c, c_u)):
            if isinstance(op, ZeroOperator):
                continue
            bm = op.matrix  # n x du
            bu_s = (bm.T @ u) @ s
            rk += (bm.T * d) @ bm + bu_s @ (u.T @ bm)
            if e is not None:
                rows, values = e
                gk += bm.T[:, rows] * (d[rows] * values) + bu_s @ e_u.T
        return 0.5 * (rk + rk.T), gk, (q_diag, q_u, q_s)

    def advance(q, gk, gain, rk_inverse, k):
        q_diag, q_u, q_s = q
        u, s = np.hstack([q_u, gk.T]), _block_diag(q_s, -rk_inverse)
        for arr in (u, s, q_diag + np.einsum("ij,ij->i", u @ s, u)):
            _require_finite(arr, "iterate P", k)
        return q_diag, u, s

    start = (terminal.diag, np.zeros((hs.dim, 0)), np.zeros((0, 0)))
    iterates, sol = _walk(system, start, complete, advance, stop_at_nonpositive)
    if not stop_at_nonpositive:
        sol.p = [None if it is None else DiagonalPlusLowRank(*it, hs) for it in [*iterates, start]]
    return sol


def solve_backward_riccati(system: ControlledSystem, cost: CostSpec) -> RiccatiSolution:
    """Run the full backward recursion and classify the outcome.

    Status is "solved" when every step is in the domain and every completion
    term is uniformly positive (minimum eigenvalue above the scale-aware
    tolerance); "domain_failure" when some completion term has no bounded
    inverse, stopping the recursion; "not_uniformly_positive" when the
    recursion completes but a completion term dips to or below the tolerance.
    A plant that ``_low_rank_plan`` accepts runs the low-rank pass, whose
    iterates are DiagonalPlusLowRank operators; any other runs the n x n
    pass.  The choice is made once, before the first step.
    """
    weights = _cost_weights(system, cost)
    terminal = _state_gram(cost.terminal, system.state_space.weights)
    plan = _low_rank_plan(system, weights, terminal)
    if plan is not None:
        return _low_rank_pass(system, weights, terminal, plan)
    if isinstance(terminal, DiagonalGram):
        terminal = terminal.array()
    return _backward_pass(system, weights, terminal)
