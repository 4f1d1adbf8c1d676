"""Structured bounded linear operators on truncated Hilbert spaces.

Operators form a small expression language:

    ZeroOperator, IdentityOperator, ScaledOperator, DenseOperator,
    DiagonalOperator (and its subclass HeatSemigroupOperator),
    RightShiftOperator, FillingOperator, GaussianConvolutionOperator,
    SumOperator, ComposeOperator, AdjointOperator

Each variant defines only its coordinate matrix, and the rest is derived from
it: ``apply`` multiplies by that matrix, and ``adjoint`` is the weighted
transpose of ``AdjointOperator``, built from the quadrature weights of the
domain and codomain, so the pairing <A x, y> = <x, A* y> holds to round-off
everywhere.  Spectral queries (minimum eigenvalue, condition number, certified
inversion) are evaluated in the symmetric frame S = W^(1/2) M W^(-1/2), which
represents the operator with respect to an orthonormal basis of the weighted
space.

Zero, identity, right shift and filling are one family: each copies the
first ``count`` domain coordinates into codomain slots ``start`` onward and
zeros the rest, with (start, count) equal to (0, 0), (0, n), (1, min(n, m - 1))
for a codomain of dim m, and (0, count).  Their shared base class
``_CoordinateCopy`` is the one place that builds their 0/1 matrices and their
products, which copy entries and fill zeros.

Every variant also supplies the right product X @ M of a coordinate array with
its matrix, the row product X @ M^T that advances a batch of states, and the
two-sided product M^T G M that the congruences A*PA of the backward
recursions reduce to.  Structured variants compute them natively (scaling or
slicing rows and columns), at O(n^2) and reading G once in memory order;
dense and composite variants multiply by their matrix, and their two-sided
product is two right products.  Every product returns a new array.

``matrix`` keeps the coordinate matrix only where it is data or costly to
build: a dense operator keeps the array it was given, and sums, compositions,
adjoints and Gaussian convolutions keep what they build.  The structured
variants (zero, identity, scaled, diagonal and heat, shift, filling) build it
afresh on each request and never hold it, so an operator of a few numbers
never pins an n x n array.  A caller that reads a step's matrix more than once
per call builds it once and holds it for that call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

import numpy as np

from .errors import DimensionError, NotSelfAdjointError, ResolutionError
from .spaces import KIND_L2_INTERVAL, KIND_L2_LINE, HVector, Space

KAPPA_MAX = 1e12  # condition cap for a bounded inverse, read at each call
SYM_RTOL = 1e-8
# The structural fast paths (the gain search on the reachable subspace, the
# low-rank Riccati pass) run only while the dimension or rank they carry is
# at most this share of the state dimension.
RANK_MAX_SHARE = 0.25


def _sframe(m: np.ndarray, w_cod: np.ndarray, w_dom: np.ndarray) -> np.ndarray:
    """Map a coordinate matrix to the orthonormal-basis frame."""
    s_c = np.sqrt(w_cod)
    s_d = np.sqrt(w_dom)
    return m * (s_c[:, None] / s_d[None, :])


def _unsframe(s: np.ndarray, w_cod: np.ndarray, w_dom: np.ndarray) -> np.ndarray:
    s_c = np.sqrt(w_cod)
    s_d = np.sqrt(w_dom)
    return s * (1.0 / s_c[:, None]) * s_d[None, :]


def _scaled_rows_and_columns(g, e):
    """(g_ij e_i) e_j: diag(e) G diag(e), in the order of two right products."""
    out = g * e[:, None]
    out *= e[None, :]
    return out


class Operator:
    """Bounded linear map between two spaces.

    Subclasses set domain/codomain and define ``_build_matrix``.
    """

    domain: Space
    codomain: Space
    # whether ``matrix`` keeps what ``_build_matrix`` returns; structured
    # variants set it False and rebuild on each request
    _keeps_matrix = True

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def apply(self, x: HVector) -> HVector:
        if x.space != self.domain:
            raise DimensionError("vector does not live on the operator domain")
        return HVector(self.codomain, self.apply_array(x.coords))

    @property
    def matrix(self) -> np.ndarray:
        cached = getattr(self, "_matrix_cache", None)
        if cached is None:
            cached = self._build_matrix()
            if self._keeps_matrix:
                self._matrix_cache = cached
        return cached

    def rmatmul(self, x: np.ndarray) -> np.ndarray:
        """The right product x @ M for a 2-D array x with codomain.dim columns.

        The result is a new array, never x or a cached matrix.
        """
        return x @ self.matrix

    def apply_rows(self, x: np.ndarray) -> np.ndarray:
        """The product x @ M^T, M applied to each row of a 2-D array x with domain.dim columns.

        This default multiplies by the matrix; structured variants copy or
        scale columns instead.
        """
        return x @ self.matrix.T

    def sandwich(self, g: np.ndarray) -> np.ndarray:
        """M^T G M for a square array G with codomain.dim rows.

        The result is a new array, never G or a cached matrix.  This default
        takes two right products.
        """
        return self.rmatmul(self.rmatmul(g.T).T)

    def adjoint(self) -> "Operator":
        return AdjointOperator(self)

    def is_square(self) -> bool:
        return self.domain == self.codomain

    # Small algebra helpers; these build expression nodes, never matrices.
    def __add__(self, other: "Operator") -> "Operator":
        return SumOperator([self, other])

    def __matmul__(self, other: "Operator") -> "Operator":
        return ComposeOperator(self, other)

    def __repr__(self):
        return f"{type(self).__name__}({self.domain.dim}->{self.codomain.dim})"


class ScaledOperator(Operator):
    _keeps_matrix = False

    def __init__(self, factor: float, inner_op: Operator):
        self.factor = float(factor)
        self.inner_op = inner_op
        self.domain = inner_op.domain
        self.codomain = inner_op.codomain

    def _build_matrix(self):
        return self.factor * self.inner_op.matrix

    def rmatmul(self, x):
        inner = self.inner_op.rmatmul(x)
        inner *= self.factor
        return inner

    def apply_rows(self, x):
        inner = self.inner_op.apply_rows(x)
        inner *= self.factor
        return inner

    def sandwich(self, g):
        # (g' f) f for the inner g': the bits of two scaled right products
        # when the inner product only copies entries
        inner = self.inner_op.sandwich(g)
        inner *= self.factor
        inner *= self.factor
        return inner


class DenseOperator(Operator):
    def __init__(self, matrix: np.ndarray, domain: Space, codomain: Space | None = None):
        m = np.asarray(matrix, dtype=float)
        self.domain = domain
        self.codomain = domain if codomain is None else codomain
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise DimensionError(
                f"matrix of shape {m.shape} does not map dim {self.domain.dim} to dim {self.codomain.dim}"
            )
        self._matrix_cache = m


class DiagonalOperator(Operator):
    """Coordinatewise multiplier on a single space; always self-adjoint."""

    _keeps_matrix = False

    def __init__(self, entries: np.ndarray, space: Space):
        e = np.asarray(entries, dtype=float)
        if e.shape != (space.dim,):
            raise DimensionError("diagonal entry count does not match the space dimension")
        self.entries = e
        self.domain = self.codomain = space

    def _build_matrix(self):
        return np.diag(self.entries)

    def rmatmul(self, x):
        return x * self.entries[None, :]

    apply_rows = rmatmul  # the matrix is its own transpose

    def sandwich(self, g):
        return _scaled_rows_and_columns(g, self.entries)


class _CoordinateCopy(Operator):
    """Copy the first ``count`` domain coordinates into codomain slots ``start`` onward.

    The matrix is zero but for ones at (start + i, i), i < count.  The right
    product copies ``count`` columns of x and the two-sided product one
    diagonal block of G, each padded with zeros, so neither does arithmetic.
    Zero, identity, right shift and filling are the four public variants.
    """

    _keeps_matrix = False

    def __init__(self, domain: Space, codomain: Space, start: int, count: int):
        self.domain = domain
        self.codomain = codomain
        self.start = start
        self.count = count

    def _build_matrix(self):
        m = np.zeros((self.codomain.dim, self.domain.dim))
        idx = np.arange(self.count)
        m[self.start + idx, idx] = 1.0
        return m

    def rmatmul(self, x):
        s, c = self.start, self.count
        out = np.zeros((x.shape[0], self.domain.dim))
        out[:, :c] = x[:, s : s + c]
        return out

    def apply_rows(self, x):
        s, c = self.start, self.count
        out = np.zeros((x.shape[0], self.codomain.dim))
        out[:, s : s + c] = x[:, :c]
        return out

    def sandwich(self, g):
        s, c, n = self.start, self.count, self.domain.dim
        out = np.zeros((n, n))
        out[:c, :c] = g[s : s + c, s : s + c]
        return out


class ZeroOperator(_CoordinateCopy):
    def __init__(self, domain: Space, codomain: Space | None = None):
        super().__init__(domain, domain if codomain is None else codomain, 0, 0)


class IdentityOperator(_CoordinateCopy):
    def __init__(self, space: Space):
        super().__init__(space, space, 0, space.dim)


class RightShiftOperator(_CoordinateCopy):
    """(a1, a2, ...) -> (0, a1, a2, ...) on a sequence-space truncation.

    A square truncation drops the last coordinate.  Passing a codomain at
    least one dimension larger keeps every coordinate, which preserves the
    isometry of the untruncated shift exactly.
    """

    def __init__(self, space: Space, codomain: Space | None = None):
        codomain = space if codomain is None else codomain
        if codomain.dim < space.dim:
            raise DimensionError("shift codomain cannot be smaller than its domain")
        super().__init__(space, codomain, 1, min(space.dim, codomain.dim - 1))


class FillingOperator(_CoordinateCopy):
    """Copy the leading ``count`` coordinates into the codomain, zero the rest."""

    def __init__(self, domain: Space, codomain: Space, count: int | None = None):
        if count is None:
            count = min(domain.dim, codomain.dim)
        if not 1 <= count <= min(domain.dim, codomain.dim):
            raise DimensionError("filling count must fit inside both spaces")
        super().__init__(domain, codomain, 0, int(count))


class GaussianConvolutionOperator(Operator):
    """Convolution with the Gaussian density on a symmetric grid space.

    The kernel exp(-(t - s)^2 / (2 sigma^2)) / (sigma sqrt(2 pi)) is sampled on
    the grid and composed with the trapezoid quadrature weights, which makes
    the discretized operator exactly self-adjoint for the weighted inner
    product (the kernel is symmetric in t - s).
    """

    def __init__(self, space: Space, kernel_width: float = 1.0):
        if space.kind != KIND_L2_LINE:
            raise DimensionError("Gaussian convolution requires a grid-based line space")
        if kernel_width <= 0:
            raise DimensionError("kernel width must be positive")
        self.kernel_width = float(kernel_width)
        self.domain = self.codomain = space

    def _build_matrix(self):
        t = self.domain.grid()
        sig = self.kernel_width
        diff = t[:, None] - t[None, :]
        kernel = np.exp(-(diff**2) / (2.0 * sig * sig)) / (sig * np.sqrt(2.0 * np.pi))
        return kernel * self.domain.weights[None, :]


class HeatSemigroupOperator(DiagonalOperator):
    """Heat flow over one sampling interval on a spectral interval space.

    Acts diagonally on sine-mode coefficients, multiplying mode n by
    exp(-alpha (n pi / l)^2 tau).
    """

    def __init__(self, space: Space, alpha: float, tau: float):
        if space.kind != KIND_L2_INTERVAL:
            raise DimensionError("heat semigroup requires a spectral interval space")
        if alpha < 0 or tau < 0:
            raise DimensionError("diffusivity and sampling interval must be nonnegative")
        self.alpha = float(alpha)
        self.tau = float(tau)
        rates = self.alpha * (space.mode_index() * np.pi / space.length) ** 2
        super().__init__(np.exp(-rates * self.tau), space)


class SumOperator(Operator):
    def __init__(self, terms: list[Operator]):
        if not terms:
            raise DimensionError("operator sum needs at least one term")
        flat: list[Operator] = []
        for t in terms:
            flat.extend(t.terms if isinstance(t, SumOperator) else [t])
        first = flat[0]
        for t in flat[1:]:
            if t.domain != first.domain or t.codomain != first.codomain:
                raise DimensionError("operator sum terms live on mismatched spaces")
        self.terms = flat
        self.domain = first.domain
        self.codomain = first.codomain

    def _build_matrix(self):
        out = self.terms[0].matrix.copy()
        for t in self.terms[1:]:
            out += t.matrix
        return out


class ComposeOperator(Operator):
    """outer after inner: (outer @ inner)(x) = outer(inner(x))."""

    def __init__(self, outer: Operator, inner_op: Operator):
        if inner_op.codomain != outer.domain:
            raise DimensionError("composition spaces do not chain")
        self.outer = outer
        self.inner_op = inner_op
        self.domain = inner_op.domain
        self.codomain = outer.codomain

    def _build_matrix(self):
        return self.outer.matrix @ self.inner_op.matrix


class AdjointOperator(Operator):
    """The adjoint of any operator: the weighted transpose W_dom^-1 M^T W_cod.

    This is the only adjoint in the module, so <A x, y> = <x, A* y> holds to
    round-off for every variant, and the adjoint of an adjoint is the
    original operator.
    """

    def __init__(self, inner_op: Operator):
        self.inner_op = inner_op
        self.domain = inner_op.codomain
        self.codomain = inner_op.domain

    def _build_matrix(self):
        m = self.inner_op.matrix
        return m.T * (self.inner_op.codomain.weights[None, :] / self.inner_op.domain.weights[:, None])

    def adjoint(self):
        return self.inner_op


def congruence(left: Operator, g: np.ndarray, right: Operator) -> np.ndarray:
    """L^T G R for a coordinate array G, as a new array.

    When ``left is right`` this is ``left.sandwich``, native for structured
    operators; otherwise it takes two right products.
    """
    if left is right:
        return left.sandwich(g)
    return right.rmatmul(left.rmatmul(g.T).T)


def _diagonal_entries(op: Operator) -> tuple[np.ndarray, float] | None:
    """(diagonal, off-diagonal entry) of the matrix of an operator diagonal by type, else None.

    Square zero, identity and diagonal (heat included) operators, and scaled
    ones of those, are diagonal by type.  The entries are built as ``matrix``
    builds them, the outer factor times the inner entries, so they have its
    bits, down to the sign of the zero off the diagonal.  No matrix is built.
    """
    if isinstance(op, ScaledOperator):
        inner = _diagonal_entries(op.inner_op)
        return None if inner is None else (op.factor * inner[0], op.factor * inner[1])
    if isinstance(op, DiagonalOperator):
        return op.entries, 0.0
    if isinstance(op, IdentityOperator):
        return np.ones(op.domain.dim), 0.0
    if isinstance(op, ZeroOperator) and op.is_square():
        return np.zeros(op.domain.dim), 0.0
    return None


def _monomial_columns(op: Operator) -> tuple[np.ndarray, np.ndarray] | None:
    """(rows, values) of an operator monomial by type, else None: column j is values[j] at rows[j].

    A monomial matrix has at most one nonzero per row and per column.
    Zero, identity, shift, filling and diagonal (heat included) operators,
    and scaled ones of those, are monomial by type.  ``values`` are built as
    ``matrix`` builds its entries, the outer factor times the inner values,
    so they have its bits; the nonzero ones sit in distinct rows, and a zero
    column names row 0 or its own index.  No matrix is built.
    """
    if isinstance(op, ScaledOperator):
        inner = _monomial_columns(op.inner_op)
        return None if inner is None else (inner[0], op.factor * inner[1])
    if isinstance(op, DiagonalOperator):
        return np.arange(op.domain.dim), op.entries
    if isinstance(op, _CoordinateCopy):
        rows, values = np.zeros(op.domain.dim, dtype=np.intp), np.zeros(op.domain.dim)
        rows[: op.count] = np.arange(op.start, op.start + op.count)
        values[: op.count] = 1.0
        return rows, values
    return None


def gram(op: Operator) -> np.ndarray:
    """M^T W M for the codomain weights W: the Gram form W_dom (op* op)."""
    return op.rmatmul(op.matrix.T * op.codomain.weights[None, :])


def coordinate_operators(grams: list[np.ndarray | None], space: Space) -> list[Operator | None]:
    """Operators for Gram-form iterates W P, each turned into coordinates in place.

    On unit weights W P is P: dividing by 1 changes no bit, so it is skipped.
    """
    w = space.weights[:, None]
    if (w == 1.0).all():
        return [None if g is None else DenseOperator(g, space) for g in grams]
    return [None if g is None else DenseOperator(np.divide(g, w, out=g), space) for g in grams]


_T = TypeVar("_T")


def _once_per_operator(f: Callable[[Operator], _T], ops: Iterable[Operator]) -> list[_T]:
    """[f(op) for op in ops], calling f once per distinct operator object."""
    done: dict[int, _T] = {}
    ops = list(ops)
    for op in ops:
        if id(op) not in done:
            done[id(op)] = f(op)
    return [done[id(op)] for op in ops]


def step_matrices(ops: Iterable[Operator]) -> list[np.ndarray]:
    """[op.matrix for op in ops], building each distinct operator's matrix once.

    For a caller that reads a family's matrices more than once per call,
    since structured operators do not keep theirs.
    """
    return _once_per_operator(lambda op: op.matrix, ops)


# Frobenius bounds on an operator norm must clear a threshold by this factor,
# which absorbs the round-off of the two norm computations they compare.
_BOUND_MARGIN = 1.0 + 1e-8


def opnorm(op: Operator) -> float:
    """Operator norm with respect to the weighted inner products."""
    s = _sframe(op.matrix, op.codomain.weights, op.domain.weights)
    if min(s.shape) == 0:
        return 0.0
    return float(np.linalg.norm(s, 2))


@dataclass(frozen=True)
class SelfAdjointCert:
    """Spectral certificate for a self-adjoint operator on the truncation.

    ``sym_residual`` is 0.0 for every term a pass certifies, whose Gram form
    is exactly symmetric; only ``min_eig_selfadjoint`` measures one.
    """

    min_eig: float
    max_eig: float
    cond: float
    sym_residual: float

    @property
    def norm(self) -> float:
        return max(abs(self.min_eig), abs(self.max_eig))


def _checked_frame(op: Operator, tol: float, what: str) -> tuple[np.ndarray, float]:
    """The orthonormal-frame matrix S of a square operator, and |S - S^T|_F / (1 + |S|_F).

    NotSelfAdjointError, led by ``what``, refuses a residual above ``tol``
    or not finite, as once a norm overflows, with no numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = _sframe(op.matrix, op.codomain.weights, op.domain.weights)
        resid = np.linalg.norm(s - s.T, "fro") / (1.0 + np.linalg.norm(s, "fro"))
    if not resid <= tol:
        raise NotSelfAdjointError(
            f"{what}symmetrization residual {resid:.3e} is not within {tol:.1e}"
        )
    return s, resid


def _spectrum(s: np.ndarray, resid: float):
    """Certificate and eigenpairs of an exactly symmetric frame matrix S."""
    eigvals, eigvecs = np.linalg.eigh(s)
    size = np.abs(eigvals)
    small, big = float(size.min()), float(size.max())
    cond = np.inf if small == 0.0 else big / small
    return SelfAdjointCert(float(eigvals[0]), float(eigvals[-1]), cond, resid), eigvals, eigvecs


def _gram_spectrum(gram: np.ndarray, root: np.ndarray, what: str):
    """Certificate and eigenpairs of a self-adjoint M from its Gram form W M.

    ``gram`` is exactly symmetric, as every symmetrized completion term and
    its diagonal blocks are, and ``root`` is sqrt(w) for the diagonal
    weights.  S = gram / (root root^T) represents M in the orthonormal
    frame and is exactly symmetric, so it needs no residual and no
    re-symmetrization; on unit weights it has the bits of ``gram``.  An S
    that overflows, as a finite ``gram`` can on small weights, raises
    ResolutionError naming ``what`` (the passes call this under an
    ``np.errstate`` that keeps numpy quiet).  No sign is required.
    """
    s = gram / (root[:, None] * root)
    if not np.isfinite(s).all():
        raise ResolutionError(
            f"{what} is not finite in the orthonormal frame: the floating-point range overflows"
        )
    return _spectrum(s, 0.0)


def certified_inverse(gram: np.ndarray, root: np.ndarray, what: str = "Gram form"):
    """The certificate of ``_gram_spectrum``, and (W M)^-1 if cond <= KAPPA_MAX, else None.

    With S = V diag(eigvals) V^T the inverse is U diag(1/eigvals) U^T for
    U = V / root: it maps W b to M^-1 b.
    """
    cert, eigvals, eigvecs = _gram_spectrum(gram, root, what)
    if not cert.cond <= KAPPA_MAX:
        return cert, None
    u = eigvecs / root[:, None]
    return cert, (u / eigvals[None, :]) @ u.T


def min_eig_selfadjoint(op: Operator) -> SelfAdjointCert:
    """Minimum eigenvalue and conditioning of a self-adjoint square operator.

    Its frame matrix is checked (``_checked_frame``) and symmetrized first.
    """
    if not op.is_square():
        raise DimensionError("spectral certificate requires a square operator")
    s, resid = _checked_frame(op, SYM_RTOL, "")
    return _spectrum(0.5 * s + 0.5 * s.T, resid)[0]  # halved first: s + s^T may overflow


def positivity_tolerance(cert_norm: float) -> float:
    """Scale-aware threshold below which eigenvalues do not count as positive."""
    return 1e-9 * (1.0 + cert_norm)


def weighted_symmetrize(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Project a coordinate matrix onto the self-adjoint part for weights w."""
    s = _sframe(m, w, w)
    return _unsframe(0.5 * s + 0.5 * s.T, w, w)  # halved first: s + s^T may overflow
