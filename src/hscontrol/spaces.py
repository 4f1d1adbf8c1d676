"""Truncated separable Hilbert spaces and their vectors.

A space is a finite coordinate truncation together with strictly positive
quadrature weights w, and the inner product of two coordinate vectors is
sum_i w[i] x[i] y[i].  Four kinds are supported:

* ``ell2``         square-summable sequences, truncated to the leading n
                   coordinates, unit weights;
* ``euclidean``    R^n with unit weights (used for input and disturbance
                   channels);
* ``l2_line``      square-integrable signals on a symmetric grid [-T, T]
                   with trapezoid quadrature weights;
* ``l2_interval``  square-integrable functions on [0, l] represented by
                   coefficients against the orthonormal sine modes
                   sqrt(2/l) sin(n pi x / l), unit weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ResolutionError

KIND_ELL2 = "ell2"
KIND_EUCLIDEAN = "euclidean"
KIND_L2_LINE = "l2_line"
KIND_L2_INTERVAL = "l2_interval"


@dataclass(frozen=True, eq=False)
class Space:
    kind: str
    dim: int
    weights: np.ndarray
    half_width: float | None = None
    spacing: float | None = None
    length: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"space dimension must be >= 1, got {self.dim}")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.dim,):
            raise DimensionError("weight vector length does not match dimension")
        if not np.all(np.isfinite(w)):
            raise DimensionError("weights: quadrature weights must be finite")
        if np.any(w <= 0.0):
            raise DimensionError("quadrature weights must be strictly positive")
        object.__setattr__(self, "weights", w)

    def __eq__(self, other):
        if self is other:  # the common case, which needs no look at the weights
            return True
        if not isinstance(other, Space):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.dim == other.dim
            and self.half_width == other.half_width
            and self.spacing == other.spacing
            and self.length == other.length
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.kind, self.dim, self.half_width, self.spacing, self.length))

    def grid(self) -> np.ndarray:
        """Sample points for grid-based spaces."""
        if self.kind != KIND_L2_LINE:
            raise DimensionError(f"space kind {self.kind!r} has no sample grid")
        return np.linspace(-self.half_width, self.half_width, self.dim)

    def mode_index(self) -> np.ndarray:
        """Mode numbers n = 1..dim for spectral interval spaces."""
        if self.kind != KIND_L2_INTERVAL:
            raise DimensionError(f"space kind {self.kind!r} has no mode index")
        return np.arange(1, self.dim + 1)

    def __repr__(self):
        extra = ""
        if self.kind == KIND_L2_LINE:
            extra = f", half_width={self.half_width}, spacing={self.spacing}"
        elif self.kind == KIND_L2_INTERVAL:
            extra = f", length={self.length}"
        return f"Space({self.kind!r}, dim={self.dim}{extra})"


def ell2(dim: int = 64) -> Space:
    if dim < 1:
        raise DimensionError("truncation dimension must be at least 1")
    return Space(KIND_ELL2, dim, np.ones(dim))


def euclidean(dim: int) -> Space:
    if dim < 1:
        raise DimensionError("dimension must be at least 1")
    return Space(KIND_EUCLIDEAN, dim, np.ones(dim))


def l2_line(half_width: float = 10.0, spacing: float = 0.05) -> Space:
    if spacing <= 0 or half_width <= 0:
        raise ResolutionError("grid spacing and half-width must be positive")
    steps = 2.0 * half_width / spacing
    n_steps = int(round(steps))
    if abs(steps - n_steps) > 1e-9 or n_steps < 1:
        raise ResolutionError("grid spacing must divide the interval [-T, T] evenly")
    dim = n_steps + 1
    w = np.full(dim, spacing)
    w[0] = w[-1] = spacing / 2.0  # trapezoid endpoints carry half weight
    return Space(KIND_L2_LINE, dim, w, half_width=float(half_width), spacing=float(spacing))


def l2_interval(length: float = 1.0, modes: int = 64) -> Space:
    if length <= 0:
        raise ResolutionError("interval length must be positive")
    if modes < 1:
        raise DimensionError("mode count must be at least 1")
    return Space(KIND_L2_INTERVAL, modes, np.ones(modes), length=float(length))


@dataclass(frozen=True, eq=False)
class HVector:
    space: Space
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.space.dim,):
            raise DimensionError(
                f"coordinate vector of shape {c.shape} does not fit a space of dimension {self.space.dim}"
            )
        if not np.all(np.isfinite(c)):
            raise DimensionError("coords: vector coordinates must be finite")
        object.__setattr__(self, "coords", c)

    def __eq__(self, other):
        if not isinstance(other, HVector):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.coords, other.coords)


def inner(x: HVector, y: HVector) -> float:
    """Weighted inner product; both vectors must live on the same space."""
    if x.space != y.space:
        raise DimensionError("inner product operands live on different spaces")
    return float(np.dot(x.space.weights * x.coords, y.coords))


def norm(x: HVector) -> float:
    return float(np.sqrt(max(inner(x, x), 0.0)))


def zero_vector(space: Space) -> HVector:
    return HVector(space, np.zeros(space.dim))
