"""Trajectory simulation and expectation estimates for controlled systems.

Two ways to attach a number to E[J]:

* exact enumeration over all sign paths of two-point (Rademacher) noise,
  which matches the analytic value to round-off because the noise enters
  each step linearly and only second moments survive.  Paths that share a
  noise prefix share their state, so N steps advance about 2^(N+1) state
  rows rather than N·2^N;
* Monte Carlo over Gaussian noise with independent per-replication streams,
  which reports a 95 percent confidence half-width.  It estimates the same
  value: E[J] depends on the noise only through its first two moments.

Both run on ``run_batch``, which rolls the paths it is given out in
cache-sized blocks of consecutive rows, without reordering them: its memory
is O(block·dim) for the states plus O(paths·steps) for those paths.
Adjacent rows with a common noise prefix share their state, so a caller
groups its rows by prefix.  Enumeration hands it all 2^N sign paths at
once, which the step cap bounds, in lexicographic order, and averages their
costs in that order.  Monte Carlo's Gaussian rows share nothing past x0; it
draws and hands over one block of replications at a time, so its memory is
O(block·steps) for the paths plus one value per replication, however many
replications there are.

Replication r's noise is a pure function of (seed, r, steps): a
counter-based Philox stream keyed by the seed, read from r's own counter
block, so any block of rows is one vectorized draw and no row depends on
how many replications run in one call.  The rolled-out costs still can, in
their last bits: the rows of the short last block go through matrix
products of another size.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, EnumerationLimitError, ResolutionError
from .operators import IdentityOperator, Operator, ZeroOperator
from .spaces import HVector
from .systems import ControlledSystem, CostSpec, DisturbedSystem

ENUMERATION_MAX_STEPS = 17
# run_batch rolls paths out in blocks of this many bytes of state rows,
# small enough for a block's temporaries to stay in cache
_BLOCK_BYTES = 512 * 1024
# _noise_rows transforms this many rows at a time
_NOISE_CHUNK_ROWS = 4096


class Policy:
    """Affine control law u(k) = K(k) x(k) + f(k).

    Either part may be omitted: gains-only is linear feedback, inputs-only is
    an open-loop schedule, and neither means the zero control.
    """

    def __init__(
        self,
        system: ControlledSystem,
        gains: Sequence | None = None,
        inputs: Sequence[np.ndarray] | None = None,
    ):
        self.system = system
        steps = system.steps
        du = system.control_space.dim
        if gains is not None:
            gains = list(gains)
            if len(gains) != steps:
                raise DimensionError("need one gain per step")
            self._gain_mats = []
            for k, g in enumerate(gains):
                if g.domain != system.state_space or g.codomain != system.control_space:
                    raise DimensionError(f"gain at step {k} does not map state to control")
                self._gain_mats.append(g.matrix)
        else:
            self._gain_mats = None
        if inputs is not None:
            inputs = [np.asarray(u, dtype=float) for u in inputs]
            if len(inputs) != steps:
                raise DimensionError("need one input per step")
            for u in inputs:
                if u.shape != (du,):
                    raise DimensionError("input coordinates do not match the control space")
        self._inputs = inputs
        self.gains = gains

    def control_batch(self, k: int, x_batch: np.ndarray) -> np.ndarray:
        """Controls for a (paths, dim) batch of states at step k."""
        u = np.zeros((x_batch.shape[0], self.system.control_space.dim))
        if self._gain_mats is not None:
            u += x_batch @ self._gain_mats[k].T
        if self._inputs is not None:
            u += self._inputs[k][None, :]
        return u


@dataclass
class Trajectory:
    """One realized path: states k=0..N+1 and controls k=0..N.

    ``outputs`` holds z(k) for k = 0..N when the system has a regulated
    output map, ``cost`` the pathwise cost when a cost spec was attached.
    """

    states: np.ndarray
    controls: np.ndarray
    outputs: np.ndarray | None = None
    cost: float | None = None


_REPS_MAX = 1 << 32
_SEED_MAX = (1 << 128) - 1  # the largest Philox key


def _checked_int(name: str, value, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int from ``low`` to ``high``, else a DimensionError naming ``name``.

    ``high``, when given, is 2^b or 2^b - 1, and the message writes it so.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise DimensionError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        least = "non-negative" if low == 0 else f"at least {low}"
        raise DimensionError(f"{name} must be {least}, got {value}")
    if high is not None and value > high:
        bits = high.bit_length()
        bound = f"2^{bits - 1}" if high == 1 << (bits - 1) else f"2^{bits} - 1"
        raise DimensionError(f"{name} {value} exceeds {bound}")
    return value


def _checked_seed(seed, name: str = "seed") -> int:
    return _checked_int(name, seed, high=_SEED_MAX)


def draw_noise_paths(seed: int, reps: int, steps: int) -> np.ndarray:
    """(reps, steps) standard Gaussian noise factors, one row per replication.

    Row r is a pure function of (seed, r, steps): a Philox 4x64 generator
    keyed by ``seed`` and set to counter r·ceil(steps/4) gives its raw
    words, and Box-Muller maps each pair of words (w1, w2) to the two
    normals sqrt(-2 ln u1)·(cos 2πu2, sin 2πu2), with u1 = ((w1 >> 11) +
    1)·2^-53 and u2 = (w2 >> 11)·2^-53.  It does not depend on ``reps`` or
    on which rows are drawn together.  ``seed`` is an integer from 0 to
    2^128 - 1, the Philox key size, and ``reps`` one from 0 to 2^32.
    """
    reps = _checked_int("reps", reps, high=_REPS_MAX)
    steps = _checked_int("steps", steps)
    return _noise_rows(_checked_seed(seed), 0, reps, steps)


def _noise_rows(seed: int, start: int, stop: int, steps: int) -> np.ndarray:
    """Rows start..stop-1 of ``draw_noise_paths(seed, reps, steps)`` for any reps >= stop.

    The rows are drawn and transformed ``_NOISE_CHUNK_ROWS`` at a time into
    the result, so the temporaries stay a few chunks in size; each element
    goes through the same operations whatever the chunk.
    """
    # imported here so that ``import hscontrol`` does not load numpy.random
    from numpy.random import Philox

    rows, blocks, pairs = stop - start, -(-steps // 4), -(-steps // 2)
    # each row owns `blocks` counter blocks of four 64-bit words, so
    # successive draws of whole rows continue the stream row by row
    stream = Philox(key=seed, counter=start * blocks)
    out = np.empty((rows, steps))
    for first in range(0, rows, _NOISE_CHUNK_ROWS):
        count = min(_NOISE_CHUNK_ROWS, rows - first)
        words = stream.random_raw(count * 4 * blocks)
        # 53-bit integers, (count, pairs, 2), keeping the pairs that steps needs
        halves = (words >> np.uint64(11)).reshape(count, 2 * blocks, 2)[:, :pairs]
        radius = np.sqrt(-2.0 * np.log((halves[..., 0] + 1.0) * 2.0**-53))
        angle = 2.0 * np.pi * 2.0**-53 * halves[..., 1]
        normals = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=-1)
        out[first : first + count] = normals.reshape(count, 2 * pairs)[:, :steps]
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked and refused below
def simulate(
    system: ControlledSystem | DisturbedSystem,
    policy: Policy,
    x0: HVector,
    noises: np.ndarray,
    cost: CostSpec | None = None,
) -> Trajectory:
    """Run one noise path, collecting states, inputs, outputs, and cost.

    Raises ResolutionError, naming the first step concerned, when the
    rollout overflows the floating-point range, and DimensionError (from
    ``run_batch``) for a noise factor that is NaN or infinite.
    """
    controlled = system.as_controlled() if isinstance(system, DisturbedSystem) else system
    steps = controlled.steps
    noises = np.asarray(noises, dtype=float)
    if noises.shape != (steps,):
        raise DimensionError("need one noise factor per step")
    states = np.zeros((steps + 1, controlled.state_space.dim))
    traj = Trajectory(states, np.zeros((steps, controlled.control_space.dim)))
    if isinstance(system, DisturbedSystem):
        traj.outputs = np.zeros((steps, system.output_space.dim))

    def stage(k, x, u):
        states[k], traj.controls[k] = x[0], u[0]
        if traj.outputs is not None:
            traj.outputs[k] = system.cbar(k).matrix @ x[0] + system.dbar(k).matrix @ u[0]
        return np.zeros(1) if cost is None else stage_cost_batch(cost, k, x, u)

    def terminal(x):
        states[-1] = x[0]
        return np.zeros(1) if cost is None else terminal_cost_batch(cost, x)

    total = run_batch(controlled, policy, x0, noises[None, :], stage, terminal)
    finite = np.isfinite(states).all(axis=1)
    for values in (traj.controls, traj.outputs):
        if values is not None:
            finite[:-1] &= np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ResolutionError(
            f"path at step {int(np.argmin(finite))} is not finite: "
            "the rollout overflows the floating-point range"
        )
    if cost is not None:
        traj.cost = float(total[0])
        if not np.isfinite(traj.cost):
            raise ResolutionError(
                "pathwise cost is not finite: it overflows the floating-point range"
            )
    return traj


def _quad(op: Operator, w: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    # <op z_p, y_p>_W for each row p, as rowsum(op.rmatmul(y W) * z): the
    # right product is native for structured operators, and the identity
    # holds whether or not op is self-adjoint
    if isinstance(op, ZeroOperator):
        return np.zeros(y.shape[0])
    yw = y if (w == 1.0).all() else y * w[None, :]  # y * 1.0 is y to the bit
    if isinstance(op, IdentityOperator):
        return np.einsum("pi,pi->p", yw, z)  # rmatmul would only copy yw
    return np.einsum("pi,pi->p", op.rmatmul(yw), z)


def stage_cost_batch(cost: CostSpec, k: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """<M x, x> + 2 <L x, u> + <R u, u> at step k for each row of (x, u)."""
    wh = cost.m(k).domain.weights
    wu = cost.r(k).domain.weights
    val = _quad(cost.m(k), wh, x, x)
    val += 2.0 * _quad(cost.l(k), wu, u, x)
    val += _quad(cost.r(k), wu, u, u)
    return val


def terminal_cost_batch(cost: CostSpec, x: np.ndarray) -> np.ndarray:
    """<S x, x> for each row of x."""
    return _quad(cost.terminal, cost.terminal.domain.weights, x, x)


def run_batch(
    system: ControlledSystem,
    policy: Policy,
    x0: HVector,
    noise_paths: np.ndarray,
    stage: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    terminal: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Accumulate a per-path functional over many noise paths at once.

    x(k) depends only on the first k noise factors, so adjacent rows with
    equal noise prefixes share their states.  The rows are not reordered:
    any order gives correct values, and rows grouped by prefix (as
    ``sign_paths`` emits them) make the sharing pay.  They are rolled out
    in blocks of ``_BLOCK_BYTES // (8·dim)`` consecutive rows, each block
    through every step while its states stay in cache, so a row's total
    depends only on the rows of its block.  ``stage(k, X, U)`` receives
    (states, dim) state and control batches holding at most one row per
    path, and returns one value, or one row of values, per state; the
    optional ``terminal`` sees the final states.  For grouped rows the rows
    seen at each step are at most the distinct prefixes plus (blocks - 1).
    The result holds one total per row of ``noise_paths``, in input order.
    A NaN or infinite noise factor is refused with a DimensionError.

    Memory is O(block·dim) for the states plus O(rows·steps) for the paths;
    a caller with more paths than it wants to hold at once passes them a
    block at a time, as ``monte_carlo_expectation`` does.  The 2^N sign
    paths of N steps cost about 2^(N+1) state rows instead of (N+1)·2^N.
    This is the only state-advancing loop.
    """
    if x0.space != system.state_space:
        raise DimensionError("initial state does not live on the state space")
    noise_paths = np.asarray(noise_paths, dtype=float)
    if noise_paths.ndim != 2 or noise_paths.shape[1] != system.steps:
        raise DimensionError("noise paths must be (reps, steps)")
    if not np.isfinite(noise_paths).all():
        r, k = np.argwhere(~np.isfinite(noise_paths))[0]
        raise DimensionError(f"noise path {r} holds {noise_paths[r, k]} at step {k}: not finite")
    reps = noise_paths.shape[0]
    block_rows = max(1, _BLOCK_BYTES // (8 * system.state_space.dim))
    # an empty batch still runs one empty block, so the result takes the
    # shape of the stage's values
    totals = []
    for start in range(0, max(reps, 1), block_rows):
        noise = np.ascontiguousarray(noise_paths[start : start + block_rows].T)  # (steps, rows)
        totals.append(_run_block(system, policy, x0, noise, stage, terminal))
    return np.concatenate(totals)


def _run_block(system, policy, x0, noise, stage, terminal) -> np.ndarray:
    """Per-row totals for one block of paths, given as noise columns.

    Each step advances the states through the row products of its A, B, C
    and D, native for structured operators.  A row shares the state of the
    row before it while their noise prefixes are equal; nothing else is
    shared.
    """
    rows = noise.shape[1]
    fresh = np.zeros(rows, dtype=bool)  # row starts a new state
    fresh[:1] = True
    owner = np.zeros(rows, dtype=np.intp)  # row -> its state
    x = np.tile(x0.coords, (min(rows, 1), 1))
    total = 0.0  # takes the shape of the first stage's values
    for k in range(system.steps):
        a, b, c, d = system.a(k), system.b(k), system.c(k), system.d(k)
        u = policy.control_batch(k, x)
        total += stage(k, x, u)[owner]
        drift = a.apply_rows(x)
        drift += b.apply_rows(u)
        diff = c.apply_rows(x)
        diff += d.apply_rows(u)
        del x, u
        fresh[1:] |= noise[k, 1:] != noise[k, :-1]
        firsts = np.flatnonzero(fresh)
        factors = noise[k, firsts][:, None]
        if firsts.size == drift.shape[0]:
            # no prefix splits: every state has one successor
            diff *= factors
            drift += diff
            x = drift
        else:
            parents = owner[firsts]
            diff = diff[parents]
            diff *= factors
            x = drift[parents]
            x += diff
            owner = np.cumsum(fresh) - 1
        del drift, diff
    if terminal is not None:
        total += terminal(x)[owner]
    return total


def sign_paths(steps: int) -> np.ndarray:
    """All two-point noise paths of the given length, one row per path.

    Row r is the binary digits of r, most significant first, with 0 read as
    -1: the rows are in lexicographic order, so paths with a common prefix
    are adjacent, as ``run_batch`` needs them to share states.
    """
    steps = _checked_int("steps", steps)
    if steps > ENUMERATION_MAX_STEPS:
        raise EnumerationLimitError(
            f"{steps} steps means 2^{steps} paths; cap is 2^{ENUMERATION_MAX_STEPS}"
        )
    count = 1 << steps
    bits = (np.arange(count)[:, None] >> np.arange(steps - 1, -1, -1)[None, :]) & 1
    return bits * 2.0 - 1.0


@dataclass(frozen=True)
class ExactExpectation:
    value: float
    paths: int


def enumerate_expectation(
    system: ControlledSystem, cost: CostSpec, policy: Policy, x0: HVector
) -> ExactExpectation:
    """Exact E[J] under two-point noise by summing every sign path.

    Because each noise factor takes values -1 and +1 with equal probability,
    and the analytic theory uses only the first two noise moments, this value
    equals the analytic expectation for any unit-variance noise.  The path
    costs are summed (``np.mean``) in the lexicographic order of
    ``sign_paths``.
    """
    paths = sign_paths(system.steps)
    vals = run_batch(
        system,
        policy,
        x0,
        paths,
        lambda k, x, u: stage_cost_batch(cost, k, x, u),
        lambda x: terminal_cost_batch(cost, x),
    )
    return ExactExpectation(float(np.mean(vals)), paths.shape[0])


@dataclass(frozen=True)
class MonteCarloExpectation:
    mean: float
    half_width: float
    reps: int
    std_error: float


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked and refused below
def monte_carlo_expectation(
    system: ControlledSystem,
    cost: CostSpec,
    policy: Policy,
    x0: HVector,
    reps: int,
    seed: int = 0,
) -> MonteCarloExpectation:
    """Sample-mean estimate of E[J] under Gaussian noise, with a 95 percent half-width.

    Replication r rolls out row r of ``draw_noise_paths(seed, reps, steps)``.
    The rows are drawn and rolled out one ``run_batch`` block at a time, so
    memory is O(block·steps) for the paths plus one value per replication.
    ``reps`` is an integer from 2 to 2^32 and ``seed`` one from 0 to
    2^128 - 1.  A replication's cost can differ in its last bits with the
    size of the block it is rolled out in.  Raises ResolutionError when a
    replication's cost, the mean or the half-width overflows the
    floating-point range.
    """
    reps = _checked_int("reps", reps, 2, _REPS_MAX)
    seed = _checked_seed(seed)

    def stage(k, x, u):
        return stage_cost_batch(cost, k, x, u)

    def terminal(x):
        return terminal_cost_batch(cost, x)

    block_rows = max(1, _BLOCK_BYTES // (8 * system.state_space.dim))
    vals = np.empty(reps)
    for start in range(0, reps, block_rows):
        stop = min(start + block_rows, reps)
        noise = _noise_rows(seed, start, stop, system.steps)
        vals[start:stop] = run_batch(system, policy, x0, noise, stage, terminal)
    if not np.isfinite(vals).all():
        raise ResolutionError(
            f"replication {int(np.argmin(np.isfinite(vals)))} cost is not finite: "
            "the rollout overflows the floating-point range"
        )
    mean = float(np.mean(vals))
    if not np.isfinite(mean):
        raise ResolutionError("mean cost is not finite: the sum of the costs overflows")
    std_error = float(np.std(vals, ddof=1) / np.sqrt(reps))
    half_width = 1.96 * std_error
    if not np.isfinite(half_width):
        raise ResolutionError("half-width is not finite: the spread of the costs overflows")
    return MonteCarloExpectation(mean, half_width, reps, std_error)
