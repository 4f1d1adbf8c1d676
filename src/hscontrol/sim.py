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

Both run on ``run_batch``, which sorts the paths once and rolls them out in
cache-sized blocks of rows: its memory is O(block·dim) for the states plus
O(reps·steps) for the paths, however many paths there are.

Replication r always draws from the stream spawned as (seed, r), so results
do not depend on scheduling or on how many replications run in one call.
The seed words of all those streams are computed in one vectorized pass;
each stream is still, bit for bit, the one that ``(seed, r)`` spawns.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, EnumerationLimitError, ResolutionError
from .operators import Operator, ZeroOperator, step_matrices
from .spaces import HVector
from .systems import ControlledSystem, CostSpec, DisturbedSystem

ENUMERATION_MAX_STEPS = 17
# run_batch rolls sorted paths out in blocks of this many bytes of state
# rows, small enough for a block's temporaries to stay in cache
_BLOCK_BYTES = 512 * 1024


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
    """One realized path: states k=0..N+1, controls and noises k=0..N.

    ``outputs`` holds z(k) for k = 0..N when the system has a regulated
    output map, ``cost`` the pathwise cost when a cost spec was attached.
    """

    states: np.ndarray
    controls: np.ndarray
    noises: np.ndarray
    outputs: np.ndarray | None = None
    cost: float | None = None


# numpy's SeedSequence hash (O'Neill's seed_seq_fe) on uint32 arrays.
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_SEED_CHUNK = 1024  # replications seeded per vectorized pass


def _spawned_states(seed: int, spawn: np.ndarray) -> np.ndarray:
    """Row i is ``SeedSequence(entropy=seed, spawn_key=(spawn[i],)).generate_state(4, np.uint64)``.

    ``seed`` is a non-negative int and ``spawn`` a uint32 array.  The
    entropy is the seed's 32-bit words, least significant first and padded
    with zeros to the pool size, then the spawn word.
    """
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    words += [0] * (_POOL_WORDS - len(words))
    # one-element arrays, not scalars: array arithmetic wraps mod 2^32 silently
    entropy = [np.array([w], dtype=np.uint32) for w in words] + [spawn]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        x = x * _MIX_MULT_L - y * _MIX_MULT_R
        return x ^ x >> 16

    pool = [hashmix(w) for w in entropy[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(w))
    state = np.empty((spawn.size, 2 * _POOL_WORDS), dtype="<u4")
    const = _INIT_B
    for i in range(state.shape[1]):
        value = pool[i % _POOL_WORDS] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state[:, i] = value ^ value >> 16
    return state.view("<u8").astype(np.uint64)


def _nonnegative_int(name: str, value) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise DimensionError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise DimensionError(f"{name} must be non-negative, got {value}")
    return value


def draw_noise_paths(seed: int, reps: int, steps: int) -> np.ndarray:
    """(reps, steps) standard Gaussian noise factors, one stream per replication.

    Row r is, bit for bit, what ``default_rng(SeedSequence(seed,
    spawn_key=(r,))).standard_normal(steps)`` draws: the seed words of all
    the streams are computed in one vectorized pass, and each is handed to
    its own PCG64.  ``seed`` and ``reps`` are non-negative integers, with
    ``reps`` at most 2^32, the range of one spawn word.
    """
    reps = _nonnegative_int("reps", reps)
    steps = _nonnegative_int("steps", steps)
    if reps > 1 << 32:
        raise DimensionError(f"reps {reps} exceeds 2^32, the range of one spawn word")
    seed = _nonnegative_int("seed", seed)
    # imported here so that ``import hscontrol`` does not load numpy.random
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence

    class SpawnedState(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for exactly these 4 uint64 words

    out = np.empty((reps, steps))
    for start in range(0, reps, _SEED_CHUNK):
        spawn = np.arange(start, min(start + _SEED_CHUNK, reps), dtype=np.uint32)
        # one stream alive at a time: a PCG64 object holds about a kilobyte
        for row, words in zip(out[start : start + spawn.size], _spawned_states(seed, spawn)):
            np.random.Generator(PCG64(SpawnedState(words))).standard_normal(out=row)
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
    rollout overflows the floating-point range.
    """
    controlled = system.as_controlled() if isinstance(system, DisturbedSystem) else system
    steps = controlled.steps
    noises = np.asarray(noises, dtype=float)
    if noises.shape != (steps,):
        raise DimensionError("need one noise factor per step")
    states = np.zeros((steps + 1, controlled.state_space.dim))
    traj = Trajectory(states, np.zeros((steps, controlled.control_space.dim)), noises)
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
    return np.einsum("pi,pi->p", op.rmatmul(y * w[None, :]), z)


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

    x(k) depends only on the first k noise factors, so paths that share
    that prefix share the state.  The rows of ``noise_paths`` are sorted
    once, which makes shared prefixes adjacent, and the sorted rows are
    rolled out in blocks of ``_BLOCK_BYTES // (8·dim)`` rows, each block
    through every step while its states stay in cache.  Within a block each
    distinct state is advanced once: ``stage(k, X, U)`` receives
    (states, dim) state and control batches holding at most one row per
    path, and returns one value, or one row of values, per state; the
    optional ``terminal`` sees the distinct final states.  A prefix that
    crosses a block boundary is advanced once per block, so the rows seen at
    each step are at most the distinct prefixes plus (blocks - 1).  The
    result holds one total per row of ``noise_paths``, in input order.

    Memory is O(block·dim) for the states plus O(reps·steps) for the paths
    and their sort order, whatever the number of rows.  The 2^N sign paths of N
    steps cost about 2^(N+1) state rows instead of (N+1)·2^N.  This is the
    only state-advancing loop.
    """
    if x0.space != system.state_space:
        raise DimensionError("initial state does not live on the state space")
    noise_paths = np.asarray(noise_paths, dtype=float)
    if noise_paths.ndim != 2 or noise_paths.shape[1] != system.steps:
        raise DimensionError("noise paths must be (reps, steps)")
    reps = noise_paths.shape[0]
    order = _prefix_order(noise_paths)
    block_rows = max(1, _BLOCK_BYTES // (8 * system.state_space.dim))
    # the (A, B, C, D) matrices of each step, read in every block
    families = (system.a, system.b, system.c, system.d)
    step_mats = list(zip(*map(step_matrices, families)))
    out = None
    # an empty batch still runs one empty block, so the result takes the
    # shape of the stage's values
    for start in range(0, max(reps, 1), block_rows):
        block = order[start : start + block_rows]
        noise = np.ascontiguousarray(noise_paths[block].T)  # (steps, block rows)
        total = _run_block(step_mats, policy, x0, noise, stage, terminal)
        if out is None:
            out = np.empty((reps,) + total.shape[1:])
        out[block] = total
    return out


def _prefix_order(noise_paths: np.ndarray) -> np.ndarray:
    """The permutation that sorts the rows, column 0 first.

    Sorting makes paths with a common prefix adjacent, and so contiguous
    within a block.  When column 0 strictly increases once sorted (no
    repeated value, -0.0 and 0.0 counting as one, and no NaN), it alone fixes
    the order, as it does for continuous noise; otherwise every column is a
    key, as for sign paths.
    """
    first = noise_paths[:, 0]
    order = np.argsort(first, kind="stable")
    ranked = first[order]
    if np.all(ranked[1:] > ranked[:-1]):
        return order
    return np.lexsort(noise_paths.T[::-1])


def _run_block(step_mats, policy, x0, noise, stage, terminal) -> np.ndarray:
    """Per-row totals for one block of sorted paths, given as noise columns.

    ``step_mats`` holds the (A, B, C, D) matrices of each step.
    """
    rows = noise.shape[1]
    fresh = np.zeros(rows, dtype=bool)  # sorted row starts a new state
    fresh[:1] = True
    owner = np.zeros(rows, dtype=np.intp)  # sorted row -> its distinct state
    x = np.tile(x0.coords, (min(rows, 1), 1))
    total = 0.0  # takes the shape of the first stage's values
    for k, (a, b, c, d) in enumerate(step_mats):
        u = policy.control_batch(k, x)
        total += stage(k, x, u)[owner]
        drift = x @ a.T
        drift += u @ b.T
        diff = x @ c.T
        diff += u @ d.T
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
    """All two-point noise paths of the given length, one row per path."""
    if steps > ENUMERATION_MAX_STEPS:
        raise EnumerationLimitError(
            f"{steps} steps means 2^{steps} paths; cap is 2^{ENUMERATION_MAX_STEPS}"
        )
    count = 1 << steps
    bits = (np.arange(count)[:, None] >> np.arange(steps)[None, :]) & 1
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
    equals the analytic expectation for any unit-variance noise.
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


def monte_carlo_expectation(
    system: ControlledSystem,
    cost: CostSpec,
    policy: Policy,
    x0: HVector,
    reps: int,
    seed: int = 0,
) -> MonteCarloExpectation:
    """Sample-mean estimate of E[J] under Gaussian noise, with a 95 percent half-width."""
    if reps < 2:
        raise DimensionError("need at least two replications for a confidence width")
    noise_paths = draw_noise_paths(seed, reps, system.steps)
    vals = run_batch(
        system,
        policy,
        x0,
        noise_paths,
        lambda k, x, u: stage_cost_batch(cost, k, x, u),
        lambda x: terminal_cost_batch(cost, x),
    )
    mean = float(np.mean(vals))
    std_error = float(np.std(vals, ddof=1) / np.sqrt(reps))
    return MonteCarloExpectation(mean, 1.96 * std_error, reps, std_error)
