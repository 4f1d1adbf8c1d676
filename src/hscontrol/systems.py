"""System and cost descriptions for finite-horizon stochastic control.

All dynamics are discrete-time with a single scalar multiplicative noise
channel: the state jumps by a drift term plus a diffusion term scaled by a
mean-zero, unit-variance random factor that is uncorrelated across steps.
Coefficient families may vary with the step; a single operator is accepted
anywhere a family is expected and is then used at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import AssumptionError, DimensionError, NotSelfAdjointError
from .operators import (
    DenseOperator,
    Operator,
    ZeroOperator,
    _BOUND_MARGIN,
    _diagonal_entries,
    _sframe,
    _symmetry_residual,
)
from .spaces import KIND_EUCLIDEAN, Space

ASSUMPTION_TOL = 1e-12
SELFADJOINT_TOL = 1e-10

FamilyLike = Operator | list[Operator] | tuple[Operator, ...]


class OperatorFamily:
    """Step-indexed coefficients A(0), ..., A(N) over a fixed pair of spaces."""

    def __init__(self, ops: FamilyLike, steps: int, domain: Space, codomain: Space, name: str):
        if isinstance(ops, Operator):
            ops = [ops] * steps
        ops = list(ops)
        if len(ops) != steps:
            raise DimensionError(f"{name}: expected {steps} stage operators, got {len(ops)}")
        for k, op in enumerate(ops):
            if op.domain != domain or op.codomain != codomain:
                raise DimensionError(f"{name}({k}): operator spaces do not match the system")
        self._ops = ops
        self.steps = steps
        self.domain = domain
        self.codomain = codomain

    def __call__(self, k: int) -> Operator:
        if not 0 <= k < self.steps:
            raise DimensionError(f"step {k} outside 0..{self.steps - 1}")
        return self._ops[k]

    def __iter__(self):
        return iter(self._ops)

    def __len__(self):
        return self.steps


def _check_selfadjoint(op: Operator, what: str) -> None:
    resid = _symmetry_residual(_sframe(op.matrix, op.codomain.weights, op.domain.weights))
    if resid > SELFADJOINT_TOL:
        raise NotSelfAdjointError(
            f"{what}: symmetrization residual {resid:.3e} exceeds {SELFADJOINT_TOL:.1e}"
        )


def _family(domain: str, codomain: str):
    """A family field mapping the space field ``domain`` into the space field ``codomain``."""
    return field(metadata={"spaces": (domain, codomain)})


@dataclass(eq=False, repr=False)
class _System:
    """The checks every system runs; subclasses declare their fields and ``KIND``.

    The fields are the spaces, ``horizon`` and the families, in constructor
    order.  Each family field takes a FamilyLike and holds an OperatorFamily
    labelled with its capitalized name.  ``serialize`` reads and writes
    system files through these fields.  Systems compare and hash by identity.
    """

    KIND = ""  # the type name of the system in JSON files

    def __post_init__(self):
        if self.horizon < 0:
            raise DimensionError("horizon must be nonnegative")
        self.horizon = int(self.horizon)
        for f in fields(self):
            if "spaces" in f.metadata:
                dom, cod = (getattr(self, name) for name in f.metadata["spaces"])
                ops, label = getattr(self, f.name), f.name.capitalize()  # "A", "B1", "Cbar", ...
                setattr(self, f.name, OperatorFamily(ops, self.steps, dom, cod, label))

    @property
    def steps(self) -> int:
        return self.horizon + 1


def _first_steps(*families: OperatorFamily):
    """(k, operators at step k) for the first step of each distinct tuple of operator objects."""
    seen = set()
    for k, ops in enumerate(zip(*families)):
        key = tuple(map(id, ops))
        if key not in seen:
            seen.add(key)
            yield k, ops


@dataclass(eq=False, repr=False)
class ControlledSystem(_System):
    """State recursion x(k+1) = A x + B u + (C x + D u) * noise, k = 0..N."""

    KIND = "controlled"
    state_space: Space
    control_space: Space
    horizon: int
    a: OperatorFamily = _family("state_space", "state_space")
    b: OperatorFamily = _family("control_space", "state_space")
    c: OperatorFamily = _family("state_space", "state_space")
    d: OperatorFamily = _family("control_space", "state_space")


class CostSpec:
    """Quadratic stage and terminal cost for a controlled system.

    Stage k contributes <M x, x> + 2 <L x, u> + <R u, u>; the horizon ends with
    <S x(N+1), x(N+1)>.  M, R and S must be self-adjoint, but no sign
    constraint is imposed: indefinite weights are part of the contract.
    """

    def __init__(
        self,
        system: ControlledSystem,
        m: FamilyLike,
        l: FamilyLike,
        r: FamilyLike,
        terminal: Operator,
    ):
        hs, us = system.state_space, system.control_space
        steps = system.steps
        self.m = OperatorFamily(m, steps, hs, hs, "M")
        self.l = OperatorFamily(l, steps, hs, us, "L")
        self.r = OperatorFamily(r, steps, us, us, "R")
        if terminal.domain != hs or terminal.codomain != hs:
            raise DimensionError("terminal weight must act on the state space")
        self.terminal = terminal
        checked = set()  # ids of operators already checked; a shared one is checked once
        for k in range(steps):
            for name, op in (("M", self.m(k)), ("R", self.r(k))):
                # an operator diagonal by type is self-adjoint, and builds no matrix
                if id(op) not in checked and _diagonal_entries(op) is None:
                    checked.add(id(op))
                    _check_selfadjoint(op, f"{name}({k})")
        if _diagonal_entries(terminal) is None:
            _check_selfadjoint(terminal, "terminal weight")


def _check_orthogonality(left: Operator, right: Operator, what: str) -> None:
    # left* right == 0, measured in the orthonormal frame of the shared codomain.
    # |prod|_2 <= |prod|_F and the scale is at least 1, so a small Frobenius
    # norm accepts (a zero Dbar always does); the three SVDs run only when it
    # leaves the decision open, and the verdict is the same either way.
    ls = _sframe(left.matrix, left.codomain.weights, left.domain.weights)
    rs = _sframe(right.matrix, right.codomain.weights, right.domain.weights)
    prod = ls.T @ rs
    if _BOUND_MARGIN * np.linalg.norm(prod) <= ASSUMPTION_TOL:
        return
    scale = 1.0 + np.linalg.norm(ls, 2) * np.linalg.norm(rs, 2)
    resid = np.linalg.norm(prod, 2) / scale
    if resid > ASSUMPTION_TOL:
        raise AssumptionError(f"{what}: cross term has norm {resid:.3e}, expected zero")


@dataclass(eq=False, repr=False)
class DisturbedSystem(_System):
    """Disturbance-driven dynamics with a penalized output.

        x(k+1) = A x + B1 v + (C x + D1 v) * noise
        z(k)   = Cbar x + Dbar v

    The output blocks must satisfy Dbar* Cbar = 0 at every step, so the
    squared output splits into a state part and a disturbance part.  Each
    distinct pair of operators is checked once, at its first step.
    """

    KIND = "disturbed"
    state_space: Space
    disturbance_space: Space
    output_space: Space
    horizon: int
    a: OperatorFamily = _family("state_space", "state_space")
    b1: OperatorFamily = _family("disturbance_space", "state_space")
    c: OperatorFamily = _family("state_space", "state_space")
    d1: OperatorFamily = _family("disturbance_space", "state_space")
    cbar: OperatorFamily = _family("state_space", "output_space")
    dbar: OperatorFamily = _family("disturbance_space", "output_space")

    def __post_init__(self):
        super().__post_init__()
        for k, (dbar, cbar) in _first_steps(self.dbar, self.cbar):
            _check_orthogonality(dbar, cbar, f"Dbar({k})* Cbar({k})")

    def as_controlled(self) -> ControlledSystem:
        """View the disturbance channel as the control input of the recursion."""
        return ControlledSystem(
            self.state_space,
            self.disturbance_space,
            self.horizon,
            list(self.a),
            list(self.b1),
            list(self.c),
            list(self.d1),
        )


@dataclass(eq=False, repr=False)
class TwoInputSystem(_System):
    """Dynamics driven by a disturbance v and a control u, with output z.

        x(k+1) = A x + B1 v + B2 u + (C x + D1 v + D2 u) * noise
        z(k)   = Cbar x + Gbar u

    The output blocks must satisfy Gbar* Cbar = 0 and Gbar* Gbar = I at every
    step, so |z|^2 = |Cbar x|^2 + |u|^2.  Each distinct pair, and each
    distinct Gbar, is checked once, at its first step; every pair is
    checked before any isometry.
    """

    KIND = "two_input"
    state_space: Space
    disturbance_space: Space
    control_space: Space
    output_space: Space
    horizon: int
    a: OperatorFamily = _family("state_space", "state_space")
    b1: OperatorFamily = _family("disturbance_space", "state_space")
    b2: OperatorFamily = _family("control_space", "state_space")
    c: OperatorFamily = _family("state_space", "state_space")
    d1: OperatorFamily = _family("disturbance_space", "state_space")
    d2: OperatorFamily = _family("control_space", "state_space")
    cbar: OperatorFamily = _family("state_space", "output_space")
    gbar: OperatorFamily = _family("control_space", "output_space")

    def __post_init__(self):
        super().__post_init__()
        us, zs = self.control_space, self.output_space
        for k, (g, cbar) in _first_steps(self.gbar, self.cbar):
            _check_orthogonality(g, cbar, f"Gbar({k})* Cbar({k})")
        for k, (g,) in _first_steps(self.gbar):
            gs = _sframe(g.matrix, zs.weights, us.weights)
            resid = np.linalg.norm(gs.T @ gs - np.eye(us.dim), 2)
            if resid > ASSUMPTION_TOL:
                raise AssumptionError(
                    f"Gbar({k}): control channel is not isometric (residual {resid:.3e})"
                )

    def as_controlled(self) -> ControlledSystem:
        """View the stacked input (v, u) as the control input of the recursion.

        The input space is v + u with weights concat(w_v, w_u), and the input
        maps are B = [B1 B2] and D = [D1 D2].
        """
        hs, vs, us = self.state_space, self.disturbance_space, self.control_space
        ws = Space(KIND_EUCLIDEAN, vs.dim + us.dim, np.concatenate([vs.weights, us.weights]))

        def stack(left: OperatorFamily, right: OperatorFamily) -> list[Operator]:
            pairs = zip(left, right)
            return [DenseOperator(np.hstack([p.matrix, q.matrix]), ws, hs) for p, q in pairs]

        b, d = stack(self.b1, self.b2), stack(self.d1, self.d2)
        return ControlledSystem(hs, ws, self.horizon, list(self.a), b, list(self.c), d)


def closed_loop(system: TwoInputSystem, control_gains: list[Operator]) -> DisturbedSystem:
    """Absorb a control feedback u = K x into a two-input system.

    The result is disturbance-driven with A + B2 K, C + D2 K, Cbar + Gbar K and
    no direct disturbance feedthrough in the output.
    """
    if len(control_gains) != system.steps:
        raise DimensionError("need one control gain per step")
    a_cl, c_cl, cbar_cl = [], [], []
    for k, gain in enumerate(control_gains):
        if gain.domain != system.state_space or gain.codomain != system.control_space:
            raise DimensionError(f"gain at step {k} does not map state to control")
        a_cl.append(system.a(k) + (system.b2(k) @ gain))
        c_cl.append(system.c(k) + (system.d2(k) @ gain))
        cbar_cl.append(system.cbar(k) + (system.gbar(k) @ gain))
    dbar = ZeroOperator(system.disturbance_space, system.output_space)
    return DisturbedSystem(
        system.state_space,
        system.disturbance_space,
        system.output_space,
        system.horizon,
        a_cl,
        list(system.b1),
        c_cl,
        list(system.d1),
        cbar_cl,
        [dbar] * system.steps,
    )
