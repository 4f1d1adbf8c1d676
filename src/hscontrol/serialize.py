"""JSON input and output for spaces, operators, systems, costs, and vectors.

The on-disk format mirrors how problems are assembled in code: a file names
its spaces once, then gives each operator family either as a single stage
object (reused at every step) or as a list with one object per step.
Parsing is strict.  Unknown variants, missing keys, and shape mismatches
raise ParseError before any solver sees the data; the model assumptions
checked by the system constructors surface as AssumptionError with the
offending step in the message.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ParseError
from .operators import (
    DenseOperator,
    DiagonalOperator,
    FillingOperator,
    GaussianConvolutionOperator,
    HeatSemigroupOperator,
    IdentityOperator,
    Operator,
    RightShiftOperator,
    ScaledOperator,
    ZeroOperator,
)
from .spaces import (
    HVector,
    KIND_ELL2,
    KIND_EUCLIDEAN,
    KIND_L2_INTERVAL,
    KIND_L2_LINE,
    Space,
    ell2,
    euclidean,
    l2_interval,
    l2_line,
)
from .systems import ControlledSystem, CostSpec, DisturbedSystem, TwoInputSystem

# Size caps, checked before anything is allocated.  The recursions keep one
# dense dim x dim iterate per step, so the caps bound that memory by
# (MAX_HORIZON + 1) * MAX_DIM**2 * 8 bytes = 256 * 1024**2 * 8 B = 2 GiB.
MAX_DIM = 1024  # every space dimension: dim, modes, or l2_line grid points
MAX_HORIZON = 255


def _require(obj, key: str, what: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{what}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ParseError(f"{what}: missing key {key!r}")
    return obj[key]


def _number(obj, key: str, what: str, default=None) -> float:
    val = obj.get(key, default) if isinstance(obj, dict) else None
    if val is None:
        val = _require(obj, key, what)
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ParseError(f"{what}: key {key!r} must be a number")
    return float(_finite_array(val, f"key {key!r}", what))


def _finite_array(values, key: str, what: str) -> np.ndarray:
    """Float coordinates from JSON; NaN, Infinity and out-of-range literals are refused."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: {key} is not numeric") from exc
    except OverflowError as exc:
        raise ParseError(f"{what}: {key} is out of the floating-point range") from exc
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{what}: {key} is not finite")
    return arr


def _integer(obj, key: str, what: str, default=None) -> int:
    val = _number(obj, key, what, default)
    if not val.is_integer():
        raise ParseError(f"{what}: {key} {val!r} is not an integer")
    return int(val)


def _capped(obj, key: str, what: str, cap: int, default=None) -> int:
    val = _integer(obj, key, what, default)
    if val > cap:
        raise ParseError(f"{what}: {key} {val} exceeds the cap {cap}")
    return val


def space_from_json(obj, what: str = "space") -> Space:
    kind = _require(obj, "kind", what)
    if kind == KIND_ELL2:
        return ell2(_capped(obj, "dim", what, MAX_DIM, 64))
    if kind == KIND_EUCLIDEAN:
        return euclidean(_capped(obj, "dim", what, MAX_DIM))
    if kind == KIND_L2_LINE:
        half_width = _number(obj, "half_width", what, 10.0)
        spacing = _number(obj, "spacing", what, 0.05)
        if spacing > 0.0 and 2.0 * half_width / spacing + 1.0 > MAX_DIM:
            raise ParseError(f"{what}: spacing {spacing!r} gives more than {MAX_DIM} grid points")
        return l2_line(half_width, spacing)
    if kind == KIND_L2_INTERVAL:
        modes = _capped(obj, "modes", what, MAX_DIM, 64)
        return l2_interval(_number(obj, "length", what, 1.0), modes)
    raise ParseError(f"{what}: unknown space kind {kind!r}")


def space_to_json(space: Space) -> dict:
    if space.kind == KIND_L2_LINE:
        return {"kind": space.kind, "half_width": space.half_width, "spacing": space.spacing}
    if space.kind == KIND_L2_INTERVAL:
        return {"kind": space.kind, "length": space.length, "modes": space.dim}
    return {"kind": space.kind, "dim": space.dim}


def operator_from_json(obj, domain: Space, codomain: Space, what: str = "operator") -> Operator:
    variant = _require(obj, "variant", what)
    square = domain == codomain
    if variant == "zero":
        return ZeroOperator(domain, codomain)
    if variant in ("identity", "diagonal", "gaussian_convolution", "heat_semigroup"):
        if not square:
            raise ParseError(f"{what}: variant {variant!r} needs matching domain and codomain")
    if variant == "identity":
        return IdentityOperator(domain)
    if variant == "right_shift":
        if codomain.dim < domain.dim:
            raise ParseError(f"{what}: shift codomain cannot be smaller than its domain")
        return RightShiftOperator(domain, codomain)
    if variant == "diagonal":
        entries = _require(obj, "entries", what)
        if not isinstance(entries, list) or len(entries) != domain.dim:
            raise ParseError(f"{what}: diagonal needs {domain.dim} entries")
        return DiagonalOperator(_finite_array(entries, "entries", what), domain)
    if variant == "gaussian_convolution":
        return GaussianConvolutionOperator(domain, _number(obj, "kernel_width", what, 1.0))
    if variant == "heat_semigroup":
        return HeatSemigroupOperator(domain, _number(obj, "alpha", what), _number(obj, "tau", what))
    if variant == "filling":
        count = None if obj.get("count") is None else _integer(obj, "count", what)
        return FillingOperator(domain, codomain, count)
    if variant == "scaled":
        inner = operator_from_json(_require(obj, "of", what), domain, codomain, what)
        return ScaledOperator(_number(obj, "factor", what), inner)
    if variant == "dense":
        m = _finite_array(_require(obj, "matrix", what), "matrix", what)
        if m.shape != (codomain.dim, domain.dim):
            raise ParseError(
                f"{what}: matrix shape {m.shape} does not match "
                f"({codomain.dim}, {domain.dim})"
            )
        return DenseOperator(m, domain, codomain)
    raise ParseError(f"{what}: unknown operator variant {variant!r}")


def operator_to_json(op: Operator) -> dict:
    if isinstance(op, ZeroOperator):
        return {"variant": "zero"}
    if isinstance(op, IdentityOperator):
        return {"variant": "identity"}
    if isinstance(op, RightShiftOperator):
        return {"variant": "right_shift"}
    if isinstance(op, HeatSemigroupOperator):  # a diagonal operator, so tested first
        return {"variant": "heat_semigroup", "alpha": op.alpha, "tau": op.tau}
    if isinstance(op, DiagonalOperator):
        return {"variant": "diagonal", "entries": op.entries.tolist()}
    if isinstance(op, FillingOperator):
        return {"variant": "filling", "count": op.count}
    if isinstance(op, GaussianConvolutionOperator):
        return {"variant": "gaussian_convolution", "kernel_width": op.kernel_width}
    if isinstance(op, ScaledOperator):
        return {"variant": "scaled", "factor": op.factor, "of": operator_to_json(op.inner_op)}
    # anything else (dense, sums, compositions) flattens to its matrix
    return {"variant": "dense", "matrix": op.matrix.tolist()}


def family_from_json(obj, steps: int, domain: Space, codomain: Space, what: str) -> list[Operator]:
    if isinstance(obj, list):
        if len(obj) != steps:
            raise ParseError(f"{what}: expected {steps} stage operators, got {len(obj)}")
        return [operator_from_json(o, domain, codomain, f"{what}[{k}]") for k, o in enumerate(obj)]
    op = operator_from_json(obj, domain, codomain, what)
    return [op] * steps


def family_to_json(family) -> dict | list:
    stages = [operator_to_json(family(k)) for k in range(family.steps)]
    if all(s == stages[0] for s in stages):
        return stages[0]
    return stages


_SYSTEMS = {cls.KIND: cls for cls in (ControlledSystem, DisturbedSystem, TwoInputSystem)}


def system_from_json(obj):
    kind = _require(obj, "type", "system")
    horizon = _capped(obj, "horizon", "system", MAX_HORIZON)
    if kind not in _SYSTEMS:
        raise ParseError(f"system: unknown type {kind!r}")
    args = {}
    # the fields come in constructor order: spaces, horizon, then the families
    for f in fields(_SYSTEMS[kind]):
        if f.name == "horizon":
            args[f.name] = horizon
        elif "spaces" in f.metadata:
            dom, cod = (args[name] for name in f.metadata["spaces"])
            blob = _require(obj, f.name, "system")
            args[f.name] = family_from_json(blob, horizon + 1, dom, cod, f.name)
        else:
            args[f.name] = space_from_json(_require(obj, f.name, "system"), f.name)
    return _SYSTEMS[kind](**args)


def system_to_json(system) -> dict:
    if not isinstance(system, tuple(_SYSTEMS.values())):
        raise ParseError(f"cannot serialize {type(system).__name__}")
    out = {"type": system.KIND, "horizon": system.horizon}
    for f in fields(system):
        value = getattr(system, f.name)
        if "spaces" in f.metadata:
            out[f.name] = family_to_json(value)
        elif f.name != "horizon":
            out[f.name] = space_to_json(value)
    return out


def cost_from_json(obj, system: ControlledSystem) -> CostSpec:
    hs, us = system.state_space, system.control_space
    steps = system.steps
    return CostSpec(
        system,
        family_from_json(_require(obj, "m", "cost"), steps, hs, hs, "m"),
        family_from_json(_require(obj, "l", "cost"), steps, hs, us, "l"),
        family_from_json(_require(obj, "r", "cost"), steps, us, us, "r"),
        operator_from_json(_require(obj, "terminal", "cost"), hs, hs, "terminal"),
    )


def cost_to_json(cost: CostSpec) -> dict:
    return {
        "m": family_to_json(cost.m),
        "l": family_to_json(cost.l),
        "r": family_to_json(cost.r),
        "terminal": operator_to_json(cost.terminal),
    }


def vector_from_json(obj, space: Space, what: str = "vector") -> HVector:
    coords = _require(obj, "coords", what)
    if not isinstance(coords, list):
        raise ParseError(f"{what}: coords must be a list")
    if len(coords) != space.dim:
        raise ParseError(f"{what}: expected {space.dim} coordinates, got {len(coords)}")
    return HVector(space, _finite_array(coords, "coords", what))


def vector_to_json(x: HVector) -> dict:
    return {"coords": x.coords.tolist()}


def load_json(path):
    p = Path(path)
    if not p.exists():
        raise ParseError(f"no such file: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}: invalid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{p}: cannot read ({exc})") from exc


def parse_system(path):
    """Read and validate a system file (any of the three system types)."""
    return system_from_json(load_json(path))


def parse_cost(path, system: ControlledSystem) -> CostSpec:
    return cost_from_json(load_json(path), system)


def parse_vector(path, space: Space) -> HVector:
    return vector_from_json(load_json(path), space)


def _jsonable(obj):
    # numpy scalars and arrays reduce to their plain Python equivalents
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


# Renders leaves and numeric rows in one C call each; the indented layout of
# json.dumps(indent=...) would force the pure-Python encoder, which builds
# about two small strings per number.
_ENCODER = json.JSONEncoder(allow_nan=False, default=_jsonable)


def canonical_json(obj) -> str:
    """Stable rendering used for every emitted JSON file.

    Objects and arrays are indented by two spaces per level with sorted
    keys, except that an array whose items are all numbers (int and float
    instances or numpy number scalars, not bools) is one line,
    ``[1.0, 2.5]``, so a matrix is written one row per line.
    Numpy scalars and arrays are converted first; NaN and infinities raise
    ValueError.  The text parses to the same values as
    ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``.
    """
    return _render(obj, "\n", set()) + "\n"


_NUMBER_TYPES = (int, float, np.integer, np.floating)


def _is_number(v) -> bool:
    # by kind, not exact type, so the layout survives a json.loads round
    # trip: the encoder writes a float subclass such as np.float64 as a
    # float and converts other numpy numbers through _jsonable; bool is an
    # int but no number row
    return isinstance(v, _NUMBER_TYPES) and not isinstance(v, bool)


def _render(obj, pad: str, active: set) -> str:
    # pad is the newline and indent of the line obj starts on; active holds
    # the ids of the containers being rendered, to refuse cycles
    if not isinstance(obj, (str, int, float, list, tuple, dict)) and obj is not None:
        obj = _jsonable(obj)
    if not isinstance(obj, (list, tuple, dict)) or not obj:
        return _ENCODER.encode(obj)
    if not isinstance(obj, dict) and all(map(_is_number, obj)):
        return _ENCODER.encode(obj)
    if id(obj) in active:
        raise ValueError("Circular reference detected")
    active.add(id(obj))
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [_key(k) + ": " + _render(v, inner, active) for k, v in sorted(obj.items())]
        opening, closing = "{", "}"
    else:
        items = [_render(v, inner, active) for v in obj]
        opening, closing = "[", "]"
    active.discard(id(obj))
    return opening + inner + ("," + inner).join(items) + pad + closing


def _key(key) -> str:
    # like json.dumps, write bool, int, float and None keys as their JSON text
    if not isinstance(key, str):
        if not isinstance(key, (int, float)) and key is not None:
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _ENCODER.encode(key)
    return _ENCODER.encode(key)
