import json
from pathlib import Path

import numpy as np
import pytest

import hscontrol as hc
import hscontrol.serialize as ser
from hscontrol import cli
from helpers import random_two_input


SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


MINIMAL_SCALAR = {
    "type": "controlled",
    "state_space": {"kind": "euclidean", "dim": 1},
    "control_space": {"kind": "euclidean", "dim": 1},
    "horizon": 0,
    "a": {"variant": "identity"},
    "b": {"variant": "dense", "matrix": [[1.0]]},
    "c": {"variant": "zero"},
    "d": {"variant": "zero"},
}


def test_minimal_scalar_round_trip_is_identity():
    system = hc.system_from_json(MINIMAL_SCALAR)
    blob = hc.system_to_json(system)
    again = hc.system_from_json(blob)
    assert hc.system_to_json(again) == blob
    assert ser.canonical_json(hc.system_to_json(again)) == ser.canonical_json(blob)


def test_space_round_trips():
    for space in [hc.ell2(16), hc.euclidean(3), hc.l2_line(2.0, 0.5),
                  hc.l2_interval(1.0, 8)]:
        blob = ser.space_to_json(space)
        assert ser.space_from_json(blob, "space") == space


def test_operator_variants_round_trip():
    rng = np.random.default_rng(0)
    seq = hc.ell2(6)
    seq_big = hc.ell2(7)
    line = hc.l2_line(1.0, 0.5)
    euc = hc.euclidean(3)
    modes = hc.l2_interval(1.0, 5)
    ops = [
        hc.ZeroOperator(seq, euc),
        hc.IdentityOperator(line),
        hc.ScaledOperator(-1.5, hc.RightShiftOperator(seq)),
        hc.DenseOperator(rng.standard_normal((3, 6)), seq, euc),
        hc.DiagonalOperator(rng.standard_normal(5), line),
        hc.FillingOperator(euc, seq, count=2),
        hc.RightShiftOperator(seq),
        hc.RightShiftOperator(seq, seq_big),
        hc.GaussianConvolutionOperator(line, kernel_width=0.8),
        hc.HeatSemigroupOperator(modes, alpha=0.2, tau=0.4),
    ]
    for op in ops:
        blob = ser.operator_to_json(op)
        back = ser.operator_from_json(blob, op.domain, op.codomain, "op")
        assert type(back) is type(op), blob.get("variant")
        assert np.allclose(back.matrix, op.matrix), blob.get("variant")


def test_disturbed_and_two_input_round_trip():
    rng = np.random.default_rng(1)
    sys2 = random_two_input(rng)
    blob = hc.system_to_json(sys2)
    again = hc.system_from_json(blob)
    assert isinstance(again, hc.TwoInputSystem)
    assert hc.system_to_json(again) == blob
    zero = [hc.ZeroOperator(sys2.state_space, sys2.control_space)
            for _ in range(sys2.steps)]
    dsys = hc.closed_loop(sys2, zero)
    blob_d = hc.system_to_json(dsys)
    again_d = hc.system_from_json(blob_d)
    assert isinstance(again_d, hc.DisturbedSystem)
    assert hc.system_to_json(again_d) == blob_d


def test_cost_round_trip():
    system = hc.system_from_json(MINIMAL_SCALAR)
    cost = hc.CostSpec(system,
                       hc.IdentityOperator(system.state_space),
                       hc.ZeroOperator(system.state_space, system.control_space),
                       hc.IdentityOperator(system.control_space),
                       hc.ScaledOperator(2.0, hc.IdentityOperator(system.state_space)))
    blob = hc.cost_to_json(cost)
    again = hc.cost_from_json(blob, system)
    assert hc.cost_to_json(again) == blob


def test_vector_round_trip():
    sp = hc.euclidean(4)
    x = hc.HVector(sp, np.array([1.0, -2.0, 0.5, 0.0]))
    blob = hc.vector_to_json(x)
    again = hc.vector_from_json(blob, sp)
    assert np.array_equal(again.coords, x.coords)


def test_step_varying_family_round_trip():
    rng = np.random.default_rng(2)
    hs = hc.euclidean(2)
    us = hc.euclidean(1)
    a = [hc.DenseOperator(rng.standard_normal((2, 2)), hs) for _ in range(3)]
    system = hc.ControlledSystem(hs, us, 2, a,
                                 hc.ZeroOperator(us, hs),
                                 hc.ZeroOperator(hs),
                                 hc.ZeroOperator(us, hs))
    blob = hc.system_to_json(system)
    assert isinstance(blob["a"], list)
    assert not isinstance(blob["b"], list)  # identical stages collapse
    again = hc.system_from_json(blob)
    for k in range(3):
        assert np.allclose(again.a(k).matrix, a[k].matrix)


def parse_error_cases():
    yield {"bad": 1}
    yield {**MINIMAL_SCALAR, "type": "mystery"}
    yield {**MINIMAL_SCALAR, "horizon": "three"}
    yield {**MINIMAL_SCALAR, "a": {"variant": "warp"}}
    yield {**MINIMAL_SCALAR, "b": {"variant": "dense", "matrix": [[1.0, 2.0]]}}
    yield {**MINIMAL_SCALAR, "state_space": {"kind": "moebius", "dim": 1}}
    yield {**MINIMAL_SCALAR,
           "a": {"variant": "dense", "matrix": [["x"]]}}


@pytest.mark.parametrize("blob", list(parse_error_cases()))
def test_malformed_specs_raise_parse_error(blob):
    with pytest.raises(hc.ParseError):
        hc.system_from_json(blob)


@pytest.mark.parametrize("field, blob", [
    ("dim", {**MINIMAL_SCALAR, "control_space": {"kind": "euclidean", "dim": ser.MAX_DIM + 1}}),
    ("dim", {**MINIMAL_SCALAR, "state_space": {"kind": "ell2", "dim": 1e300}}),
    ("modes", {**MINIMAL_SCALAR, "state_space": {"kind": "l2_interval", "modes": 10**6}}),
    ("spacing", {**MINIMAL_SCALAR,
                 "state_space": {"kind": "l2_line", "half_width": 1.0, "spacing": 1e-9}}),
    ("horizon", {**MINIMAL_SCALAR, "horizon": ser.MAX_HORIZON + 1}),
])
def test_sizes_above_the_caps_are_parse_errors(field, blob):
    with pytest.raises(hc.ParseError, match=field):
        hc.system_from_json(blob)


def test_sizes_at_the_caps_parse():
    blob = {**MINIMAL_SCALAR, "horizon": ser.MAX_HORIZON,
            "state_space": {"kind": "ell2", "dim": ser.MAX_DIM},
            "b": {"variant": "zero"}}
    system = hc.system_from_json(blob)
    assert system.state_space.dim == ser.MAX_DIM
    assert system.steps == ser.MAX_HORIZON + 1


@pytest.mark.parametrize("field, parse", [
    ("dim", lambda: ser.space_from_json({"kind": "euclidean", "dim": 2.7})),
    ("modes", lambda: ser.space_from_json({"kind": "l2_interval", "modes": 4.5})),
    ("horizon", lambda: hc.system_from_json({**MINIMAL_SCALAR, "horizon": 1.9})),
    ("count", lambda: ser.operator_from_json({"variant": "filling", "count": 2.5},
                                            hc.euclidean(3), hc.euclidean(4))),
])
def test_non_integer_sizes_are_parse_errors(field, parse):
    with pytest.raises(hc.ParseError, match=field):
        parse()


def test_integral_float_sizes_parse():
    assert ser.space_from_json({"kind": "euclidean", "dim": 3.0}).dim == 3
    assert hc.system_from_json({**MINIMAL_SCALAR, "horizon": 2.0}).horizon == 2
    op = ser.operator_from_json({"variant": "filling", "count": 2.0},
                               hc.euclidean(3), hc.euclidean(4))
    assert op.count == 2


def test_load_json_missing_file(tmp_path):
    with pytest.raises(hc.ParseError):
        ser.load_json(tmp_path / "nope.json")


def test_load_json_invalid_text(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(hc.ParseError):
        ser.load_json(bad)


def test_assumption_violation_passes_through(tmp_path):
    blob = {
        "type": "disturbed",
        "state_space": {"kind": "euclidean", "dim": 1},
        "disturbance_space": {"kind": "euclidean", "dim": 1},
        "output_space": {"kind": "euclidean", "dim": 1},
        "horizon": 0,
        "a": {"variant": "identity"},
        "b1": {"variant": "identity"},
        "c": {"variant": "zero"},
        "d1": {"variant": "zero"},
        "cbar": {"variant": "identity"},
        "dbar": {"variant": "identity"},
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(hc.AssumptionError) as exc_info:
        ser.parse_system(path)
    assert "Dbar(0)* Cbar(0)" in str(exc_info.value)


def test_right_shift_rejects_shrinking_codomain():
    blob = {
        "type": "disturbed",
        "state_space": {"kind": "ell2", "dim": 8},
        "disturbance_space": {"kind": "euclidean", "dim": 1},
        "output_space": {"kind": "ell2", "dim": 4},
        "horizon": 0,
        "a": {"variant": "zero"},
        "b1": {"variant": "filling", "count": 1},
        "c": {"variant": "zero"},
        "d1": {"variant": "zero"},
        "cbar": {"variant": "right_shift"},
        "dbar": {"variant": "zero"},
    }
    with pytest.raises(hc.ParseError):
        hc.system_from_json(blob)


def test_canonical_json_is_stable_and_sorted():
    blob = {"b": 1.0, "a": [1, 2], "c": {"y": True, "x": None}}
    text = ser.canonical_json(blob)
    assert text == ser.canonical_json(json.loads(text))
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert text.endswith("\n")


def test_canonical_json_coerces_numpy_scalars():
    blob = {"x": np.float64(1.5), "n": np.int64(3), "flag": np.bool_(True),
            "arr": np.arange(3.0)}
    text = ser.canonical_json(blob)
    parsed = json.loads(text)
    assert parsed == {"x": 1.5, "n": 3, "flag": True, "arr": [0.0, 1.0, 2.0]}


def _indented_reference(obj) -> str:
    """The pure-Python indented rendering canonical_json replaces."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=ser._jsonable) + "\n"


def test_canonical_json_layout_is_pinned():
    blob = {"b": {"y": [1, 2.5], "x": "s"}, "a": [[1.0, -2.0], [0.5, 3]],
            "e": [], "d": {}, "c": [True, None]}
    assert ser.canonical_json(blob) == (
        "{\n"
        '  "a": [\n'
        "    [1.0, -2.0],\n"
        "    [0.5, 3]\n"
        "  ],\n"
        '  "b": {\n'
        '    "x": "s",\n'
        '    "y": [1, 2.5]\n'
        "  },\n"
        '  "c": [\n'
        "    true,\n"
        "    null\n"
        "  ],\n"
        '  "d": {},\n'
        '  "e": []\n'
        "}\n"
    )
    assert json.loads(ser.canonical_json(blob)) == json.loads(_indented_reference(blob))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_canonical_json_refuses_non_finite_numbers_in_rows(bad):
    for blob in ([1.0, bad], {"m": [[0.0, 1.0], [bad, 2.0]]}, {"x": bad}):
        with pytest.raises(ValueError):
            ser.canonical_json(blob)


def test_canonical_json_refuses_what_json_refuses():
    cycle = {"a": []}
    cycle["a"].append(cycle)
    for blob in (cycle, {(1, 2): 0.0}, {"x": object()}, {"a": 1, 2: 3}):
        with pytest.raises((ValueError, TypeError)) as new:
            ser.canonical_json(blob)
        with pytest.raises(new.type):
            _indented_reference(blob)


def test_canonical_json_keeps_bools_and_nulls_out_of_number_rows():
    assert ser.canonical_json([1.0, True]) == "[\n  1.0,\n  true\n]\n"
    assert ser.canonical_json([None, 2]) == "[\n  null,\n  2\n]\n"
    assert json.loads(ser.canonical_json([[0, False]])) == [[0, False]]


def test_canonical_json_converts_numpy_arrays_and_scalars_in_lists():
    blob = {"v": np.arange(3.0), "m": np.eye(2), "s": [np.float32(0.5), np.int64(2), np.bool_(False)]}
    text = ser.canonical_json(blob)
    assert json.loads(text) == {"v": [0.0, 1.0, 2.0], "m": [[1.0, 0.0], [0.0, 1.0]],
                                "s": [0.5, 2, False]}
    assert '"v": [0.0, 1.0, 2.0]' in text
    assert "    [1.0, 0.0],\n    [0.0, 1.0]\n" in text
    # numpy numbers in a list form a number row, as the floats they parse to do
    for row, line in (([np.float64(0.5), 1.0], "[0.5, 1.0]\n"),
                      ([np.float32(0.5), np.int64(2), 3], "[0.5, 2, 3]\n")):
        text = ser.canonical_json(row)
        assert text == line
        assert ser.canonical_json(json.loads(text)) == text


def test_canonical_json_round_trips_extreme_floats_exactly():
    values = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
    for blob in (values, {"x": values}, [values]):
        text = ser.canonical_json(blob)
        assert text == ser.canonical_json(json.loads(text))
    parsed = json.loads(ser.canonical_json(values))
    assert [v.hex() for v in parsed] == [v.hex() for v in values]


@pytest.mark.parametrize("name", ["demo_system.json", "shift_network.json", "coupled_game.json"])
def test_canonical_json_parses_as_the_indented_encoder_on_spec_systems(name):
    blob = hc.system_to_json(ser.parse_system(SPEC_DIR / name))
    assert json.loads(ser.canonical_json(blob)) == json.loads(_indented_reference(blob))


@pytest.mark.parametrize("example", ["ex1", "ex3", "ex4"])
def test_canonical_json_parses_as_the_indented_encoder_on_cli_reports(example, tmp_path, monkeypatch):
    reports = []

    def capture(obj):
        reports.append(obj)
        return ser.canonical_json(obj)

    monkeypatch.setattr(cli, "canonical_json", capture)
    assert cli.main(["example", example, "--out", str(tmp_path)]) == cli.EXIT_OK
    (report,) = reports
    text = (tmp_path / "report.json").read_text()
    assert text == ser.canonical_json(report)
    assert json.loads(text) == json.loads(_indented_reference(report))


def test_canonical_json_calls_its_public_name_once(monkeypatch):
    """The traced count of serialize.canonical_json is one per document."""
    calls = []
    public = ser.canonical_json

    def counted(obj):
        calls.append(obj)
        return public(obj)

    monkeypatch.setattr(ser, "canonical_json", counted)
    ser.canonical_json({"a": [{"b": [[1.0], [2.0]]}, [True, {"c": []}]], "d": {"e": {}}})
    assert len(calls) == 1


@pytest.mark.parametrize("path", sorted(SPEC_DIR.glob("*.json")), ids=lambda p: p.name)
def test_shipped_specs_are_canonical(path):
    text = path.read_text(encoding="utf-8")
    assert text == ser.canonical_json(json.loads(text))


def test_shipped_shift_network_spec_parses():
    dsys = ser.parse_system(SPEC_DIR / "shift_network.json")
    assert isinstance(dsys, hc.DisturbedSystem)
    assert dsys.horizon == 5
    est = hc.hinf_norm(dsys, tol=1e-6)
    assert est.value == pytest.approx(3.0 * np.sqrt(5.0) / 4.0, abs=1e-4)


def test_shipped_game_spec_parses():
    sys2 = ser.parse_system(SPEC_DIR / "coupled_game.json")
    assert isinstance(sys2, hc.TwoInputSystem)
    x0 = ser.parse_vector(SPEC_DIR / "coupled_game_x0.json", sys2.state_space)
    sol = hc.solve_coupled_riccati(sys2, hc.GameParams(2.0, 0.0), x0)
    assert sol.solved
    assert sol.j1 == pytest.approx(-2.70, abs=1e-10)
    assert sol.j2 == pytest.approx(2.74, abs=1e-10)


def test_shipped_demo_problem_solves():
    system = ser.parse_system(SPEC_DIR / "demo_system.json")
    cost = ser.parse_cost(SPEC_DIR / "demo_cost.json", system)
    x0 = ser.parse_vector(SPEC_DIR / "demo_x0.json", system.state_space)
    sol = hc.solve_lq(hc.LQProblem(system, cost, x0))
    assert sol.solved
    assert sol.value == pytest.approx(2.149491119982309, rel=1e-12)
