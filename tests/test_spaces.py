import numpy as np
import pytest

import hscontrol as hc


def test_sequence_space_defaults():
    sp = hc.ell2()
    assert sp.dim == 64
    assert np.all(sp.weights == 1.0)


def test_euclidean_weights_are_unit():
    sp = hc.euclidean(5)
    assert sp.dim == 5
    assert np.all(sp.weights == 1.0)


def test_line_space_trapezoid_weights():
    sp = hc.l2_line(half_width=1.0, spacing=0.5)
    # grid -1, -0.5, 0, 0.5, 1; endpoints carry half a cell
    assert sp.dim == 5
    assert np.allclose(sp.weights, [0.25, 0.5, 0.5, 0.5, 0.25])
    assert np.allclose(sp.grid(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    # total weight is the interval length
    assert np.isclose(sp.weights.sum(), 2.0)


def test_line_grid_only_on_line_spaces():
    with pytest.raises(hc.DimensionError):
        hc.ell2(4).grid()


def test_interval_space_mode_index():
    sp = hc.l2_interval(length=1.0, modes=8)
    assert sp.dim == 8
    assert list(sp.mode_index()) == list(range(1, 9))
    with pytest.raises(hc.DimensionError):
        hc.euclidean(3).mode_index()


def test_inner_product_uses_weights():
    sp = hc.l2_line(half_width=1.0, spacing=0.5)
    x = hc.HVector(sp, np.ones(5))
    y = hc.HVector(sp, np.arange(5.0))
    assert np.isclose(hc.inner(x, y), float(np.dot(sp.weights, np.arange(5.0))))
    assert np.isclose(hc.norm(x), np.sqrt(2.0))


def test_vector_dimension_checked():
    sp = hc.euclidean(3)
    with pytest.raises(hc.DimensionError):
        hc.HVector(sp, np.ones(4))


def test_inner_requires_same_space():
    x = hc.HVector(hc.euclidean(3), np.ones(3))
    y = hc.HVector(hc.ell2(3), np.ones(3))
    with pytest.raises(hc.DimensionError):
        hc.inner(x, y)


def test_zero_vector():
    z = hc.zero_vector(hc.ell2(7))
    assert np.all(z.coords == 0.0)
    assert hc.norm(z) == 0.0


def test_space_equality_is_structural():
    assert hc.ell2(16) == hc.ell2(16)
    assert hc.ell2(16) != hc.euclidean(16)
    assert hc.l2_line(2.0, 0.5) == hc.l2_line(2.0, 0.5)


def test_space_equals_itself_without_comparing_weights(monkeypatch):
    s = hc.l2_line(2.0, 0.5)
    compared = []
    monkeypatch.setattr(np, "array_equal", lambda *args, **kwargs: compared.append(args))
    assert s == s
    assert not s != s
    assert compared == []


def test_geometric_start_vector_norm():
    # coordinates sqrt(1/2)^n have squared norm 2 in the limit
    dim = 64
    sp = hc.ell2(dim)
    x = hc.HVector(sp, np.sqrt(0.5) ** np.arange(dim))
    assert np.isclose(hc.norm(x) ** 2, 2.0 * (1.0 - 2.0 ** -dim))


def test_bad_space_parameters_rejected():
    with pytest.raises(hc.ResolutionError):
        hc.l2_line(half_width=1.0, spacing=0.0)
    with pytest.raises(hc.DimensionError):
        hc.euclidean(0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_rejected(bad):
    weights = np.ones(3)
    weights[1] = bad
    with pytest.raises(hc.DimensionError, match="weights"):
        hc.Space("euclidean", 3, weights)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_rejected(bad):
    with pytest.raises(hc.DimensionError, match="coords"):
        hc.HVector(hc.euclidean(3), np.array([0.0, bad, 1.0]))
