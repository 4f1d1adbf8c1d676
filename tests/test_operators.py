import tracemalloc

import numpy as np
import pytest

import hscontrol as hc
from hscontrol import examples
from helpers import assert_same_bits, frame_certified_inverse


def pairing_residual(op, rng, trials=5):
    """max |<M x, y>_cod - <x, M* y>_dom| over random vectors."""
    adj = op.adjoint()
    worst = 0.0
    for _ in range(trials):
        x = hc.HVector(op.domain, rng.standard_normal(op.domain.dim))
        y = hc.HVector(op.codomain, rng.standard_normal(op.codomain.dim))
        lhs = hc.inner(op.apply(x), y)
        rhs = hc.inner(x, adj.apply(y))
        worst = max(worst, abs(lhs - rhs))
    return worst


LINE = hc.l2_line(2.0, 0.25)
SEQ = hc.ell2(9)
SEQ_BIG = hc.ell2(10)
EUC = hc.euclidean(4)
MODES = hc.l2_interval(1.0, 6)


def operator_zoo(rng):
    return [
        hc.ZeroOperator(LINE, EUC),
        hc.IdentityOperator(SEQ),
        hc.ScaledOperator(-2.5, hc.IdentityOperator(LINE)),
        hc.DenseOperator(rng.standard_normal((EUC.dim, LINE.dim)), LINE, EUC),
        hc.DiagonalOperator(rng.standard_normal(LINE.dim), LINE),
        hc.FillingOperator(EUC, SEQ),
        hc.FillingOperator(EUC, SEQ, count=2),
        hc.RightShiftOperator(SEQ),
        hc.RightShiftOperator(SEQ, SEQ_BIG),
        hc.GaussianConvolutionOperator(LINE, kernel_width=0.7),
        hc.HeatSemigroupOperator(MODES, alpha=0.1, tau=0.3),
    ]


def product_zoo():
    rng = np.random.default_rng(7)
    a = hc.DenseOperator(rng.standard_normal((LINE.dim, LINE.dim)), LINE)
    b = hc.DiagonalOperator(rng.standard_normal(LINE.dim), LINE)
    return operator_zoo(rng) + [
        hc.FillingOperator(SEQ_BIG, SEQ, count=3),
        hc.ScaledOperator(0.5, hc.RightShiftOperator(SEQ, SEQ_BIG)),
        hc.ScaledOperator(-1.5, hc.DiagonalOperator(rng.standard_normal(SEQ.dim), SEQ)),
        hc.ZeroOperator(EUC, SEQ),
        a + b,
        a @ b,
        hc.AdjointOperator(a),
    ]


@pytest.mark.parametrize("op", product_zoo(), ids=repr)
def test_native_right_product_matches_matrix(op):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, op.codomain.dim))
    want = x @ op.matrix
    got = op.rmatmul(x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + np.max(np.abs(want)))
    g = rng.standard_normal((op.codomain.dim, op.codomain.dim))
    want = op.matrix.T @ g @ op.matrix
    got = hc.operators.congruence(op, g, op)
    assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("op", product_zoo(), ids=repr)
def test_row_product_is_the_matrix_product(op):
    # x @ M^T with its bits, except that a scaled multiplier rounds its
    # factor in after the entries
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, op.domain.dim))
    want = x @ op.matrix.T
    got = op.apply_rows(x)
    if _scales_a_product(op):
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    else:
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("op", product_zoo(), ids=repr)
def test_monomial_columns_are_the_matrix(op):
    columns = hc.operators._monomial_columns(op)
    assert (columns is None) == (not isinstance(op, STRUCTURED))
    if columns is not None:
        rows, values = columns
        rebuilt = np.zeros((op.codomain.dim, op.domain.dim))
        nonzero = values != 0.0
        rebuilt[rows[nonzero], np.flatnonzero(nonzero)] = values[nonzero]
        assert np.array_equal(rebuilt, op.matrix)
        assert _bits(values) == _bits(op.matrix[rows, np.arange(op.domain.dim)])


def _scales_a_product(op):
    return isinstance(op, hc.ScaledOperator) and isinstance(
        op.inner_op, (hc.DiagonalOperator, hc.HeatSemigroupOperator, hc.DenseOperator))


@pytest.mark.parametrize("op", product_zoo(), ids=repr)
def test_congruence_is_the_two_right_products(op):
    # congruence(op, g, op) is op.sandwich, native for structured variants:
    # the same bits as the two right products, except that a scaled
    # multiplier rounds its factor in after both sides
    rng = np.random.default_rng(10)
    g = rng.standard_normal((op.codomain.dim, op.codomain.dim))
    for g in (g, g + g.T):
        want = op.rmatmul(op.rmatmul(g.T).T)
        got = hc.operators.congruence(op, g, op)
        assert got.shape == want.shape
        if _scales_a_product(op):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        else:
            assert _bits(got) == _bits(want)


STRUCTURED = (hc.ZeroOperator, hc.IdentityOperator, hc.ScaledOperator, hc.DiagonalOperator,
              hc.RightShiftOperator, hc.FillingOperator)


@pytest.mark.parametrize("op", product_zoo(), ids=repr)
def test_matrix_kept_only_where_it_is_data_or_costly(op):
    # structured variants build their matrix afresh on each request; dense
    # operators keep their array, composites and kernels what they built
    first, second = op.matrix, op.matrix
    if isinstance(op, STRUCTURED):
        assert first is not second
        assert _bits(first) == _bits(second)
    else:
        assert first is second


def _scaled_heat(case, c):
    problem = examples.build_heat_problem(case, 256)
    cost, steps = problem.cost, problem.system.steps
    scaled = hc.CostSpec(
        problem.system,
        [hc.ScaledOperator(c, cost.m(k)) for k in range(steps)],
        [hc.ScaledOperator(c, cost.l(k)) for k in range(steps)],
        [hc.ScaledOperator(c, cost.r(k)) for k in range(steps)],
        hc.ScaledOperator(c, cost.terminal),
    )
    return hc.LQProblem(problem.system, scaled, problem.x0)


def _retained_bytes(inputs, study):
    """Bytes still allocated after ``study(inputs)`` returns and its result is dropped."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        study(inputs)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_solves_leave_no_matrix_on_structured_inputs():
    # a solve used to leave each structured weight's n x n matrix cached on
    # the caller's operator: 47 MB on these heat problems, 1.6 MB on the network
    problems = [_scaled_heat(case, c) for case in (1, 2, 3) for c in (0.5, 1.0, 2.0)]

    def heat(problems):
        for problem in problems:
            sol = hc.solve_lq(problem)
            hc.completing_square_check(problem, sol, hc.optimal_policy(problem, sol))

    assert _retained_bytes(problems, heat) < 1 << 20
    network = examples.build_shift_network(256)
    assert _retained_bytes(network, hc.hinf_norm) < 1 << 20


def test_adjoint_pairing_all_variants():
    rng = np.random.default_rng(0)
    for op in product_zoo():
        assert pairing_residual(op, rng) < 1e-10, repr(op)


def test_apply_and_adjoint_are_derived_from_the_matrix():
    # a variant defines its matrix (and maybe native right, row and two-sided
    # products X M, X M^T and M^T G M) only; Operator and AdjointOperator
    # hold the one apply and the one adjoint
    for cls in vars(hc.operators).values():
        if (isinstance(cls, type) and issubclass(cls, hc.Operator)
                and cls not in (hc.Operator, hc.AdjointOperator)):
            assert not {"apply_array", "adjoint"} & set(vars(cls)), cls.__name__
    assert not hasattr(hc.Operator, "scaled")


def test_adjoint_pairing_composites():
    rng = np.random.default_rng(1)
    a = hc.DenseOperator(rng.standard_normal((LINE.dim, LINE.dim)), LINE)
    b = hc.DiagonalOperator(rng.standard_normal(LINE.dim), LINE)
    for op in [a + b, a @ b, hc.ScaledOperator(3.0, a), hc.AdjointOperator(a)]:
        assert pairing_residual(op, rng) < 1e-9, type(op).__name__


def test_double_adjoint_returns_original_matrix():
    rng = np.random.default_rng(2)
    op = hc.DenseOperator(rng.standard_normal((EUC.dim, LINE.dim)), LINE, EUC)
    back = op.adjoint().adjoint()
    assert np.allclose(back.matrix, op.matrix)


def test_square_shift_drops_last_coordinate():
    op = hc.RightShiftOperator(SEQ)
    x = hc.HVector(SEQ, np.arange(1.0, 10.0))
    y = op.apply(x)
    assert np.allclose(y.coords, [0, 1, 2, 3, 4, 5, 6, 7, 8])


def test_rectangular_shift_is_exact_isometry():
    op = hc.RightShiftOperator(SEQ, SEQ_BIG)
    gram = op.adjoint().matrix @ op.matrix
    assert np.allclose(gram, np.eye(SEQ.dim))
    rng = np.random.default_rng(3)
    x = hc.HVector(SEQ, rng.standard_normal(SEQ.dim))
    assert np.isclose(hc.norm(op.apply(x)), hc.norm(x))


def test_shift_codomain_must_not_shrink():
    with pytest.raises(hc.DimensionError):
        hc.RightShiftOperator(SEQ_BIG, SEQ)


def test_filling_embeds_leading_coordinates():
    op = hc.FillingOperator(EUC, SEQ, count=2)
    x = hc.HVector(EUC, np.array([1.0, 2.0, 3.0, 4.0]))
    y = op.apply(x)
    assert np.allclose(y.coords[:2], [1.0, 2.0])
    assert np.all(y.coords[2:] == 0.0)
    assert op.count == 2


def test_gaussian_convolution_selfadjoint_and_smoothing():
    op = hc.GaussianConvolutionOperator(LINE, kernel_width=1.0)
    assert pairing_residual(op, np.random.default_rng(4)) < 1e-10
    wm = LINE.weights[:, None] * op.matrix
    assert np.allclose(wm, wm.T)
    # unit mass kernel preserves the integral of a bump away from the edges
    wide = hc.l2_line(6.0, 0.25)
    op_wide = hc.GaussianConvolutionOperator(wide, kernel_width=1.0)
    x = np.exp(-wide.grid() ** 2)
    out = op_wide.matrix @ x
    assert np.isclose(np.dot(wide.weights, out), np.dot(wide.weights, x), rtol=1e-3)


def test_heat_semigroup_composition():
    a = hc.HeatSemigroupOperator(MODES, alpha=0.1, tau=0.2)
    b = hc.HeatSemigroupOperator(MODES, alpha=0.1, tau=0.5)
    c = hc.HeatSemigroupOperator(MODES, alpha=0.1, tau=0.7)
    assert np.allclose((a @ b).matrix, c.matrix)


def test_heat_semigroup_decay_rates():
    op = hc.HeatSemigroupOperator(MODES, alpha=0.1, tau=1.0)
    n = MODES.mode_index()
    assert np.allclose(np.diag(op.matrix), np.exp(-0.1 * (n * np.pi) ** 2))


def test_opnorm_matches_reference():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((LINE.dim, LINE.dim))
    op = hc.DenseOperator(m, LINE)
    s = np.sqrt(LINE.weights)
    ref = np.linalg.norm((s[:, None] * m) / s[None, :], 2)
    assert np.isclose(hc.opnorm(op), ref)


def test_opnorm_identity_and_scaled():
    assert np.isclose(hc.opnorm(hc.IdentityOperator(LINE)), 1.0)
    assert np.isclose(hc.opnorm(hc.ScaledOperator(-3.0, hc.IdentityOperator(SEQ))), 3.0)


def test_min_eig_selfadjoint():
    rng = np.random.default_rng(6)
    g = rng.standard_normal((LINE.dim, LINE.dim))
    sym = 0.5 * (g + g.T)
    # W M must be symmetric for M to be self-adjoint under weights W
    op = hc.DenseOperator(sym / LINE.weights[:, None], LINE)
    cert = hc.min_eig_selfadjoint(op)
    assert np.isfinite(cert.min_eig)
    assert cert.min_eig <= cert.max_eig
    assert cert.sym_residual < 1e-12
    shifted = hc.DenseOperator(op.matrix + 10.0 * np.eye(LINE.dim), LINE)
    assert np.isclose(hc.min_eig_selfadjoint(shifted).min_eig, cert.min_eig + 10.0,
                      atol=1e-8)


def test_min_eig_near_the_top_of_the_range_halves_before_it_adds():
    # s + s^T overflowed for entries near 1e308 and left a NaN certificate;
    # the halves add to a finite frame, with no numpy warning (an error here)
    op = hc.DenseOperator(np.diag([1e308, 1e308]), hc.euclidean(2))
    cert = hc.min_eig_selfadjoint(op)
    assert cert.min_eig == cert.max_eig == 1e308
    assert np.array_equal(hc.weighted_symmetrize(op.matrix, np.ones(2)), op.matrix)


def test_min_eig_rejects_nonselfadjoint():
    rng = np.random.default_rng(7)
    op = hc.DenseOperator(rng.standard_normal((4, 4)), EUC)
    with pytest.raises(hc.NotSelfAdjointError):
        hc.min_eig_selfadjoint(op)


def test_certified_inverse_indefinite():
    # no sign is required; only the condition cap refuses an inverse
    entries = np.array([2.0, -3.0, 1.0, -1.0])
    cert, inv = hc.operators.certified_inverse(np.diag(entries), EUC.weights)
    assert cert.min_eig == -3.0 and cert.max_eig == 2.0
    assert np.allclose(inv @ np.diag(entries), np.eye(4))
    cert, inv = hc.operators.certified_inverse(np.diag([1.0, 0.0, 1.0, 1.0]), EUC.weights)
    assert inv is None and cert.cond == np.inf


def test_certified_inverse_of_a_gram_form_matches_the_frame_reference():
    # exactly symmetric Gram forms, indefinite and ill-conditioned ones
    # included: on unit weights the bits of the frame reference, on others
    # that reference applied to the coordinates gram / w, to 1e-13 relative
    rng = np.random.default_rng(8)
    inputs, weighted = [], []
    for dim in (1, 3, 8):
        a = rng.standard_normal((dim, dim))
        inputs.append(0.5 * (a + a.T))  # indefinite
        weighted.append((inputs[-1], rng.uniform(0.1, 10.0, dim)))
        v = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        ill = (v * np.geomspace(1.0, 1e-14, dim)) @ v.T  # cond > KAPPA_MAX beyond dim 1
        inputs.append(0.5 * (ill + ill.T))
        top = np.full((dim, dim), 8.9e307)
        inputs.append(0.5 * (top + top.T))  # the largest a symmetrized term holds
    inputs += [np.diag([1.0, 0.0, -0.0]), np.zeros((2, 2))]
    weighted.append((np.diag([2.0, -3.0, 0.5]) + 0.1, LINE.weights[:3]))
    conds = []
    with np.errstate(over="ignore"):  # the reference's norms overflow at 8.9e307
        for m in inputs:
            w = np.ones(m.shape[0])
            got, want = hc.operators.certified_inverse(m, w), frame_certified_inverse(m, w)
            assert_same_bits(got, want)
            conds.append(want[0].cond)
    assert any(c > hc.operators.KAPPA_MAX for c in conds)
    for gram, w in weighted:
        (cert, inv), (ref, ref_inv) = (
            hc.operators.certified_inverse(gram, np.sqrt(w)),
            frame_certified_inverse(gram / w[:, None], w),
        )
        assert cert.sym_residual == 0.0
        for got, want in ((cert.min_eig, ref.min_eig), (cert.max_eig, ref.max_eig),
                          (cert.cond, ref.cond)):
            assert abs(got - want) <= 1e-13 * abs(want)
        assert np.max(np.abs(inv - ref_inv)) <= 1e-13 * np.max(np.abs(ref_inv))
    # 2^1023 is not re-symmetrized (2^1023 + 2^1023 overflows), so its
    # certificate stays finite
    cert, inv = hc.operators.certified_inverse(np.diag([2.0**1023, 1.0]), np.ones(2))
    assert cert.max_eig == 2.0**1023 and cert.min_eig == 1.0 and cert.sym_residual == 0.0
    assert cert.cond > hc.operators.KAPPA_MAX and inv is None
    # 1e300 on a weight of 1e-10 is 1e310 in the orthonormal frame
    with np.errstate(over="ignore"), pytest.raises(hc.ResolutionError,
                                                   match="^weight at step 2 is not finite"):
        hc.operators.certified_inverse(np.array([[1e300]]), np.array([1e-5]), "weight at step 2")


def test_positivity_tolerance_scales_with_norm():
    assert hc.positivity_tolerance(0.0) == pytest.approx(1e-9)
    assert hc.positivity_tolerance(1000.0) == pytest.approx(1e-9 * 1001.0)


def test_weighted_symmetrize_is_selfadjoint():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((LINE.dim, LINE.dim))
    sym = hc.weighted_symmetrize(m, LINE.weights)
    op = hc.DenseOperator(sym, LINE)
    assert pairing_residual(op, rng) < 1e-10
    assert np.allclose(op.adjoint().matrix, sym)
    # idempotent on already self-adjoint input
    assert np.allclose(hc.weighted_symmetrize(sym, LINE.weights), sym)


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(11)
    with pytest.raises(hc.DimensionError):
        hc.DenseOperator(rng.standard_normal((3, 3)), EUC)
    a = hc.IdentityOperator(EUC)
    b = hc.IdentityOperator(SEQ)
    with pytest.raises(hc.DimensionError):
        a @ b
    with pytest.raises(hc.DimensionError):
        a + b


def test_apply_checks_domain():
    op = hc.IdentityOperator(EUC)
    with pytest.raises(hc.DimensionError):
        op.apply(hc.HVector(SEQ, np.zeros(SEQ.dim)))
