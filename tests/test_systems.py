import warnings

import numpy as np
import pytest

import hscontrol as hc
from hscontrol import systems
from hscontrol.operators import _checked_frame, _diagonal_entries
from helpers import random_two_input, record_matrix_builds


HS = hc.euclidean(3)
US = hc.euclidean(2)
ZS = hc.euclidean(4)


def test_operator_family_from_single_operator():
    fam = hc.OperatorFamily(hc.IdentityOperator(HS), 4, HS, HS, "A")
    assert fam.steps == 4
    for k in range(4):
        assert np.allclose(fam(k).matrix, np.eye(3))


def test_operator_family_step_bounds():
    fam = hc.OperatorFamily([hc.IdentityOperator(HS)] * 3, 3, HS, HS, "A")
    with pytest.raises(hc.DimensionError):
        fam(3)
    with pytest.raises(hc.DimensionError):
        fam(-1)


def test_operator_family_wrong_length():
    with pytest.raises(hc.DimensionError):
        hc.OperatorFamily([hc.IdentityOperator(HS)] * 2, 3, HS, HS, "A")


def test_operator_family_mixed_spaces_rejected():
    ops = [hc.IdentityOperator(HS), hc.IdentityOperator(hc.euclidean(4))]
    with pytest.raises(hc.DimensionError):
        hc.OperatorFamily(ops, 2, HS, HS, "A")


def test_controlled_system_steps():
    sys_ = hc.ControlledSystem(
        HS, US, 4,
        hc.IdentityOperator(HS), hc.ZeroOperator(US, HS),
        hc.ZeroOperator(HS), hc.ZeroOperator(US, HS),
    )
    assert sys_.steps == 5
    assert sys_.horizon == 4
    # systems compare and hash by identity, not by their fields
    twin = hc.ControlledSystem(HS, US, 4, sys_.a, sys_.b, sys_.c, sys_.d)
    assert sys_ == sys_ and sys_ != twin
    assert len({sys_, twin}) == 2


def test_cost_spec_rejects_nonselfadjoint_weights():
    sys_ = hc.ControlledSystem(
        HS, US, 1,
        hc.IdentityOperator(HS), hc.ZeroOperator(US, HS),
        hc.ZeroOperator(HS), hc.ZeroOperator(US, HS),
    )
    skew = hc.DenseOperator(np.array([[0.0, 1.0, 0.0],
                                      [-1.0, 0.0, 0.0],
                                      [0.0, 0.0, 1.0]]), HS)
    with pytest.raises(hc.NotSelfAdjointError):
        hc.CostSpec(sys_, skew, hc.ZeroOperator(HS, US),
                    hc.IdentityOperator(US), hc.IdentityOperator(HS))


def test_cost_spec_checks_every_distinct_weight():
    # distinct self-adjoint objects at steps 0 and 1 must not stop the
    # check before the non-self-adjoint weight at step 2
    sys_ = hc.ControlledSystem(
        HS, US, 2,
        hc.IdentityOperator(HS), hc.ZeroOperator(US, HS),
        hc.ZeroOperator(HS), hc.ZeroOperator(US, HS),
    )
    skew = hc.DenseOperator(np.array([[1.0, 1.0, 0.0],
                                      [-1.0, 1.0, 0.0],
                                      [0.0, 0.0, 1.0]]), HS)
    m = [hc.IdentityOperator(HS), hc.DenseOperator(np.eye(3), HS), skew]
    with pytest.raises(hc.NotSelfAdjointError, match=r"^M\(2\):"):
        hc.CostSpec(sys_, m, hc.ZeroOperator(HS, US),
                    hc.IdentityOperator(US), hc.IdentityOperator(HS))
    # one shared operator is still checked, and named at its first step
    with pytest.raises(hc.NotSelfAdjointError, match=r"^M\(0\):"):
        hc.CostSpec(sys_, skew, hc.ZeroOperator(HS, US),
                    hc.IdentityOperator(US), hc.IdentityOperator(HS))


def test_weights_selfadjoint_by_construction_skip_the_check(monkeypatch):
    # each exempt type, on a weighted space, still passes the check it skips
    rng = np.random.default_rng(3)
    w = np.exp(rng.uniform(np.log(0.25), np.log(4.0), 3))
    hs = hc.Space(hc.spaces.KIND_EUCLIDEAN, 3, w)
    rod = hc.Space(hc.spaces.KIND_L2_INTERVAL, 3, w, length=1.0)
    diag = hc.DiagonalOperator(rng.standard_normal(3), hs)
    heat = hc.HeatSemigroupOperator(rod, 0.3, 0.1)
    exempt = [
        hc.IdentityOperator(hs), diag, heat, hc.ZeroOperator(hs),
        hc.ScaledOperator(-2.0, diag), hc.ScaledOperator(0.5, hc.ScaledOperator(3.0, heat)),
        hc.ScaledOperator(2.0, hc.ZeroOperator(rod)),
    ]
    for op in exempt:
        assert _diagonal_entries(op) is not None
        _checked_frame(op, systems.SELFADJOINT_TOL, "M(0): ")
    for op in (hc.ZeroOperator(hs, hc.euclidean(3)), hc.DenseOperator(np.eye(3), hs),
               hc.ScaledOperator(1.0, hc.DenseOperator(np.eye(3), hs))):
        assert _diagonal_entries(op) is None
    # deciding it builds no matrix: no variant's _build_matrix runs
    us = hc.Space(hc.spaces.KIND_EUCLIDEAN, 2, w[:2])
    sys_ = hc.ControlledSystem(hs, us, 1, hc.IdentityOperator(hs), hc.ZeroOperator(us, hs),
                               hc.ZeroOperator(hs), hc.ZeroOperator(us, hs))
    built = record_matrix_builds(monkeypatch)
    m = hc.ScaledOperator(2.0, hc.DiagonalOperator(rng.standard_normal(3), hs))
    hc.CostSpec(sys_, m, hc.ZeroOperator(hs, us), hc.IdentityOperator(us), hc.ZeroOperator(hs))
    assert built == []
    m.matrix  # and a build is counted
    assert built[:1] == [m]


def test_scaled_nonselfadjoint_weight_still_refused():
    sys_ = hc.ControlledSystem(
        HS, US, 1,
        hc.IdentityOperator(HS), hc.ZeroOperator(US, HS),
        hc.ZeroOperator(HS), hc.ZeroOperator(US, HS),
    )
    skew = hc.DenseOperator(np.array([[1.0, 1.0, 0.0],
                                      [-1.0, 1.0, 0.0],
                                      [0.0, 0.0, 1.0]]), HS)
    m = [hc.IdentityOperator(HS), hc.ScaledOperator(2.0, hc.ScaledOperator(0.5, skew))]
    with pytest.raises(hc.NotSelfAdjointError, match=r"^M\(1\):"):
        hc.CostSpec(sys_, m, hc.ZeroOperator(HS, US),
                    hc.IdentityOperator(US), hc.IdentityOperator(HS))


def test_disturbed_system_rejects_nonorthogonal_feedthrough():
    rng = np.random.default_rng(0)
    a = hc.IdentityOperator(HS)
    b1 = hc.ZeroOperator(US, HS)
    cbar = hc.DenseOperator(rng.standard_normal((ZS.dim, HS.dim)), HS, ZS)
    dbar = hc.DenseOperator(rng.standard_normal((ZS.dim, US.dim)), US, ZS)
    with pytest.raises(hc.AssumptionError) as exc_info:
        hc.DisturbedSystem(HS, US, ZS, 1, a, b1, hc.ZeroOperator(HS), b1, cbar, dbar)
    assert str(exc_info.value) == "Dbar(0)* Cbar(0): cross term has norm 3.762e-01, expected zero"


def test_closed_loop_with_zero_dbar_runs_no_svd(monkeypatch):
    # the cross term of a ZeroOperator Dbar has Frobenius norm 0, which
    # settles the orthogonality check without the exact operator norms
    rng = np.random.default_rng(9)
    sys2 = random_two_input(rng, weighted=True)
    hs, us = sys2.state_space, sys2.control_space
    gains = [hc.DenseOperator(rng.standard_normal((us.dim, hs.dim)), hs, us)
             for _ in range(sys2.steps)]

    def no_svd(*args, **kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    internal = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # norm's own reference
    monkeypatch.setattr(internal, "svd", no_svd)
    with pytest.raises(AssertionError, match="svd called"):
        np.linalg.norm(np.eye(2), 2)
    dsys = hc.closed_loop(sys2, gains)
    assert all(isinstance(op, hc.ZeroOperator) for op in dsys.dbar)


def test_disturbed_system_checks_every_distinct_output_pair(monkeypatch):
    # distinct good pairs at steps 0 and 1 must not stop the check before the
    # bad pair at step 2, and a pair shared by every step is checked once
    rng = np.random.default_rng(5)
    a, b1, c = hc.IdentityOperator(HS), hc.ZeroOperator(US, HS), hc.ZeroOperator(HS)
    dbar = hc.DenseOperator(np.eye(ZS.dim, US.dim), US, ZS)  # output coordinates 0 and 1
    good = np.vstack([np.zeros((2, HS.dim)), rng.standard_normal((2, HS.dim))])
    cbar = [hc.DenseOperator(good, HS, ZS), hc.DenseOperator(good.copy(), HS, ZS),
            hc.DenseOperator(rng.standard_normal((ZS.dim, HS.dim)), HS, ZS)]
    with pytest.raises(hc.AssumptionError, match=r"^Dbar\(2\)\* Cbar\(2\):"):
        hc.DisturbedSystem(HS, US, ZS, 2, a, b1, c, b1, cbar, dbar)
    calls = []
    original = systems._check_orthogonality
    monkeypatch.setattr(systems, "_check_orthogonality",
                        lambda *args: calls.append(args[2]) or original(*args))
    hc.DisturbedSystem(HS, US, ZS, 5, a, b1, c, b1, cbar[0], dbar)
    hc.DisturbedSystem(HS, US, ZS, 2, a, b1, c, b1, cbar[:2] + [cbar[0]], dbar)
    assert calls == ["Dbar(0)* Cbar(0)", "Dbar(0)* Cbar(0)", "Dbar(1)* Cbar(1)"]


def test_two_input_system_requires_isometric_control_column():
    rng = np.random.default_rng(1)
    sys2 = random_two_input(rng)
    # doubling the control column breaks Gbar* Gbar = I
    bad_g = hc.DenseOperator(2.0 * sys2.gbar(0).matrix,
                             sys2.control_space, sys2.output_space)
    with pytest.raises(hc.AssumptionError):
        hc.TwoInputSystem(
            sys2.state_space, sys2.disturbance_space, sys2.control_space,
            sys2.output_space, sys2.horizon,
            [sys2.a(k) for k in range(sys2.steps)],
            [sys2.b1(k) for k in range(sys2.steps)],
            [sys2.b2(k) for k in range(sys2.steps)],
            [sys2.c(k) for k in range(sys2.steps)],
            [sys2.d1(k) for k in range(sys2.steps)],
            [sys2.d2(k) for k in range(sys2.steps)],
            [sys2.cbar(k) for k in range(sys2.steps)],
            bad_g,
        )


def test_two_input_system_requires_orthogonal_output_blocks():
    rng = np.random.default_rng(4)
    sys2 = random_two_input(rng)
    # orthonormal columns that overlap the Cbar rows break Gbar* Cbar = 0
    gm = np.zeros_like(sys2.gbar(0).matrix)
    for j in range(sys2.control_space.dim):
        gm[j, j] = 1.0
    bad_g = hc.DenseOperator(gm, sys2.control_space, sys2.output_space)
    with pytest.raises(hc.AssumptionError):
        hc.TwoInputSystem(
            sys2.state_space, sys2.disturbance_space, sys2.control_space,
            sys2.output_space, sys2.horizon,
            [sys2.a(k) for k in range(sys2.steps)],
            [sys2.b1(k) for k in range(sys2.steps)],
            [sys2.b2(k) for k in range(sys2.steps)],
            [sys2.c(k) for k in range(sys2.steps)],
            [sys2.d1(k) for k in range(sys2.steps)],
            [sys2.d2(k) for k in range(sys2.steps)],
            [sys2.cbar(k) for k in range(sys2.steps)],
            bad_g,
        )


def test_closed_loop_absorbs_control():
    rng = np.random.default_rng(2)
    sys2 = random_two_input(rng)
    gains = [hc.DenseOperator(0.1 * rng.standard_normal(
        (sys2.control_space.dim, sys2.state_space.dim)),
        sys2.state_space, sys2.control_space) for _ in range(sys2.steps)]
    closed = hc.closed_loop(sys2, gains)
    assert isinstance(closed, hc.DisturbedSystem)
    assert closed.steps == sys2.steps
    for k in range(sys2.steps):
        expect_a = sys2.a(k).matrix + sys2.b2(k).matrix @ gains[k].matrix
        assert np.allclose(closed.a(k).matrix, expect_a)
        expect_cbar = sys2.cbar(k).matrix + sys2.gbar(k).matrix @ gains[k].matrix
        assert np.allclose(closed.cbar(k).matrix, expect_cbar)
        assert np.allclose(closed.dbar(k).matrix, 0.0)


def test_closed_loop_refuses_gains_of_the_wrong_count_or_space():
    sys2 = random_two_input(np.random.default_rng(2))
    hs, us = sys2.state_space, sys2.control_space
    gains = [hc.ZeroOperator(hs, us)] * sys2.steps
    with pytest.raises(hc.DimensionError, match="one control gain per step"):
        hc.closed_loop(sys2, gains[1:])
    off = hc.ZeroOperator(hc.euclidean(hs.dim + 1), us)
    with pytest.raises(hc.DimensionError, match="gain at step 1 does not map"):
        hc.closed_loop(sys2, [gains[0], off] + gains[2:])


def test_cost_spec_refuses_a_terminal_weight_off_the_state_space():
    sys_ = hc.ControlledSystem(
        HS, US, 1,
        hc.IdentityOperator(HS), hc.ZeroOperator(US, HS),
        hc.ZeroOperator(HS), hc.ZeroOperator(US, HS),
    )
    with pytest.raises(hc.DimensionError, match="terminal weight"):
        hc.CostSpec(sys_, hc.IdentityOperator(HS), hc.ZeroOperator(HS, US),
                    hc.IdentityOperator(US), hc.IdentityOperator(ZS))


def test_disturbed_as_controlled_round_trip():
    rng = np.random.default_rng(3)
    sys2 = random_two_input(rng)
    zero = [hc.ZeroOperator(sys2.state_space, sys2.control_space)
            for _ in range(sys2.steps)]
    dsys = hc.closed_loop(sys2, zero)
    ctrl = dsys.as_controlled()
    assert ctrl.control_space == dsys.disturbance_space
    for k in range(dsys.steps):
        assert np.allclose(ctrl.a(k).matrix, dsys.a(k).matrix)
        assert np.allclose(ctrl.b(k).matrix, dsys.b1(k).matrix)


@pytest.mark.parametrize("off", [1e160, 1e200])
def test_a_weight_whose_residual_overflows_is_refused(off):
    # |S - S^T|_F and |S|_F overflow together, and their quotient is NaN
    sys_ = hc.ControlledSystem(HS, US, 1, hc.IdentityOperator(HS), hc.ZeroOperator(US, HS),
                               hc.ZeroOperator(HS), hc.ZeroOperator(US, HS))
    r = hc.DenseOperator(np.array([[1.0, off], [0.0, 1.0]]), US)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(hc.NotSelfAdjointError, match=r"^R\(0\): symmetrization residual"):
            hc.CostSpec(sys_, hc.IdentityOperator(HS), hc.ZeroOperator(HS, US), r,
                        hc.IdentityOperator(HS))
        with pytest.raises(hc.NotSelfAdjointError):
            hc.min_eig_selfadjoint(r)
        # an exactly symmetric weight of the same size has residual 0
        big = hc.DenseOperator(np.array([[1.0, off], [off, 1.0]]), US)
        hc.CostSpec(sys_, hc.IdentityOperator(HS), hc.ZeroOperator(HS, US), big,
                    hc.IdentityOperator(HS))
