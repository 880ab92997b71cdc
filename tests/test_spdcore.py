"""Symmetric positive definite wrappers, weighted configurations, ordering."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mvfrac import (
    DegenerateInputError,
    DimensionError,
    RectConfig,
    SpdMatrix,
    log_matrix_gamma,
    ordering_lt,
    rect_transform,
    stiefel_constant,
)
from mvfrac.errors import ParameterDomainError
from mvfrac.spdcore import _batch_det, check_full_rank, check_spd, matrix_from_rows


def _random_spd(rng, p, shift=1.0):
    a = rng.standard_normal((p, p))
    m = a @ a.T + shift * np.eye(p)
    return SpdMatrix(0.5 * (m + m.T))


def test_constructor_rejects_asymmetry():
    with pytest.raises(DegenerateInputError):
        SpdMatrix(np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_constructor_rejects_indefinite():
    with pytest.raises(DegenerateInputError):
        SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1


def test_constructor_rejects_non_square():
    with pytest.raises(DimensionError):
        SpdMatrix(np.ones((2, 3)))


def test_eigenvalues_match_numpy():
    rng = np.random.default_rng(1)
    for p in (1, 2, 3, 5):
        m = _random_spd(rng, p)
        assert_allclose(np.sort(m.eigenvalues), np.sort(np.linalg.eigvalsh(m.entries)),
                        rtol=1e-10)


def test_eigenvalues_sorted_descending():
    m = SpdMatrix.diagonal((0.3, 2.0, 1.1))
    assert m.eigenvalues[0] == pytest.approx(2.0)
    assert m.eigenvalues[-1] == pytest.approx(0.3)


def test_small_eigenvalue_is_not_cancelled():
    # half the trace minus the discriminant gave 1.0000000827e-10 here
    m = SpdMatrix.diagonal((1.0, 1e-10))
    assert m.eigenvalues[1] == pytest.approx(1e-10, rel=1e-15)
    assert m.log_det == pytest.approx(math.log(1e-10), rel=1e-15)


def test_stack_check_applies_the_constructor_rules():
    rng = np.random.default_rng(3)
    good = np.stack([_random_spd(rng, 3).entries for _ in range(3)])
    eig = check_spd(good)
    for m, e in zip(good, eig):
        assert np.array_equal(e, SpdMatrix(m).eigenvalues)
    # the 1e-12 relative definiteness tolerance, from either side
    check_spd(np.stack([good[0], np.diag([1.0, 1.0, 2e-12])]))
    asym = np.eye(3)
    asym[0, 1] = 1e-3
    for bad, message in ((np.diag([1.0, 1.0, 5e-13]), r"5e-13\]"),
                         (np.diag([1.0, np.nan, 1.0]), "finite"),
                         (asym, "symmetric")):
        with pytest.raises(DegenerateInputError, match=message):
            check_spd(np.stack([good[0], bad, good[1]]))
        with pytest.raises(DegenerateInputError, match=message):
            SpdMatrix(bad)


def test_stack_rank_check_applies_the_constructor_rule():
    x = np.zeros((2, 2, 3))
    x[:, 0, 0] = 1.0
    x[0, 1, 1] = 2e-10
    x[1, 1, 2] = 5e-11
    check_full_rank(x[:1])
    with pytest.raises(DegenerateInputError, match=r"5e-11\]"):
        check_full_rank(x)
    with pytest.raises(DegenerateInputError, match="rank deficient"):
        check_full_rank(x[1:])
    with pytest.raises(DegenerateInputError, match="finite"):
        check_full_rank(np.where(x == 1.0, np.inf, x))


def test_det_trace_logdet():
    m = SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))  # eigenvalues 3, 1
    assert m.trace == pytest.approx(4.0)
    assert m.log_det == pytest.approx(math.log(3.0), rel=1e-12)


def test_matrix_power_square_is_product():
    rng = np.random.default_rng(2)
    m = _random_spd(rng, 3)
    sq = m.matrix_power(2.0)
    assert isinstance(sq, np.ndarray)
    assert_allclose(sq, m.entries @ m.entries, rtol=1e-10)


def test_matrix_power_inverse():
    rng = np.random.default_rng(3)
    m = _random_spd(rng, 3)
    assert_allclose(m.matrix_power(-1.0) @ m.entries, np.eye(3),
                    atol=1e-10)


def test_spd_sqrt_squares_back():
    rng = np.random.default_rng(4)
    m = _random_spd(rng, 4)
    r = m.matrix_power(0.5)
    assert_allclose(r @ r, m.entries, rtol=1e-10, atol=1e-12)


def test_identity_and_diagonal():
    assert_allclose(SpdMatrix.identity(3).entries, np.eye(3))
    d = SpdMatrix.diagonal((1.0, 4.0))
    assert d.log_det == pytest.approx(math.log(4.0))
    with pytest.raises(DegenerateInputError):
        SpdMatrix.diagonal((1.0, 0.0))


# ---------------------------------------------------------------------------
# rectangular matrices and weighted configurations

def test_rect_matrix_shape_rule():
    # p x r with r >= p
    check_full_rank((np.ones((2, 3)) + np.eye(2, 3))[None])
    with pytest.raises(DimensionError, match="columns"):
        check_full_rank(np.eye(3, 2)[None])


@pytest.mark.parametrize("check,shape", [
    (check_full_rank, (1, 2, 0)),
    (check_full_rank, (1, 0, 0)),
    (check_full_rank, (3, 0, 2)),
    (check_spd, (3, 0, 0)),
])
def test_zero_sized_matrices_are_dimension_errors(check, shape):
    # an empty singular-value or eigenvalue axis used to raise IndexError
    with pytest.raises(DimensionError, match="non-empty"):
        check(np.ones(shape))


def test_rect_matrix_rank():
    with pytest.raises(DegenerateInputError):
        check_full_rank(np.array([[[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]]))


def test_rect_transform_oracle():
    # A^{1/2} X B X' A^{1/2}, checked against the raw product
    rng = np.random.default_rng(5)
    a = _random_spd(rng, 2)
    b = _random_spd(rng, 3)
    cfg = RectConfig(2, 3, a, b)
    x = rng.standard_normal((2, 3))
    ra = a.matrix_power(0.5)
    direct = ra @ x @ b.entries @ x.T @ ra
    assert_allclose(rect_transform(x[None], cfg)[0],
                    0.5 * (direct + direct.T), rtol=1e-10)


def _rect_transform_oracle(X, cfg):
    # the transform as an einsum over (n, p, r) stacks, whose bytes the
    # pinned sum-density outputs were computed from
    ax = cfg._roots[0] @ X
    z = np.einsum("nik,njk->nij", ax @ cfg.B.entries, ax)
    z += z.transpose(0, 2, 1)
    z *= 0.5
    return z


def _assert_same_bytes(x, cfg):
    got, want = rect_transform(x, cfg), _rect_transform_oracle(x, cfg)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    return got, want


@pytest.mark.parametrize("p", range(1, 9))
def test_rect_transform_matches_oracle_bytes(p):
    # identity weights, the sum-density suite's, at square, near-square and
    # wide shapes; the transposed view is a stack BLAS cannot take as it is
    rng = np.random.default_rng(100 + p)
    for r in sorted({p, p + 1, p + 3, 17, 20}):
        cfg = RectConfig.with_identity_weights(p, r)
        x = rng.standard_normal((700, p, r))
        _assert_same_bytes(x, cfg)
        _assert_same_bytes(np.ascontiguousarray(x.transpose(0, 2, 1))
                           .transpose(0, 2, 1), cfg)


@pytest.mark.parametrize("p,r", [(1, 4), (3, 17)])
def test_rect_transform_weighted_matches_oracle_bytes(p, r):
    # shapes where one GEMM over a block of rows would round the weight
    # product B differently from one call per matrix
    rng = np.random.default_rng(10 * p + r)
    cfg = RectConfig(p, r, _random_spd(rng, p), _random_spd(rng, r))
    _assert_same_bytes(rng.standard_normal((700, p, r)), cfg)


def test_rect_transform_trace_and_det_bytes_at_p8():
    # np.trace sums the eight diagonal entries pairwise in C order but one
    # by one over a (p, p, n) layout, so a result left in the einsum's own
    # memory order changes the trace bytes
    rng = np.random.default_rng(8)
    got, want = _assert_same_bytes(rng.standard_normal((700, 8, 9)),
                                   RectConfig.with_identity_weights(8, 9))
    assert np.array_equal(np.trace(got, axis1=1, axis2=2),
                          np.trace(want, axis1=1, axis2=2))
    assert np.array_equal(_batch_det(got), _batch_det(want))


@pytest.mark.parametrize("shape", [(4, 3, 3), (4, 2, 2), (4, 3, 2), (2, 2),
                                   (2, 3)])
def test_rect_transform_rejects_mismatched_shape(shape):
    # a stack that does not fit the configuration, or a lone matrix even of
    # the configured shape, is a dimension error, not a numpy broadcasting
    # failure
    cfg = RectConfig.with_identity_weights(2, 3)
    x = np.broadcast_to(np.eye(*shape[-2:]), shape).copy()
    with pytest.raises(DimensionError):
        rect_transform(x, cfg)


def test_rect_config_weight_factor():
    a = SpdMatrix.diagonal((2.0, 2.0))
    b = SpdMatrix.diagonal((3.0, 1.0, 1.0))
    cfg = RectConfig(2, 3, a, b)
    # (r/2) log|A| + (p/2) log|B|
    expected = 1.5 * math.log(4.0) + 1.0 * math.log(3.0)
    assert cfg.log_weight_factor == pytest.approx(expected, rel=1e-12)


def test_rect_config_dimension_checks():
    with pytest.raises(DimensionError):
        RectConfig(2, 1, SpdMatrix.identity(2), SpdMatrix.identity(1))
    with pytest.raises(DimensionError):
        RectConfig(2, 3, SpdMatrix.identity(3), SpdMatrix.identity(3))


def test_stiefel_constant_frozen():
    # (rp/2) log pi - log Gamma_p(r/2); at p=r=1 this is exactly zero
    assert stiefel_constant(1, 1) == pytest.approx(0.0, abs=1e-12)
    expected = 2.0 * math.log(math.pi) - log_matrix_gamma(2, 1.0)
    assert stiefel_constant(2, 2) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ParameterDomainError):
        stiefel_constant(3, 2)


# ---------------------------------------------------------------------------
# Loewner ordering

def test_ordering_basic():
    small = SpdMatrix.diagonal((0.2, 0.5))
    big = SpdMatrix.identity(2)
    assert ordering_lt(small, big)
    assert not ordering_lt(big, small)


def test_ordering_rejects_mismatched_dims():
    with pytest.raises(DimensionError):
        ordering_lt(SpdMatrix.identity(2), SpdMatrix.identity(3))


def test_ordering_needs_strict_gap():
    m = SpdMatrix.diagonal((0.5, 1.0))
    assert not ordering_lt(m, SpdMatrix.identity(2))  # shared eigenvalue 1


# ---------------------------------------------------------------------------
# JSON rows

def test_matrix_from_rows_rejects_non_matrix():
    with pytest.raises(DimensionError):
        matrix_from_rows([[1.0, 2.0], [3.0]])
    with pytest.raises(DimensionError):
        matrix_from_rows([1.0, 2.0])
