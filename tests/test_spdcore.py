"""Symmetric positive definite wrappers and weighted configurations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mvfrac import (
    DegenerateInputError,
    DetPowerOperand,
    DimensionError,
    FracOrder,
    HyperParams,
    MvfracError,
    RectConfig,
    SaigoParams,
    SpdMatrix,
    Truncation,
    frac_integral_numeric,
    frac_integral_power_closed,
    frac_integral_zonal_closed,
    gauss_2f1_rect,
    hyper_pfq,
    log_matrix_gamma,
    mc_integrate_unit_cone,
    pathway_det_limit,
    rect_transform,
    sample_uniform_spd_unit,
    saigo_power_closed,
    stiefel_constant,
    zonal_eval,
)
from mvfrac.errors import ParameterDomainError
from mvfrac.spdcore import (_SHORT_STACK, _batch_det, _batch_eigvalsh,
                            _symmetric_spectrum, check_full_rank, check_spd,
                            read_matrix)
from mvfrac.zonal import fetch_table


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
                         (asym, "symmetric")):
        with pytest.raises(DegenerateInputError, match=message):
            check_spd(np.stack([good[0], bad, good[1]]))
        with pytest.raises(DegenerateInputError, match=message):
            SpdMatrix(bad)
    # finiteness is the reader's rule, which SpdMatrix applies first
    with pytest.raises(DegenerateInputError, match="finite"):
        SpdMatrix(np.diag([1.0, np.nan, 1.0]))


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


@pytest.mark.parametrize("call", [
    lambda: rect_transform([[[1.0, 2.0]]],
                           RectConfig.with_identity_weights(1, 2)),
    lambda: check_full_rank([["1", "2"]]),
    lambda: check_full_rank([[True, False]]),
    lambda: check_full_rank([1.0, 2.0]),
], ids=["transform-list", "rank-string", "rank-bool", "rank-vector"])
def test_rectangular_checks_refuse_malformed_input(call):
    # a list where an ndarray is needed, non-real entries (refused before
    # any shape rule, as read_matrix refuses them) and a vector; these
    # raised AttributeError, numpy's TypeError or IndexError, or passed
    with pytest.raises(DimensionError):
        call()


def test_rect_config_weight_factor():
    a = SpdMatrix.diagonal((2.0, 2.0))
    b = SpdMatrix.diagonal((3.0, 1.0, 1.0))
    cfg = RectConfig(2, 3, a, b)
    # (r/2) log|A| + (p/2) log|B|
    expected = 1.5 * math.log(4.0) + 1.0 * math.log(3.0)
    assert cfg.log_weight_factor == pytest.approx(expected, rel=1e-12)


def test_rect_config_dimension_checks():
    with pytest.raises(DimensionError, match=r"need r >= p >= 1, got p=2, r=1"):
        RectConfig(2, 1, SpdMatrix.identity(2), SpdMatrix.identity(1))
    with pytest.raises(DimensionError, match=r"A must be 2x2, got 3"):
        RectConfig(2, 3, SpdMatrix.identity(3), SpdMatrix.identity(3))
    with pytest.raises(DimensionError, match=r"B must be 3x3, got 2"):
        RectConfig(2, 3, SpdMatrix.identity(2), SpdMatrix.identity(2))


def test_configs_compare_by_weight_entries():
    # the frozen dataclasses RectConfig and FracOrder take their equality and
    # hash from SpdMatrix.__eq__ and __hash__, which compare entries
    a = RectConfig(2, 3, SpdMatrix(np.eye(2)), SpdMatrix(np.eye(3)))
    b = RectConfig.with_identity_weights(2, 3)
    c = RectConfig(2, 3, SpdMatrix.diagonal((2.0, 1.0)), SpdMatrix(np.eye(3)))
    assert a.A is not b.A and a.B is not b.B
    for x, y, z in ((a, b, c), (FracOrder(1.5, a), FracOrder(1.5, b),
                                FracOrder(1.5, c))):
        assert x == y and hash(x) == hash(y)
        assert x != z
    # -0.0 == 0.0, so weights that differ only in the sign of a zero are
    # equal and must hash alike; the stored entries keep their sign
    signed = SpdMatrix([[1.0, -0.0], [-0.0, 1.0]])
    d = RectConfig(2, 2, signed, signed)
    e = RectConfig.with_identity_weights(2, 2)
    for x, y in ((signed, SpdMatrix(np.eye(2))), (d, e),
                 (FracOrder(1.5, d), FracOrder(1.5, e))):
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert math.copysign(1.0, signed.entries[0, 1]) == -1.0


def test_stiefel_constant_frozen():
    # (rp/2) log pi - log Gamma_p(r/2); at p=r=1 this is exactly zero
    assert stiefel_constant(1, 1) == pytest.approx(0.0, abs=1e-12)
    expected = 2.0 * math.log(math.pi) - log_matrix_gamma(2, 1.0)
    assert stiefel_constant(2, 2) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ParameterDomainError, match=(
            r"^gamma argument must exceed \(p-1\)/2 = 1\.0 at p = 3, "
            r"got 1\.0$")):
        stiefel_constant(3, 2)


# ---------------------------------------------------------------------------
# stack eigenvalues

def _diagonal_stack(d0, d1, e=0.0):
    m = np.zeros((np.broadcast(d0, d1, e).size, 2, 2))
    m[:, 0, 0], m[:, 1, 1] = d0, d1
    m[:, 1, 0] = m[:, 0, 1] = e
    return m


def _cone_family():
    w = sample_uniform_spd_unit(2, 4000, 11)
    # Z^(1/2) W Z^(1/2) as the fraczonal operand sees it: not exactly symmetric
    root = SpdMatrix(np.array([[1.3, 0.4], [0.4, 0.7]])).matrix_power(0.5)
    z = (w.reshape(-1, 4) @ np.kron(root, root).T).reshape(w.shape)
    return np.concatenate([w, z, sample_uniform_spd_unit(2, 2000, 12) * 1e-3])


def _random_family():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((6000, 2, 2))
    scale = np.exp(rng.uniform(-345.0, 345.0, 2000))[:, None, None]
    return np.concatenate([x @ x.transpose(0, 2, 1), x + x.transpose(0, 2, 1),
                           x, (x + x.transpose(0, 2, 1))[:2000] * scale])


def _diagonal_family():
    rng = np.random.default_rng(22)
    d = rng.standard_normal((2, 2000)) * np.exp(rng.uniform(-8.0, 8.0, 2000))
    zeros = np.array([0.0, -0.0])
    signed = _diagonal_stack(np.repeat(zeros, 8), np.tile(np.repeat(zeros, 4), 2),
                             np.tile([0.0, -0.0, 1.0, -1e-3], 4))
    return np.concatenate([_diagonal_stack(*d), np.zeros((5, 2, 2)), signed])


def _near_split_family():
    # dsterf's first test, |e| <= sqrt|d0| sqrt|d1| eps, and its second,
    # e^2 <= eps^2 |d0 d1|, each with e moved 0 to 3 ulps either way; and a
    # zero diagonal entry with e^2 subnormal, where sqrt(e^2) is not |e|
    rng = np.random.default_rng(23)
    d0, d1 = rng.standard_normal((2, 1000)) * np.exp(rng.uniform(-5.0, 5.0, 1000))
    eps = 2.0 ** -53
    sign = rng.choice([-1.0, 1.0], 1000)
    tiny = sign * rng.uniform(1.0, 2.0, 1000) * np.exp2(rng.integers(-537, -515, 1000))
    out = [_diagonal_stack(d0, 0.0, tiny), _diagonal_stack(0.0, d1, tiny)]
    for e in (np.sqrt(np.abs(d0)) * np.sqrt(np.abs(d1)) * eps,
              np.sqrt(eps * eps * np.abs(d0 * d1))):
        for toward in (0.0, np.inf):
            for _ in range(4):
                out.append(_diagonal_stack(d0, d1, sign * e))
                e = np.nextafter(e, toward)
    return np.concatenate(out)


def _equal_diagonal_family():
    # d0 = d1 and d0 = -d1 (a zero trace), with and without a coupling
    rng = np.random.default_rng(24)
    d = rng.standard_normal(2000) * np.exp(rng.uniform(-8.0, 8.0, 2000))
    e = rng.standard_normal(2000) * rng.choice([0.0, 1e-9, 1.0], 2000)
    return np.concatenate([_diagonal_stack(d, d, e), _diagonal_stack(d, -d, e),
                           _diagonal_stack(-0.0 * d, -0.0 * d, e)])


def _rescaled_family():
    # largest entries outside 2^-400 .. 2^480, where LAPACK rescales and the
    # stack falls back, and just inside both ends
    rng = np.random.default_rng(25)
    x = rng.standard_normal((2000, 2, 2))
    powers = [-1070, -1000, -600, -480, -420, -406, -399, 479, 486, 511,
              600, 1000]
    scale = np.exp2(rng.choice(powers, 2000))[:, None, None]
    return (x + x.transpose(0, 2, 1)) * scale


def _other_dimension_family(p):
    rng = np.random.default_rng(26 + p)
    x = rng.standard_normal((1000, p, p))
    stack = np.concatenate([x + x.transpose(0, 2, 1), x @ x.transpose(0, 2, 1)])
    stack[:4] = 0.0
    stack[:2] *= -1.0
    return stack


@pytest.mark.parametrize("family", [
    _cone_family, _random_family, _diagonal_family, _near_split_family,
    _equal_diagonal_family, _rescaled_family,
    lambda: _other_dimension_family(1), lambda: _other_dimension_family(3),
], ids=["cone", "random", "diagonal", "near-split", "equal-diagonal",
        "rescaled", "p1", "p3"])
def test_batch_eigvalsh_matches_lapack_bitwise(family):
    m = family()
    # p = 2 families stay long enough to run the vectorised arithmetic
    assert m.shape[-1] != 2 or len(m) >= _SHORT_STACK
    got = _batch_eigvalsh(m)
    want = np.linalg.eigvalsh(m)[:, ::-1]
    assert got.shape == want.shape
    differ = (got.view(np.uint64) != want.view(np.uint64)).any(axis=1)
    assert not differ.any(), (m[differ][:3], got[differ][:3], want[differ][:3])


def test_short_stacks_match_lapack_bitwise():
    # every p = 2 stack length up to twice the short-stack rule, on a shuffled
    # mix of cone draws, indefinite matrices and rescaled ones, so both sides
    # of the rule see in-range and out-of-range rows
    pool = np.concatenate([_cone_family()[:2 * _SHORT_STACK],
                           _random_family()[:2 * _SHORT_STACK],
                           _rescaled_family()[:2 * _SHORT_STACK]])
    pool = pool[np.random.default_rng(27).permutation(len(pool))]
    for n in range(1, 2 * _SHORT_STACK + 1):
        got = _batch_eigvalsh(pool[:n])
        want = np.linalg.eigvalsh(pool[:n])[:, ::-1]
        assert got.tobytes() == want.tobytes(), n


# ---------------------------------------------------------------------------
# the reader of matrices from outside

def test_matrix_from_rows_rejects_non_matrix():
    # parsed JSON rows, as the CLI hands them over
    with pytest.raises(DimensionError):
        read_matrix([[1.0, 2.0], [3.0]], 2)
    with pytest.raises(DimensionError):
        read_matrix([1.0, 2.0], 2)


def test_read_matrix_rejects_non_matrix():
    # an empty matrix axis is refused, an empty stack is not
    with pytest.raises(DimensionError, match=r"\(n, p, p\) with p >= 1"):
        read_matrix(np.ones((3, 0, 0)), 3)
    assert read_matrix(np.ones((0, 2, 2)), 3).shape == (0, 2, 2)


# the kinds of payload the CLI refuses as JSON matrices, parsed, plus an
# empty one, a complex one and three of the wrong depth for every entry:
# one axis short, a ragged stack and one axis too many, which gives the
# eigenvalue readers a 3-axis array; none may escape as numpy's or
# Python's own error
_MALFORMED = {"string": [["a"]], "ragged": [[1.0, 0.0], [0.0]],
              "object": {"a": 1},
              "numeric-string": [["1.5"]], "bool": [[True]], "null": [[None]],
              "huge-int": [[10 ** 400]], "empty": [], "complex": [[1 + 1j]],
              "axis-short": [1.0], "ragged-stack": [[[1.0]], [[1.0, 2.0]]],
              "axis-extra": [[[[0.5]]]]}


def _matrix_arguments(p):
    """The entry points that take a p x p matrix argument Z, each as a
    function of Z alone; their other arguments are valid for p."""
    eye = SpdMatrix.identity(p)
    cfg = RectConfig(p, p, eye, eye)
    order = FracOrder(1.5, cfg)
    trunc = Truncation(8)
    return {
        "hyper_pfq": lambda z: hyper_pfq(HyperParams((0.7,), (1.9,)), z, trunc),
        "gauss_2f1_rect": lambda z: gauss_2f1_rect(0.3, 0.4, 2.5, z, cfg, trunc),
        "power_closed": lambda z: frac_integral_power_closed(order, z, 0.5),
        "zonal_closed": lambda z: frac_integral_zonal_closed(order, z, (2, 1)),
        "saigo_power_closed": lambda z: saigo_power_closed(
            order, z, SaigoParams(0.2, 0.4, 2.5), eta=0.5),
        "frac_integral_numeric": lambda z: frac_integral_numeric(
            order, z, DetPowerOperand(0.5), 200, 7),
        "RectConfig.A": lambda z: RectConfig(p, p + 1, z, np.eye(p + 1)),
        "RectConfig.B": lambda z: RectConfig(p, p, eye, z),
    }


def _one_row(rows):
    """The one row of a matrix as nested lists, else rows as they are."""
    return rows[0] if isinstance(rows, list) and len(rows) == 1 else rows


def _entry_points(rows):
    """A call of each entry point of an outside matrix on rows, a matrix as
    nested lists, shaped for it: one row for the diagonal, a stack of one
    for zonal_eval, and the matrix argument of check_spd, check_full_rank,
    the series, the operators and the weights of a configuration at p = 1.
    Each refuses a non-finite entry with the same message."""
    return [lambda: SpdMatrix(rows), lambda: SpdMatrix.diagonal(_one_row(rows)),
            lambda: zonal_eval((1,), [rows]), lambda: check_spd(rows),
            lambda: check_full_rank(rows),
            *(lambda f=f: f(rows) for f in _matrix_arguments(1).values())]


def _row_readers(row):
    """A call of each entry point that reads one row of numbers from
    outside on row: the eigenvalues of pathway_det_limit and of a zonal
    table, and an integrand's values for a cone block of one draw."""
    return [lambda: pathway_det_limit(2.0, row),
            lambda: fetch_table(1, 1).value((1,), row),
            lambda: fetch_table(1, 1).monomials(row, 1),
            lambda: mc_integrate_unit_cone(lambda w: row, 1, 1, 3)]


@pytest.mark.parametrize("name", list(_matrix_arguments(2)))
def test_matrix_arguments_read_rows_as_their_spd_matrix(name):
    # nested lists, an ndarray and the SpdMatrix built from them give the
    # same bits, and a matrix of another dimension is refused by its name
    rows = [[0.5, 0.1], [0.1, 0.3]]
    call = _matrix_arguments(2)[name]
    want = repr(call(SpdMatrix(rows)))
    assert repr(call(rows)) == want
    assert repr(call(np.array(rows))) == want
    if name != "hyper_pfq":  # the series takes any dimension
        arg = {"gauss_2f1_rect": "Z_Y", "RectConfig.A": "A",
               "RectConfig.B": "B"}.get(name, "Z")
        with pytest.raises(DimensionError, match=f"^{arg} must be 2x2, got 1$"):
            call([[0.5]])


@pytest.mark.parametrize("rows", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_entry_points_refuse_malformed_matrices_alike(rows):
    for call in _entry_points(rows) + _row_readers(_one_row(rows)):
        with pytest.raises(DimensionError, match="equal-length rows of numbers"):
            call()


# an upper and a lower triangle that disagree, each way round; zonal_eval
# read the lower one alone, so C_(1,1) of the second gave -32
_ASYMMETRIC = ([[1.0, 5.0], [0.0, 1.0]], [[1.0, 0.0], [5.0, 1.0]])
_SYMMETRIC_ARGUMENTS = {
    "zonal_eval-lists": lambda z: zonal_eval((1, 1), [z]),
    "zonal_eval-stack": lambda z: zonal_eval((2,), np.array([np.eye(2), z])),
    "hyper_pfq-lists": lambda z: hyper_pfq(HyperParams((0.5,), ()), z),
    "hyper_pfq-ndarray": lambda z: hyper_pfq(HyperParams((), ()),
                                             np.array(z)),
}


@pytest.mark.parametrize("rows", _ASYMMETRIC, ids=["upper", "lower"])
@pytest.mark.parametrize("call", _SYMMETRIC_ARGUMENTS.values(),
                         ids=_SYMMETRIC_ARGUMENTS.keys())
def test_symmetric_arguments_refuse_asymmetric_matrices(call, rows):
    with pytest.raises(DegenerateInputError, match="not exactly symmetric"):
        call(rows)


def test_symmetric_arguments_take_indefinite_matrices():
    # the sign rule is the SPD cone's, which the series and the zonal
    # polynomials do not need; an SpdMatrix keeps the spectrum it holds
    z = [[-1.0, 0.2], [0.2, 0.5]]
    assert zonal_eval((2, 1), [z])[0] == pytest.approx(0.648, rel=1e-12)
    assert hyper_pfq(HyperParams((), ()), z).value == pytest.approx(
        math.exp(-0.5), rel=1e-12)
    spd = SpdMatrix([[0.5, 0.1], [0.1, 0.3]])
    assert _symmetric_spectrum(spd) is spd.eigenvalues
    assert _symmetric_spectrum(np.array(z)).tolist() == \
        _batch_eigvalsh(np.array([z]))[0].tolist()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_entry_points_refuse_non_finite_entries_alike(bad):
    for call in _entry_points([[bad]]):
        with pytest.raises(DegenerateInputError,
                           match="^matrix entries must be finite$"):
            call()


def test_ndarrays_of_other_dtypes_are_refused():
    cfg = RectConfig.with_identity_weights(2, 2)
    for arr in (np.eye(2, dtype=bool), np.eye(2, dtype=complex),
                np.eye(2).astype(str), np.eye(2).astype(object)):
        with pytest.raises(DimensionError, match="equal-length rows"):
            SpdMatrix(arr)
        with pytest.raises(DimensionError, match="equal-length rows"):
            zonal_eval((1,), arr[None])
        with pytest.raises(DimensionError, match="real numbers"):
            rect_transform(arr[None], cfg)
        with pytest.raises(DimensionError, match="real numbers"):
            check_full_rank(arr)
    for arr in (np.eye(2, dtype=np.int8), np.eye(2, dtype=np.uint16),
                np.eye(2, dtype=np.float32)):
        assert SpdMatrix(arr) == SpdMatrix(np.eye(2))
        assert np.array_equal(rect_transform(arr[None], cfg), np.eye(2)[None])
        check_full_rank(arr)


def test_reader_copies_an_ndarray():
    arr = np.eye(2)
    m = SpdMatrix(arr)
    arr[0, 0] = 5.0
    assert m.entries[0, 0] == 1.0 and not m.entries.flags.writeable


def test_spd_matrix_is_immutable_and_equals_only_spd_matrices():
    m = SpdMatrix.identity(2)
    with pytest.raises(AttributeError, match="^SpdMatrix is immutable$"):
        m._entries = np.eye(2)
    # the rows of an SpdMatrix are not one: __eq__ defers to the other type
    assert (m == [[1.0, 0.0], [0.0, 1.0]]) is False
    assert m != np.eye(2).tolist() and m == SpdMatrix(np.eye(2))


_LEAF = st.one_of(
    st.floats(-4.0, 4.0), st.integers(-3, 3),
    st.sampled_from([10 ** 400, -10 ** 400, "1.5", "a", True, False, None,
                     math.inf, -math.inf, math.nan]))


def _nested(depth):
    """Lists depth deep, each of its own length, so rows may be ragged."""
    tree = _LEAF
    for _ in range(depth):
        tree = st.lists(tree, max_size=3)
    return tree


@st.composite
def _spd_rows(draw):
    """A diagonally dominant symmetric matrix as nested lists of floats and
    ints, depth 2; one row of it is a valid diagonal."""
    p = draw(st.integers(1, 3))
    x = draw(st.lists(st.one_of(st.floats(-1.0, 1.0), st.integers(-1, 1)),
                      min_size=p * p, max_size=p * p))
    return [[x[min(i, j) * p + max(i, j)] + (2 * p if i == j else 0)
             for j in range(p)] for i in range(p)]


def _outcome(call, x):
    """The bytes call(x) gives, or None where it refuses x with an
    MvfracError; any other exception escapes."""
    try:
        got = call(x)
    except MvfracError:
        return None
    return (got.entries if isinstance(got, SpdMatrix) else got).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 4).flatmap(_nested), _spd_rows(),
                 _spd_rows().map(lambda rows: rows[0]),
                 _spd_rows().map(lambda rows: [rows, rows])))
def test_reader_boundary_property(x):
    # nested structures of any mix of entries give an mvfrac error or a
    # value, and a value is the one the same data gives as an ndarray
    for call in (SpdMatrix, SpdMatrix.diagonal,
                 lambda z: zonal_eval((2,), z)):
        got = _outcome(call, x)
        if got is not None:
            assert got == _outcome(call, np.array(x))
