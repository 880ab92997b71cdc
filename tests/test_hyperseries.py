"""Hypergeometric series of matrix argument.

The scalar oracle below sums the classical one-variable series directly
with ordinary rising factorials; every dimension-1 result must reduce to
it.  Two-dimensional results are checked against the determinant binomial
identity, which is an independent closed form.
"""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfrac import (
    DimensionError,
    HyperParams,
    NonConvergenceError,
    ParameterDomainError,
    RectConfig,
    SeriesResult,
    SpdMatrix,
    Truncation,
    build_zonal_table,
    derive_key,
    fetch_table,
    gamma_variates,
    gauss_2f1_rect,
    hyper_pfq,
    hyper_pfq_at_identity,
    log_matrix_gamma,
    mc_integrate_unit_cone,
    normals,
    partitions_of,
    pathway_det_limit,
    sample_matrix_gamma,
    sample_rect_exponential,
    sample_type1_beta,
    sample_uniform_spd_unit,
    stiefel_constant,
    uniforms,
    zonal_at_identity,
    zonal_eval,
)

from mvfrac.errors import as_partition

from conftest import (brute_monomial, reference_monomials, spd_from_eigs,
                      sym_from_eigs)


def _scalar_pfq(num, den, z, k_max):
    # direct classical series: sum_k prod(a)_k / prod(b)_k * z^k / k!
    total = 0.0
    term = 1.0
    for k in range(k_max + 1):
        total += term
        ratio = 1.0
        for a in num:
            ratio *= a + k
        for b in den:
            ratio /= b + k
        term *= ratio * z / (k + 1)
    return total


@given(st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=0.8, max_value=4.0),
       st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=80, deadline=None)
def test_dimension_one_reduces_to_scalar_series(a, b, c, z):
    trunc = Truncation(k_max=25)
    got = hyper_pfq(HyperParams((a, b), (c,)), SpdMatrix(np.array([[z]])),
                    trunc)
    want = _scalar_pfq((a, b), (c,), z, 25)
    assert got.value == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_gauss_frozen_value():
    # 2F1(1,1;2;z) = -log(1-z)/z, so the value at z = 1/2 is 2 log 2;
    # dimension 1 reaches ten digits here within the ceiling's thirty
    # weights (relative error 2.0e-11), where twenty-five give 7.7e-10
    res = hyper_pfq(HyperParams((1.0, 1.0), (2.0,)),
                    SpdMatrix(np.array([[0.5]])), Truncation(k_max=30))
    assert res.value == pytest.approx(2.0 * math.log(2.0), rel=1e-10)


def test_exponential_series_any_radius():
    # no numerator and no denominator gives the exponential of the trace,
    # with no radius restriction
    res = hyper_pfq(HyperParams((), ()), SpdMatrix.diagonal((0.4, 0.3)),
                    Truncation(k_max=25))
    assert res.value == pytest.approx(math.exp(0.7), rel=1e-10)


@given(st.floats(min_value=0.5, max_value=2.5),
       st.floats(min_value=0.05, max_value=0.25),
       st.floats(min_value=0.05, max_value=0.25))
@settings(max_examples=40, deadline=None)
def test_binomial_identity_p2(b, e1, e2):
    # sum_K (b)_K C_K(Z) / k! against |I - Z|^{-b}
    z = SpdMatrix.diagonal((e1, e2))
    res = hyper_pfq(HyperParams((b,), ()), z, Truncation(k_max=25))
    direct = (1.0 - e1) ** (-b) * (1.0 - e2) ** (-b)
    assert res.value == pytest.approx(direct, abs=1e-8)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_binomial_and_exponential_identities(p):
    # 1F0(a; Z) = |I - Z|^(-a) and 0F0(Z) = exp(tr Z); with the spectrum
    # at most 0.1 the weight-16 truncation leaves a tail below 1e-11
    trunc = Truncation(k_max=16)
    rng = np.random.default_rng(p)
    for seed in range(3):
        z = spd_from_eigs(rng.uniform(0.02, 0.1, p), seed)
        a = rng.uniform(0.3, 1.5)
        got = hyper_pfq(HyperParams((a,), ()), z, trunc).value
        want = np.linalg.det(np.eye(p) - z.entries) ** -a
        assert got == pytest.approx(want, rel=1e-10)
        got = hyper_pfq(HyperParams((), ()), z, trunc).value
        assert got == pytest.approx(math.exp(z.trace), rel=1e-10)


def _per_row_series(num, den, eigs, k_max, table):
    # the series partition by partition: Pochhammer ratio box by box, zonal
    # value row by row from brute-force monomials
    total = 0.0
    for k in range(k_max + 1):
        plist = partitions_of(k, table.p)
        for K, row in zip(plist, table.coeffs[k].tolist()):
            if len(K) > len(eigs):
                continue
            ratio = 1.0
            for i, part in enumerate(K):
                for j in range(part):
                    for a in num:
                        ratio *= a + j - 0.5 * i
                    for b in den:
                        ratio /= b + j - 0.5 * i
            cz = sum(c * brute_monomial(mu, eigs)
                     for mu, c in zip(plist, row) if c)
            total += ratio * cz / math.factorial(k)
    return total


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=12),
       st.lists(st.floats(min_value=1.6, max_value=2.5), max_size=2),
       st.lists(st.floats(min_value=2.0, max_value=4.0), max_size=2),
       st.lists(st.floats(min_value=0.01, max_value=0.25), min_size=4,
                max_size=4))
@settings(max_examples=40, deadline=None)
def test_matches_per_row_reference(p, k_max, num, den, eigs):
    # parameters above (p-1)/2 keep every Pochhammer factor positive, so the
    # terms cannot cancel and a relative bound applies
    num = num[:len(den) + 1]
    z = spd_from_eigs(eigs[:p], seed=k_max)
    got = hyper_pfq(HyperParams(num, den), z, Truncation(k_max=k_max))
    want = _per_row_series(num, den, z.eigenvalues.tolist(), k_max,
                           fetch_table(k_max, p))
    assert got.value == pytest.approx(want, rel=1e-12)


def _reference_series(num, den, eigenvalues, k_max):
    """The series as one slice-assigned Pochhammer product and one any()
    termination test per weight, on the (rows, width) monomial passes;
    returns the SeriesResult and the last weight summed."""
    table = fetch_table(k_max, len(eigenvalues))
    m = reference_monomials(table, eigenvalues, k_max)
    size = len(m)
    shift = table.box_shift[1:size]
    box = np.ones(size)
    for a in num:
        box[1:] *= a + shift
    for b in den:
        factor = b + shift
        if (np.abs(factor) <= 1e-12).any():
            raise ParameterDomainError(
                f"denominator parameter {b} hits a Pochhammer zero within "
                f"k_max={k_max}")
        box[1:] /= factor
    poch = np.ones(size)
    value = comp = 0.0
    inv_fact = 1.0
    weight_sums = []
    for k in range(k_max + 1):
        lo, hi = table.offsets[k], table.offsets[k + 1]
        if k:
            inv_fact /= k
            poch[lo:hi] = poch[table.parent[lo:hi]] * box[lo:hi]
        wsum = float(poch[lo:hi] @ (table.coeffs[k] @ m[lo:hi])) * inv_fact
        all_poch_zero = k > 0 and not poch[lo:hi].any()
        y = wsum - comp
        t = value + y
        comp = (t - value) - y
        value = t
        weight_sums.append(abs(wsum))
        if all_poch_zero:
            break
    else:
        if len(num) > len(den) + 1 and any(eigenvalues):
            raise NonConvergenceError(
                f"a series with more than one numerator parameter in excess "
                f"diverges unless it terminates, and this one did not by "
                f"k_max={k_max}")
    last = weight_sums[-1]
    prev = weight_sums[-2] if len(weight_sums) > 1 else 0.0
    if last == 0.0:
        ratio = tail = 0.0
    elif prev > 0.0:
        ratio = last / prev
        tail = last * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    else:
        ratio = tail = math.inf
    return SeriesResult(value, tail, last, ratio), k


def _same_series(num, den, eigs, k_max):
    """hyper_pfq at diag(eigs) against _reference_series: every field of
    the result, or the error type and message, must agree exactly."""
    z = SpdMatrix.diagonal(eigs)
    try:
        want, k_stop = _reference_series(num, den, z.eigenvalues.tolist(),
                                         k_max)
    except (NonConvergenceError, ParameterDomainError) as exc:
        with pytest.raises(type(exc)) as got:
            hyper_pfq(HyperParams(num, den), z, Truncation(k_max))
        assert str(got.value) == str(exc)
        return None
    got = hyper_pfq(HyperParams(num, den), z, Truncation(k_max))
    assert [x.hex() for x in got] == [float(x).hex() for x in want]
    return k_stop


_BITWISE_PARAMS = [((), ()), ((0.7,), ()), ((0.7, 1.3), (1.9,)),
                   ((1.5, 0.4), (2.2,)), ((-1.5,), (2.5, 0.3)),
                   ((0.8,), (2.3,))]


@pytest.mark.parametrize("p,k_max", [
    (p, k_max) for p in range(1, 6) for k_max in (0, 1, 12, 20)
] + [(p, 30) for p in range(1, 4)])
def test_series_matches_reference_bitwise(p, k_max):
    eigs = np.linspace(0.3, 0.05, p)
    for num, den in _BITWISE_PARAMS:
        assert _same_series(num, den, eigs, k_max) == k_max


def test_terminating_series_match_reference_bitwise():
    # (-1)_kappa vanishes once the first row reaches 2, so at p = 2 the
    # series stops after weight 3; a zero numerator stops after weight 1
    assert _same_series((-1.0,), (), (0.4, 0.2), 25) == 3
    assert _same_series((0.0,), (1.5,), (0.4, 0.2, 0.1), 25) == 1
    res = hyper_pfq(HyperParams((0.0,), (1.5,)),
                    SpdMatrix.diagonal((0.4, 0.2, 0.1)), Truncation(25))
    assert (res.value, res.tail_estimate, res.ratio) == (1.0, 0.0, 0.0)


def test_divergence_and_domain_errors_match_reference():
    # 2F0 runs to k_max without terminating and is refused with the same
    # message, and a denominator on the Pochhammer lattice is refused alike
    with pytest.raises(NonConvergenceError):
        _reference_series((1.5, 2.0), (), [0.9, 0.5], 25)
    assert _same_series((1.5, 2.0), (), (0.9, 0.5), 25) is None
    with pytest.raises(ParameterDomainError):
        _reference_series((1.0,), (0.5,), [0.3, 0.3], 2)
    assert _same_series((1.0,), (0.5,), (0.3, 0.3), 2) is None


@pytest.mark.parametrize("num,eigs,k_stop", [
    ((-6.0, 2.5), (0.3, 0.2), 13),
    ((-6.0, 2.5), (0.9, 0.8), 13),
    ((-4.0, 3.5), (0.9, 0.7, 0.6), 13),
], ids=["p2-small", "p2-near-one", "p3"])
def test_terminating_beyond_balanced_series_are_summed(num, eigs, k_stop):
    # (a)_kappa with a = -6 or -4 vanishes once the first row passes -a, so
    # 2F0 is a polynomial of weight at most -a * p, summed up to the first
    # weight that vanishes however its weight sums rise on the way
    assert _same_series(num, (), eigs, 25) == k_stop
    res = hyper_pfq(HyperParams(num, ()), SpdMatrix.diagonal(eigs))
    assert res.tail_estimate == res.ratio == 0.0


def test_terminating_beyond_balanced_series_at_dimension_one():
    # 2F0(-10, 3; ; 1/2) = 43163.5, with no tail; 2F0(1.5, 2; ; Z) has no
    # finite sum at any nonzero Z and stays refused
    res = hyper_pfq(HyperParams((-10.0, 3.0), ()), [[0.5]])
    assert res.value == pytest.approx(43163.5, rel=1e-12)
    assert res.value == pytest.approx(_scalar_pfq((-10.0, 3.0), (), 0.5, 25),
                                      rel=1e-12)
    assert res.tail_estimate == 0.0
    with pytest.raises(NonConvergenceError, match=(
            r"^a series with more than one numerator parameter in excess "
            r"diverges unless it terminates, and this one did not by "
            r"k_max=25$")):
        hyper_pfq(HyperParams((1.5, 2.0), ()), SpdMatrix.diagonal((0.9, 0.5)))


@pytest.mark.parametrize("num,z,k_max", [
    ((-10.5, 3.0), 0.5, 12),
    ((-10.5, 3.0), 0.5, 13),
    ((1.5, 2.0), 0.01, 25),
    ((1.5, 2.0), 1e-300, 25),
    ((-10.0, 3.0), 0.5, 5),
    ((1.0, 1.0), 0.5, 0),
], ids=["falling-k12", "falling-k13", "small", "underflow", "cut-polynomial",
        "kmax0"])
def test_beyond_balanced_series_refused_unless_terminated(num, z, k_max):
    # a series that diverges unless it terminates has no sum to extrapolate
    # to, however its weight sums fall before k_max or underflow to zero;
    # a polynomial cut before its last weight is refused alike
    with pytest.raises(NonConvergenceError, match=f"k_max={k_max}$"):
        hyper_pfq(HyperParams(num, ()), [[z]], Truncation(k_max))


@pytest.mark.parametrize("k_max", [0, 1, 25])
def test_beyond_balanced_series_at_zero_argument(k_max):
    # at the zero argument every weight after 0 vanishes and the value is
    # exactly 1; at k_max 0 no weight shows the decay, so the tail is inf
    res = hyper_pfq(HyperParams((1.5, 2.0, 3.0), ()), np.zeros((2, 2)),
                    Truncation(k_max))
    assert res.value == 1.0
    assert res.tail_estimate == (math.inf if k_max == 0 else 0.0)


def test_nan_weight_sums_match_reference():
    # at an overflowing argument the weight sums turn NaN: with Pochhammer
    # ratios of both signs the series runs on to k_max, and with all of a
    # weight's ratios zero it stops there, as the reference does
    with warnings.catch_warnings(), np.errstate(over="ignore",
                                                invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _same_series((-0.5,), (1.5,), (1e200, 2e199), 8) == 8
        assert _same_series((-1.0,), (1.5,), (1e200, 2e199), 8) == 3


@pytest.mark.parametrize("b", [-6.0, 0.5])
def test_truncation_below_table_weight(b):
    # a cached table grown past trunc.k_max must not evaluate Pochhammer
    # factors beyond it or below the argument's rows: the denominator -6
    # vanishes only at weight 7, and 0.5 only in the second row
    fetch_table(30, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hyper_pfq(HyperParams((1.0,), (b,)),
                        SpdMatrix(np.array([[0.3]])), Truncation(k_max=5))
    want = _scalar_pfq((1.0,), (b,), 0.3, 5)
    assert got.value == pytest.approx(want, rel=1e-12)


def test_negative_integer_parameter_terminates():
    # 1F0(-2; z) is the polynomial (1-z)^2; termination leaves a zero tail
    res = hyper_pfq(HyperParams((-2.0,), ()), SpdMatrix(np.array([[0.6]])),
                    Truncation(k_max=25))
    assert res.value == pytest.approx(0.16, rel=1e-12)
    assert res.tail_estimate == 0.0


def test_balanced_series_needs_radius_below_one():
    with pytest.raises(ParameterDomainError):
        hyper_pfq(HyperParams((1.0, 1.0), (2.0,)),
                  SpdMatrix(np.array([[1.0]])), Truncation(k_max=10))
    # the radius is max |lambda|, so a negative eigenvalue counts as well
    with pytest.raises(ParameterDomainError, match=r"got 1\.2$"):
        hyper_pfq(HyperParams((0.5,), ()), np.diag([-1.2, 0.3]))


@pytest.mark.parametrize("a,c", [(0.6, 2.3), (1.7, 3.1)])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_kummer_relation_at_negative_arguments(p, a, c):
    # 1F1(a; c; Z) = etr(Z) 1F1(c - a; c; -Z), the right side at the
    # negative definite -Z.  At k_max 30 the sides agree to rel 1e-12 on
    # rotated spectra up to 1, and up to 2 at p <= 3; at p >= 4 a spectrum
    # of 2 leaves the right side a reported tail near 1e-9, which bounds
    # the gap there instead
    trunc = Truncation(k_max=30)
    for s in (0.5, 1.0, 2.0):
        z = sym_from_eigs(np.linspace(s, s / 3, p), seed=p)
        left = hyper_pfq(HyperParams((a,), (c,)), z, trunc)
        right = hyper_pfq(HyperParams((c - a,), (c,)), -z, trunc)
        etr = math.exp(np.trace(z))
        gap = abs(left.value - etr * right.value)
        bound = 1e-12 * left.value
        if s == 2.0 and p >= 4:
            bound += left.tail_estimate + etr * right.tail_estimate
        assert gap <= bound, (s, gap)


@pytest.mark.parametrize("eigs,b", [((0.5, -0.6), 0.7),
                                    ((0.3, -0.4, 0.2), 1.3)])
def test_binomial_identity_at_indefinite_arguments(eigs, b):
    # 1F0(b; Z) = |I - Z|^(-b) on a rotated indefinite Z; the eigenvalue
    # -0.6 slows the series, and the reported tail bounds what is left
    z = sym_from_eigs(eigs, seed=len(eigs))
    res = hyper_pfq(HyperParams((b,), ()), z, Truncation(k_max=30))
    want = np.linalg.det(np.eye(len(eigs)) - z) ** -b
    assert abs(res.value - want) <= res.tail_estimate + 1e-12 * want


def test_divergent_series_detected():
    # 2F0 diverges for any nonzero argument and does not terminate
    with pytest.raises(NonConvergenceError):
        hyper_pfq(HyperParams((1.5, 2.0), ()), SpdMatrix(np.array([[0.9]])),
                  Truncation(k_max=25))


@pytest.mark.parametrize("z", [np.diag([0.9, -0.9]),
                               sym_from_eigs((0.9, -0.9), seed=2)],
                         ids=["diagonal", "rotated"])
def test_spectrum_symmetric_about_zero(z):
    # Z and -Z share this spectrum, so every odd weight sum cancels; the
    # ratio and the tail must read the even ones across the gaps
    with pytest.raises(NonConvergenceError):
        hyper_pfq(HyperParams((1.0, 1.0), ()), z)
    res = hyper_pfq(HyperParams((1.0,), ()), z, Truncation(k_max=25))
    gap = 1.0 / 0.19 - res.value  # 1F0(1; Z) = |I - Z|^(-1)
    assert 0.3 < gap <= res.tail_estimate * (1.0 + 1e-12)
    assert res.ratio == pytest.approx(0.81, rel=1e-9)
    # 1F0(-1; Z) = |I - Z| terminates at weight 3, leaving no tail
    res = hyper_pfq(HyperParams((-1.0,), ()), z)
    assert res.value == pytest.approx(0.19, rel=1e-12)
    assert res.tail_estimate == res.ratio == 0.0


def test_convergent_series_with_rising_weight_sums():
    # |I - Z|^(-3.5) at Z = diag(0.5, ..., 0.5) in dimension 4 is 2^14; its
    # weight sums rise for about a dozen weights before they fall, which
    # is no sign of divergence below spectral radius one
    res = hyper_pfq(HyperParams((3.5,), ()), SpdMatrix.diagonal((0.5,) * 4),
                    Truncation(k_max=30))
    assert abs(res.value - 16384.0) <= res.tail_estimate
    assert res.ratio < 1.0


@pytest.mark.parametrize("b,p,k_max,refused,at_identity", [
    (-2.0, 1, 10, True, False),
    (-2.0, 1, 2, False, False),
    (-2.0, 1, 3, True, False),
    (0.5, 2, 1, False, False),
    (0.5, 2, 2, True, False),  # the zero is at row 2, column 1
    (-2.0 + 1e-13, 1, 3, True, False),
    (-2.0 + 2e-12, 1, 3, False, False),
    (-1.0, 2, 4, True, True),
])
def test_denominator_pochhammer_zero_rejected(b, p, k_max, refused,
                                              at_identity):
    # refused exactly when a factor b + column - row/2 on a box of a summed
    # partition is within 1e-12 of zero, and before any division by it
    params = HyperParams((1.0,), (b,))

    def series():
        if at_identity:
            return hyper_pfq_at_identity(params, p, Truncation(k_max))
        return hyper_pfq(params, SpdMatrix.diagonal((0.3,) * p),
                         Truncation(k_max))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused:
            with pytest.raises(ParameterDomainError, match="Pochhammer zero"):
                series()
        else:
            assert math.isfinite(series().value)


def _traces(w):
    return np.trace(w, axis1=1, axis2=2)


# Every public entry that takes an integer argument, as a call of that
# argument alone, by kind of argument.  One rule decides them all.
_INTEGER_ENTRIES = {
    "dimension": {
        "log_matrix_gamma": lambda p: log_matrix_gamma(p, 3.0),
        "partitions_of": lambda p: partitions_of(3, p),
        "zonal_at_identity": lambda p: zonal_at_identity((2, 1), p),
        "hyper_pfq_at_identity": lambda p: hyper_pfq_at_identity(
            HyperParams((0.3, 0.2), (2.0,)), p),
        "build_zonal_table": lambda p: build_zonal_table(3, p),
        "fetch_table": lambda p: fetch_table(3, p),
        "sample_matrix_gamma": lambda p: sample_matrix_gamma(p, 2.5, 3, 7),
        "sample_uniform_spd_unit": lambda p: sample_uniform_spd_unit(p, 3, 7),
        "mc_integrate_unit_cone": lambda p: mc_integrate_unit_cone(
            _traces, p, 3, 7),
        "mc_integrate_unit_cone-shapes": lambda p: mc_integrate_unit_cone(
            _traces, p, 3, 7, shapes=(2.0, 2.0)),
        "sample_type1_beta": lambda p: sample_type1_beta(p, 2.5, 3.0, 3, 7),
        "SpdMatrix.identity": lambda p: SpdMatrix.identity(p).entries,
        "RectConfig.with_identity_weights":
            lambda p: RectConfig.with_identity_weights(p, 3),
        "stiefel_constant": lambda p: stiefel_constant(p, 3),
    },
    "sample count": {
        "sample_matrix_gamma": lambda n: sample_matrix_gamma(2, 2.5, n, 7),
        "sample_rect_exponential": lambda n: sample_rect_exponential(
            RectConfig.with_identity_weights(2, 3), n, 7),
        "sample_uniform_spd_unit": lambda n: sample_uniform_spd_unit(2, n, 7),
        "sample_type1_beta": lambda n: sample_type1_beta(2, 2.5, 3.0, n, 7),
        "mc_integrate_unit_cone": lambda n: mc_integrate_unit_cone(
            _traces, 2, n, 7),
    },
    "count": {
        "uniforms": lambda n: uniforms(derive_key(1, 2), 0, n),
        "normals": lambda n: normals(derive_key(1, 2), 0, n),
        "gamma_variates": lambda n: gamma_variates(derive_key(1, 2), 2.5, n),
    },
    "counter position": {
        "uniforms": lambda i: uniforms(derive_key(1, 2), i, 3),
        "normals": lambda i: normals(derive_key(1, 2), i, 3),
        "gamma_variates": lambda i: gamma_variates(derive_key(1, 2), 2.5, 3,
                                                   i),
    },
    "k_max": {"Truncation": lambda k: Truncation(k_max=k)},
    "partition part": {
        "as_partition": lambda k: as_partition((k,)),
        "as_partition-bare": as_partition,
        "zonal_eval": lambda k: zonal_eval(
            (k,), SpdMatrix([[1.2, -0.3], [-0.3, 0.9]])),
    },
}
# a valid value of each kind, given as a numpy integer in the last test
_VALID = {"dimension": 2, "sample count": 3, "count": 3,
          "counter position": 5, "k_max": 5, "partition part": 2}


def _not_refusing(kind, value):
    """The entries that do not refuse value with a ParameterDomainError
    ending "got {value!r}"; a traceback of another type is a miss too."""
    missed = []
    for name, call in _INTEGER_ENTRIES[kind].items():
        try:
            call(value)
        except Exception as exc:
            if (isinstance(exc, ParameterDomainError)
                    and str(exc).endswith(f"got {value!r}")):
                continue
        missed.append(name)
    return missed


@pytest.mark.parametrize("p", [-1, 0, 2.0, "2", 2.5, True])
def test_at_identity_validates_dimension(p):
    # floats are refused, not truncated, and bools are not integers
    assert _not_refusing("dimension", p) == []


@pytest.mark.parametrize("kind,value", [
    *[("sample count", n) for n in (0, 2.7, 2.0, True)],
    *[(kind, n) for kind in ("count", "counter position")
      for n in (-1, 2.7, 2.0, True, "2")],
    ("counter position", 2**64),
    *[("k_max", k) for k in (-1, 2.0, 2.5, True, "2")],
    *[("partition part", k) for k in (-1, 2.0, 2.5, True, "2")],
])
def test_integer_arguments_refuse_non_integers(kind, value):
    assert _not_refusing(kind, value) == []


@pytest.mark.parametrize("kind", list(_INTEGER_ENTRIES))
def test_integer_arguments_accept_numpy_integers(kind):
    # the same bits and the same plain types as the Python int gives
    value = _VALID[kind]
    for name, call in _INTEGER_ENTRIES[kind].items():
        assert (pickle.dumps(call(np.int64(value)))
                == pickle.dumps(call(value))), name


def test_truncation_validation():
    with pytest.raises(ParameterDomainError):
        Truncation(k_max=-1)


# ---------------------------------------------------------------------------
# value at the identity argument

def test_at_identity_gauss_oracle():
    # 2F1(a,b;c;1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b))
    a, b, c = 0.3, 0.2, 2.0
    res = hyper_pfq_at_identity(HyperParams((a, b), (c,)), 1,
                                Truncation(k_max=25))
    want = math.exp(math.lgamma(c) + math.lgamma(c - a - b)
                    - math.lgamma(c - a) - math.lgamma(c - b))
    # truncation at weight 25 leaves a few parts in 1e4; the reported tail
    # estimate must cover the distance to the exact value
    assert res.value == pytest.approx(want, rel=1e-3)
    assert abs(res.value - want) < 3.0 * res.tail_estimate
    assert res.ratio < 0.95


def test_at_identity_rejects_slow_convergence():
    # c - a - b barely positive: the tail ratio stays near one
    with pytest.raises(NonConvergenceError):
        hyper_pfq_at_identity(HyperParams((1.0, 1.0), (2.05,)), 1,
                              Truncation(k_max=25))


# ---------------------------------------------------------------------------
# weighted Gauss function for rectangular configurations

def test_gauss_rect_scalar_consistency():
    # dimension 1 with r = 1 shifts a and c by one half
    cfg = RectConfig.with_identity_weights(1, 1)
    a, b, c, y = 0.8, 0.5, 2.0, 0.4
    got = gauss_2f1_rect(a, b, c, SpdMatrix(np.array([[y]])), cfg,
                         Truncation(k_max=25))
    want = _scalar_pfq((a + 0.5, b), (c + 0.5,), y, 25)
    assert got == pytest.approx(want, rel=1e-10)


def test_gauss_rect_preconditions():
    cfg = RectConfig.with_identity_weights(2, 2)
    y = SpdMatrix.diagonal((0.3, 0.1))
    with pytest.raises(ParameterDomainError):
        gauss_2f1_rect(1.0, 0.5, 1.2, y, cfg)  # c - a too small
    with pytest.raises(ParameterDomainError):
        gauss_2f1_rect(1.0, 0.5, 3.0, SpdMatrix.diagonal((1.2, 0.1)), cfg)
    with pytest.raises(DimensionError):
        gauss_2f1_rect(1.0, 0.5, 3.0, SpdMatrix(np.array([[0.3]])), cfg)
    with pytest.raises(ParameterDomainError,
                       match=r"^a \+ r/2 must exceed \(p-1\)/2 = 0\.5 at p = 2, "
                             r"got 0\.0$"):
        gauss_2f1_rect(-1.0, 0.5, 1.0, y, cfg)  # -r/2 + (p-1)/2 = -1/2


def test_gauss_rect_and_hyper_pfq_agree_near_the_identity():
    # O < Z_Y < I is the spectral-radius check hyper_pfq makes, so an
    # argument just inside it is one verdict for both
    cfg = RectConfig.with_identity_weights(2, 2)
    y = SpdMatrix.diagonal((1.0 - 1e-13, 0.1))
    want = hyper_pfq(HyperParams((2.0, 0.5), (4.0,)), y).value
    assert want == pytest.approx(1.63168, rel=1e-5)
    assert gauss_2f1_rect(1.0, 0.5, 3.0, y, cfg) == want


# ---------------------------------------------------------------------------
# pathway determinant limit

def test_pathway_det_limit_frozen():
    # (1 + (q-1) tr)^(-1/(q-1)) at q = 1.01, single eigenvalue 1: 1.01^{-100}
    got = pathway_det_limit(1.01, np.array([1.0]))
    assert got == pytest.approx(1.01 ** (-100), rel=1e-12)


def test_pathway_det_limit_zero_spectrum_exact():
    assert pathway_det_limit(1.0001, np.zeros(3)) == 1.0


def test_pathway_det_limit_refuses_empty_spectrum():
    # an empty spectrum is a degenerate size, not the zero spectrum
    with pytest.raises(DimensionError, match="non-empty"):
        pathway_det_limit(1.5, np.array([]))


def test_pathway_det_limit_approaches_exponential():
    eigs = np.array([0.7, 0.2])
    target = math.exp(-0.9)
    errs = [abs(pathway_det_limit(q, eigs) - target) / target
            for q in (1.01, 1.001, 1.0001)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_pathway_det_limit_domain():
    with pytest.raises(ParameterDomainError):
        pathway_det_limit(1.0, np.array([0.5]))
    with pytest.raises(ParameterDomainError):
        pathway_det_limit(1.01, np.array([-0.5]))


def test_pathway_det_limit_refuses_nan_and_takes_inf():
    # NaN compares false both ways, so it must fail the non-negative check
    with pytest.raises(ParameterDomainError, match="non-negative"):
        pathway_det_limit(2.0, np.array([0.5, math.nan]))
    assert pathway_det_limit(2.0, np.array([math.inf])) == 0.0


@pytest.mark.parametrize("eigs", [["1.5"], [True], [None], np.array([True]),
                                  np.array(["1.5"])],
                         ids=["string", "bool", "none", "bool-array",
                              "string-array"])
def test_pathway_det_limit_refuses_non_real_eigenvalues(eigs):
    # read_matrix's type rule; a float conversion alone read "1.5" as 1.5
    # and True as 1.0
    with pytest.raises(DimensionError, match="real numbers"):
        pathway_det_limit(2.0, eigs)
