"""Hypergeometric series of matrix argument.

The scalar oracle below sums the classical one-variable series directly
with ordinary rising factorials; every dimension-1 result must reduce to
it.  Two-dimensional results are checked against the determinant binomial
identity, which is an independent closed form.
"""

import math
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
    SpdMatrix,
    Truncation,
    fetch_table,
    gauss_2f1_rect,
    hyper_pfq,
    hyper_pfq_at_identity,
    pathway_det_limit,
)

from conftest import brute_monomial, spd_from_eigs


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


def test_gauss_frozen_value(monkeypatch):
    # 2F1(1,1;2;z) = -log(1-z)/z, so the value at z = 1/2 is 2 log 2;
    # dimension 1 needs about forty weights for ten digits here
    monkeypatch.setenv("MVFRAC_KMAX_CEILING", "45")
    res = hyper_pfq(HyperParams((1.0, 1.0), (2.0,)),
                    SpdMatrix(np.array([[0.5]])), Truncation(k_max=40))
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
        for K in table.weight_partitions(k):
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
                     for mu, c in table.row(K).items())
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


def test_divergent_series_detected():
    # 2F0 diverges for any nonzero argument; the growth guard must fire
    with pytest.raises(NonConvergenceError):
        hyper_pfq(HyperParams((1.5, 2.0), ()), SpdMatrix(np.array([[0.9]])),
                  Truncation(k_max=25))


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


@pytest.mark.parametrize("p", [-1, 0, 2.0, "2"])
def test_at_identity_validates_dimension(p):
    with pytest.raises(ParameterDomainError, match=f"got {p!r}"):
        hyper_pfq_at_identity(HyperParams((0.3, 0.2), (2.0,)), p)


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


# ---------------------------------------------------------------------------
# pathway determinant limit

def test_pathway_det_limit_frozen():
    # (1 + (q-1) tr)^(-1/(q-1)) at q = 1.01, single eigenvalue 1: 1.01^{-100}
    got = pathway_det_limit(1.01, np.array([1.0]))
    assert got == pytest.approx(1.01 ** (-100), rel=1e-12)


def test_pathway_det_limit_accepts_spd():
    z = SpdMatrix.diagonal((0.5, 0.25))
    got = pathway_det_limit(1.001, z)
    want = (1 + 0.001 * 0.5) ** (-1000) * (1 + 0.001 * 0.25) ** (-1000)
    assert got == pytest.approx(want, rel=1e-12)


def test_pathway_det_limit_zero_spectrum_exact():
    assert pathway_det_limit(1.0001, np.zeros(3)) == 1.0


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
