"""Scalar and matrix log-gamma, partitions, Pochhammer coefficients.

Oracles: scipy's gammaln and, below 1e-300, -log(x) for the scalar
routine, explicit finite products for the Pochhammer coefficients, and a
brute-force enumerator for partitions.
"""

import itertools
import math
import re

import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfrac import (
    DegenerateInputError,
    ParameterDomainError,
    gen_pochhammer,
    log_gamma,
    log_matrix_beta,
    log_matrix_gamma,
    log_matrix_gamma_partition,
    partitions_of,
    pathway_factor,
    signed_log_gen_pochhammer,
)
from mvfrac.errors import as_partition


# ---------------------------------------------------------------------------
# scalar log gamma

@given(st.floats(min_value=1e-3, max_value=170.0))
def test_log_gamma_matches_scipy(x):
    assert log_gamma(x) == pytest.approx(scipy.special.gammaln(x), rel=1e-12,
                                         abs=1e-12)


@pytest.mark.parametrize("x", [1e-300, 1e-309, 5e-324])
def test_log_gamma_tiny_arguments_are_finite(x):
    # log Gamma(x) = -log(x) - 0.5772 x + O(x^2); scipy's gammaln(1e-309)
    # is inf
    assert log_gamma(x) == pytest.approx(-math.log(x), rel=1e-12)


def test_log_gamma_overflow_is_inf():
    assert log_gamma(1e308) == math.inf


def test_log_gamma_frozen_points():
    # Gamma(1/2) = sqrt(pi), Gamma(5) = 24
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)


def test_log_gamma_rejects_poles():
    with pytest.raises(ParameterDomainError):
        log_gamma(0.0)
    with pytest.raises(ParameterDomainError):
        log_gamma(-2.0)


# ---------------------------------------------------------------------------
# partitions

def _brute_partitions(k, max_parts):
    # every weakly decreasing positive tuple summing to k, at most max_parts
    found = set()
    for n_parts in range(0, max_parts + 1):
        for combo in itertools.product(range(1, k + 1), repeat=n_parts):
            if sum(combo) == k and all(a >= b for a, b in zip(combo, combo[1:])):
                found.add(combo)
    if k == 0:
        found.add(())
    return found


@pytest.mark.parametrize("k,max_parts", [(0, 3), (1, 1), (4, 2), (5, 5), (6, 3)])
def test_partitions_of_matches_brute_force(k, max_parts):
    got = partitions_of(k, max_parts)
    assert set(got) == _brute_partitions(k, max_parts)
    assert got == sorted(got, reverse=True)  # reverse-lex, (k,) first


def test_partitions_of_known_count():
    # partitions of 6 into at most 3 parts: 6, 51, 42, 411, 33, 321, 222
    assert len(partitions_of(6, 3)) == 7


def test_partition_validation():
    # a bare int is a one-part partition; trailing zeros are padding
    assert as_partition(3) == (3,)
    assert as_partition((2, 0)) == (2,)
    assert as_partition(()) == () == as_partition([0, 0])
    for bad, message in (
            ((1, 2), "partition parts must be non-increasing, got (1, 2)"),
            ((2, 3, 0), "partition parts must be non-increasing, got (2, 3)"),
            (2.0, "partition part must be an integer, got 2.0"),
            ((2, -1), "partition part must be non-negative, got -1")):
        with pytest.raises(ParameterDomainError) as info:
            as_partition(bad)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# generalized Pochhammer

def _poch_product(a, parts):
    # prod_j prod_{i<k_j} (a - (j-1)/2 + i), the defining finite product
    out = 1.0
    for j, kj in enumerate(parts, start=1):
        base = a - (j - 1) / 2.0
        for i in range(kj):
            out *= base + i
    return out


@pytest.mark.parametrize("a,parts", [
    (2.0, (2, 1)),
    (0.7, (3,)),
    (1.5, (2, 2)),
    (3.0, (1, 1, 1)),
    (0.5, ()),
])
def test_gen_pochhammer_matches_product(a, parts):
    expected = _poch_product(a, parts)
    assert gen_pochhammer(a, parts) == pytest.approx(expected, rel=1e-12)


def test_gen_pochhammer_frozen():
    # (2)_{(2,1)} = [2*3] * [1.5] = 9
    assert gen_pochhammer(2.0, (2, 1)) == pytest.approx(9.0)


def test_signed_log_gen_pochhammer_negative_factor():
    # a = 0.2, K = (1,1): factors 0.2 and -0.3, product -0.06
    log_mag, sign = signed_log_gen_pochhammer(0.2, (1, 1))
    assert sign == -1
    assert math.exp(log_mag) == pytest.approx(0.06, rel=1e-12)


def test_signed_log_gen_pochhammer_zero():
    # a = 0 makes the first factor vanish
    _, sign = signed_log_gen_pochhammer(0.0, (2,))
    assert sign == 0


@given(st.floats(min_value=0.6, max_value=8.0),
       st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=60)
def test_signed_log_consistent_with_plain(a, k1_extra, k2):
    k1 = k2 + k1_extra
    if k1 == 0:
        parts = ()
    elif k2 == 0:
        parts = (k1,)
    else:
        parts = (k1, k2)
    part = parts
    plain = gen_pochhammer(a, part)
    log_mag, sign = signed_log_gen_pochhammer(a, part)
    assert sign * math.exp(log_mag) == pytest.approx(plain, rel=1e-10)


# ---------------------------------------------------------------------------
# matrix gamma and beta

def test_log_matrix_gamma_p1_is_scalar():
    for a in (0.5, 1.0, 2.7, 11.0):
        assert log_matrix_gamma(1, a) == pytest.approx(
            scipy.special.gammaln(a), rel=1e-12)


def test_log_matrix_gamma_frozen():
    # product form: pi^{p(p-1)/4} prod_j Gamma(a - (j-1)/2)
    # p=2, a=3: pi^{1/2} * Gamma(3) * Gamma(2.5) = (3/2) pi
    assert log_matrix_gamma(2, 3.0) == pytest.approx(
        math.log(1.5 * math.pi), rel=1e-12)
    # p=3, a=2: pi^{3/2} * Gamma(2) * Gamma(1.5) * Gamma(1) = pi^2 / 2
    assert log_matrix_gamma(3, 2.0) == pytest.approx(
        math.log(math.pi ** 2 / 2.0), rel=1e-12)


def test_log_matrix_gamma_domain():
    # needs alpha > (p-1)/2
    with pytest.raises(ParameterDomainError):
        log_matrix_gamma(3, 1.0)
    with pytest.raises(ParameterDomainError):
        log_matrix_gamma(2, 0.5)


def test_log_matrix_gamma_partition_shift():
    # shifted value equals log gamma plus log of the Pochhammer coefficient
    part = (2, 1)
    a = 3.0
    expected = log_matrix_gamma(2, a) + math.log(gen_pochhammer(a, part))
    assert log_matrix_gamma_partition(2, a, part) == pytest.approx(
        expected, rel=1e-12)


def test_log_matrix_gamma_partition_refusals():
    with pytest.raises(ParameterDomainError,
                       match=r"partition has 2 parts but dimension is 1"):
        log_matrix_gamma_partition(1, 3.0, (1, 1))
    # the second row's factor is b - 1/2: zero at b = 1/2, negative below
    with pytest.raises(ParameterDomainError,
                       match=r"\(0\.5\)_\(1, 1\) vanishes; log form undefined"):
        log_matrix_gamma_partition(2, 0.5, (1, 1))
    with pytest.raises(ParameterDomainError,
                       match=r"\(0\.25\)_\(1, 1\) is negative; use the signed"):
        log_matrix_gamma_partition(2, 0.25, (1, 1))


def test_log_matrix_beta_p1_frozen():
    # B(2,3) = 1/12
    assert log_matrix_beta(1, 2.0, 3.0) == pytest.approx(
        math.log(1.0 / 12.0), rel=1e-12)


@given(st.floats(min_value=1.6, max_value=6.0),
       st.floats(min_value=1.6, max_value=6.0),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=40)
def test_log_matrix_beta_symmetry(a, b, p):
    assert log_matrix_beta(p, a, b) == pytest.approx(
        log_matrix_beta(p, b, a), rel=1e-12, abs=1e-12)


def test_log_matrix_beta_gamma_identity():
    # B_p(a,b) = Gamma_p(a) Gamma_p(b) / Gamma_p(a+b)
    for p, a, b in [(2, 2.0, 2.5), (3, 1.6, 2.2)]:
        direct = (log_matrix_gamma(p, a) + log_matrix_gamma(p, b)
                  - log_matrix_gamma(p, a + b))
        assert log_matrix_beta(p, a, b) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("p,alpha,beta", [
    (1, 1e308, 1.0), (2, 1e307, 2.0), (1, 1.0, 1e308), (3, 1e306, 1e306)])
def test_log_matrix_beta_overflow_is_degenerate_not_nan(p, alpha, beta):
    # a log Gamma_p term overflows; the value used to be nan (inf - inf)
    message = f"log Gamma_{p} overflows at alpha = {alpha!r}, beta = {beta!r}"
    with pytest.raises(DegenerateInputError, match=f"^{re.escape(message)}$"):
        log_matrix_beta(p, alpha, beta)


@pytest.mark.parametrize("a", [1e6, 1e10, 1e15, 1e20])
def test_log_matrix_beta_when_one_shape_dwarfs_the_other(a):
    # B(a, 2) = 1/(a(a+1)) and B_2(a, 2) = pi^(1/2) Gamma(3/2) / (a(a+1)
    # (a-1/2)(a+1/2)); the difference of the three log Gamma_p terms gave
    # 0.0 at a = 1e20 and -64.0 at a = 1e15 for p = 1
    one = -math.log(a) - math.log1p(a)
    two = (0.5 * math.log(math.pi) + math.lgamma(1.5) - math.log(a * (a + 1))
           - math.log((a - 0.5) * (a + 0.5)))
    for p, want in ((1, one), (2, two)):
        assert log_matrix_beta(p, a, 2.0) == pytest.approx(want, rel=1e-12)
        assert log_matrix_beta(p, 2.0, a) == log_matrix_beta(p, a, 2.0)


def test_log_matrix_beta_reads_the_sum_as_a_real():
    # alpha + beta overflows to inf, which the caller never passed
    with pytest.raises(ParameterDomainError,
                       match=r"^alpha \+ beta must be finite, got inf$"):
        log_matrix_beta(2, 1e308, 1e308)


@given(st.integers(min_value=1, max_value=4),
       st.floats(min_value=2.0, max_value=1e308),
       st.floats(min_value=2.0, max_value=1e308))
@settings(max_examples=200)
def test_log_matrix_beta_is_finite_or_refused(p, alpha, beta):
    try:
        value = log_matrix_beta(p, alpha, beta)
    except (DegenerateInputError, ParameterDomainError):
        return
    assert math.isfinite(value)


# ---------------------------------------------------------------------------
# pathway scaling factor

def test_pathway_factor_frozen():
    # K = (2): single factor (q-1)^{-k} * poch-like product; at q=2 the
    # factor reduces to 1/(q-1)^k times nothing extra for one row
    assert pathway_factor(2.0, ()) == 1.0
    assert pathway_factor(2.0, (2,)) == pytest.approx(2.0)


def test_pathway_factor_limit_is_one():
    # as q -> 1+ the factor tends to 1 for any partition
    part = (2, 1)
    errs = [abs(pathway_factor(q, part) - 1.0) for q in (1.01, 1.001, 1.0001)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3
