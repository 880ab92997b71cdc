"""Zonal polynomial tables: construction, evaluation, classical identities.

The library scales each eigenfunction to the closed form of C_kappa(I), so
the trace identity, that the polynomials of weight k sum to (tr Z)^k, is a
check no step of the build enforces.  The strongest oracle is an exact
rational build: the same recurrence in fractions, normalized by solving
the trace identity itself, which every float coefficient must match to
1e-12.  Homogeneity, permutation symmetry, the hand-checkable weight-2
table and a hook-length form of C_kappa(I) complete the picture.
"""

import math
import pickle
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfrac import (
    DegenerateInputError,
    DimensionError,
    FracOrder,
    HyperParams,
    ParameterDomainError,
    RectConfig,
    ResourceLimitError,
    SpdMatrix,
    Truncation,
    build_zonal_table,
    cli,
    fetch_table,
    frac_integral_zonal_closed,
    gen_pochhammer,
    hyper_pfq,
    log_matrix_gamma_partition,
    partitions_of,
    pathway_factor,
    run_suite,
    signed_log_gen_pochhammer,
    zonal,
    zonal_at_identity,
    zonal_eval,
)

from conftest import (_reference_ones, brute_monomial, reference_build_weight,
                      reference_monomials, spd_from_eigs)


def test_weight_one_is_trace():
    z = spd_from_eigs((0.5, 1.5, 2.0))
    assert zonal_eval((1,), z) == pytest.approx(z.trace, rel=1e-12)


def test_weight_two_frozen_table():
    # weight-2 monomial table: row (2) is m2 + (2/3)m11, row (1,1) is (4/3)m11
    z = SpdMatrix.diagonal((1.0, 2.0))
    assert zonal_eval((2,), z) == pytest.approx(1 + 4 + (2 / 3) * 2, rel=1e-12)
    assert zonal_eval((1, 1), z) == pytest.approx((4 / 3) * 2, rel=1e-12)


def test_weight_two_at_identity():
    assert zonal_at_identity((2,), 2) == pytest.approx(8 / 3, rel=1e-12)
    assert zonal_at_identity((1, 1), 2) == pytest.approx(4 / 3, rel=1e-12)


def test_dimension_one_is_power():
    z = SpdMatrix(np.array([[0.7]]))
    for k in range(7):
        part = (k,) if k else ()
        assert zonal_eval(part, z) == pytest.approx(0.7 ** k, rel=1e-12)


@pytest.mark.parametrize("p,k", [(2, 4), (3, 5), (4, 6)])
def test_normalization_identity(p, k):
    z = spd_from_eigs(tuple(0.4 + 0.3 * i for i in range(p)), seed=p * 10 + k)
    total = sum(zonal_eval(K, z) for K in partitions_of(k, p))
    assert total == pytest.approx(z.trace ** k, rel=1e-11)


@given(st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_homogeneity(c):
    z = SpdMatrix.diagonal((0.8, 1.7))
    zc = SpdMatrix.diagonal((0.8 * c, 1.7 * c))
    for parts in ((3,), (2, 1)):
        assert zonal_eval(parts, zc) == pytest.approx(
            c ** 3 * zonal_eval(parts, z), rel=1e-10)


def test_permutation_symmetry():
    a = SpdMatrix.diagonal((0.5, 1.0, 2.5))
    b = SpdMatrix.diagonal((2.5, 0.5, 1.0))
    for K in partitions_of(4, 3):
        assert zonal_eval(K, a) == pytest.approx(zonal_eval(K, b), rel=1e-12)


def test_long_partition_vanishes_on_small_argument():
    # a 2x2 argument has no 3 parts, whatever tables hold length-3 rows
    fetch_table(3, 3)
    z = SpdMatrix.diagonal((0.9, 1.4))
    assert zonal_eval((1, 1, 1), z) == 0.0


def test_long_partition_is_zero_before_lookup():
    # no p = 1 table holds (2, 1), and none is read
    z = SpdMatrix(np.array([[0.5]]))
    assert zonal_eval((2, 1), z) == 0.0
    stack = np.stack([z.entries] * 3)
    np.testing.assert_array_equal(zonal_eval((2, 1), stack),
                                  np.zeros(3))
    assert zonal_at_identity((2, 1), 1) == 0.0


def test_superset_table_reuse():
    # an explicit wider table reads a smaller argument to rounding
    small = fetch_table(3, 2)
    large = fetch_table(5, 3)
    eigs = SpdMatrix.diagonal((1.2, 0.4)).eigenvalues
    for K in partitions_of(3, 2):
        assert small.value(K, eigs) == pytest.approx(large.value(K, eigs),
                                                     rel=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_eval_reads_the_table_for_its_dimension(d):
    # a wider table reads a d-dimensional argument only to rounding, so
    # whatever tables exist, zonal_eval gives the bits of the (k, d) table
    fetch_table(8, 5)
    mats = [spd_from_eigs(tuple(np.linspace(0.3, 1.6, d) + 0.1 * i), seed=i)
            for i in range(3)]
    stack = np.stack([m.entries for m in mats])
    eigs = np.linalg.eigvalsh(stack)[:, ::-1]
    for k in range(9):
        table = fetch_table(k, d)
        for K in partitions_of(k, d):
            assert zonal_eval(K, mats[0]) == table.value(
                K, mats[0].eigenvalues)
            np.testing.assert_array_equal(zonal_eval(K, stack),
                                          table.value(K, eigs))


def test_at_identity_matches_eval():
    eye = SpdMatrix.identity(3)
    for K in partitions_of(4, 3):
        assert zonal_at_identity(K, 3) == pytest.approx(zonal_eval(K, eye),
                                                        rel=1e-12)


def test_missing_entry_errors():
    # the cached table may hold more weight than asked for
    table = fetch_table(3, 2)
    z = SpdMatrix.diagonal((1.0, 1.0))
    with pytest.raises(ParameterDomainError, match="outside table range"):
        # weight above k_max
        table.value((table.k_max + 1,), z.eigenvalues)
    # more parts than the argument's dimension: zero, before any lookup
    assert zonal_eval((1, 1, 1), z) == 0.0
    with pytest.raises(DimensionError):
        table.value((2,), np.ones(3))


def test_build_ceiling(monkeypatch):
    # the ceiling is the constant 30, which no environment variable moves,
    # and a refused build leaves nothing in the cache
    monkeypatch.setenv("MVFRAC_KMAX_CEILING", "45")
    monkeypatch.setattr(zonal, "_table_cache", {})
    with pytest.raises(ResourceLimitError,
                       match=r"^k_max=31 exceeds the table ceiling 30$"):
        build_zonal_table(31, 2)
    assert zonal._table_cache == {}
    assert build_zonal_table(30, 2).k_max == 30
    assert max(t.k_max for t in zonal._table_cache.values()) == 30


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_monomial_value_matches_permutation_sum(d):
    table = build_zonal_table(6, 4)
    eigs = np.random.default_rng(d).uniform(0.1, 2.0, (3, d))
    for k in range(7):
        for mu in partitions_of(k, 4):
            want = [brute_monomial(mu, row) for row in eigs]
            np.testing.assert_allclose(table.monomial_value(mu, eigs), want,
                                       rtol=1e-12)
            assert table.monomial_value(mu, eigs[0]) == pytest.approx(
                want[0], rel=1e-12)


_SERIES_CASES = [(p, k_max) for p in range(1, 6) for k_max in (0, 1, 12, 20)
                 ] + [(p, 30) for p in range(1, 4)]


@pytest.mark.parametrize("p,k_max", _SERIES_CASES)
def test_monomials_match_row_layout_bitwise(p, k_max):
    # the passes sum over their leading (width) axis; numpy sums a short
    # axis as a left fold either way, so every value keeps its bits
    table = fetch_table(k_max, p)
    rng = np.random.default_rng(100 * p + k_max)
    for d in range(1, p + 1):
        eigs = np.sort(rng.uniform(0.05, 0.9, d))[::-1]
        want = reference_monomials(table, eigs, k_max)
        assert table.monomials(eigs, k_max).tobytes() == want.tobytes()
        if k_max <= 6:
            stack = np.sort(rng.uniform(0.05, 2.0, (5, d)), axis=1)[:, ::-1]
            want = reference_monomials(table, stack, k_max)
            got = table.monomials(stack, k_max)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_table_methods_take_every_partition_form():
    # every entry that takes a partition reads it by one rule: a list,
    # trailing zeros, a numpy array and numpy integer parts give the bytes
    # of the tuple, and a bare int those of the one-part partition; the
    # table methods are read for one argument and for a stack
    table = fetch_table(3, 2)
    eigs = np.array([[0.7, 0.2], [1.5, 0.4], [0.3, 0.3]])
    stack = np.stack([np.diag(x) for x in eigs])
    z = SpdMatrix.diagonal((0.7, 0.2))
    order = FracOrder(1.5, RectConfig.with_identity_weights(2, 3))
    entries = {
        "zonal_eval": lambda K: zonal_eval(K, stack),
        "ZonalTable.value": lambda K: table.value(K, eigs),
        "ZonalTable.value-one": lambda K: table.value(K, eigs[0]),
        "ZonalTable.monomial_value": lambda K: table.monomial_value(K, eigs),
        "ZonalTable.monomial_value-one":
            lambda K: table.monomial_value(K, eigs[0]),
        "zonal_at_identity": lambda K: zonal_at_identity(K, 2),
        "gen_pochhammer": lambda K: gen_pochhammer(0.7, K),
        "signed_log_gen_pochhammer":
            lambda K: signed_log_gen_pochhammer(0.7, K),
        "log_matrix_gamma_partition":
            lambda K: log_matrix_gamma_partition(2, 1.7, K),
        "pathway_factor": lambda K: pathway_factor(1.3, K),
        "frac_integral_zonal_closed":
            lambda K: frac_integral_zonal_closed(order, z, K),
    }
    for name, entry in entries.items():
        for K in partitions_of(3, 2):
            want = pickle.dumps(entry(K))
            for form in (list(K), K + (0,), np.array(K),
                         tuple(np.int64(k) for k in K)):
                assert pickle.dumps(entry(form)) == want, (name, form)
        assert pickle.dumps(entry(3)) == pickle.dumps(entry((3,))), name


def test_empty_partition_is_constant_one():
    z = SpdMatrix.diagonal((0.3, 5.0))
    assert zonal_eval((), z) == 1.0
    assert zonal_at_identity((), 2) == 1.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_stack_matches_per_matrix(p):
    # an (n, p, p) stack gives the n per-matrix values, including the
    # constant empty partition and partitions longer than p.  The eigenvalues
    # agree bit for bit; the table's product over the monomials is one BLAS
    # call per stack, whose kernel may round an n-column product and a
    # one-column product differently (2 ulp seen up to weight 6, p = 5)
    table = fetch_table(3, 3)
    mats = [spd_from_eigs(np.linspace(0.2, 1.7, p) + 0.1 * i, seed=i)
            for i in range(6)]
    stack = np.stack([m.entries for m in mats])
    for k in range(4):
        for K in partitions_of(k, 3):
            got = zonal_eval(K, stack)
            want = [zonal_eval(K, m) for m in mats]
            assert got.shape == (len(mats),)
            np.testing.assert_array_max_ulp(got, np.array(want), maxulp=4)
    with pytest.raises(DimensionError):
        table.value((1,), np.ones((2, 4)))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_matrix_and_its_stack_of_one_agree_bitwise(p):
    # an SpdMatrix is read as the stack of its one matrix, and the spectrum
    # it keeps is the one _batch_eigvalsh gives that stack, so the float it
    # gives is the stack's value, for partitions longer than p as well
    for i in range(24):
        z = spd_from_eigs(np.geomspace(0.05, 3.0, p) * (0.5 + 0.1 * i), seed=i)
        stack = z.entries[None]
        for k in range(7):
            for K in partitions_of(k, k or 1):
                got = zonal_eval(K, z)
                want = zonal_eval(K, stack)
                assert type(got) is float and want.shape == (1,)
                assert np.float64(got).tobytes() == want.tobytes(), (K, i)


def test_nested_lists_are_read_as_stacks():
    z = [[[1.0, 0.2], [0.2, 0.5]], [[0.7, 0.0], [0.0, 0.3]]]
    for K in ((2,), (1, 1), (2, 1), (1, 1, 1)):
        assert zonal_eval(K, z).tobytes() == zonal_eval(K, np.array(z)).tobytes()
    # one matrix as plain rows is refused as its ndarray is, not with a
    # traceback from an attribute lookup
    for rows in ([[1.0, 0.0], [0.0, 1.0]], np.eye(2)):
        with pytest.raises(DimensionError, match=r"\(n, p, p\).*\(2, 2\)"):
            zonal_eval((2,), rows)


@pytest.mark.parametrize("shape", [(3, 2, 3), (2, 2), (3, 2, 2, 2), (3, 0, 0)])
def test_stack_shape_is_checked_first(shape):
    # these used to raise LinAlgError, IndexError or ValueError from inside
    # the eigenvalue or table code; a K longer than p is refused as well
    for K in ((2,), (1, 1, 1)):
        with pytest.raises(DimensionError, match=r"\(n, p, p\)"):
            zonal_eval(K, np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stack_entries_must_be_finite(bad):
    # a NaN corner used to give C_(2) = 0.1067 and an inf one gave nan
    stack = np.array([np.eye(2), [[1.0, 0.2], [0.2, bad]]])
    for K in ((2,), (1, 1, 1)):
        with pytest.raises(DegenerateInputError, match="finite"):
            zonal_eval(K, stack)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_empty_stack_gives_empty_values(p):
    for K in ((), (2,), (1, 1, 1, 1)):
        got = zonal_eval(K, np.zeros((0, p, p)))
        assert isinstance(got, np.ndarray) and got.shape == (0,)


@lru_cache(maxsize=None)
def _exact_weight(k, p):
    """Weight-k zonal coefficients {kappa: {mu: c}} in exact rationals: the
    Laplace-Beltrami recurrence row by row, then each row's scale solved
    from sum_kappa C_kappa = (x_1 + ... + x_p)^k, whose coefficient on m_mu
    is the multinomial k! / prod(mu_i!)."""
    plist = partitions_of(k, p)

    def sums(q):
        return list(accumulate(q + (0,) * (p - len(q))))

    def rho(q):
        return sum(x * (x - i) for i, x in enumerate(q, 1))

    feeds = {}
    for lam in plist:
        feed = feeds[lam] = Counter()
        for i, j in combinations(range(len(lam)), 2):
            for t in range(1, lam[j] + 1):
                mu = list(lam)
                mu[i] += t
                mu[j] -= t
                mu = tuple(sorted(filter(None, mu), reverse=True))
                feed[mu] += lam[i] - lam[j] + 2 * t
    rows = {}
    for pos, kappa in enumerate(plist):
        row = rows[kappa] = {kappa: Fraction(1)}
        for lam in plist[pos + 1:]:
            if all(a >= b for a, b in zip(sums(kappa), sums(lam))):
                row[lam] = sum(w * row.get(mu, 0)
                               for mu, w in feeds[lam].items()
                               ) / (rho(kappa) - rho(lam))
    scale = {}
    for lam in plist:
        multinomial = math.factorial(k) // math.prod(map(math.factorial, lam))
        scale[lam] = multinomial - sum(s * rows[kappa].get(lam, 0)
                                       for kappa, s in scale.items())
    return {kappa: {mu: scale[kappa] * c for mu, c in row.items()}
            for kappa, row in rows.items()}


def test_coefficients_match_exact_rationals():
    # exact coefficients do not depend on p, so the p = 5 build serves
    # every smaller table
    k_max = 16
    for p in range(1, 6):
        table = build_zonal_table(k_max, p)
        for k in range(k_max + 1):
            exact = _exact_weight(k, 5)
            plist = partitions_of(k, p)
            for kappa, row in zip(plist, table.coeffs[k].tolist()):
                want = {mu: c for mu, c in exact[kappa].items()
                        if len(mu) <= p}
                got = {mu: c for mu, c in zip(plist, row) if c}
                assert got.keys() == want.keys()
                for mu, c in want.items():
                    assert abs(got[mu] - c) <= 1e-12 * c, (p, kappa, mu)


def _hook_identity_value(kappa, p):
    """C_kappa(I_p) = 2^k k! prod_s (p - i + 1 + 2(j - 1))
    / prod_s (2a + l + 1)(2a + l + 2) over the boxes s = (i, j) of kappa,
    with arm a and leg l (Macdonald's hook form of the Jack polynomial at
    alpha = 2)."""
    k = sum(kappa)
    conj = [sum(1 for ki in kappa if ki > j)
            for j in range(max(kappa, default=0))]
    num = 2 ** k * math.factorial(k)
    den = 1
    for i, ki in enumerate(kappa):
        for j in range(ki):
            arm = ki - j - 1
            leg = conj[j] - i - 1
            num *= p - i + 2 * j
            den *= (2 * arm + leg + 1) * (2 * arm + leg + 2)
    return num / den


@pytest.mark.parametrize("k_max,p", [(30, 4), (25, 5)])
def test_trace_identity_and_identity_values(k_max, p):
    table = build_zonal_table(k_max, p)
    # the trace identity holds for arguments of any dimension d <= p
    for d in (p, 2):
        eigs = np.random.default_rng(d).uniform(0.1, 1.0, d)
        m = table.monomials(eigs, k_max)
        for k in range(k_max + 1):
            lo, hi = table.offsets[k], table.offsets[k + 1]
            total = (table.coeffs[k] @ m[lo:hi]).sum()
            assert total == pytest.approx(eigs.sum() ** k, rel=1e-12)
    top = partitions_of(k_max, p)
    for kappa in top[::7] + top[-3:]:
        assert zonal_at_identity(kappa, p) == pytest.approx(
            _hook_identity_value(kappa, p), rel=1e-12)
    ones = table.monomials(np.ones(p), k_max)
    values = np.concatenate([table.coeffs[k] @ ones[table.offsets[k]:
                                                    table.offsets[k + 1]]
                             for k in range(k_max + 1)])
    want = [_hook_identity_value(kappa, p)
            for k in range(k_max + 1) for kappa in partitions_of(k, p)]
    np.testing.assert_allclose(values, want, rtol=1e-12)


@pytest.mark.parametrize("k_max,p", [(30, 1), (30, 2), (30, 3), (25, 4),
                                     (20, 5)])
def test_monomials_at_ones_match_reference_bitwise(monkeypatch, k_max, p):
    # the build scales each row by m_mu(1^p) from the table's own monomials;
    # every value must be the exact integer count of mu's orderings
    monkeypatch.setattr(zonal, "_table_cache", {})
    table = fetch_table(k_max, p)
    want = [_reference_ones(q, p)
            for k in range(k_max + 1) for q in partitions_of(k, p)]
    assert table.monomials(np.ones(p), k_max).tolist() == want


def test_identity_values_are_exact():
    # every partition of weight <= 30 for p <= 5, in the batch form the
    # build scales by and in the public one-partition form, to the last bit
    for p in range(1, 6):
        for k in range(31):
            plist = partitions_of(k, p)
            want = [_hook_identity_value(kappa, p) for kappa in plist]
            parts = zonal._parts_array(plist, p)
            assert zonal._at_identity(parts, p).tolist() == want
            assert [zonal_at_identity(kappa, p) for kappa in plist] == want


# the perfbench series set-up tables, then gauss_2f1_rect's (25, 2)
@pytest.mark.parametrize("k_max,p", [(30, 1), (30, 2), (30, 3), (25, 4),
                                     (20, 5), (25, 2)])
def test_weight_blocks_match_reference_bitwise(monkeypatch, k_max, p):
    monkeypatch.setattr(zonal, "_table_cache", {})
    table = fetch_table(k_max, p)
    for k in range(k_max + 1):
        plist = partitions_of(k, p)
        want = reference_build_weight(plist, p)
        assert table.coeffs[k].tobytes() == want.tobytes(), (k, p)


def test_grown_table_matches_reference_bitwise(monkeypatch):
    monkeypatch.setattr(zonal, "_table_cache", {})
    fetch_table(2, 3)
    table = fetch_table(25, 3)
    for k in range(26):
        plist = partitions_of(k, 3)
        want = reference_build_weight(plist, 3)
        assert table.coeffs[k].tobytes() == want.tobytes(), k


def test_weight_build_memory_stays_near_its_block(monkeypatch):
    # growing the p = 5 table from weight 29 to 30 builds one 674 x 674
    # block; an (n, n, p) dominance temporary alone would be five times its
    # size.  Only what the build allocates is traced, not the table's index.
    monkeypatch.setattr(zonal, "_table_cache", {})
    kept = fetch_table(29, 5).coeffs
    build_weights = zonal._build_weights
    peaks = []

    def traced(*args):
        tracemalloc.start()
        try:
            blocks = build_weights(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return blocks

    monkeypatch.setattr(zonal, "_build_weights", traced)
    block = zonal.ZonalTable(5, 30, kept).coeffs[30]
    assert block.shape == (674, 674)
    assert len(peaks) == 1
    assert peaks[0] < 1.5 * block.nbytes


@pytest.mark.parametrize("eigs,k_max,error,match", [
    ([0.5, 0.2], 5, ParameterDomainError, "^k_max=5 outside table range"),
    ([0.5, 0.2], -1, ParameterDomainError, "non-negative, got -1$"),
    ([0.5, 0.2], 2.5, ParameterDomainError, "integer, got 2.5$"),
    ([], 2, DimensionError, "non-empty"),
])
def test_monomials_refuse_bad_input(monkeypatch, eigs, k_max, error, match):
    monkeypatch.setattr(zonal, "_table_cache", {})
    table = fetch_table(3, 2)
    with pytest.raises(error, match=match):
        table.monomials(np.array(eigs), k_max)


def _fixed_values(capsys):
    """Zonal values at 1-, 2- and 3-dimensional arguments, hyper_pfq at
    p <= 3 and one CLI record, as float hex strings and stdout."""
    values = []
    for d in (1, 2, 3):
        z = spd_from_eigs(tuple(np.linspace(0.15, 0.8, d)), seed=d)
        for k in range(6):
            values += [zonal_eval(K, z) for K in partitions_of(k, d)]
        for num, den in (((), ()), ((0.7,), ()), ((1.5, 0.4), (2.2,))):
            for k_max in (4, 12, 25):
                values += hyper_pfq(HyperParams(num, den), z,
                                    Truncation(k_max=k_max))
    capsys.readouterr()
    assert cli.main(["eval", "zonal", "--k", "2,1", "--eigs", "0.5,1.5"]) == 0
    return [float(v).hex() for v in values], capsys.readouterr().out


def test_values_do_not_depend_on_tables_built_before(capsys, monkeypatch):
    # each run starts from an empty cache, as a fresh process does
    monkeypatch.setattr(zonal, "_table_cache", {})
    fresh = _fixed_values(capsys)
    monkeypatch.setattr(zonal, "_table_cache", {})
    build_zonal_table(30, 5)
    build_zonal_table(10, 4)
    assert _fixed_values(capsys) == fresh


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_growing_a_table_moves_no_value(monkeypatch, p):
    monkeypatch.setattr(zonal, "_table_cache", {})
    z = spd_from_eigs(tuple(np.linspace(0.2, 0.9, p)), seed=p)
    params = HyperParams((0.7, 1.1), (1.9,))

    def values():
        table = fetch_table(2, p)
        out = [zonal_eval(K, z) for k in range(3) for K in partitions_of(k, p)]
        out += hyper_pfq(params, z, Truncation(k_max=2))
        return [float(v).hex() for v in out], table

    before, small = values()
    fetch_table(25, p)
    after, large = values()
    assert (small.k_max, large.k_max) == (2, 25)
    assert after == before
    # the grown table keeps the blocks it had
    assert all(large.coeffs[k] is small.coeffs[k] for k in range(3))


def test_growth_builds_each_weight_once(monkeypatch):
    # fraczonal asks for K = (1,) before (2,) at p = 1 and 2, so both tables
    # grow from weight 1 to 2; each of weights 0-2 builds once per p
    monkeypatch.setattr(zonal, "_table_cache", {})
    calls = []
    build_weights = zonal._build_weights

    def counted(parts, offsets, start, *args):
        p = parts.shape[1]
        calls.extend((k, p) for k in range(start, len(offsets) - 1))
        return build_weights(parts, offsets, start, *args)

    monkeypatch.setattr(zonal, "_build_weights", counted)
    run_suite("fraczonal", samples=2000, seed=1)
    assert calls == [(k, p) for p in (1, 2) for k in range(3)]


def test_identity_value_needs_no_table(monkeypatch):
    # the closed form holds above the table ceiling and builds nothing
    monkeypatch.setattr(zonal, "_table_cache", {})
    for kappa, p in (((31,), 2), ((20, 11), 3)):
        assert zonal_at_identity(kappa, p) == pytest.approx(
            _hook_identity_value(kappa, p), rel=1e-12)
    assert zonal._table_cache == {}


@pytest.mark.parametrize("late", ["narrow", "wide"])
def test_concurrent_growth_keeps_the_wider_table(monkeypatch, late):
    # the thread named `late` is held inside its build until the other has
    # cached its table, so both orders of finishing are exercised
    monkeypatch.setattr(zonal, "_table_cache", {})
    building = threading.Event()
    release = threading.Event()
    build_weights = zonal._build_weights

    def gated(*args):
        if threading.current_thread().name == late:
            building.set()
            release.wait(30)
        return build_weights(*args)

    monkeypatch.setattr(zonal, "_build_weights", gated)
    threads = {name: threading.Thread(target=fetch_table, args=(k_max, 1),
                                      name=name)
               for name, k_max in (("narrow", 4), ("wide", 12))}
    early = "wide" if late == "narrow" else "narrow"
    threads[late].start()
    assert building.wait(30)
    threads[early].start()
    threads[early].join(30)
    release.set()
    threads[late].join(30)
    assert not any(t.is_alive() for t in threads.values())
    assert zonal._table_cache[1].k_max == 12
    assert fetch_table(4, 1) is zonal._table_cache[1]


def test_many_growers_keep_the_widest_table(monkeypatch):
    monkeypatch.setattr(zonal, "_table_cache", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fetch_table, args=(k_max, p))
                   for k_max in (3, 9, 6, 12) for p in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert {p: t.k_max for p, t in zonal._table_cache.items()} == {1: 12,
                                                                   2: 12}
