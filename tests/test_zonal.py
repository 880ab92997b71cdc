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
import sys
import threading
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfrac import (
    DimensionError,
    HyperParams,
    MissingTableEntryError,
    Partition,
    ResourceLimitError,
    SpdMatrix,
    Truncation,
    build_zonal_table,
    cli,
    fetch_table,
    hyper_pfq,
    partitions_of,
    run_suite,
    table_from_records,
    table_to_records,
    zonal,
    zonal_at_identity,
    zonal_eval,
)

from conftest import brute_monomial, spd_from_eigs


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
    with pytest.raises(MissingTableEntryError):
        # weight above k_max
        table.value(Partition((table.k_max + 1,)), z.eigenvalues)
    # more parts than the argument's dimension: zero, before any lookup
    assert zonal_eval((1, 1, 1), z) == 0.0
    with pytest.raises(DimensionError):
        table.value(Partition((2,)), np.ones(3))


def test_build_ceiling(monkeypatch):
    monkeypatch.setenv("MVFRAC_KMAX_CEILING", "9")
    with pytest.raises(ResourceLimitError):
        build_zonal_table(10, 2)
    monkeypatch.setenv("MVFRAC_KMAX_CEILING", "12")
    build_zonal_table(10, 2)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_monomial_value_matches_permutation_sum(d):
    table = build_zonal_table(6, 4)
    eigs = np.random.default_rng(d).uniform(0.1, 2.0, (3, d))
    for k in range(7):
        for mu in partitions_of(k, 4):
            want = [brute_monomial(mu.parts, row) for row in eigs]
            np.testing.assert_allclose(table.monomial_value(mu, eigs), want,
                                       rtol=1e-12)
            assert table.monomial_value(mu, eigs[0]) == pytest.approx(
                want[0], rel=1e-12)


def test_records_round_trip():
    table = fetch_table(4, 2)
    records = table_to_records(table)
    back = table_from_records(records)
    z = SpdMatrix.diagonal((0.6, 1.9))
    for K in partitions_of(4, 2):
        assert back.value(K, z.eigenvalues) == table.value(K, z.eigenvalues)


def test_empty_partition_is_constant_one():
    z = SpdMatrix.diagonal((0.3, 5.0))
    assert zonal_eval((), z) == 1.0
    assert zonal_at_identity(Partition.coerce(()), 2) == 1.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_stack_matches_per_matrix(p):
    # an (n, p, p) stack gives the n per-matrix values, including the
    # constant empty partition and partitions longer than p
    table = fetch_table(3, 3)
    mats = [spd_from_eigs(np.linspace(0.2, 1.7, p) + 0.1 * i, seed=i)
            for i in range(6)]
    stack = np.stack([m.entries for m in mats])
    for k in range(4):
        for K in partitions_of(k, 3):
            got = zonal_eval(K, stack)
            want = [zonal_eval(K, m) for m in mats]
            assert got.shape == (len(mats),)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    with pytest.raises(DimensionError):
        table.value(Partition((1,)), np.ones((2, 4)))


@lru_cache(maxsize=None)
def _exact_weight(k, p):
    """Weight-k zonal coefficients {kappa: {mu: c}} in exact rationals: the
    Laplace-Beltrami recurrence row by row, then each row's scale solved
    from sum_kappa C_kappa = (x_1 + ... + x_p)^k, whose coefficient on m_mu
    is the multinomial k! / prod(mu_i!)."""
    plist = [q.parts for q in partitions_of(k, p)]

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
            for kappa in table.weight_partitions(k):
                want = {mu: c for mu, c in exact[kappa].items()
                        if len(mu) <= p}
                got = table.row(kappa)
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
    top = table.weight_partitions(k_max)
    for kappa in top[::7] + top[-3:]:
        assert zonal_at_identity(kappa, p) == pytest.approx(
            _hook_identity_value(kappa, p), rel=1e-12)
    ones = table.monomials(np.ones(p), k_max)
    values = np.concatenate([table.coeffs[k] @ ones[table.offsets[k]:
                                                    table.offsets[k + 1]]
                             for k in range(k_max + 1)])
    want = [_hook_identity_value(kappa, p)
            for k in range(k_max + 1) for kappa in table.weight_partitions(k)]
    np.testing.assert_allclose(values, want, rtol=1e-12)


def test_incomplete_records_raise():
    records = table_to_records(fetch_table(4, 2))
    for gone in ((2, 2), (1,), ()):
        kept = [rec for rec in records if tuple(rec["partition"]) != gone]
        with pytest.raises(MissingTableEntryError):
            table_from_records(kept, p=2)
    # a record set is complete up to its largest weight only
    assert table_from_records(
        [rec for rec in records if rec["k"] <= 3], p=2).k_max == 3


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
    build_weight = zonal._build_weight

    def counted(plist, p):
        calls.append((sum(plist[0]), p))
        return build_weight(plist, p)

    monkeypatch.setattr(zonal, "_build_weight", counted)
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
    build_weight = zonal._build_weight

    def gated(plist, p):
        if threading.current_thread().name == late:
            building.set()
            release.wait(30)
        return build_weight(plist, p)

    monkeypatch.setattr(zonal, "_build_weight", gated)
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
