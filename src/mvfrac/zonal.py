"""Zonal polynomial tables in the monomial symmetric basis.

Each polynomial of weight k is an eigenfunction of the radial part of the
Laplace-Beltrami operator; its coefficients over monomial symmetric
polynomials are filled in top-down in dominance order from the leading term,
then the whole weight is rescaled so the polynomials sum to (trace)**k.
Coefficients are dimension-stable, so a table built for p variables restricts
correctly to any argument of dimension <= p.
"""

import itertools
import math
import os
import threading

import numpy as np

from .errors import (DimensionError, MissingTableEntryError,
                     ParameterDomainError, ResourceLimitError)
from .gammacalc import Partition, partitions_of

__all__ = [
    "ZonalTable",
    "build_zonal_table",
    "zonal_eval",
    "zonal_at_identity",
    "table_to_records",
    "table_from_records",
]

_DEFAULT_KMAX_CEILING = 30
_KMAX_CEILING_ENV = "MVFRAC_KMAX_CEILING"


def _kmax_ceiling():
    raw = os.environ.get(_KMAX_CEILING_ENV)
    if raw is None:
        return _DEFAULT_KMAX_CEILING
    try:
        return int(raw)
    except ValueError as exc:
        raise ParameterDomainError(
            f"{_KMAX_CEILING_ENV} must be an integer, got {raw!r}") from exc


def _eigen_weight(parts):
    # spectrum label of the weight-k eigenfunction; strictly monotone in
    # dominance order, which keeps every divisor below nonzero
    return sum(ki * (ki - (i + 1)) for i, ki in enumerate(parts))


def _dominated(lo, hi):
    """True iff lo <= hi in dominance order (equal weights assumed)."""
    s_lo = 0
    s_hi = 0
    for i in range(max(len(lo), len(hi))):
        s_lo += lo[i] if i < len(lo) else 0
        s_hi += hi[i] if i < len(hi) else 0
        if s_lo > s_hi:
            return False
    return True


def _multinomial(k, parts):
    out = math.factorial(k)
    for li in parts:
        out //= math.factorial(li)
    return float(out)


def _build_weight(k, p):
    """Coefficient rows {kappa: {mu: coeff}} for all weight-k partitions."""
    plist = [q.parts for q in partitions_of(k, p)]
    rho = {parts: _eigen_weight(parts) for parts in plist}
    unnorm = {}
    for pos, kappa in enumerate(plist):
        row = {kappa: 1.0}
        for lam in plist[pos + 1:]:
            if not _dominated(lam, kappa):
                continue
            # pull t units from a lower part up to a higher position; every
            # producing triple (i, j, t) contributes separately
            acc = 0.0
            parts = list(lam)
            nparts = len(parts)
            for j in range(1, nparts):
                lj = parts[j]
                for i in range(j):
                    li = parts[i]
                    for t in range(1, lj + 1):
                        raised = li + t
                        lowered = lj - t
                        cand = list(parts)
                        cand[i] = raised
                        cand[j] = lowered
                        cand.sort(reverse=True)
                        while cand and cand[-1] == 0:
                            cand.pop()
                        cmu = row.get(tuple(cand))
                        if cmu is not None:
                            acc += (raised - lowered) * cmu
            gap = rho[kappa] - rho[lam]
            row[lam] = acc / gap
        unnorm[kappa] = row
    # fix the overall scale of each eigenfunction so the weight sums to the
    # trace power: solve the triangular system against the multinomial
    # coefficients of (x_1 + ... + x_p)**k
    scale = {}
    for pos, lam in enumerate(plist):
        acc = _multinomial(k, lam)
        for kappa in plist[:pos]:
            c = unnorm[kappa].get(lam)
            if c is not None:
                acc -= scale[kappa] * c
        scale[lam] = acc
    return {
        kappa: {mu: scale[kappa] * c for mu, c in row.items()}
        for kappa, row in unnorm.items()
    }


class ZonalTable:
    """Precomputed zonal coefficients for all partitions of weight <= k_max
    with at most p parts."""

    def __init__(self, k_max, p, rows):
        self.k_max = k_max
        self.p = p
        self._rows = rows
        self._perm_cache = {}
        self._partition_lists = {}

    def row(self, K):
        K = Partition.coerce(K)
        row = self._rows.get(K.parts)
        if row is None:
            raise MissingTableEntryError(
                f"no table entry for partition {K.parts} "
                f"(k_max={self.k_max}, p={self.p})")
        return row

    def coefficients(self, K):
        """Monomial coefficients of the polynomial for K, keyed by Partition."""
        return {Partition(mu): c for mu, c in self.row(K).items()}

    def weight_partitions(self, k):
        cached = self._partition_lists.get(k)
        if cached is None:
            cached = [q.parts for q in partitions_of(k, self.p)]
            self._partition_lists[k] = cached
        return cached

    def _perms(self, exps):
        cached = self._perm_cache.get(exps)
        if cached is None:
            cached = sorted(set(itertools.permutations(exps)))
            self._perm_cache[exps] = cached
        return cached

    def monomial_value(self, mu, eigenvalues):
        """Monomial symmetric polynomial for mu at the given eigenvalues."""
        n = len(eigenvalues)
        if len(mu) > n:
            return 0.0
        exps = tuple(mu) + (0,) * (n - len(mu))
        total = 0.0
        for perm in self._perms(exps):
            term = 1.0
            for x, e in zip(eigenvalues, perm):
                if e:
                    term *= x ** e
            total += term
        return total


_table_cache = {}
_table_lock = threading.Lock()


def build_zonal_table(k_max, p):
    """Build (or fetch cached) zonal coefficients up to weight k_max for
    arguments of dimension <= p.

    Refuses k_max above the configured ceiling (default 30, overridable via
    the MVFRAC_KMAX_CEILING environment variable): table size and float
    dynamic range both degrade beyond it.
    """
    if not isinstance(k_max, int) or k_max < 0:
        raise ParameterDomainError(f"k_max must be a non-negative integer, got {k_max!r}")
    if not isinstance(p, int) or p < 1:
        raise ParameterDomainError(f"p must be a positive integer, got {p!r}")
    ceiling = _kmax_ceiling()
    if k_max > ceiling:
        raise ResourceLimitError(
            f"k_max={k_max} exceeds the table ceiling {ceiling} "
            f"(set {_KMAX_CEILING_ENV} to raise it)")
    key = (k_max, p)
    with _table_lock:
        table = _table_cache.get(key)
    if table is not None:
        return table
    rows = {}
    for k in range(k_max + 1):
        rows.update(_build_weight(k, p))
    table = ZonalTable(k_max, p, rows)
    with _table_lock:
        # idempotent: concurrent builders produce identical coefficients
        table = _table_cache.setdefault(key, table)
    return table


def fetch_table(k_max, p):
    """A cached table covering (k_max, p), reusing any superset already built."""
    with _table_lock:
        for (km, tp), table in _table_cache.items():
            if km >= k_max and tp >= p:
                return table
    return build_zonal_table(k_max, p)


def zonal_eval(K, Z, table):
    """Evaluate the zonal polynomial for partition K at the SPD matrix Z.

    Z is an SpdMatrix, giving a float, or an (n, p, p) array stack of
    symmetric matrices, giving the n values as an array.  The value is a
    symmetric function of the eigenvalues of Z.  If K has more nonzero parts
    than Z has rows the value is identically zero, which falls out of the
    monomial basis with no special casing.
    """
    K = Partition.coerce(K)
    if isinstance(Z, np.ndarray):
        eigs = tuple(np.linalg.eigvalsh(Z)[:, ::-1].T)
        total = np.zeros(len(Z))
    else:
        eigs = tuple(Z.eigenvalues.tolist())
        total = 0.0
    if len(eigs) > table.p:
        raise DimensionError(
            f"argument dimension {len(eigs)} exceeds table dimension {table.p}")
    if K.weight > table.k_max or len(K) > table.p:
        raise MissingTableEntryError(
            f"partition {K.parts} outside table range (k_max={table.k_max}, p={table.p})")
    for mu, c in table.row(K).items():
        if len(mu) <= len(eigs):
            total += c * table.monomial_value(mu, eigs)
    return total


def zonal_at_identity(K, p, table):
    """Zonal polynomial value at the p-dimensional identity."""
    if not isinstance(p, int) or p < 1:
        raise ParameterDomainError(f"p must be a positive integer, got {p!r}")
    if p > table.p:
        raise DimensionError(f"dimension {p} exceeds table dimension {table.p}")
    K = Partition.coerce(K)
    if K.weight > table.k_max or len(K) > table.p:
        raise MissingTableEntryError(
            f"partition {K.parts} outside table range (k_max={table.k_max}, p={table.p})")
    total = 0.0
    for mu, c in table.row(K).items():
        if len(mu) <= p:
            # number of distinct arrangements of the exponents over p slots
            count = math.factorial(p)
            mult = {}
            for part in mu:
                mult[part] = mult.get(part, 0) + 1
            mult[0] = p - len(mu)
            for m in mult.values():
                count //= math.factorial(m)
            total += c * count
    return total


# ---------------------------------------------------------------------------
# JSON exchange
# ---------------------------------------------------------------------------

def table_to_records(table):
    """Flatten a table to {k, partition, monomial, coefficient} records."""
    records = []
    for kappa in sorted(table._rows, key=lambda q: (sum(q), tuple(-x for x in q))):
        for mu, c in sorted(table._rows[kappa].items(),
                            key=lambda it: tuple(-x for x in it[0])):
            records.append({
                "k": sum(kappa),
                "partition": list(kappa),
                "monomial": list(mu),
                "coefficient": c,
            })
    return records


def table_from_records(records, p=None):
    """Rebuild a table from records produced by table_to_records.

    The dimension bound cannot be recovered from the records alone when it
    exceeds every partition length, so callers may pass p explicitly.
    """
    rows = {}
    k_max = 0
    max_len = 1
    for rec in records:
        kappa = tuple(rec["partition"])
        mu = tuple(rec["monomial"])
        rows.setdefault(kappa, {})[mu] = float(rec["coefficient"])
        k_max = max(k_max, int(rec["k"]))
        max_len = max(max_len, len(kappa), len(mu))
    return ZonalTable(k_max, p if p is not None else max_len, rows)
