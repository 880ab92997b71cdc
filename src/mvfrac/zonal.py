"""Zonal polynomial tables in the monomial symmetric basis.

Each polynomial of weight k is an eigenfunction of the radial part of the
Laplace-Beltrami operator; its coefficients over monomial symmetric
polynomials are filled in top-down in dominance order from the leading term,
then the whole weight is rescaled so the polynomials sum to (trace)**k.
Coefficients are dimension-stable, so a table built for p variables restricts
correctly to any argument of dimension <= p.
"""

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
    with at most p parts.

    Besides the coefficient rows the table holds, derived once, the arrays
    that evaluation runs on.  Partitions are numbered weight by weight in
    ``weight_partitions`` order, so everything up to a weight k is the
    prefix ``[:offsets[k + 1]]``.  ``coeffs[k]`` is the dense coefficient
    matrix of weight k (rows kappa, columns mu); it is upper triangular
    because that order refines dominance.  For each partition, ``lengths``
    holds its number of parts, and ``parent`` and ``box_shift`` the
    partition left by removing the last box of its last row and that box's
    content (column - row / 2, both from 0), from which the Pochhammer
    products follow box by box.
    """

    def __init__(self, k_max, p, rows):
        self.k_max = k_max
        self.p = p
        self._rows = rows
        self._weights = [[q.parts for q in partitions_of(k, p)]
                         for k in range(k_max + 1)]
        flat = [kappa for plist in self._weights for kappa in plist]
        self._index = {kappa: i for i, kappa in enumerate(flat)}
        for kappa in flat:
            if kappa not in rows:
                self.row(kappa)  # raises MissingTableEntryError
        self.offsets = [0]
        self.coeffs = []
        for plist in self._weights:
            lo = self.offsets[-1]
            block = np.zeros((len(plist), len(plist)))
            for i, kappa in enumerate(plist):
                for mu, c in rows[kappa].items():
                    if mu in self._index:  # else mu has more than p parts
                        block[i, self._index[mu] - lo] = c
            self.coeffs.append(block)
            self.offsets.append(lo + len(plist))
        self.lengths = np.array([len(kappa) for kappa in flat])
        self.parent = np.array([0] + [
            self._index[kappa[:-1] + (kappa[-1] - 1,) * (kappa[-1] > 1)]
            for kappa in flat[1:]])
        self.box_shift = np.array([0.0] + [
            kappa[-1] - 1 - 0.5 * (len(kappa) - 1) for kappa in flat[1:]])
        # m_lam(x_1) = x_1**|lam| for at most one part, and m_lam(x_1..x_j)
        # = sum_e x_j**e m_{lam - e}(x_1..x_{j-1}) over the distinct parts
        # e of lam, plus e = 0 while lam has fewer than j parts.  Pass j > 1
        # holds the partitions with at most j parts, the number of them up
        # to each weight, and their (source, e) terms as rows of equal
        # width; the unused slots read source -1, which monomials keeps 0.
        self._one_part = np.array([0] + [self._index[(k,)]
                                         for k in range(1, k_max + 1)])
        removals = [[(self._index[kappa[:i] + kappa[i + 1:]], kappa[i])
                     for i in range(len(kappa))
                     if i == 0 or kappa[i] != kappa[i - 1]]
                    for kappa in flat]
        self._passes = []
        for j in range(2, p + 1):
            targets = [i for i, kappa in enumerate(flat) if len(kappa) <= j]
            counts = np.searchsorted(targets, self.offsets[1:]).tolist()
            terms = [([(i, 0)] if len(flat[i]) < j else []) + removals[i]
                     for i in targets]
            width = max(map(len, terms))
            src = np.full((len(terms), width), -1, dtype=np.intp)
            exps = np.zeros_like(src)
            for row, pairs in enumerate(terms):
                src[row, :len(pairs)], exps[row, :len(pairs)] = zip(*pairs)
            self._passes.append((np.array(targets), counts, src, exps))

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
        return self._weights[k]

    def _position(self, K):
        i = self._index.get(K.parts)
        if i is None:
            raise MissingTableEntryError(
                f"partition {K.parts} outside table range "
                f"(k_max={self.k_max}, p={self.p})")
        return i

    def monomials(self, eigenvalues, k_max):
        """Every monomial symmetric polynomial of weight <= k_max at the
        eigenvalues, in table order.

        Eigenvalues of shape (d,) give shape (offsets[k_max + 1],), and an
        (n, d) array gives one column per argument.  Entries for
        partitions with more than d parts are zero.
        """
        # contiguous rows keep numpy's vectorized pow loop
        x = np.ascontiguousarray(np.asarray(eigenvalues, dtype=float).T)
        d = len(x)
        if d > self.p:
            raise DimensionError(
                f"argument dimension {d} exceeds table dimension {self.p}")
        size = self.offsets[k_max + 1]
        exponents = np.arange(k_max + 1).reshape((-1,) + (1,) * (x.ndim - 1))
        powers = x[:, None] ** exponents
        m = np.zeros((size + 1,) + x.shape[1:])
        m[self._one_part[:k_max + 1]] = powers[0]
        for j, (targets, counts, src, exps) in enumerate(self._passes[:d - 1],
                                                         1):
            rows = counts[k_max]
            terms = m[src[:rows]] * powers[j, exps[:rows]]
            m = np.zeros_like(m)
            m[targets[:rows]] = terms.sum(axis=1)
        return m[:size]

    def value(self, K, eigenvalues):
        """Zonal polynomial for the partition K at eigenvalues of shape (d,)
        or (n, d)."""
        i = self._position(K)
        lo = self.offsets[K.weight]
        m = self.monomials(eigenvalues, K.weight)
        return self.coeffs[K.weight][i - lo] @ m[lo:]

    def monomial_value(self, mu, eigenvalues):
        """Monomial symmetric polynomial for mu at eigenvalues of shape (d,)
        or (n, d)."""
        mu = Partition.coerce(mu)
        return self.monomials(eigenvalues, mu.weight)[self._position(mu)]


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
    stack = isinstance(Z, np.ndarray)
    eigs = np.linalg.eigvalsh(Z)[:, ::-1] if stack else Z.eigenvalues
    if eigs.shape[-1] > table.p:
        raise DimensionError(f"argument dimension {eigs.shape[-1]} exceeds "
                             f"table dimension {table.p}")
    value = table.value(Partition.coerce(K), eigs)
    return value if stack else float(value)


def zonal_at_identity(K, p, table):
    """Zonal polynomial value at the p-dimensional identity."""
    if not isinstance(p, int) or p < 1:
        raise ParameterDomainError(f"p must be a positive integer, got {p!r}")
    if p > table.p:
        raise DimensionError(f"dimension {p} exceeds table dimension {table.p}")
    return float(table.value(Partition.coerce(K), np.ones(p)))


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
