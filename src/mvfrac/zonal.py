"""Zonal polynomial tables in the monomial symmetric basis.

Each polynomial of weight k is an eigenfunction of the radial part of the
Laplace-Beltrami operator (James 1968).  Its coefficients over monomial
symmetric polynomials follow from James's recurrence, and each weight is
built as one dense matrix, a column mu at a time: the terms that feed
column mu, "raise t units from part j to part i", do not depend on the row,
so the column over every row kappa that dominates mu is one gather, one
matrix-vector product and one divide by the eigenvalue gaps.  The diagonal
is 1.  Each row is then scaled so that it takes the closed-form value of
C_kappa(I_p) (Muirhead 1982, section 7.2), an exact integer ratio, against
the monomials at the identity; that sum has no negative terms, so nothing
cancels, and the polynomials of a weight then sum to (trace)**k.
Coefficients are dimension-stable, so a table built for p variables
restricts correctly to any argument of dimension <= p, but its float values
there differ in the last bits from those of the table built for that
dimension; the cache therefore keeps one table per dimension.
"""

import math
import threading

import numpy as np

from .errors import (DimensionError, ParameterDomainError, ResourceLimitError,
                     as_int)
from .gammacalc import Partition, partitions_of

__all__ = [
    "ZonalTable",
    "build_zonal_table",
    "fetch_table",
    "zonal_eval",
    "zonal_at_identity",
]

# table size and float dynamic range both degrade beyond this weight
_KMAX_CEILING = 30


def _eigen_weight(parts):
    # spectrum label of the weight-k eigenfunction; strictly monotone in
    # dominance order, which keeps every divisor below nonzero
    return sum(ki * (ki - (i + 1)) for i, ki in enumerate(parts))


def _at_identity(kappa, p):
    """C_kappa(I_p) in closed form (Muirhead 1982, section 7.2), in exact
    integers up to one final division."""
    num = 2 ** sum(kappa) * math.factorial(sum(kappa))
    den = 1
    for i, ki in enumerate(kappa):
        num *= math.prod(range(p - i, p - i + 2 * ki, 2))
        num *= math.prod(2 * (ki - kj) + j - i
                         for j, kj in enumerate(kappa[i + 1:], i + 1))
        den *= math.factorial(2 * ki + len(kappa) - i - 1)
    return num / den


def _monomials_at_ones(mu, p):
    """m_mu(1, ..., 1) with p ones: the distinct orderings of mu padded to
    p entries."""
    out = math.factorial(p) // math.factorial(p - len(mu))
    for part in set(mu):
        out //= math.factorial(mu.count(part))
    return float(out)


def _build_weight(plist, p):
    """Dense coefficient block of the weight-k zonal polynomials: rows kappa
    and columns mu, both in plist order."""
    n = len(plist)
    index = {lam: i for i, lam in enumerate(plist)}
    parts = np.zeros((n, p), dtype=int)
    for i, lam in enumerate(plist):
        parts[i, :len(lam)] = lam
    # zero-padded parts give partial sums padded with k, as dominance needs
    sums = np.cumsum(parts, axis=1)
    rho = np.array([_eigen_weight(lam) for lam in plist], dtype=float)
    block = np.eye(n)
    for pos in range(1, n):
        # raising t units from part j to part i of lam gives mu with weight
        # lam_i + t - (lam_j - t); these feeds are the same for every row
        lam = plist[pos]
        feeds = {}
        for j in range(1, len(lam)):
            for i in range(j):
                for t in range(1, lam[j] + 1):
                    mu = list(lam)
                    mu[i] += t
                    mu[j] -= t
                    src = index[tuple(sorted(filter(None, mu), reverse=True))]
                    feeds[src] = feeds.get(src, 0) + lam[i] - lam[j] + 2 * t
        rows = np.flatnonzero((sums[:pos] >= sums[pos]).all(axis=1))
        block[rows, pos] = (block[rows[:, None], list(feeds)]
                            @ list(feeds.values()) / (rho[rows] - rho[pos]))
    # scale each eigenfunction to its closed-form value at the identity; the
    # row sums against m_mu(1^p) have no negative terms to cancel
    ones = np.array([_monomials_at_ones(mu, p) for mu in plist])
    ident = np.array([_at_identity(kappa, p) for kappa in plist])
    block *= (ident / (block @ ones))[:, None]
    return block


def _partition_lists(k_max, p):
    return [[q.parts for q in partitions_of(k, p)] for k in range(k_max + 1)]


class ZonalTable:
    """Zonal coefficients for all partitions of weight <= k_max with at most
    p parts, and the arrays that evaluation runs on.

    Partitions are numbered weight by weight in ``partitions_of`` order
    (``weights[k]``), so everything up to a weight k is the prefix
    ``[:offsets[k + 1]]``.  ``coeffs[k]`` is the dense coefficient matrix of
    weight k (rows kappa, columns mu), and the only store of coefficients;
    it is upper triangular because that order refines dominance.  For each
    partition, ``parent`` and ``box_shift`` hold the partition left by
    removing the last box of its last row and that box's content
    (column - row / 2, both from 0), from which the Pochhammer products
    follow box by box.

    ``monomials`` runs one pass per variable.  A pass stores its terms'
    sources and exponents as (width, rows), a few terms per row, and sums
    over the leading axis: numpy adds those slices in order, the same left
    fold as along a short last axis, so each value keeps the bits of a
    per-row sum over (rows, width) at a fraction of its cost.
    """

    def __init__(self, p, weights, coeffs):
        self.k_max = len(weights) - 1
        self.p = p
        self.coeffs = coeffs
        flat = [kappa for plist in weights for kappa in plist]
        self._index = {kappa: i for i, kappa in enumerate(flat)}
        self.offsets = np.cumsum([0] + [len(plist) for plist in weights]
                                 ).tolist()
        self.parent = np.array([0] + [
            self._index[kappa[:-1] + (kappa[-1] - 1,) * (kappa[-1] > 1)]
            for kappa in flat[1:]])
        self.box_shift = np.array([0.0] + [
            kappa[-1] - 1 - 0.5 * (len(kappa) - 1) for kappa in flat[1:]])
        # m_lam(x_1) = x_1**|lam| for at most one part, and m_lam(x_1..x_j)
        # = sum_e x_j**e m_{lam - e}(x_1..x_{j-1}) over the distinct parts
        # e of lam, plus e = 0 while lam has fewer than j parts.  Pass j > 1
        # holds the partitions with at most j parts, the number of them up
        # to each weight, and their (source, e) terms as columns of equal
        # height; the unused slots read source -1, which monomials keeps 0.
        self._one_part = np.array([0] + [self._index[(k,)]
                                         for k in range(1, self.k_max + 1)])
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
            src = np.full((width, len(terms)), -1, dtype=np.intp)
            exps = np.zeros_like(src)
            for row, pairs in enumerate(terms):
                src[:len(pairs), row], exps[:len(pairs), row] = zip(*pairs)
            self._passes.append((np.array(targets), counts, src, exps))

    def _position(self, K):
        """(K as a Partition, its index in table order)."""
        K = Partition.coerce(K)
        i = self._index.get(K.parts)
        if i is None:
            raise ParameterDomainError(
                f"partition {K.parts} outside table range "
                f"(k_max={self.k_max}, p={self.p})")
        return K, i

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
            terms = m[src[:, :rows]] * powers[j, exps[:, :rows]]
            m = np.zeros_like(m)
            m[targets[:rows]] = terms.sum(axis=0)
        return m[:size]

    def value(self, K, eigenvalues):
        """Zonal polynomial for the partition K at eigenvalues of shape (d,)
        or (n, d)."""
        K, i = self._position(K)
        lo = self.offsets[K.weight]
        m = self.monomials(eigenvalues, K.weight)
        return self.coeffs[K.weight][i - lo] @ m[lo:]

    def monomial_value(self, mu, eigenvalues):
        """Monomial symmetric polynomial for mu at eigenvalues of shape (d,)
        or (n, d)."""
        mu, i = self._position(mu)
        return self.monomials(eigenvalues, mu.weight)[i]


_table_cache = {}  # p -> the table built for exactly p variables
_table_lock = threading.Lock()


def build_zonal_table(k_max, p):
    """Ready the cached zonal tables up to weight k_max for arguments of
    every dimension d <= p, and return the one for p.

    Refuses k_max above the fixed ceiling 30 before it builds anything,
    through its first ``fetch_table``.
    """
    k_max = as_int(k_max, "k_max")
    for d in range(1, as_int(p, "dimension", 1) + 1):
        table = fetch_table(k_max, d)
    return table


def fetch_table(k_max, p):
    """The cached table built for exactly p variables, holding at least
    weight k_max.

    A cached table of less weight is grown to k_max: the new table keeps
    its weight blocks and builds only the weights above them.  Each block
    depends only on (k, p), so no value moves.  Building above weight 30,
    the fixed ceiling, raises ResourceLimitError.
    """
    k_max, p = as_int(k_max, "k_max"), as_int(p, "dimension", 1)
    with _table_lock:
        table = _table_cache.get(p)
    if table is not None and table.k_max >= k_max:
        return table
    if k_max > _KMAX_CEILING:
        raise ResourceLimitError(
            f"k_max={k_max} exceeds the table ceiling {_KMAX_CEILING}")
    weights = _partition_lists(k_max, p)
    kept = table.coeffs if table is not None else []
    built = ZonalTable(p, weights, kept + [_build_weight(plist, p)
                                           for plist in weights[len(kept):]])
    with _table_lock:
        # a concurrent builder may have grown p further meanwhile; a
        # narrower table never replaces a wider one
        table = _table_cache.get(p)
        if table is None or table.k_max < k_max:
            table = _table_cache[p] = built
    return table


def zonal_eval(K, Z):
    """Evaluate the zonal polynomial for partition K at the SPD matrix Z.

    Z is an SpdMatrix, giving a float, or an (n, p, p) array stack of
    symmetric matrices, giving the n values as an array.  The value is a
    symmetric function of the eigenvalues of Z, read from the cached table
    for Z's dimension.  If K has more nonzero parts than Z has rows the
    value is identically zero, and no table is needed.
    """
    K = Partition.coerce(K)
    stack = isinstance(Z, np.ndarray)
    rows = Z.shape[-1] if stack else Z.dim
    if len(K) > rows:
        return np.zeros(len(Z)) if stack else 0.0
    eigs = np.linalg.eigvalsh(Z)[:, ::-1] if stack else Z.eigenvalues
    value = fetch_table(K.weight, rows).value(K, eigs)
    return value if stack else float(value)


def zonal_at_identity(K, p):
    """Zonal polynomial value at the p-dimensional identity, from its closed
    form; no table is read, so any weight is allowed.  A partition with more
    than p parts gives exactly 0."""
    return _at_identity(Partition.coerce(K).parts, as_int(p, "dimension", 1))

