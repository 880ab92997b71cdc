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
cancels, and the polynomials of a weight then sum to (trace)**k.  What the
columns need, their feeds, dominating rows and the row scales, is computed
in arrays for all the weights a build adds, with partitions as zero-padded
rows looked up by the table's keys, so the column loop does only its products.
Coefficients are dimension-stable, so a table built for p variables
restricts correctly to any argument of dimension <= p, but its float values
there differ in the last bits from those of the table built for that
dimension; the cache therefore keeps one table per dimension.
"""

import operator
import threading
from itertools import accumulate, combinations, zip_longest

import numpy as np

from .errors import (DimensionError, ParameterDomainError, ResourceLimitError,
                     as_int, as_partition)
from .gammacalc import partitions_of
from .spdcore import _symmetric_spectrum, read_matrix

__all__ = [
    "ZonalTable",
    "build_zonal_table",
    "fetch_table",
    "zonal_eval",
    "zonal_at_identity",
]

# bounds table memory and build time; precision holds well beyond it
_KMAX_CEILING = 30


def _parts_array(plist, width):
    """The partitions in plist as the rows of an integer array of the given
    width, zero-padded."""
    columns = list(zip_longest(*plist, fillvalue=0))
    parts = np.zeros((len(plist), width), dtype=np.intp)
    parts[:, :len(columns)] = np.array(columns).T
    return parts


def _key_strides(width, top):
    """Strides that key zero-padded partitions of weight <= top with the
    given number of parts: ``parts @ strides`` reads the parts as the digits
    of a mixed radix, part c being at most top // (c + 1).  Keys are
    distinct and follow the lexicographic order of the rows; at top 30 the
    radix product is 4.7e15, so they cannot overflow."""
    radix = [top // (c + 1) + 1 for c in range(1, width)]
    return np.array(list(accumulate(radix[::-1], operator.mul, initial=1)
                         )[::-1])


def _at_identity(parts, p):
    """C_kappa(I_p) in closed form (Muirhead 1982, section 7.2) for each
    row kappa of parts, zero-padded, with at least one column:

        2^k k! prod_i (p - i)(p - i + 2)...(p - i + 2 k_i - 2)
        prod_{i<j<l} (2 (k_i - k_j) + j - i) / prod_i (2 k_i + l - i - 1)!

    with rows i from 0 and l parts.  Numerator and denominator are exact
    integers, so each value is one correctly rounded division; a row with
    more than p parts has a factor p - p and gives 0.0."""
    n, w = parts.shape
    k = parts.sum(axis=1)
    lens = (parts > 0).sum(axis=1, keepdims=True)
    top = int(k.max(initial=0))
    fact = np.array(list(accumulate(range(1, 2 * top + w), operator.mul,
                                    initial=1)), dtype=object)
    # row i's products over its first m boxes, for m = 0..top
    boxes = np.array([list(accumulate(range(p - i, p - i + 2 * top, 2),
                                      operator.mul, initial=1))
                      for i in range(w)], dtype=object)
    c = np.arange(w)
    x = 2 * parts - c  # 2 k_i - i
    i, j = np.array(list(combinations(range(w), 2)),
                    dtype=np.intp).reshape(-1, 2).T
    pairs = x[:, i] - x[:, j]
    pairs[j >= lens] = 1
    num = np.concatenate([(fact[k] << k)[:, None], boxes[c, parts], pairs],
                         axis=1).prod(axis=1)
    den = fact[np.where(c < lens, x + lens - 1, 0)].prod(axis=1)
    return (num / den).astype(float)


def _feeds(parts, base, strides, lookup):
    """The terms that feed each column of a table from row base on: its
    partitions are the rows of parts, keyed by strides and found by lookup.

    Raising t units from part j to part i of a column's partition lam gives
    a source mu of the same weight, which feeds lam with the factor
    lam_i - lam_j + 2 t.  The sources of each column are kept in the order
    the loops over (j, i, t) first reach them, with the factors of a
    repeated source summed.  All columns' terms are returned as flat
    (sources, factors) arrays, sources as table rows, with the Python list
    of each row's first term, closed by the total.
    """
    size, p = parts.shape
    top = int(parts.sum(axis=1).max())
    i, j = np.array([(i, j) for j in range(1, p) for i in range(j)],
                    dtype=np.intp).reshape(-1, 2).T
    # every (column, j, i, t) in that order, t from 1 to part j
    col, pair, t = (parts[base:, j, None] > np.arange(top // 2)).nonzero()
    col += base
    t += 1
    i, j = i[pair], j[pair]
    mu = parts[col]
    at = np.arange(len(col))
    mu[at, i] += t
    mu[at, j] -= t
    mu.sort(axis=1, kind="stable")
    src = lookup(mu[:, ::-1] @ strides)
    feeds, first, repeat = np.unique(col * size + src, return_index=True,
                                     return_inverse=True)
    order = first.argsort(kind="stable")
    factors = np.bincount(repeat, parts[col, i] - parts[col, j] + 2 * t)
    feeds = feeds[order]
    bounds = (feeds // size).searchsorted(np.arange(size + 1)).tolist()
    return feeds % size, factors[order], bounds


def _build_weights(parts, offsets, start, strides, lookup):
    """Unscaled dense coefficient blocks of the zonal polynomials of each
    weight k from start up, whose partitions are the rows
    ``offsets[k]:offsets[k + 1]`` of parts, keyed by strides and found by
    lookup: rows kappa and columns mu of a block both in table order.

    The recurrence's structure comes first, for every column of every block
    at once: the feeds (``_feeds``) and the spectrum labels.  Each block
    then finds the rows that dominate its columns, and its column loop does
    only its gather, one matrix-vector product and one divide, with the
    operands, in their order, of a loop that rebuilt each column's feeds
    itself, so every block is the same bit for bit.  The structure's
    temporaries are freed before the first block is allocated.
    """
    sources, factors, bounds = _feeds(parts, offsets[start], strides, lookup)
    # number each source within its own block, which is its column's
    sources -= np.array(offsets)[parts.sum(axis=1)[sources]]
    # spectrum label of each eigenfunction; strictly monotone in dominance
    # order, which keeps every gap nonzero
    rho = (parts * (parts - 1.0 - np.arange(parts.shape[1]))).sum(axis=1)
    # zero-padded parts give partial sums padded with k, and the last sum is
    # k for every row of a block
    sums = parts[:, :-1].cumsum(axis=1)
    blocks = []
    for lo, hi in zip(offsets[start:-1], offsets[start + 1:]):
        n = hi - lo
        # dominates[c, r]: row r dominates column c; the loop reads r < c
        dominates = np.ones((n, n), dtype=bool)
        for s in sums[lo:hi].T:
            dominates &= s >= s[:, None]
        label = rho[lo:hi]
        block = np.eye(n)
        for pos in range(1, n):
            rows = dominates[pos, :pos].nonzero()[0]
            a, b = bounds[lo + pos], bounds[lo + pos + 1]
            block[rows, pos] = (block[rows[:, None], sources[a:b]]
                                @ factors[a:b]
                                / (label[rows] - label[pos]))
        blocks.append(block)
    return blocks


class ZonalTable:
    """Zonal coefficients for all partitions of weight <= k_max with at most
    p parts, and the arrays that evaluation runs on.

    Partitions are numbered weight by weight in ``partitions_of`` order, so
    everything up to a weight k is the prefix ``[:offsets[k + 1]]``.
    ``coeffs[k]`` is the dense coefficient matrix of weight k (rows kappa,
    columns mu), and the only store of coefficients; it is upper triangular
    because that order refines dominance.  For each partition, ``parent``
    and ``box_shift`` hold the partition left by removing the last box of
    its last row and that box's content (column - row / 2, both from 0),
    from which the Pochhammer products follow box by box.  The table keys
    its partitions once, for the parents, the passes and the build of every
    weight above those whose blocks it takes from kept.

    ``monomials`` runs one pass per variable.  A pass stores its terms'
    sources and exponents as (width, rows), a few terms per row, and sums
    over the leading axis: numpy adds those slices in order, the same left
    fold as along a short last axis, so each value keeps the bits of a
    per-row sum over (rows, width) at a fraction of its cost.
    """

    def __init__(self, p, k_max, kept):
        self.k_max = k_max
        self.p = p
        weights = [partitions_of(k, p) for k in range(k_max + 1)]
        flat = [kappa for plist in weights for kappa in plist]
        self.offsets = np.cumsum([0] + [len(plist) for plist in weights]
                                 ).tolist()
        parts = _parts_array(flat, p)
        strides = _key_strides(p, k_max)
        keys = parts @ strides
        # a stable sort, here and in _feeds: numpy's merge sort, whose code
        # adds about 0.5 MB less resident memory to a fresh process than
        # its vectorized quicksort
        by_key = keys.argsort(kind="stable")

        def lookup(query):
            return by_key[keys[by_key].searchsorted(query)]

        start, base = len(kept), self.offsets[len(kept)]
        # the closed form's big-integer temporaries go before any block
        ident = _at_identity(parts[base:], p)
        self.coeffs = list(kept) + _build_weights(parts, self.offsets, start,
                                                  strides, lookup)
        self._index = {kappa: i for i, kappa in enumerate(flat)}
        lens = (parts > 0).sum(axis=1)
        # row 0 is the empty partition, its own parent; any other row loses
        # one from its last part, whose digit has the stride strides[last]
        at, last = np.arange(1, len(flat)), lens[1:] - 1
        self.parent = np.concatenate([[0], lookup(keys[1:] - strides[last])])
        self.box_shift = np.concatenate([[0.0],
                                         parts[at, last] - 1 - 0.5 * last])
        # m_lam(x_1) = x_1**|lam| for at most one part, and m_lam(x_1..x_j)
        # = sum_e x_j**e m_{lam - e}(x_1..x_{j-1}) over the distinct parts
        # e of lam, plus e = 0 while lam has fewer than j parts.  Pass j > 1
        # holds the partitions with at most j parts, the number of them up
        # to each weight, and their (source, e) terms as columns of equal
        # height: (i, 0) first where it applies, then one term per distinct
        # part in part order.  The unused slots read source -1, which
        # monomials keeps 0.
        self._one_part = lookup(np.arange(k_max + 1) * strides[0])
        distinct = np.arange(p) < lens[:, None]
        distinct[:, 1:] &= parts[:, 1:] != parts[:, :-1]
        # removing part c keeps the digits before it and moves each later
        # one a place left, so column c of drop holds strides[x] for x < c,
        # 0 at c and strides[x - 1] for x > c
        drop = np.array([[strides[x] if x < c else strides[x - 1] if x > c
                          else 0 for c in range(p)] for x in range(p)])
        removed = np.where(distinct, lookup(parts @ drop), -1)
        self._passes = []
        for j in range(2, p + 1):
            targets = (lens <= j).nonzero()[0]
            counts = targets.searchsorted(self.offsets[1:]).tolist()
            first = lens[targets] < j
            terms = distinct[targets]
            slot = terms.cumsum(axis=1) - 1 + first[:, None]
            width = (terms.sum(axis=1) + first).max()
            src = np.full((width, len(targets)), -1, dtype=np.intp)
            exps = np.zeros_like(src)
            src[0, first] = targets[first]
            row, c = terms.nonzero()
            src[slot[row, c], row] = removed[targets[row], c]
            exps[slot[row, c], row] = parts[targets[row], c]
            self._passes.append((targets, counts, src, exps))
        # scale each new eigenfunction to its closed-form value at the
        # identity; the row sums against m_mu(1^p), exact integers here,
        # have no negative terms to cancel
        ones = self.monomials(np.ones(p), k_max)[base:]
        for k in range(start, k_max + 1):
            span = slice(self.offsets[k] - base, self.offsets[k + 1] - base)
            self.coeffs[k] *= (ident[span] / (self.coeffs[k] @ ones[span])
                               )[:, None]

    def _position(self, K):
        """(K as a tuple of parts, its index in table order)."""
        K = as_partition(K)
        i = self._index.get(K)
        if i is None:
            raise ParameterDomainError(
                f"partition {K} outside table range "
                f"(k_max={self.k_max}, p={self.p})")
        return K, i

    def monomials(self, eigenvalues, k_max):
        """Every monomial symmetric polynomial of weight <= k_max at the
        eigenvalues, in table order.

        The eigenvalues are read by read_matrix: shape (d,) gives shape
        (offsets[k_max + 1],), and an (n, d) array gives one column per
        argument.  Entries for partitions with more than d parts are zero.
        A k_max the table does not hold or a d above the table's p is
        refused.
        """
        k_max = as_int(k_max, "k_max")
        if k_max > self.k_max:
            raise ParameterDomainError(
                f"k_max={k_max} outside table range "
                f"(k_max={self.k_max}, p={self.p})")
        # contiguous rows keep numpy's vectorized pow loop
        x = np.ascontiguousarray(read_matrix(eigenvalues, (1, 2)).T)
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
        k = sum(K)
        lo = self.offsets[k]
        return self.coeffs[k][i - lo] @ self.monomials(eigenvalues, k)[lo:]

    def monomial_value(self, mu, eigenvalues):
        """Monomial symmetric polynomial for mu at eigenvalues of shape (d,)
        or (n, d)."""
        mu, i = self._position(mu)
        return self.monomials(eigenvalues, sum(mu))[i]


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
    built = ZonalTable(p, k_max, table.coeffs if table is not None else ())
    with _table_lock:
        # a concurrent builder may have grown p further meanwhile; a
        # narrower table never replaces a wider one
        table = _table_cache.get(p)
        if table is None or table.k_max < k_max:
            table = _table_cache[p] = built
    return table


def zonal_eval(K, Z):
    """Evaluate the zonal polynomial for partition K at the symmetric
    matrix Z, of any sign.

    Z is read by spdcore._symmetric_spectrum as an (n, p, p) stack, giving
    the n values as an array; an SpdMatrix gives a float from the spectrum
    it keeps.  The value is a symmetric function of the eigenvalues, read
    from the cached table for p; if K has more nonzero parts than p it is
    zero, and no table is read.  A stack that is not square or not exactly
    symmetric is refused; a (0, p, p) stack gives an empty array.
    """
    K = as_partition(K)
    eigs = _symmetric_spectrum(Z, 3)
    stack = np.atleast_2d(eigs)
    n, p = stack.shape
    values = np.zeros(n) if len(K) > p else fetch_table(sum(K), p).value(
        K, stack)
    return float(values[0]) if eigs.ndim == 1 else values


def zonal_at_identity(K, p):
    """Zonal polynomial value at the p-dimensional identity, from its closed
    form; no table is read, so any weight is allowed.  A partition with more
    than p parts gives exactly 0."""
    K, p = as_partition(K), as_int(p, "dimension", 1)
    return float(_at_identity(_parts_array([K], max(1, len(K))), p)[0])

