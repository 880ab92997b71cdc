"""Symmetric positive definite matrices and the rectangular transform.

This is the one linear-algebra layer.  read_matrix is the one reader of
arrays from outside and does nothing but read; each value rule sits with
its one consumer.  _eigenvalues takes square, finite matrices equal to
their transposes exactly, and _batch_eigvalsh is the one eigenvalue call
(np.linalg.eigvalsh bit for bit).  A symmetric argument, the series' and
the zonal polynomials', passes _symmetric_spectrum: an SpdMatrix gives the
spectrum it keeps, anything else goes through _eigenvalues.  check_spd,
and so SpdMatrix, adds the sign rule: every eigenvalue above 1e-12 times
the largest.  The operators and RectConfig, whose integrals need Z > O,
read _spd_argument: an SpdMatrix as is, anything else read into one.
check_full_rank is read_matrix plus _full_rank, which refuses a smallest
singular value at most 1e-10 times the largest.  Derived matrices are not
checked again.
"""

import math
import numbers
import reprlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, DimensionError, as_instance, as_int
from .gammacalc import log_matrix_gamma

__all__ = [
    "SpdMatrix",
    "RectConfig",
    "rect_transform",
    "stiefel_constant",
    "check_spd",
    "check_full_rank",
    "read_matrix",
]


def _batch_det(m):
    """Determinants of an (n, p, p) stack: cofactor expansion for p <= 3,
    LU factorization beyond."""
    p = m.shape[-1]
    if p == 1:
        return m[:, 0, 0].copy()
    if p == 2:
        (a, b), (c, d) = m.transpose(1, 2, 0)
        return a * d - b * c
    if p == 3:
        (a, b, c), (d, e, f), (g, h, i) = m.transpose(1, 2, 0)
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return np.linalg.det(m)


# dsterf's relative machine precision, and a range of the largest entry of
# a 2 x 2 matrix inside which neither dsyevd nor dsterf rescales it (they
# do below about 2^-405 and above about 2^485)
_EPS = 2.0 ** -53
_UNSCALED = (2.0 ** -400, 2.0 ** 480)
# the p = 2 stack length where the vectorised arithmetic's fixed cost meets
# eigvalsh's: 37.2 against 36.8 us at 128 cone draws (best of 200, Xeon)
_SHORT_STACK = 128


def _batch_eigvalsh(m):
    """Eigenvalues of an (n, p, p) stack of symmetric matrices, descending
    along the last axis, bit for bit those of np.linalg.eigvalsh (which
    reads the lower triangle).

    p = 1 gives the entries.  A p = 2 stack of _SHORT_STACK or more runs,
    once over the whole stack, the arithmetic LAPACK's dsyevd does for one
    2 x 2 matrix: dsterf's two split tests on the subdiagonal, its QL/QR
    choice, dlae2 on the diagonal and sqrt(e*e), and dlasrt's ascending
    sort.  A shorter p = 2 stack, every p >= 3 stack, and a matrix whose
    largest entry lies outside _UNSCALED or is not finite go to eigvalsh.
    """
    p = m.shape[-1]
    if p == 1:
        return m[:, 0].copy()
    if p != 2 or len(m) < _SHORT_STACK:
        return np.linalg.eigvalsh(m)[:, ::-1]
    d0, d1, e = m[:, 0, 0], m[:, 1, 1], m[:, 1, 0]
    # split rows and out-of-range rows run the arithmetic too, and may
    # divide zero by zero; their results are discarded
    with np.errstate(all="ignore"):
        a0, a1 = np.abs(d0), np.abs(d1)
        ee = e * e
        split = np.abs(e) <= np.sqrt(a0) * np.sqrt(a1) * _EPS
        split |= ee <= _EPS * _EPS * np.abs(d0 * d1)
        # dlae2(a, b, c) with (a, c) = (d0, d1) for QL, (d1, d0) for QR
        # (QR when |d1| < |d0|): either way a is the smaller in magnitude
        qr = a1 < a0
        acmx, acmn = np.where(qr, d0, d1), np.where(qr, d1, d0)
        b = np.sqrt(ee)
        adf, ab = np.abs(d0 - d1), b + b
        # dlae2's rt; its adf == ab branch, ab * sqrt(2), is this product
        big, small = np.maximum(adf, ab), np.minimum(adf, ab)
        ratio = small / big
        rt = big * np.sqrt(1.0 + ratio * ratio)
        sm = d0 + d1
        rt1 = 0.5 * (sm + np.copysign(rt, sm))
        rt2 = (acmx / rt1) * acmn - (b / rt1) * b
        # a zero trace gives the pair rt / 2 and -rt / 2
        rt2 = np.where(sm == 0.0, -rt1, rt2)
        # dsterf leaves (d0, d1) after a split, else (rt1, rt2) for QL and
        # (rt2, rt1) for QR, and dlasrt sorts the pair.  In range, rt1 is
        # never zero and a split pair is never +0.0 and -0.0, so maximum
        # and minimum give the same bits whatever the order
        x0, x1 = np.where(split, d0, rt1), np.where(split, d1, rt2)
        out = np.stack((np.maximum(x0, x1), np.minimum(x0, x1)), 1)
        top = np.maximum(np.maximum(a0, a1), np.abs(e))
        scaled = ~((top >= _UNSCALED[0]) & (top <= _UNSCALED[1]))
    if scaled.any():
        out[scaled] = np.linalg.eigvalsh(m[scaled])[:, ::-1]
    return out


def _eigenvalues(m):
    """_batch_eigvalsh of a matrix or stack read by read_matrix, which must
    be square, finite and equal to its transpose exactly."""
    if m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix of shape (p, p) or "
                             f"(n, p, p), got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DegenerateInputError("matrix entries must be finite")
    stack = m.reshape((-1,) + m.shape[-2:])
    if not np.array_equal(stack, stack.transpose(0, 2, 1)):
        raise DegenerateInputError(
            "matrix is not exactly symmetric; symmetrize before constructing")
    return _batch_eigvalsh(stack).reshape(m.shape[:-1])


def check_spd(entries):
    """Validate a square matrix, or an (n, p, p) stack, as read_matrix
    reads it, for exact symmetry and positive definiteness.  Returns the
    eigenvalues from _batch_eigvalsh, descending along the last axis."""
    return _definite(_eigenvalues(read_matrix(entries, (2, 3))))


def _definite(eig):
    """eig, the eigenvalues of a matrix or a stack, if each matrix is
    positive definite; the error names the first one that is not.

    Positive definite means the smallest eigenvalue exceeds 1e-12 times the
    largest, so S and 1e9*S agree.  LAPACK's symmetric solver scales extreme
    entries and does not cancel: diag(1.0, 1e-10) gives back 1e-10 and
    diag(1e308, 1e308) stays finite.
    """
    ok = eig[..., -1] > 1e-12 * eig[..., 0]
    if not ok.all():
        bad = eig if eig.ndim == 1 else eig[np.argmin(ok)]
        raise DegenerateInputError(
            f"matrix is not positive definite (eigenvalues {bad.tolist()})")
    return eig


def check_full_rank(entries):
    """Validate a p x r matrix, or an (n, p, r) stack, as read_matrix reads
    it, as of full row rank by _full_rank."""
    _full_rank(read_matrix(entries, (2, 3)))


def _full_rank(x):
    """Refuse x, a float p x r matrix or (n, p, r) stack, unless it has full
    row rank: r >= p, finite entries and a smallest singular value above
    1e-10 times the largest, which also refuses the zero matrix.  Reads x
    in place, so a sampler checks its own draws without a copy."""
    if x.shape[-1] < x.shape[-2]:
        raise DimensionError(
            f"need at least as many columns as rows, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DegenerateInputError("matrix entries must be finite")
    sv = np.linalg.svd(x, compute_uv=False)
    ok = sv[..., -1] > 1e-10 * sv[..., 0]
    if not ok.all():
        first = sv if sv.ndim == 1 else sv[np.argmin(ok)]
        raise DegenerateInputError(
            f"matrix is rank deficient (singular values {first.tolist()})")


class SpdMatrix:
    """Immutable symmetric positive definite matrix.

    The constructor reads its entries with read_matrix, which copies them,
    validates them as check_spd does and freezes them.
    """

    __slots__ = ("_entries", "_eigenvalues")

    def __init__(self, entries):
        arr = read_matrix(entries, 2)
        eig = _definite(_eigenvalues(arr))
        arr.setflags(write=False)
        object.__setattr__(self, "_entries", arr)
        object.__setattr__(self, "_eigenvalues", eig)

    def __setattr__(self, name, value):
        raise AttributeError("SpdMatrix is immutable")

    @classmethod
    def identity(cls, p):
        return cls(np.eye(as_int(p, "dimension", 1)))

    @classmethod
    def diagonal(cls, values):
        return cls(np.diag(read_matrix(values, 1)))

    @property
    def entries(self):
        return self._entries

    @property
    def dim(self):
        return self._entries.shape[0]

    @property
    def eigenvalues(self):
        """Eigenvalues in descending order (all strictly positive)."""
        return self._eigenvalues

    @property
    def log_det(self):
        return float(np.sum(np.log(self._eigenvalues)))

    @property
    def trace(self):
        return float(np.trace(self._entries))

    def matrix_power(self, t):
        """S**t through the eigendecomposition, for any real exponent t, as
        a plain symmetrized (p, p) array."""
        w, v = np.linalg.eigh(self._entries)
        w, v = w[::-1].copy(), v[:, ::-1].copy()
        powered = (v * np.power(w, t)) @ v.T
        return 0.5 * (powered + powered.T)

    def to_lists(self):
        return self._entries.tolist()

    def __repr__(self):
        return f"SpdMatrix({self.to_lists()!r})"

    def __eq__(self, other):
        if not isinstance(other, SpdMatrix):
            return NotImplemented
        return np.array_equal(self._entries, other._entries)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ does not tell apart
        return hash((self._entries + 0.0).tobytes())


def _symmetric_spectrum(value, ndim=2):
    """Eigenvalues of a symmetric matrix (ndim 2) or (n, p, p) stack (ndim
    3), of any sign: an SpdMatrix's own, else _eigenvalues(read_matrix)."""
    if isinstance(value, SpdMatrix):
        return value.eigenvalues
    return _eigenvalues(read_matrix(value, ndim))


def _spd_argument(value, name, p):
    """value as a p x p SpdMatrix (one passes unchanged)."""
    z = value if isinstance(value, SpdMatrix) else SpdMatrix(value)
    if z.dim != p:
        raise DimensionError(f"{name} must be {p}x{p}, got {z.dim}")
    return z


@dataclass(frozen=True)
class RectConfig:
    """Shape and weights (p, r, A, B) of the rectangular quadratic transform.

    A (p x p) and B (r x r) are read as SpdMatrix arguments, and r >= p so
    the transform X -> A^(1/2) X B X' A^(1/2) lands on full-rank output.
    """

    p: int
    r: int
    A: SpdMatrix
    B: SpdMatrix

    def __post_init__(self):
        object.__setattr__(self, "p", as_int(self.p, "dimension", 1))
        object.__setattr__(self, "r", as_int(self.r, "r", 1))
        if self.r < self.p:
            raise DimensionError(f"need r >= p >= 1, got p={self.p}, r={self.r}")
        object.__setattr__(self, "A", _spd_argument(self.A, "A", self.p))
        object.__setattr__(self, "B", _spd_argument(self.B, "B", self.r))

    @classmethod
    def with_identity_weights(cls, p, r):
        return cls(p=p, r=r, A=SpdMatrix.identity(p), B=SpdMatrix.identity(r))

    @cached_property
    def _roots(self):
        """A^(1/2), A^(-1/2) and B^(-1/2), the arrays the transform and the
        exponential-weight sampler apply."""
        return (self.A.matrix_power(0.5), self.A.matrix_power(-0.5),
                self.B.matrix_power(-0.5))

    @cached_property
    def _identity(self):
        """Whether A and B, and so their roots, are exactly I."""
        return all(np.array_equal(w.entries, np.eye(w.dim))
                   for w in (self.A, self.B))

    @cached_property
    def log_weight_factor(self):
        """log of |A|^(r/2) |B|^(p/2), the determinant weight of the transform."""
        return 0.5 * self.r * self.A.log_det + 0.5 * self.p * self.B.log_det


def rect_transform(X, cfg):
    """A^(1/2) X B X' A^(1/2) for each matrix of an (n, p, r) stack.

    Returns the plain C-contiguous (n, p, p) array of transforms, left to
    the caller to validate; check_full_rank refuses rank-deficient X.
    Products are symmetrized to scrub float asymmetry.  With identity
    weights X is copied instead of multiplied: a product by an exact I
    returns every finite nonzero entry bit for bit.  X must be an ndarray
    of a real dtype; anything else is a DimensionError.
    """
    as_instance(cfg, "cfg", RectConfig)
    if not (isinstance(X, np.ndarray) and _reals(X, 0)):
        raise DimensionError(
            f"X must be an ndarray of real numbers, got {reprlib.repr(X)}")
    if X.ndim != 3 or X.shape[1:] != (cfg.p, cfg.r):
        raise DimensionError(
            f"X has shape {X.shape}, config expects (n, {cfg.p}, {cfg.r})")
    # (n, p, r) views of (p, n, r) buffers, where the einsum adds in the same
    # order (a BLAS matmul would not) several times faster; see README
    ax, axb = np.empty((2, cfg.p, len(X), cfg.r)).transpose(0, 2, 1, 3)
    if cfg._identity:
        ax[...] = X
        axb = ax
    else:
        np.matmul(np.matmul(cfg._roots[0], X, out=ax), cfg.B.entries, out=axb)
    z = np.einsum("nik,njk->nij", axb, ax)
    z += z.transpose(0, 2, 1)
    z *= 0.5
    return np.ascontiguousarray(z)


def stiefel_constant(p, r):
    """log of pi^(rp/2) / Gamma_p(r/2), the surface constant of the r-frame
    reduction that converts rectangular integrals to cone integrals.  r/2
    is an argument of Gamma_p, so r < p is a ParameterDomainError."""
    p, r = as_int(p, "dimension", 1), as_int(r, "r", 1)
    return 0.5 * r * p * math.log(math.pi) - log_matrix_gamma(p, 0.5 * r)


# ---------------------------------------------------------------------------
# the one reader of matrices from outside

def _reals(data, depth):
    """Whether data is a real number or an ndarray of a real dtype, bools
    excluded, or a list or tuple of these nested at most depth deep."""
    if isinstance(data, np.ndarray):
        return data.dtype.kind in "fiu"
    if isinstance(data, (list, tuple)):
        return depth > 0 and all(_reals(x, depth - 1) for x in data)
    return isinstance(data, numbers.Real) and not isinstance(data, bool)


def read_matrix(data, ndim):
    """data, an ndarray or nested lists of real numbers, as a new float
    array with ndim axes, or any count a tuple ndim names: (2, 3) for a
    matrix or a stack, (1, 2) for the eigenvalues of one argument or of n.
    Strings, bools, None, complex values, ragged rows, ints beyond the
    float range, another number of axes and an empty matrix axis (the last
    two, or the last one of eigenvalues; a stack may be empty) are
    DimensionErrors.  An ndarray is judged by its dtype and converted
    whole.  The value rules, squareness included, are the consumers'."""
    counts = ndim if isinstance(ndim, tuple) else (ndim,)
    k = min(2, *counts)  # the matrix axes, each p long
    try:
        arr = np.array(data, dtype=float) if _reals(data, max(counts)) else None
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.ndim not in counts or 0 in arr.shape[-k:]:
        got = reprlib.repr(data) if arr is None else f"shape {arr.shape}"
        shapes = " or ".join(str(tuple("n" * (c - k) + "p" * k))
                             for c in counts).replace("'", "")
        raise DimensionError(
            f"expected non-empty equal-length rows of numbers (real numbers, "
            f"bools excluded) of shape {shapes} with p >= 1, got {got}")
    return arr
