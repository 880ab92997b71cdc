"""Symmetric positive definite matrices and the rectangular transform.

This is the one linear-algebra layer.  SpdMatrix validates a matrix that
comes from outside: exact symmetry, and positive definiteness by the
eigenvalue rule of _pd_spectrum (every eigenvalue above 1e-12 times the
largest), which check_spd applies to one matrix or an (n, p, p) stack.
check_full_rank applies the SVD rank rule to rectangular draws (smallest
singular value above 1e-10 times the largest).  _batch_det gives the
determinants of a stack, by cofactors up to p = 3 and by LU beyond.
Matrices derived inside the program are not validated again: matrix_power
returns a plain array, and RectConfig decomposes its weights once.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DegenerateInputError, DimensionError, ParameterDomainError,
                     as_int)
from .gammacalc import log_matrix_gamma

__all__ = [
    "SpdMatrix",
    "RectConfig",
    "rect_transform",
    "stiefel_constant",
    "ordering_lt",
    "check_spd",
    "check_full_rank",
    "matrix_from_rows",
]

# An eigenvalue counts as positive iff it exceeds this times the largest
# absolute eigenvalue.  Scale-invariant, so S and 1e9*S agree on definiteness.
_PD_RTOL = 1e-12


def _pd_spectrum(m):
    """(eigenvalues, positive definite) of a symmetric matrix or an (n, p, p)
    stack: eigenvalues descending along the last axis, and per matrix
    whether every one exceeds _PD_RTOL times the largest absolute one.
    That holds exactly when the smallest exceeds _PD_RTOL times the largest,
    since then all are positive.

    LAPACK's symmetric solver scales extreme entries and does not cancel, so
    diag(1.0, 1e-10) gives back 1e-10 and diag(1e308, 1e308) stays finite.
    """
    eig = np.linalg.eigvalsh(m)[..., ::-1]
    return eig, eig[..., -1] > _PD_RTOL * eig[..., 0]


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


def check_spd(entries):
    """Validate a square matrix, or an (n, p, p) stack, as SpdMatrix does:
    finite entries, exact symmetry and positive definiteness.  Returns the
    eigenvalues, descending along the last axis; the error names the first
    matrix that fails."""
    if 0 in np.shape(entries)[-2:]:
        raise DimensionError(f"expected a non-empty matrix, got shape {np.shape(entries)}")
    if not np.isfinite(entries).all():
        raise DegenerateInputError("matrix entries must be finite")
    if not (entries == np.swapaxes(entries, -1, -2)).all():
        raise DegenerateInputError(
            "matrix is not exactly symmetric; symmetrize before constructing")
    eig, ok = _pd_spectrum(entries)
    if not ok.all():
        bad = eig if eig.ndim == 1 else eig[np.argmin(ok)]
        raise DegenerateInputError(
            f"matrix is not positive definite (eigenvalues {bad.tolist()})")
    return eig


def check_full_rank(entries):
    """Validate a p x r matrix, or an (n, p, r) stack, as of full row rank:
    r >= p, finite entries and a smallest singular value above 1e-10 times
    the largest, which also refuses the zero matrix."""
    shape = np.shape(entries)
    if 0 in shape[-2:]:
        raise DimensionError(f"expected a non-empty matrix, got shape {shape}")
    if shape[-1] < shape[-2]:
        raise DimensionError(
            f"need at least as many columns as rows, got shape {shape}")
    if not np.isfinite(entries).all():
        raise DegenerateInputError("matrix entries must be finite")
    sv = np.linalg.svd(entries, compute_uv=False)
    ok = sv[..., -1] > 1e-10 * sv[..., 0]
    if not ok.all():
        first = sv if sv.ndim == 1 else sv[np.argmin(ok)]
        raise DegenerateInputError(
            f"matrix is rank deficient (singular values {first.tolist()})")


class SpdMatrix:
    """Immutable symmetric positive definite matrix.

    The constructor validates exact symmetry of the stored entries and
    positive definiteness via the eigenvalues (relative tolerance 1e-12 on
    the spectral radius).  Entries are copied and frozen.
    """

    __slots__ = ("_entries", "_eigenvalues", "__weakref__")

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
        eig = check_spd(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "_entries", arr)
        object.__setattr__(self, "_eigenvalues", eig)

    def __setattr__(self, name, value):
        raise AttributeError("SpdMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, p):
        return cls(np.eye(as_int(p, "dimension", 1)))

    @classmethod
    def diagonal(cls, values):
        return cls(np.diag(np.asarray(values, dtype=float)))

    # -- views and cached spectra -----------------------------------------

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

    # -- scalar functionals ------------------------------------------------

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

    # -- misc ----------------------------------------------------------------

    def to_lists(self):
        return self._entries.tolist()

    def __repr__(self):
        return f"SpdMatrix({self.to_lists()!r})"

    def __eq__(self, other):
        if not isinstance(other, SpdMatrix):
            return NotImplemented
        return np.array_equal(self._entries, other._entries)

    def __hash__(self):
        return hash(self._entries.tobytes())


@dataclass(frozen=True)
class RectConfig:
    """Shape and weights (p, r, A, B) of the rectangular quadratic transform.

    A is p x p, B is r x r, both symmetric positive definite, and r >= p so
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
        if self.A.dim != self.p:
            raise DimensionError(f"A must be {self.p}x{self.p}, got {self.A.dim}")
        if self.B.dim != self.r:
            raise DimensionError(f"B must be {self.r}x{self.r}, got {self.B.dim}")

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
    def log_weight_factor(self):
        """log of |A|^(r/2) |B|^(p/2), the determinant weight of the transform."""
        return 0.5 * self.r * self.A.log_det + 0.5 * self.p * self.B.log_det


def rect_transform(X, cfg):
    """A^(1/2) X B X' A^(1/2) for each matrix of an (n, p, r) stack.

    Returns the plain C-contiguous (n, p, p) array of transforms, left to
    the caller to validate; check_full_rank refuses rank-deficient X.
    Products are symmetrized to scrub float asymmetry.
    """
    if X.ndim != 3 or X.shape[1:] != (cfg.p, cfg.r):
        raise DimensionError(
            f"X has shape {X.shape}, config expects (n, {cfg.p}, {cfg.r})")
    # (n, p, r) views of (p, n, r) buffers, where the einsum adds in the same
    # order (a BLAS matmul would not) several times faster; see README
    ax, axb = np.empty((2, cfg.p, len(X), cfg.r)).transpose(0, 2, 1, 3)
    np.matmul(np.matmul(cfg._roots[0], X, out=ax), cfg.B.entries, out=axb)
    z = np.einsum("nik,njk->nij", axb, ax)
    z += z.transpose(0, 2, 1)
    z *= 0.5
    return np.ascontiguousarray(z)


def stiefel_constant(p, r):
    """log of pi^(rp/2) / Gamma_p(r/2), the surface constant of the r-frame
    reduction that converts rectangular integrals to cone integrals."""
    p, r = as_int(p, "dimension", 1), as_int(r, "r", 1)
    if r < p:
        raise ParameterDomainError(f"stiefel_constant requires r >= p, got r={r} < p={p}")
    return 0.5 * r * p * math.log(math.pi) - log_matrix_gamma(p, 0.5 * r)


def ordering_lt(S1, S2):
    """True iff S2 - S1 is positive definite (Loewner strict order).

    Irreflexive by construction: the zero difference has no positive
    eigenvalues at any tolerance.
    """
    if S1.dim != S2.dim:
        raise DimensionError(f"dimension mismatch: {S1.dim} vs {S2.dim}")
    diff = S2.entries - S1.entries
    return bool(_pd_spectrum(diff)[1])


# ---------------------------------------------------------------------------
# JSON matrices: arrays of row arrays, dimensions inferred from shape
# ---------------------------------------------------------------------------

def matrix_from_rows(rows):
    """A parsed JSON array of row arrays as a float ndarray.  Ragged rows,
    entries that are not JSON numbers (strings, booleans, null) and integers
    beyond the float range are DimensionErrors."""
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionError(f"expected equal-length rows of numbers: {exc}")
    if arr.ndim != 2:
        raise DimensionError(
            f"expected a JSON array of row arrays, got ndim={arr.ndim}")
    for x in (x for row in rows for x in row):
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise DimensionError(f"expected equal-length rows of numbers: "
                                 f"{x!r} is not a number")
    return arr
