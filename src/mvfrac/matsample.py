"""Deterministic samplers for random symmetric positive definite matrices.

Three families back the verification suites:

* matrix gamma draws via the triangular square-root construction: the
  diagonal of T holds square roots of gamma variates with shapes that
  decrease by one half per row, the strict lower triangle holds normals of
  variance one half, and W = T T' has the matrix gamma density with the
  requested shape and identity scale;
* rectangular exponential-weight draws X with density proportional to
  exp(-tr(A X B X')), realized as A^{-1/2} G B^{-1/2} for iid normal G of
  variance one half;
* uniform draws from the set of symmetric positive definite matrices with
  both W and I - W positive definite, by rejection from a box of diagonal
  entries in (0,1) and off-diagonal entries in (-1,1).

The rejection sampler also powers a hit-or-miss Monte Carlo integrator over
that set: rejected proposals count as zero-valued integrand samples, so the
box volume times the mean over all proposals estimates the integral.  Every
sampler is a pure function of (seed, counter), so equal seeds reproduce equal
output regardless of batch sizes.  The public samplers return their draws as
one float array: positive definite by construction, or for the rectangular
sampler checked in one call with the rule RectMatrix applies to one matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    ParameterDomainError,
    ResourceLimitError,
)
from .rng import derive_key, gamma_variates, normals, uniforms_at
from .spdcore import check_full_rank

__all__ = [
    "McEstimate",
    "MatrixGammaSpec",
    "sample_matrix_gamma",
    "sample_rect_exponential",
    "sample_uniform_spd_unit",
    "sample_type1_beta",
    "cone_acceptance_report",
    "mc_integrate_unit_cone",
]

# stream tags; diagonal gamma streams add the row index to the base
_TAG_GAMMA_DIAG = 0x100
_TAG_GAMMA_OFF = 0x1F0
_TAG_RECT = 0x200
_TAG_CONE = 0x300
_TAG_BETA_FIRST = 0x400
_TAG_BETA_SECOND = 0x500

# proposals this close to the boundary of the positivity set are discarded;
# the shaved layer has volume of the same order, far below Monte Carlo
# resolution.  Clearing it on every leading minor of W and I - W makes both
# positive definite with eigenvalues in (1e-10, 1), so SpdMatrix accepts them
_EDGE = 1e-10

# proposals per rejection block, sized so that a block's uniforms, counter
# offsets and minor temporaries stay in a core's L2 cache; proposal i owns
# the counter slots i*width.., so the block size changes no draw
_CONE_BLOCK = 1 << 14


def _check_count(n, least=1):
    n = int(n)
    if n < least:
        raise ParameterDomainError(
            f"sample count must be at least {least}, got {n}")
    return n


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo value with its standard error and provenance.

    n counts the accepted (evaluated) samples; n_proposals additionally
    counts rejected proposals when the estimate came from the rejection
    sampler, and is zero otherwise.
    """

    value: float
    stderr: float
    n: int
    seed: int
    n_proposals: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.stderr)):
            raise DegenerateInputError("Monte Carlo estimate is not finite")
        if self.stderr < 0.0:
            raise DegenerateInputError("negative standard error")
        if self.n < 1:
            raise ParameterDomainError("sample count must be at least 1")


@dataclass(frozen=True)
class MatrixGammaSpec:
    """Dimension and shape of a matrix gamma distribution, identity scale."""

    dim: int
    shape: float

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterDomainError(f"dimension must be positive, got {self.dim}")
        if not math.isfinite(self.shape):
            raise ParameterDomainError(
                f"matrix gamma shape must be finite, got {self.shape}")
        if not self.shape > 0.5 * (self.dim - 1):
            raise ParameterDomainError(
                f"matrix gamma shape must exceed (dim-1)/2 = "
                f"{0.5 * (self.dim - 1)}, got {self.shape}")


def _matrix_gamma_raw(p, shape, n, seed, tag_base):
    """n matrix gamma draws as an (n, p, p) array, W = T T', positive
    definite because the triangular T has a positive diagonal; a stack with
    a variate that underflowed to zero, or a non-finite W, is refused."""
    n = _check_count(n)
    t = np.zeros((n, p, p))
    for j in range(p):
        key = derive_key(seed, tag_base + j)
        t[:, j, j] = np.sqrt(gamma_variates(key, shape - 0.5 * j, n))
    i, j = np.tril_indices(p, -1)
    if i.size:
        key = derive_key(seed, tag_base + 0xF0)
        t[:, i, j] = normals(key, 0, n * i.size).reshape(n, -1) * math.sqrt(0.5)
    with np.errstate(over="ignore"):  # an overflowed W is refused below
        w = t @ t.transpose(0, 2, 1)
        w = 0.5 * (w + w.transpose(0, 2, 1))
    if not (np.isfinite(w).all() and (t[:, range(p), range(p)] > 0.0).all()):
        raise DegenerateInputError(
            f"matrix gamma variate underflowed or overflowed (shape={shape})")
    return w


def sample_matrix_gamma(spec, n, seed):
    """n independent matrix gamma draws for the given spec, as one
    (n, p, p) array certified positive definite by construction."""
    return _matrix_gamma_raw(spec.dim, spec.shape, n, seed, _TAG_GAMMA_DIAG)


def _rect_raw(cfg, n, seed, stream=0):
    """n rectangular exponential-weight draws as an (n, p, r) array."""
    n = _check_count(n)
    key = derive_key(seed, _TAG_RECT + stream)
    g = normals(key, 0, n * cfg.p * cfg.r).reshape(n, cfg.p, cfg.r)
    g *= math.sqrt(0.5)
    return (cfg.A.matrix_power(-0.5).entries @ g
            @ cfg.B.matrix_power(-0.5).entries)


def sample_rect_exponential(cfg, n, seed, stream=0):
    """n independent draws with density exp(-tr(A X B X')) up to constant,
    as one full-rank-checked (n, p, r) array.

    Distinct stream values give independent sequences under the same seed.
    """
    x = _rect_raw(cfg, n, seed, stream)
    check_full_rank(x)
    return x


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


def _cone_block(key, p, cols, first, limit):
    """The first `limit` accepted proposals among proposals first.. of one
    block, as (block offsets, W, det W, det(I - W)).

    A proposal is accepted when every leading principal minor of W and of
    I - W clears the edge margin.  cols[:, i] holds the counter offsets of
    proposal i's head slots (diagonal 0 and 1, off-diagonal p), enough for
    the 1x1 and 2x2 minors, formed as _batch_det forms them ((-v)*(-v) is
    v*v exactly).  Only proposals that pass draw their other slots.
    """
    width = p + p * (p - 1) // 2
    head = uniforms_at(key, cols + np.uint64(first * width))
    det_w = head[0]
    det_v = 1.0 - det_w
    ok = (det_w > _EDGE) & (det_v > _EDGE)
    if p > 1:
        v = 2.0 * head[2] - 1.0
        vv = v * v
        det_w = det_w * head[1] - vv
        det_v = det_v * (1.0 - head[1]) - vv
        ok &= (det_w > _EDGE) & (det_v > _EDGE)
    hits = np.flatnonzero(ok)
    if p < 3:
        hits = hits[:limit]
    sel = np.empty((width, hits.size))
    sel[cols[:, 0]] = head[:, hits]
    if p == 3:
        tail = np.array((2, 4, 5))
        sel[tail] = uniforms_at(key, tail[:, None] + (first + hits) * width)
    w = np.empty((p, p, hits.size))
    i, j = np.tril_indices(p, -1)
    w[range(p), range(p)] = sel[:p]
    w[i, j] = w[j, i] = 2.0 * sel[p:] - 1.0
    w = w.transpose(2, 0, 1)
    if p < 3:
        return hits, w, det_w[hits], det_v[hits]
    det_w = _batch_det(w)
    det_v = _batch_det(np.eye(p) - w)
    keep = np.flatnonzero((det_w > _EDGE) & (det_v > _EDGE))[:limit]
    return hits[keep], w[keep], det_w[keep], det_v[keep]


def _cone_raw(p, n, seed):
    """Accept exactly n uniform draws from {W : W > 0, I - W > 0}.

    Returns (W, det W, det(I - W), n_proposals) where n_proposals counts every
    proposal up to and including the one that produced the n-th acceptance, as
    the hit-or-miss estimator requires.
    """
    n = _check_count(n)
    p = int(p)
    if p < 1:
        raise ParameterDomainError(f"dimension must be positive, got {p}")
    if p > 3:
        raise ParameterDomainError(
            f"rejection sampling is limited to dimensions 1..3, got {p}; "
            f"higher dimensions need the beta importance sampler")
    key = derive_key(seed, _TAG_CONE)
    width = p + p * (p - 1) // 2
    slots = np.array((0, 1, p)[:width], dtype=np.uint64)
    cols = slots[:, None] + np.arange(_CONE_BLOCK, dtype=np.uint64) * np.uint64(width)

    out = np.empty((n, p, p)), np.empty(n), np.empty(n)
    accepted = first = 0
    while True:
        hits, *block = _cone_block(key, p, cols, first, n - accepted)
        for o, b in zip(out, block):
            o[accepted:accepted + hits.size] = b
        accepted += hits.size
        if accepted == n:
            return (*out, first + int(hits[-1]) + 1)
        first += _CONE_BLOCK
        if accepted < 1e-4 * first:
            raise ResourceLimitError(
                f"cone rejection rate below 1e-4 for dimension {p} "
                f"({accepted} acceptances in {first} proposals)")


def sample_uniform_spd_unit(p, n, seed):
    """n uniform draws from {W : W > 0, I - W > 0}, as one (n, p, p) array
    certified by the _EDGE margin on every leading minor."""
    return _cone_raw(p, n, seed)[0]


def cone_acceptance_report(p, n, seed):
    """Acceptance statistics of the rejection sampler, for sizing runs."""
    _, _, _, n_proposals = _cone_raw(p, n, seed)
    return {
        "dimension": int(p),
        "accepted": int(n),
        "proposals": int(n_proposals),
        "acceptance_rate": n / n_proposals,
        "box_volume": 2.0 ** (p * (p - 1) // 2),
        "seed": int(seed),
    }


def _indicator_estimate(h, n_proposals, p, n, seed, kernel=1.0):
    """Hit-or-miss estimate from the integrand values h, one per accepted
    draw and finite once multiplied by kernel; rejected proposals enter the
    mean and variance as exact zeros, over the p-dimensional proposal box."""
    _check_count(n, 2)
    box_volume = 2.0 ** (p * (p - 1) // 2)
    h = np.asarray(h, dtype=float)
    if h.shape != (n,):
        raise DimensionError(
            f"integrand must return shape ({n},), got {h.shape}")
    h = kernel * h
    if not np.all(np.isfinite(h)):
        raise DegenerateInputError("integrand returned a non-finite value")
    total = float(np.sum(h))
    total_sq = float(np.sum(np.square(h)))
    m = n_proposals
    value = box_volume * total / m
    var = (total_sq - total * total / m) / (m - 1)
    stderr = box_volume * math.sqrt(max(var, 0.0) / m)
    return McEstimate(value=value, stderr=stderr, n=n,
                      seed=int(seed), n_proposals=m)


def mc_integrate_unit_cone(g, p, n, seed):
    """Monte Carlo integral of g over {W : W > 0, I - W > 0}.

    g takes the (n, p, p) stack of accepted draws and returns their n
    values; the standard error needs n >= 2.
    """
    w, _, _, n_proposals = _cone_raw(p, n, seed)
    return _indicator_estimate(g(w), n_proposals, p, n, seed)


def sample_type1_beta(p, a1, a2, n, seed):
    """n draws of U = L^{-1} W1 L'^{-1}, with L L' = W1 + W2, for independent
    matrix gamma W1, W2 with shapes a1, a2, as one (n, p, p) array; the
    draws have the type-1 matrix beta density with parameters (a1, a2)
    (Muirhead 1982, Thm 3.3.1).  W1 and W2 come certified positive definite,
    and so U and I - U = L^{-1} W2 L'^{-1} are."""
    n = _check_count(n)
    MatrixGammaSpec(p, a1)
    MatrixGammaSpec(p, a2)
    w1 = _matrix_gamma_raw(p, a1, n, seed, _TAG_BETA_FIRST)
    w2 = _matrix_gamma_raw(p, a2, n, seed, _TAG_BETA_SECOND)
    low = np.linalg.cholesky(w1 + w2)
    u = np.linalg.solve(low, np.linalg.solve(low, w1).transpose(0, 2, 1))
    return 0.5 * (u + u.transpose(0, 2, 1))
