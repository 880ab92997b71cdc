"""Deterministic samplers for random symmetric positive definite matrices.

Three families back the verification suites:

* matrix gamma draws via the triangular square-root construction: the
  diagonal of T holds square roots of gamma variates with shapes that
  decrease by one half per row, the strict lower triangle holds normals of
  variance one half, and W = T T' has the matrix gamma density with the
  requested shape, above (p-1)/2, and identity scale;
* rectangular exponential-weight draws X with density proportional to
  exp(-tr(A X B X')), realized as A^{-1/2} G B^{-1/2} for iid normal G of
  variance one half, or as G itself for identity weights, bit for bit;
* uniform draws from the set of symmetric positive definite matrices with
  both W and I - W positive definite, by rejection from a box of diagonal
  entries in (0,1) and off-diagonal entries in (-1,1).

The rejection sampler also powers a hit-or-miss Monte Carlo integrator over
that set: rejected proposals count as zero-valued integrand samples, so the
box volume times the mean over all proposals estimates the integral.  Given
shapes (s, t), each above (p-1)/2 or the integral diverges, this weighted
estimator multiplies each draw by the type-1 matrix beta weight
|W|^(s-(p+1)/2) |I - W|^(t-(p+1)/2), which the fractional operator and
the beta check share.  The estimator streams: each block of accepted
draws is turned into its weighted values while it is still in cache, and
only those n values are kept.  Every
sampler is a pure function of (seed, counter), so equal seeds reproduce
equal output regardless of batch sizes.  The public samplers return their
draws as one float array: positive definite by construction, or for the
rectangular sampler checked in place by check_full_rank's rank rule.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    ParameterDomainError,
    ResourceLimitError,
    as_instance,
    as_int,
    as_shape,
)
from .rng import (_GOLDEN, _check_slots, _golden, _golden_steps, _unit,
                  derive_key, gamma_variates, normals, uniforms)
from .spdcore import RectConfig, _batch_det, _full_rank, read_matrix

__all__ = [
    "McEstimate",
    "sample_matrix_gamma",
    "sample_rect_exponential",
    "sample_uniform_spd_unit",
    "sample_type1_beta",
    "mc_integrate_unit_cone",
]

# stream tags.  A matrix gamma stack keys row j's gamma variates with its
# base + j and its off-diagonal normals with base + _GAMMA_OFF, so it has at
# most _GAMMA_OFF rows
_TAG_GAMMA_DIAG = 0x100
_GAMMA_OFF = 0xF0
_TAG_RECT = 0x200
_TAG_CONE = 0x300
_TAG_BETA_FIRST = 0x400
_TAG_BETA_SECOND = 0x500

# proposals this close to the boundary of the positivity set are discarded;
# the shaved layer has volume of the same order, far below Monte Carlo
# resolution.  Clearing it on every leading minor of W and I - W makes both
# positive definite with eigenvalues in (1e-10, 1), so SpdMatrix accepts them
_EDGE = 1e-10

# the most proposals in one rejection block, so that a block's uniforms,
# counter offsets, minor temporaries and the integrand's work on its
# accepted draws stay in a core's L2 cache.  Below that, a block asks for
# _CONE_SLACK times the proposals that the acceptances still needed take at
# the exact rate, so it seldom falls short, and one that does is followed
# by one sized for the rest.  Proposal i owns the counter slots i*width..,
# so the block size changes no draw.  The sum-density check draws its
# samples in blocks of _CONE_BLOCK
_CONE_BLOCK = 1 << 14
_CONE_SLACK = 1.1

# the counter slot of each entry of a cone proposal W: the diagonal takes
# slots 0..p-1 and the strict lower triangle, in row order, the rest, each
# off-diagonal entry being 2u - 1 for its slot's uniform u
_CONE_SLOTS = {2: np.array([[0, 2], [2, 1]]),
               3: np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])}

# the proposal box: p diagonal entries in (0, 1), p(p-1)/2 off it in (-1, 1)
_BOX_VOLUME = {p: 2.0 ** (p * (p - 1) // 2) for p in (1, 2, 3)}

# the exact acceptance rate B_p((p+1)/2, (p+1)/2) / box volume; the _EDGE
# layer lowers it by far less than block sizing can see
_CONE_RATE = {1: 1.0, 2: math.pi / 12, 3: math.pi ** 2 / 720}


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo value with its standard error and provenance.

    n counts the accepted (evaluated) samples; n_proposals additionally
    counts the rejected proposals of the cone sampler.
    """

    value: float
    stderr: float
    n: int
    seed: int
    n_proposals: int

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.stderr)):
            raise DegenerateInputError("Monte Carlo estimate is not finite")
        if self.stderr < 0.0:
            raise DegenerateInputError("negative standard error")
        object.__setattr__(self, "n", as_int(self.n, "sample count", 1))


def _matrix_gamma_raw(p, shape, n, seed, tag_base):
    """n matrix gamma draws as an (n, p, p) array, W = T T', positive
    definite because the triangular T has a positive diagonal; a stack with
    a variate that underflowed to zero, or a non-finite W, is refused."""
    p = as_int(p, "dimension", 1)
    shape = as_shape(shape, "matrix gamma shape", p)
    if p > _GAMMA_OFF:
        raise ParameterDomainError(
            f"matrix gamma dimension must be at most {_GAMMA_OFF}, got {p}")
    n = as_int(n, "sample count", 1)
    t = np.zeros((n, p, p))
    for j in range(p):
        key = derive_key(seed, tag_base + j)
        t[:, j, j] = np.sqrt(gamma_variates(key, shape - 0.5 * j, n))
    i, j = np.tril_indices(p, -1)
    if i.size:
        key = derive_key(seed, tag_base + _GAMMA_OFF)
        t[:, i, j] = normals(key, 0, n * i.size).reshape(n, -1) * math.sqrt(0.5)
    with np.errstate(over="ignore"):  # an overflowed W is refused below
        w = t @ t.transpose(0, 2, 1)
        w = 0.5 * (w + w.transpose(0, 2, 1))
    if not (np.isfinite(w).all() and (t[:, range(p), range(p)] > 0.0).all()):
        raise DegenerateInputError(
            f"matrix gamma variate underflowed or overflowed (shape={shape})")
    return w


def sample_matrix_gamma(p, shape, n, seed):
    """n independent draws of the p x p matrix gamma distribution with the
    given shape, above (p-1)/2, and identity scale, p at most 240, as one
    (n, p, p) array certified positive definite by construction."""
    return _matrix_gamma_raw(p, shape, n, seed, _TAG_GAMMA_DIAG)


def _rect_raw(cfg, n, seed, stream=0, first=0):
    """n rectangular exponential-weight draws as an (n, p, r) array, the
    draws first..first+n-1 of the stream.  With identity weights the scaled
    normals are returned as they are: Box-Muller never gives a zero, and a
    product by an exact I returns every nonzero entry bit for bit."""
    n = as_int(n, "sample count", 1)
    key = derive_key(seed, _TAG_RECT + stream)
    size = cfg.p * cfg.r
    g = normals(key, first * size, n * size).reshape(n, cfg.p, cfg.r)
    g *= math.sqrt(0.5)
    if cfg._identity:
        return g
    _, a_inv, b_inv = cfg._roots
    return np.matmul(a_inv @ g, b_inv, out=g)


def sample_rect_exponential(cfg, n, seed):
    """n independent draws with density exp(-tr(A X B X')) up to constant,
    as one full-rank-checked (n, p, r) array."""
    x = _rect_raw(as_instance(cfg, "cfg", RectConfig), n, seed)
    _full_rank(x)
    return x


@functools.cache
def _cone_cols(p):
    """The counter offsets of slot p for the proposals of a block that
    starts at proposal 0, times the golden ratio as rng._unit takes them,
    built once for each p."""
    width = p + p * (p - 1) // 2
    return (np.arange(_CONE_BLOCK, dtype=np.uint64) * width + p) * _GOLDEN


def _cone_block(key, p, cols, first, limit):
    """The first `limit` accepted proposals among proposals first.. of one
    block, as (block offsets, W, det W, det(I - W)).

    A proposal is accepted when every leading principal minor of W and of
    I - W clears the edge margin.  Proposal i owns the counter slots
    (first + i)*width.., W's entries sitting at the slots _CONE_SLOTS gives;
    cols holds the block's offsets of slot p, that of w01 (p > 1), times the
    golden ratio: slot s of proposal first + i reaches rng._unit as cols[i]
    + steps[s], steps[s] = (first*width + s - p)*golden, and one slot check
    on the block's last slot stands for uniforms_at's check of each one.

    An accepted W has |w_ij| < 1/2 off the diagonal: W and I - W are
    positive definite, so both 2x2 principal minors on rows {i, j} are
    positive, and their leading terms multiply to at most 1/16; the edge
    margin is far wider than any rounding.  So w01 is drawn first, w00 and
    w11 only where |w01| < 1/2, and at p = 3 the other three slots only
    where both 2x2 minors pass; only those with |w02|, |w12| < 1/2 go on to
    the 3x3 determinants.  The minors are formed as _batch_det forms them
    ((-v)*(-v) is v*v exactly).
    """
    if p == 1:
        u = uniforms(key, first, cols.size)
        hits = np.flatnonzero((u > _EDGE) & (1.0 - u > _EDGE))[:limit]
        u = u[hits]
        return hits, u[:, None, None], u, 1.0 - u
    width = p + p * (p - 1) // 2
    _check_slots(first * width, (first + cols.size) * width)
    steps = _golden_steps()[:width, None] + _golden(first * width - p)
    z = cols + steps[p]
    u01 = _unit(key, z, np.empty_like(z))
    near = np.flatnonzero((u01 > 0.25) & (u01 < 0.75))  # |2 u01 - 1| < 1/2
    ent = np.empty((width, near.size))  # W's entries, one row per slot
    z = cols[near] + steps[:2]
    ent[:2] = _unit(key, z, np.empty_like(z))
    ent[p] = 2.0 * u01[near] - 1.0
    vv = ent[p] * ent[p]
    det_v = 1.0 - ent[0]
    ok = (ent[0] > _EDGE) & (det_v > _EDGE)
    det_w = ent[0] * ent[1] - vv
    det_v = det_v * (1.0 - ent[1]) - vv
    ok &= (det_w > _EDGE) & (det_v > _EDGE)
    hits = np.flatnonzero(ok)
    if p == 2:
        hits = hits[:limit]
    ent = ent.take(hits, axis=1)
    if p == 3:
        z = cols[near[hits]] + steps[[2, 4, 5]]
        ent[[2, 4, 5]] = _unit(key, z, np.empty_like(z))
        ent[4:] = 2.0 * ent[4:] - 1.0
        small = np.flatnonzero((np.abs(ent[4:]) < 0.5).all(axis=0))
        hits, ent = hits[small], ent.take(small, axis=1)
    w = ent[_CONE_SLOTS[p]].transpose(2, 0, 1)
    if p == 2:
        return near[hits], w, det_w[hits], det_v[hits]
    det_w = _batch_det(w)
    det_v = _batch_det(np.eye(p) - w)
    keep = np.flatnonzero((det_w > _EDGE) & (det_v > _EDGE))[:limit]
    return near[hits[keep]], w[keep], det_w[keep], det_v[keep]


def _cone_raw(p, n, seed, each=None):
    """Accept exactly n uniform draws from {W : W > 0, I - W > 0}.

    Returns (W, det W, det(I - W), n_proposals) where n_proposals counts every
    proposal up to and including the one that produced the n-th acceptance, as
    the hit-or-miss estimator requires.  Given each, a function of one
    block's (W, det W, det(I - W)) that returns one value per draw, returns
    (values, None, None, n_proposals) instead: each block's draws go to each
    while they are in cache, and only the n values are kept.
    """
    n = as_int(n, "sample count", 1)
    p = as_int(p, "dimension", 1)
    if p > 3:
        raise ParameterDomainError(
            f"rejection sampling is limited to dimensions 1..3, got {p}; "
            f"higher dimensions need the beta importance sampler")
    key = derive_key(seed, _TAG_CONE)
    cols = _cone_cols(p)

    out = ((np.empty((n, p, p)), np.empty(n), np.empty(n)) if each is None
           else (np.empty(n), None, None))
    accepted = first = 0
    while True:
        size = min(_CONE_BLOCK,
                   math.ceil(_CONE_SLACK * (n - accepted) / _CONE_RATE[p]))
        hits, *block = _cone_block(key, p, cols[:size], first, n - accepted)
        if hits.size:
            if each is not None:
                block = (each(*block),)
            for o, b in zip(out, block):
                o[accepted:accepted + hits.size] = b
            accepted += hits.size
        if accepted == n:
            return (*out, first + int(hits[-1]) + 1)
        first += size
        # judged from a full block on: a short block can miss by chance
        if first >= _CONE_BLOCK and accepted < 1e-4 * first:
            raise ResourceLimitError(
                f"cone rejection rate below 1e-4 for dimension {p} "
                f"({accepted} acceptances in {first} proposals)")


def sample_uniform_spd_unit(p, n, seed):
    """n uniform draws from {W : W > 0, I - W > 0}, as one (n, p, p) array
    certified by the _EDGE margin on every leading minor."""
    return _cone_raw(p, n, seed)[0]


def _weighted(f, p, shapes):
    """The each function of _cone_raw that maps a block of draws to
    f(W stack), read by read_matrix, times the weight
    mc_integrate_unit_cone describes; f must return one value per draw,
    finite once weighted.  Both shapes are read here, before any draw."""
    if shapes is None:  # the uniform weight, whose powers are exactly 1.0
        e_w = e_v = 0.0
    else:
        try:
            s, t = shapes
        except (TypeError, ValueError):
            raise ParameterDomainError(
                f"cone shapes must be a pair (s, t), got {shapes!r}") from None
        p = as_int(p, "dimension", 1)
        e_w, e_v = (as_shape(x, "cone shape", p) - 0.5 * (p + 1)
                    for x in (s, t))

    def each(w, det_w, det_v):
        h = read_matrix(f(w), 1)
        if h.shape != det_w.shape:
            raise DimensionError(
                f"integrand must return shape {det_w.shape}, got {h.shape}")
        h = det_v ** e_v * det_w ** e_w * h
        if not np.all(np.isfinite(h)):
            raise DegenerateInputError("integrand returned a non-finite value")
        return h
    return each


def _indicator_estimate(cone, p, seed):
    """Hit-or-miss estimate from _cone_raw's (values, _, _, n_proposals),
    one value per accepted draw; rejected proposals enter the mean and
    variance as exact zeros, over the p-dimensional proposal box.  Squares
    the values in place: a second n-vector freed at the heap top would trim
    the heap, and the next call would fault its pages in again."""
    h, _, _, m = cone
    n = as_int(h.size, "sample count", 2)
    total = float(np.sum(h))
    total_sq = float(np.sum(np.square(h, out=h)))
    value = _BOX_VOLUME[p] * total / m
    var = (total_sq - total * total / m) / (m - 1)
    stderr = _BOX_VOLUME[p] * math.sqrt(max(var, 0.0) / m)
    return McEstimate(value=value, stderr=stderr, n=n,
                      seed=as_int(seed, "seed", -math.inf), n_proposals=m)


def mc_integrate_unit_cone(g, p, n, seed, shapes=None):
    """Monte Carlo integral of g over {W : W > 0, I - W > 0}, weighted by
    |W|^(s-(p+1)/2) |I - W|^(t-(p+1)/2) when shapes = (s, t) is given; s
    and t must exceed (p-1)/2, where the weight's integral B_p(s, t) exists.

    g is called once per block of accepted draws with that block's (k, p, p)
    stack and returns their k values, so it must map every draw to its
    value on its own; the standard error needs n >= 2.
    """
    as_instance(g, "g", callable)
    cone = _cone_raw(p, n, seed, _weighted(g, p, shapes))
    return _indicator_estimate(cone, p, seed)


def sample_type1_beta(p, a1, a2, n, seed):
    """n draws of U = L^{-1} W1 L'^{-1}, with L L' = W1 + W2, for independent
    matrix gamma W1, W2 with shapes a1, a2, as one (n, p, p) array; the
    draws have the type-1 matrix beta density with parameters (a1, a2)
    (Muirhead 1982, Thm 3.3.1).  W1 and W2 come certified positive definite,
    and so U and I - U = L^{-1} W2 L'^{-1} are."""
    w1 = _matrix_gamma_raw(p, a1, n, seed, _TAG_BETA_FIRST)
    w2 = _matrix_gamma_raw(p, a2, n, seed, _TAG_BETA_SECOND)
    low = np.linalg.cholesky(w1 + w2)
    u = np.linalg.solve(low, np.linalg.solve(low, w1).transpose(0, 2, 1))
    return 0.5 * (u + u.transpose(0, 2, 1))
