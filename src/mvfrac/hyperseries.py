"""Hypergeometric functions of a symmetric matrix argument.

The series is a sum over integer partitions: for each weight k every
partition K contributes a ratio of generalized Pochhammer symbols times the
zonal polynomial value over k factorial.  A weight's sum is one dot product
of its Pochhammer ratios with the zonal values, and the weight sums are
accumulated in fixed order (k ascending) with compensated summation so
results are byte-reproducible.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NonConvergenceError, ParameterDomainError
from .spdcore import SpdMatrix, ordering_lt
from .zonal import fetch_table

__all__ = [
    "HyperParams",
    "Truncation",
    "SeriesResult",
    "hyper_pfq",
    "hyper_pfq_at_identity",
    "gauss_2f1_rect",
    "pathway_det_limit",
]


@dataclass(frozen=True)
class HyperParams:
    """Numerator and denominator parameter tuples of a pFq series."""

    numerator: tuple
    denominator: tuple

    def __post_init__(self):
        object.__setattr__(self, "numerator",
                           tuple(float(a) for a in self.numerator))
        object.__setattr__(self, "denominator",
                           tuple(float(b) for b in self.denominator))
        for name in ("numerator", "denominator"):
            for i, v in enumerate(getattr(self, name), 1):
                if not math.isfinite(v):
                    raise ParameterDomainError(
                        f"{name} parameter {i} must be finite, got {v}")


@dataclass(frozen=True)
class Truncation:
    """Series truncation policy: k_max caps the partition weight.  The
    series always reports its geometric tail estimate and leaves the
    verdict to the caller."""

    k_max: int = 25

    def __post_init__(self):
        if not isinstance(self.k_max, int) or self.k_max < 0:
            raise ParameterDomainError(
                f"k_max must be a non-negative integer, got {self.k_max!r}")


class SeriesResult(NamedTuple):
    """Truncated series value plus tail diagnostics.

    tail_estimate extrapolates the remaining weight sums geometrically from
    the last observed ratio; infinite when the ratio gives no decay to
    extrapolate from.
    """

    value: float
    tail_estimate: float
    last_term: float
    ratio: float


# Consecutive growing weight sums before a beyond-balanced series (more than
# one numerator parameter in excess) is declared divergent.  Only those
# series diverge for every nonzero argument: a balanced-plus-one series
# converges below spectral radius one, which hyper_pfq checks, even when its
# weight sums rise for about p*a*x/(1-x) weights first, and a series with no
# more numerator than denominator parameters is entire.
_GROWTH_LIMIT = 5


def _zonal_series(num, den, eigenvalues, trunc):
    table = fetch_table(trunc.k_max, len(eigenvalues))
    m = table.monomials(eigenvalues, trunc.k_max)
    # one Pochhammer factor per nonempty partition, for the box its parent
    # lacks; these are the boxes of every partition the series sums (weight
    # <= trunc.k_max, no more rows than the argument), so a denominator is
    # refused exactly when one of its factors here vanishes
    size = len(m)
    shift = table.box_shift[1:size]
    box = np.ones(size)
    for a in num:
        box[1:] *= a + shift
    for b in den:
        factor = b + shift
        if (np.abs(factor) <= 1e-12).any():
            raise ParameterDomainError(
                f"denominator parameter {b} hits a Pochhammer zero within "
                f"k_max={trunc.k_max}")
        box[1:] /= factor
    poch = np.ones(size)
    value = 0.0
    comp = 0.0  # Kahan carry
    inv_fact = 1.0
    weight_sums = []
    growth = 0
    beyond_balanced = len(num) > len(den) + 1
    for k in range(trunc.k_max + 1):
        lo, hi = table.offsets[k], table.offsets[k + 1]
        if k:
            inv_fact /= k
            poch[lo:hi] = poch[table.parent[lo:hi]] * box[lo:hi]
        wsum = float(poch[lo:hi] @ (table.coeffs[k] @ m[lo:hi])) * inv_fact
        all_poch_zero = k > 0 and not poch[lo:hi].any()
        y = wsum - comp
        t = value + y
        comp = (t - value) - y
        value = t
        sk = abs(wsum)
        if weight_sums and sk > weight_sums[-1] > 0.0:
            growth += 1
            if beyond_balanced and growth >= _GROWTH_LIMIT:
                raise NonConvergenceError(
                    f"weight sums grew for {_GROWTH_LIMIT} consecutive weights "
                    f"(k={k}); the series is diverging")
        else:
            growth = 0
        weight_sums.append(sk)
        if all_poch_zero:
            # a fully vanished weight stays vanished: the series terminated
            break
    last = weight_sums[-1]
    prev = weight_sums[-2] if len(weight_sums) > 1 else 0.0
    if last == 0.0:
        ratio = 0.0
        tail = 0.0
    elif prev > 0.0:
        ratio = last / prev
        tail = last * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    else:
        ratio = math.inf
        tail = math.inf
    return SeriesResult(value=value, tail_estimate=tail, last_term=last,
                        ratio=ratio)


def hyper_pfq(params, Z, trunc=None):
    """Hypergeometric pFq of the SPD matrix argument Z, truncated by weight.

    For a balanced-plus-one series (one more numerator than denominator
    parameter) the spectral radius of Z must be below one; beyond-balanced
    series are admitted only formally and trip the divergence detector as
    soon as the weight sums start growing.
    """
    if trunc is None:
        trunc = Truncation()
    if len(params.numerator) == len(params.denominator) + 1:
        radius = float(Z.eigenvalues[0])
        if not radius < 1.0:
            raise ParameterDomainError(
                f"spectral radius must be < 1 for this series, got {radius}")
    return _zonal_series(params.numerator, params.denominator,
                         Z.eigenvalues.tolist(), trunc)


def hyper_pfq_at_identity(params, p, trunc=None):
    """pFq at the p-dimensional identity argument.

    The identity sits on the boundary of the convergence domain, so instead
    of a radius check the computed decay ratio of the weight sums must come
    out below 0.95; otherwise the truncated value is not trustworthy and a
    non-convergence error is raised.
    """
    if not isinstance(p, int) or p < 1:
        raise ParameterDomainError(f"p must be a positive integer, got {p!r}")
    if trunc is None:
        trunc = Truncation()
    result = _zonal_series(params.numerator, params.denominator,
                           [1.0] * p, trunc)
    if not result.ratio < 0.95:
        raise NonConvergenceError(
            f"weight-sum ratio {result.ratio:.4f} >= 0.95 at the identity "
            f"argument; truncation at k_max={trunc.k_max} is not reliable")
    return result


def gauss_2f1_rect(a, b, c, Z_Y, cfg, trunc=None):
    """Gauss series with the rectangular half-shift applied to its first and
    third parameters: 2F1(a + r/2, b; c + r/2; Z_Y).

    Z_Y must sit strictly between the zero matrix and the identity, and the
    parameters must satisfy c - a > (p-1)/2 and a > -r/2 + (p-1)/2 for the
    underlying integral representation to exist.
    """
    p = cfg.p
    r = cfg.r
    if Z_Y.dim != p:
        raise DimensionError(f"Z_Y has dimension {Z_Y.dim}, config expects {p}")
    if not (c - a) > (p - 1) / 2.0:
        raise ParameterDomainError(
            f"need c - a > (p-1)/2: c={c}, a={a}, p={p}")
    if not a > -0.5 * r + (p - 1) / 2.0:
        raise ParameterDomainError(
            f"need a > -r/2 + (p-1)/2: a={a}, r={r}, p={p}")
    if not ordering_lt(Z_Y, SpdMatrix.identity(p)):
        raise ParameterDomainError("Z_Y must satisfy O < Z_Y < I")
    params = HyperParams((a + 0.5 * r, b), (c + 0.5 * r,))
    return hyper_pfq(params, Z_Y, trunc).value


def pathway_det_limit(q, Z):
    """|I + (q-1) Z|**(-1/(q-1)), the pathway deformation of exp(-trace Z).

    Accepts an SpdMatrix or a bare iterable of non-negative eigenvalues (the
    zero-spectrum limit case is a legitimate input and gives exactly 1).
    Evaluated through log1p on the eigenvalues so q near 1 stays accurate.
    """
    if not q > 1.0:
        raise ParameterDomainError(f"pathway requires q > 1, got q={q}")
    if isinstance(Z, SpdMatrix):
        eigs = Z.eigenvalues
    else:
        eigs = np.asarray(Z, dtype=float)
        if eigs.ndim != 1:
            raise DimensionError("expected an SpdMatrix or a 1-d eigenvalue array")
        if np.any(eigs < 0.0):
            raise ParameterDomainError(
                f"eigenvalues must be non-negative, got {eigs.tolist()}")
    eps = q - 1.0
    acc = 0.0
    for lam in eigs:
        acc += math.log1p(eps * float(lam))
    return math.exp(-acc / eps)
