"""Hypergeometric functions of a symmetric matrix argument.

The series is a sum over integer partitions: for each weight k every
partition K contributes a ratio of generalized Pochhammer symbols times the
zonal polynomial value over k factorial.  Per weight the series runs one
in-place product, each partition's Pochhammer ratio from its parent's times
the factor of the box the parent lacks, and two BLAS products: the zonal
values, coefficients times monomials, and their dot with the ratios.  The
weight sums are accumulated in fixed order (k ascending) with compensated
summation so results are byte-reproducible.  A series stops at the first
weight whose Pochhammer ratios all vanish; one that diverges unless it
terminates is refused if it reaches k_max without stopping.  The ratio of
the last two weight sums is the tail diagnostic.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (NonConvergenceError, ParameterDomainError, as_instance,
                     as_int, as_real, as_shape)
from .spdcore import RectConfig, _spd_argument, _symmetric_spectrum, read_matrix
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
        for name in ("numerator", "denominator"):
            values = getattr(self, name)
            try:
                entries = enumerate(values, 1)
            except TypeError:
                raise ParameterDomainError(
                    f"{name} parameters must be a sequence of real numbers, "
                    f"got {values!r}") from None
            object.__setattr__(self, name, tuple(
                as_real(v, f"{name} parameter {i}") for i, v in entries))


@dataclass(frozen=True)
class Truncation:
    """Series truncation policy: k_max caps the partition weight.  The
    series reports its tail estimate and ratio.  It refuses a beyond-balanced
    series at a nonzero argument that has not terminated by k_max, hyper_pfq
    a spectral radius of one or more, and hyper_pfq_at_identity a ratio of
    0.95 or more; any other verdict on the tail is left to the caller."""

    k_max: int = 25

    def __post_init__(self):
        object.__setattr__(self, "k_max", as_int(self.k_max, "k_max"))


class SeriesResult(NamedTuple):
    """Truncated series value plus tail diagnostics.

    tail_estimate extrapolates the remaining weight sums geometrically from
    the last observed ratio, of weights or, on a spectrum of both signs,
    of pairs of them; infinite when it gives no decay to extrapolate from.
    """

    value: float
    tail_estimate: float
    last_term: float
    ratio: float


def _zonal_series(num, den, eigenvalues, trunc):
    as_instance(trunc, "trunc", Truncation)
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
    # the ratio and the tail read blocks of one weight sum, or of two on a
    # spectrum of both signs, where one can cancel (every odd one at +-x)
    pair = eigenvalues[0] > 0.0 > eigenvalues[-1]
    blocks = [0.0, 0.0]  # the empty blocks before weight 0
    held = 0.0  # the weight sum a pair's next block adds
    for k in range(trunc.k_max + 1):
        lo, hi = table.offsets[k], table.offsets[k + 1]
        pk = poch[lo:hi]
        if k:
            inv_fact /= k
            # every parent sits in a lower weight, so nothing aliases
            np.multiply(poch[table.parent[lo:hi]], box[lo:hi], out=pk)
        wsum = float(pk @ (table.coeffs[k] @ m[lo:hi])) * inv_fact
        y = wsum - comp
        t = value + y
        comp = (t - value) - y
        value = t
        sk = abs(wsum)
        last, prev = sk + held, blocks[-2 if pair else -1]
        blocks.append(last)
        held = sk if pair else 0.0
        # a fully vanished weight stays vanished: the series terminated and
        # leaves no tail; only a weight summing to 0 or NaN can be all zero
        if k and not sk > 0.0 and np.count_nonzero(pk) == 0:
            last = sk
            break
    else:
        # with more than one numerator parameter in excess the series
        # diverges at every nonzero argument unless it terminates (Muirhead
        # 1982, 7.3), and this one reached k_max without a vanished weight
        if len(num) > len(den) + 1 and any(eigenvalues):
            raise NonConvergenceError(
                f"a series with more than one numerator parameter in excess "
                f"diverges unless it terminates, and this one did not by "
                f"k_max={trunc.k_max}")
    # a vanished last block leaves no tail, a block after one no ratio
    ratio = last / prev if prev > 0.0 else (math.inf if last else 0.0)
    tail = last * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    return SeriesResult(value=value, tail_estimate=tail, last_term=last,
                        ratio=ratio)


def hyper_pfq(params, Z, trunc=Truncation()):
    """Hypergeometric pFq of the symmetric matrix argument Z, of any sign,
    truncated by weight.

    A series with no more numerator than denominator parameters takes any
    Z.  For a balanced-plus-one series the spectral radius max |lambda| of
    Z must be below one.  A beyond-balanced series at a nonzero Z is summed
    only when it terminates within trunc.k_max, its last weight vanishing,
    and is refused with NonConvergenceError otherwise.
    """
    as_instance(params, "params", HyperParams)
    eigs = _symmetric_spectrum(Z).tolist()
    if len(params.numerator) == len(params.denominator) + 1:
        radius = max(eigs[0], -eigs[-1])
        if not radius < 1.0:
            raise ParameterDomainError(
                f"spectral radius must be < 1 for this series, got {radius}")
    return _zonal_series(params.numerator, params.denominator, eigs, trunc)


def hyper_pfq_at_identity(params, p, trunc=Truncation()):
    """pFq at the p-dimensional identity argument.

    The identity sits on the boundary of the convergence domain, so instead
    of a radius check the computed decay ratio of the weight sums must come
    out below 0.95; otherwise the truncated value is not trustworthy and a
    non-convergence error is raised.
    """
    p = as_int(p, "dimension", 1)
    result = _zonal_series(as_instance(params, "params", HyperParams).numerator,
                           params.denominator, [1.0] * p, trunc)
    if not result.ratio < 0.95:
        raise NonConvergenceError(
            f"weight-sum ratio {result.ratio:.4f} >= 0.95 at the identity "
            f"argument; truncation at k_max={trunc.k_max} is not reliable")
    return result


def gauss_2f1_rect(a, b, c, Z_Y, cfg, trunc=Truncation()):
    """Gauss series with the rectangular half-shift applied to its first and
    third parameters: 2F1(a + r/2, b; c + r/2; Z_Y).

    Z_Y must sit strictly between the zero matrix and the identity: it is
    positive definite as an SpdMatrix, and hyper_pfq refuses a spectral
    radius of one or more.  The parameters must satisfy c - a > (p-1)/2
    and a + r/2 > (p-1)/2 for the underlying integral representation to
    exist.
    """
    p, r = as_instance(cfg, "cfg", RectConfig).p, cfg.r
    a, b, c = (as_real(v, f"Gauss parameter {n}")
               for v, n in zip((a, b, c), "abc"))
    Z_Y = _spd_argument(Z_Y, "Z_Y", p)
    as_shape(c - a, "c - a", p)
    params = HyperParams((as_shape(a + 0.5 * r, "a + r/2", p), b),
                         (c + 0.5 * r,))
    return hyper_pfq(params, Z_Y, trunc).value


def pathway_det_limit(q, Z):
    """|I + (q-1) Z|**(-1/(q-1)), the pathway deformation of exp(-trace Z).

    Takes the non-negative eigenvalues of Z as read_matrix reads a 1-d
    array (the zero-spectrum limit case is a legitimate input and gives
    exactly 1, and an infinite eigenvalue gives 0.0).  Evaluated through
    log1p on the eigenvalues so q near 1 stays accurate.
    """
    q = as_real(q, "q")
    if not q > 1.0:
        raise ParameterDomainError(f"pathway requires q > 1, got q={q}")
    eigs = read_matrix(Z, 1)
    if not (eigs >= 0.0).all():  # NaN fails this comparison too
        raise ParameterDomainError(
            f"eigenvalues must be non-negative, got {eigs.tolist()}")
    eps = q - 1.0
    acc = 0.0
    for lam in eigs:
        acc += math.log1p(eps * float(lam))
    return math.exp(-acc / eps)
