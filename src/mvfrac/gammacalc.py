"""Partition combinatorics and the matrix-variate gamma/beta family.

Gamma-type quantities are computed and returned on the log scale; they are
astronomically large already for moderate dimension.  Generalized Pochhammer
products, which may legitimately vanish or go negative, are returned as plain
floats, with a signed log variant where callers need the split.
"""

import math

from .errors import (DegenerateInputError, ParameterDomainError, as_int,
                     as_partition, as_real, as_shape)

__all__ = [
    "partitions_of",
    "log_gamma",
    "log_matrix_gamma",
    "gen_pochhammer",
    "signed_log_gen_pochhammer",
    "log_matrix_gamma_partition",
    "log_matrix_beta",
    "pathway_factor",
]


# ---------------------------------------------------------------------------
# scalar log-gamma
# ---------------------------------------------------------------------------

# CPython's own lgamma, a Lanczos sum in C that calls libm's log (not libm's
# lgamma): finite down to 5e-324, it overflows above about 2.5e305.

def log_gamma(x):
    """Natural log of the scalar gamma function for x > 0; inf where the
    value overflows a float."""
    x = as_shape(x, "gamma argument", 1)
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def partitions_of(k, max_parts):
    """All partitions of k into at most max_parts parts, as tuples, in
    reverse-lex order: (k,) first and the flattest partition last, which
    refines dominance order, as the zonal recurrence needs."""
    k, max_parts = as_int(k, "k"), as_int(max_parts, "max_parts", 1)
    out = []
    prefix = []

    def rec(remaining, cap):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        slots = max_parts - len(prefix)
        for part in range(min(remaining, cap), 0, -1):
            if part * slots < remaining:
                break
            prefix.append(part)
            rec(remaining - part, part)
            prefix.pop()

    rec(k, k)
    return out


# ---------------------------------------------------------------------------
# matrix-variate gamma and friends
# ---------------------------------------------------------------------------

def log_matrix_gamma(p, alpha):
    """log of the matrix-variate gamma function of dimension p at alpha.

    The value is pi**(p(p-1)/4) times the product of Gamma(alpha - (j-1)/2)
    over j = 1..p, so the argument must satisfy alpha > (p-1)/2 or the last
    factor hits a pole.
    """
    p = as_int(p, "dimension", 1)
    alpha = as_shape(alpha, "gamma argument", p)
    acc = 0.25 * p * (p - 1) * math.log(math.pi)
    for j in range(p):
        acc += log_gamma(alpha - 0.5 * j)
    return acc


def _box_factors(a, K):
    """The factors (a - (j-1)/2) + (i-1) of (a)_K, box by box, row by row."""
    a = as_real(a, "Pochhammer parameter")
    for j, kj in enumerate(as_partition(K)):
        base = a - 0.5 * j
        for i in range(kj):
            yield base + i


def gen_pochhammer(a, K):
    """Generalized rising factorial of a over the partition K.

    Product over parts k_j of the ordinary Pochhammer (a - (j-1)/2)_{k_j}.
    May be zero or negative; returned as a plain float.
    """
    return math.prod(_box_factors(a, K), start=1.0)


def signed_log_gen_pochhammer(a, K):
    """(log |(a)_K|, sign) with sign in {-1, 0, +1}."""
    log_abs = 0.0
    sign = 1
    for f in _box_factors(a, K):
        if f == 0.0:
            return float("-inf"), 0
        if f < 0.0:
            sign = -sign
        log_abs += math.log(abs(f))
    return log_abs, sign


def log_matrix_gamma_partition(p, b, K):
    """log of the partition-shifted matrix gamma: log Gamma_p(b) + log (b)_K.

    Requires (b)_K > 0; use signed_log_gen_pochhammer for the general case.
    """
    p = as_int(p, "dimension", 1)
    K = as_partition(K)
    if len(K) > p:
        raise ParameterDomainError(
            f"partition has {len(K)} parts but dimension is {p}")
    log_abs, sign = signed_log_gen_pochhammer(b, K)
    if sign == 0:
        raise ParameterDomainError(
            f"({b})_{K} vanishes; log form undefined")
    if sign < 0:
        raise ParameterDomainError(
            f"({b})_{K} is negative; use the signed variant")
    return log_matrix_gamma(p, b) + log_abs


# from this argument on, Stirling's remainder 1/(12x) - 1/(360x^3) +
# 1/(1260x^5) is exact to double precision
_STIRLING_FROM = 1e3


def _log_rise(x, b):
    """lgamma(x + b) - lgamma(x) for x >= _STIRLING_FROM and b > 0, in
    Stirling's form b log x + (x + b - 1/2) log1p(b/x) - b + S(x+b) - S(x),
    which does not cancel when x dwarfs b."""
    def rest(y):
        w = 1.0 / (y * y)
        return (1.0 / 12.0 - (1.0 / 360.0 - w / 1260.0) * w) / y
    return (b * math.log(x) + (x + b - 0.5) * math.log1p(b / x) - b
            + (rest(x + b) - rest(x)))


def log_matrix_beta(p, alpha, beta):
    """log of the matrix-variate beta function of dimension p.

    A log Gamma_p term that overflows a float is a DegenerateInputError,
    so the value is never NaN (inf - inf).  Where the larger shape less
    (p-1)/2 reaches _STIRLING_FROM, the value is log Gamma_p of the smaller
    shape b less the p rises lgamma(x_j + b) - lgamma(x_j), x_j the larger
    less j/2, in Stirling's form: the difference of the three log Gamma_p
    terms cancels there, to 0.0 at alpha 1e20, beta 2 against -92.1.
    """
    p = as_int(p, "dimension", 1)
    alpha, beta = as_shape(alpha, "alpha", p), as_shape(beta, "beta", p)
    terms = [log_matrix_gamma(p, x)
             for x in (alpha, beta, as_real(alpha + beta, "alpha + beta"))]
    if math.inf in terms:
        raise DegenerateInputError(
            f"log Gamma_{p} overflows at alpha = {alpha}, beta = {beta}")
    small, big = sorted((alpha, beta))
    if big - 0.5 * (p - 1) < _STIRLING_FROM:
        return terms[0] + terms[1] - terms[2]
    return (terms[1] if alpha > beta else terms[0]) - sum(
        _log_rise(big - 0.5 * j, small) for j in range(p))


def pathway_factor(q, K):
    """(q-1)**|K| times (1/(q-1))_K, in cancelled product form.

    Multiplying the factors as 1 - (q-1)(j-1)/2 + (q-1)(i-1) keeps the
    evaluation stable as q -> 1+, where the naive split overflows.  The
    product tends to 1 in that limit.
    """
    q = as_real(q, "q")
    if not q > 1.0:
        raise ParameterDomainError(f"pathway_factor requires q > 1, got q={q}")
    eps = q - 1.0
    out = 1.0
    for j, kj in enumerate(as_partition(K)):
        for i in range(kj):
            out *= 1.0 - eps * 0.5 * j + eps * i
    return out
