"""Oracle-backed verification suites.

Every suite pits an implemented formula against an independent route to the
same quantity: a hit-or-miss Monte Carlo integral, a direct determinant, an
exact beta value, or a limit law.  Suites return JSON-ready dicts and are
pure functions of their arguments, so a repeated run with the same seed
serializes to identical bytes.

_check writes each case's pass flag and _group each report's (all of its
cases).  A Monte Carlo case reports z = (closed - estimate) / stderr and
passes at |z| <= 3, a sum-density moment at |z| <= 4, an exact identity at
relative error 1e-12, a binomial sum at absolute error 1e-8, the sum-density
distribution at the one-percent Kolmogorov-Smirnov quantile, and a pathway
limit when each tenfold step of q - 1 cuts its error by a ratio in (5, 20),
its final error is below 1e-3 and its degenerate cases are exact.
"""

import inspect
import math

import numpy as np

from .errors import DimensionError, ParameterDomainError, as_instance, as_int
from .fracops import (
    DetPowerOperand,
    FracOrder,
    SaigoParams,
    frac_integral_numeric,
    frac_integral_power_closed,
    frac_integral_zonal_closed,
    saigo_power_closed,
)
from .gammacalc import (
    Partition,
    gen_pochhammer,
    log_matrix_beta,
    log_matrix_gamma,
    pathway_factor,
)
from .hyperseries import (
    HyperParams,
    Truncation,
    gauss_2f1_rect,
    hyper_pfq,
    pathway_det_limit,
)
from .matsample import _CONE_BLOCK, _rect_raw, mc_integrate_unit_cone
from .rng import derive_key, normals, uniforms
from .spdcore import RectConfig, SpdMatrix, _batch_det, rect_transform
from .zonal import zonal_eval

__all__ = [
    "suite_euler",
    "suite_binomial",
    "suite_fracpower",
    "suite_fraczonal",
    "suite_saigo",
    "suite_beta",
    "suite_sumdensity",
    "suite_pathway",
    "SUITES",
    "run_suite",
    "verify_sum_density",
]

_SCHEMA = "mvfrac/1"

# fixed arguments for the operator grid, one well-conditioned matrix per
# dimension so every grid point is reproducible from the seed alone
_GRID_Z = {
    1: ((1.3,),),
    2: ((1.1, 0.3), (0.3, 0.8)),
}

_KS_CRIT_1PCT = 1.6276  # asymptotic one-percent Kolmogorov-Smirnov quantile


def _gamma_cdf(a, x):
    """Regularized lower incomplete gamma P(a, x) for a whole or half-whole
    shape a >= 1/2, elementwise over the float array x >= 0.

    Starts from P(1, x) = 1 - e^-x or P(1/2, x) = erf(sqrt x) and climbs
    with P(b + 1, x) = P(b, x) - x^b e^-x / Gamma(b + 1) (DLMF 8.4, 8.8).
    """
    if a == int(a):
        b, cdf, term = 1.0, -np.expm1(-x), x * np.exp(-x)
    else:
        root = np.sqrt(x)
        b, cdf = 0.5, np.array([math.erf(v) for v in root.tolist()])
        term = root * np.exp(-x) / math.gamma(1.5)
    # term is x^b e^-x / Gamma(b + 1)
    while b < a:
        cdf -= term
        b += 1.0
        term *= x / b
    return cdf


def _check(name, passed, **fields):
    return {"name": name, **fields, "pass": bool(passed)}


def _group(cases, **fields):
    return {**fields, "cases": cases, "pass": all(c["pass"] for c in cases)}


def _report(suite, seed, extra, cases):
    return _group(cases, schema=_SCHEMA, suite=suite,
                  seed=as_int(seed, "seed", -math.inf), **extra)


def _z_check(name, z, limit, **fields):
    return _check(name, abs(z) <= limit, **fields, z=z)


def _mc_check(name, closed, est, ref="closed", **fields):
    """3 SE record of a closed form, stored under ref, against the Monte
    Carlo estimate est."""
    # A constant integrand (every determinant exponent zero) gives a zero
    # stderr; the estimate is then exact and the comparison must be too.
    if est.stderr == 0.0:
        scale = max(abs(closed), abs(est.value), 1.0)
        z = 0.0 if abs(closed - est.value) <= 1e-12 * scale else math.inf
    else:
        z = (closed - est.value) / est.stderr
    return _z_check(name, z, 3.0, **fields, **{ref: closed},
                    estimate=est.value, stderr=est.stderr)


def _rel_check(name, key, value, power, **fields):
    """Exact-identity record: value, stored under key, against the power
    form at relative error 1e-12."""
    rel = abs(value - power) / abs(power)
    return _check(name, rel <= 1e-12, **fields, **{key: value},
                  power_form=power, rel_error=rel)


def _operator_at(p, r, alpha):
    """Grid argument Z and identity-weight order of one operator point."""
    return (SpdMatrix(_GRID_Z[p]),
            FracOrder(alpha, RectConfig.with_identity_weights(p, r)))


def _grid(p=None):
    """The operator grid p in {1,2}, r in {p,p+1}, alpha in {1,1.5} as
    (p, r, alpha, Z, order); a given p keeps only that dimension."""
    if p is not None and p not in _GRID_Z:
        raise ParameterDomainError(f"grid covers p in {sorted(_GRID_Z)}, got {p}")
    for pp in sorted(_GRID_Z) if p is None else (p,):
        for r in (pp, pp + 1):
            for alpha in (1.0, 1.5):
                yield (pp, r, alpha, *_operator_at(pp, r, alpha))


def _random_spd(seed, tag, p, lo, hi):
    """Rotated diagonal with eigenvalues uniform in [lo, hi]; deterministic
    in (seed, tag)."""
    eigs = lo + (hi - lo) * uniforms(derive_key(seed, tag), 0, p)
    z = normals(derive_key(seed, tag + 1), 0, p * p).reshape(p, p)
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diag(r))
    m = (q * eigs) @ q.T
    return SpdMatrix(0.5 * (m + m.T))


def suite_binomial(k_max=Truncation.k_max, seed=42):
    """Weighted zonal sums against the determinant power |I - Z|^(-b).

    Arguments are rotated random matrices with spectrum inside [0.05, 0.3],
    three powers per dimension; absolute error below 1e-8 at the default
    truncation.
    """
    cases = []
    tol = 1e-8
    tag = 0x700
    for p in (2, 3):
        for b in (0.7, 1.5, 2.5):
            z = _random_spd(seed, tag, p, 0.05, 0.3)
            tag += 2
            series = hyper_pfq(HyperParams((b,), ()), z,
                               Truncation(k_max=k_max)).value
            rest = SpdMatrix(np.eye(p) - z.entries)
            direct = math.exp(-b * rest.log_det)
            err = abs(series - direct)
            cases.append(_check(
                f"p{p}-b{b}", err < tol, dimension=p, power=b,
                spectral_radius=float(z.eigenvalues[0]), series=series,
                direct=direct, abs_error=err))
    return _report("binomial", seed, {"k_max": int(k_max), "tolerance": tol},
                   cases)


def suite_euler(samples=1_000_000, seed=42):
    """Gauss series with the half-shifted parameters against the Monte Carlo
    operator it must equal.

    Fixed instance: p = 2, r = 2, (a, b, c) = (1, 0.5, 3), argument
    Y = diag(0.3, 0.1).  The operator of order c - a on the binomial operand
    is the power form times the Gauss series (Muirhead 1982, ch. 7):

        I[|X|^a |I-X|^(-b)](Y) = I[|X|^a](Y) * 2F1(a+r/2, b; c+r/2; Y)
    """
    p, r = 2, 2
    a, b, c = 1.0, 0.5, 3.0
    zy = SpdMatrix.diagonal((0.3, 0.1))
    order = FracOrder(c - a, RectConfig.with_identity_weights(p, r))
    series = gauss_2f1_rect(a, b, c, zy, order.config)

    def operand(x):
        return _batch_det(x) ** a * _batch_det(np.eye(p) - x) ** -b

    est = frac_integral_numeric(order, zy, operand, samples, seed)
    closed = frac_integral_power_closed(order, zy, a).value() * series
    cases = [_mc_check("euler-p2", closed, est, series=series,
                       proposals=est.n_proposals)]
    return _report("euler", seed, {"samples": int(samples)}, cases)


def suite_fracpower(p=None, samples=1_000_000, seed=42):
    """Closed power form against the Monte Carlo operator on |X|^eta over the
    grid p in {1,2}, r in {p,p+1}, alpha in {1,1.5}, eta in {0,1}."""
    cases = []
    for pp, r, alpha, z, order in _grid(p):
        for eta in (0.0, 1.0):
            closed = frac_integral_power_closed(order, z, eta).value()
            est = frac_integral_numeric(order, z, DetPowerOperand(eta),
                                        samples, seed + len(cases))
            cases.append(_mc_check(f"p{pp}-r{r}-a{alpha}-e{eta}", closed, est,
                                   dimension=pp, r=r, alpha=alpha, eta=eta))
    return _report("fracpower", seed, {"samples": int(samples)}, cases)


def suite_fraczonal(p=None, samples=150_000, seed=42):
    """Closed zonal form against the Monte Carlo operator on C_K over the
    grid p in {1,2}, r in {p,p+1}, alpha in {1,1.5}, K in {(1),(2)}; plus the
    exact reduction of the empty partition to the power form."""
    cases, collapses = [], []
    for pp, r, alpha, z, order in _grid(p):
        for K in ((1,), (2,)):
            part = Partition.coerce(K)
            closed = frac_integral_zonal_closed(order, z, part).value()
            est = frac_integral_numeric(
                order, z, lambda x: zonal_eval(part, x),
                samples, seed + len(cases))
            cases.append(_mc_check(
                f"p{pp}-r{r}-a{alpha}-K{list(part.parts)}", closed, est,
                dimension=pp, r=r, alpha=alpha, partition=list(part.parts)))
        collapses.append(_rel_check(
            f"empty-K-p{pp}-r{r}-a{alpha}", "zonal_form",
            frac_integral_zonal_closed(order, z, ()).value(),
            frac_integral_power_closed(order, z, 0.0).value(),
            dimension=pp, r=r, alpha=alpha))
    return _report("fraczonal", seed, {"samples": int(samples)},
                   cases + collapses)


def suite_saigo(samples=400_000, seed=42):
    """Gauss-kernel operator: exact collapse at a = 0 and a truncated-kernel
    Monte Carlo comparison at small parameters.

    The MC side expands the kernel to the same truncation the closed form
    uses and hands it to frac_integral_numeric as the operand, so the two
    agree in expectation with no truncation bias.
    """
    cases = []

    for pp, r, alpha, bb, cc, eta in ((1, 1, 1.0, 0.2, 2.0, 0.5),
                                      (2, 2, 1.5, 0.4, 2.5, 1.0)):
        z, order = _operator_at(pp, r, alpha)
        cases.append(_rel_check(
            f"collapse-p{pp}", "collapsed",
            saigo_power_closed(order, z, SaigoParams(0.0, bb, cc),
                               eta=eta).value(),
            frac_integral_power_closed(order, z, eta).value(),
            dimension=pp))

    pp, r = 1, 1
    aa, bb, cc = 0.3, 0.2, 2.0
    alpha, eta = 1.0, 0.5
    z, order = _operator_at(pp, r, alpha)
    trunc = Truncation()
    closed = saigo_power_closed(order, z, SaigoParams(aa, bb, cc), eta=eta,
                                trunc=trunc).value()

    # dimension 1: the truncated Gauss kernel of I - Z^(-1/2) X Z^(-1/2) is
    # a plain polynomial in 1 - x / z, so precompute its coefficients once
    # instead of re-summing per sample; the operator supplies the rest of
    # the kernel and the scale
    coeffs = []
    for k in range(trunc.k_max + 1):
        part = Partition.coerce((k,) if k else ())
        coeffs.append(gen_pochhammer(aa, part) * gen_pochhammer(bb, part)
                      / (gen_pochhammer(cc, part) * math.factorial(k)))
    poly = np.array(coeffs[::-1])  # np.polyval takes the leading one first
    z11 = z.entries[0, 0]

    def operand(x):
        xx = x[:, 0, 0]
        return xx ** eta * np.polyval(poly, 1.0 - xx / z11)

    mc = frac_integral_numeric(order, z, operand, samples, seed)
    cases.append(_mc_check("mc-small-params", closed, mc, a=aa, b=bb, c=cc,
                           alpha=alpha, eta=eta))
    return _report("saigo", seed, {"samples": int(samples)}, cases)


def suite_beta(samples=200_000, seed=42):
    """Type-1 beta integral against exp(log of the beta value): the cone
    estimator's own beta weight on the constant 1, at two parameter pairs."""
    p = 2
    cases = []
    for i, (al, be) in enumerate(((2.0, 2.0), (1.5, 2.5))):
        est = mc_integrate_unit_cone(lambda w: np.ones(len(w)), p, samples,
                                     seed + i, (al, be))
        cases.append(_mc_check(f"type1-a{al}-b{be}",
                               math.exp(log_matrix_beta(p, al, be)), est,
                               ref="target", alpha=al, beta=be))
    return _report("beta", seed, {"samples": int(samples), "dimension": p},
                   cases)


def verify_sum_density(cfg1, cfg2, n, seed):
    """Check that the sum of two independent transformed rectangular draws
    follows the matrix gamma law with shape (r1+r2)/2.

    Z_i is the quadratic transform of a draw from the exponential-weight
    density for cfg_i, and U = Z_1 + Z_2 should be matrix gamma with shape
    (r1+r2)/2 and identity scale whatever the weights are.  Compares the mean
    trace and mean determinant against exact moments at four standard errors,
    and for p = 1 adds a Kolmogorov-Smirnov test at the one-percent level.
    The standard errors need at least two samples.

    The draws are made and summed _CONE_BLOCK samples at a time and only
    their traces and determinants are kept, so memory is O(block) plus n
    floats.
    """
    n = as_int(n, "sample count", 2)
    p = as_instance(cfg1, "cfg1", RectConfig).p
    if as_instance(cfg2, "cfg2", RectConfig).p != p:
        raise DimensionError(
            f"configurations disagree on dimension: {cfg1.p} vs {cfg2.p}")
    traces, dets = np.empty(n), np.empty(n)
    for lo in range(0, n, _CONE_BLOCK):
        m = min(_CONE_BLOCK, n - lo)
        u = rect_transform(_rect_raw(cfg1, m, seed, 1, lo), cfg1)
        u += rect_transform(_rect_raw(cfg2, m, seed, 2, lo), cfg2)
        traces[lo:lo + m] = np.trace(u, axis1=1, axis2=2)
        dets[lo:lo + m] = _batch_det(u)
    a = 0.5 * (cfg1.r + cfg2.r)

    cases = []
    for name, xs, expected in (
            ("mean-trace", traces, p * a),
            ("mean-determinant", dets,
             math.exp(log_matrix_gamma(p, a + 1.0) - log_matrix_gamma(p, a)))):
        observed = float(np.mean(xs))
        se = float(np.std(xs, ddof=1) / math.sqrt(n))
        cases.append(_z_check(name, (observed - expected) / se, 4.0,
                              observed=observed, expected=expected))

    if p == 1:
        xs = np.sort(dets)  # a 1x1 determinant is the entry itself
        cdf = _gamma_cdf(a, xs)
        grid = np.arange(1, n + 1) / n
        stat = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n))))
        crit = _KS_CRIT_1PCT / math.sqrt(n)
        cases.append(_check("ks-distribution", stat < crit, statistic=stat,
                            critical=crit))

    return _group(cases, check="sum-density", dimension=int(p),
                  orders=[int(cfg1.r), int(cfg2.r)], samples=n,
                  seed=as_int(seed, "seed", -math.inf))


def suite_sumdensity(p=None, r1=None, r2=None, samples=100_000, seed=42):
    """Sum of two transformed rectangular draws against the matrix gamma law.

    With no dimension given, runs the two canonical instances: the scalar
    exponential case (p=1, orders 1 and 1, with the distribution test) and
    the p=2 moment case with orders 3 and 4, whose orders are fixed.
    """
    if p is None and (r1, r2) != (None, None):
        flag = "--r2" if r1 is None else "--r1"
        raise ParameterDomainError(f"{flag} needs --p; canonical instances fix their orders")
    instances = ([(1, 1, 1), (2, 3, 4)] if p is None else
                 [(p, p if r1 is None else r1, p if r2 is None else r2)])
    cases = []
    for pp, rr1, rr2 in instances:
        rep = verify_sum_density(RectConfig.with_identity_weights(pp, rr1),
                                 RectConfig.with_identity_weights(pp, rr2),
                                 samples, seed)
        rep["name"] = f"p{pp}-r{rr1}-r{rr2}"
        cases.append(rep)
    return _report("sumdensity", seed, {"samples": int(samples)}, cases)


def suite_pathway(seed=42):
    """Deformation factors and determinant limits approaching the exponential.

    Both deformations differ from their limit by a term linear in (q - 1), so
    each tenfold step toward 1 must cut the error by roughly ten; the final
    relative error must be below 1e-3, and the degenerate cases (empty
    partition, zero spectrum) must be exact.
    """
    qs = (1.01, 1.001, 1.0001)
    cases = []

    part = Partition.coerce((2, 1))
    factor_errs = [abs(pathway_factor(q, part) - 1.0) for q in qs]
    z = SpdMatrix.diagonal((1.0, 0.4))
    det_target = math.exp(-z.trace)
    det_errs = [abs(pathway_det_limit(q, z.eigenvalues) - det_target) / det_target
                for q in qs]

    for label, errs in (("factor", factor_errs), ("determinant", det_errs)):
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        ok = (all(5.0 < rho < 20.0 for rho in ratios)
              and errs[-1] < 1e-3)
        cases.append(_check(f"{label}-decay", ok, q=list(qs), errors=errs,
                            ratios=ratios, final_error=errs[-1]))

    exact_factor = pathway_factor(1.01, Partition.coerce(()))
    exact_det = pathway_det_limit(1.01, [0.0, 0.0])
    cases.append(_check(
        "degenerate-exact", exact_factor == 1.0 and exact_det == 1.0,
        empty_partition_factor=exact_factor, zero_spectrum_limit=exact_det))
    return _report("pathway", seed, {"q_ladder": list(qs)}, cases)


SUITES = {
    "euler": suite_euler,
    "binomial": suite_binomial,
    "fracpower": suite_fracpower,
    "fraczonal": suite_fraczonal,
    "saigo": suite_saigo,
    "beta": suite_beta,
    "sumdensity": suite_sumdensity,
    "pathway": suite_pathway,
}


def run_suite(name, **kwargs):
    """Run the suite called name on the keywords given; a None value stands
    for an absent keyword.  A keyword the suite does not take is a
    ParameterDomainError naming the suite and the keyword, raised before
    any draw."""
    if name not in SUITES:
        raise ParameterDomainError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    allowed = inspect.signature(fn).parameters
    passed = {k: v for k, v in kwargs.items() if v is not None}
    if extra := sorted(passed.keys() - allowed):
        raise ParameterDomainError(
            f"suite {name!r} does not take {', '.join(extra)}; it takes "
            f"{', '.join(allowed)}")
    return fn(**passed)
