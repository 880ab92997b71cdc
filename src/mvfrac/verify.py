"""Oracle-backed verification suites.

Every suite pits an implemented formula against an independent route to the
same quantity: a hit-or-miss Monte Carlo integral, a direct determinant, an
exact beta value, or a limit law.  Suites return JSON-ready dicts and are
pure functions of their arguments, so a repeated run with the same seed
serializes to identical bytes.

Monte Carlo comparisons report z = (closed - estimate) / stderr and pass at
|z| <= 3; moment checks inside the sum-density report use 4 standard errors;
deterministic identities use explicit tolerances stated per case.
"""

import inspect
import math

import numpy as np

from .errors import ParameterDomainError
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
from .matsample import _batch_det, mc_integrate_unit_cone, verify_sum_density
from .rng import derive_key, normals, uniforms
from .spdcore import RectConfig, SpdMatrix
from .zonal import fetch_table, zonal_eval

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
]

_SCHEMA = "mvfrac/1"

# fixed arguments for the operator grid, one well-conditioned matrix per
# dimension so every grid point is reproducible from the seed alone
_GRID_Z = {
    1: ((1.3,),),
    2: ((1.1, 0.3), (0.3, 0.8)),
}


def _report(suite, seed, extra, cases):
    rep = {"schema": _SCHEMA, "suite": suite, "seed": int(seed)}
    rep.update(extra)
    rep["cases"] = cases
    rep["pass"] = all(c["pass"] for c in cases)
    return rep


def _mc_z(closed, est):
    # A constant integrand (every determinant exponent zero) gives a zero
    # stderr; the estimate is then exact and the comparison must be too.
    if est.stderr == 0.0:
        scale = max(abs(closed), abs(est.value), 1.0)
        return 0.0 if abs(closed - est.value) <= 1e-12 * scale else math.inf
    return (closed - est.value) / est.stderr


def _random_spd(seed, tag, p, lo, hi):
    """Rotated diagonal with eigenvalues uniform in [lo, hi]; deterministic
    in (seed, tag)."""
    eigs = lo + (hi - lo) * uniforms(derive_key(seed, tag), 0, p)
    z = normals(derive_key(seed, tag + 1), 0, p * p).reshape(p, p)
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diag(r))
    m = (q * eigs) @ q.T
    return SpdMatrix(0.5 * (m + m.T))


def suite_binomial(k_max=25, seed=42):
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
            cases.append({
                "name": f"p{p}-b{b}",
                "dimension": p,
                "power": b,
                "spectral_radius": float(z.eigenvalues[0]),
                "series": series,
                "direct": direct,
                "abs_error": err,
                "pass": bool(err < tol),
            })
    return _report("binomial", seed, {"k_max": int(k_max), "tolerance": tol},
                   cases)


def suite_euler(samples=1_000_000, seed=42):
    """Gauss series with the half-shifted parameters against the Monte Carlo
    cone integral it must equal.

    Fixed instance: p = 2, r = 2, (a, b, c) = (1, 0.5, 3), argument
    diag(0.3, 0.1).  The integral representation is

        2F1(a+r/2, b; c+r/2; Y) = Gamma_p(c+r/2) /
            (Gamma_p(a+r/2) Gamma_p(c-a)) *
            integral |V|^(a+r/2-(p+1)/2) |I-V|^(c-a-(p+1)/2)
                     |I - Y^(1/2) V Y^(1/2)|^(-b) dV
    """
    p, r = 2, 2
    a, b, c = 1.0, 0.5, 3.0
    zy = SpdMatrix.diagonal((0.3, 0.1))
    cfg = RectConfig.with_identity_weights(p, r)
    series = gauss_2f1_rect(a, b, c, zy, cfg)

    eye = np.eye(p)
    root = np.asarray(zy.matrix_power(0.5).entries)
    e_v = a + 0.5 * r - 0.5 * (p + 1)
    e_rest = c - a - 0.5 * (p + 1)

    def g(v):
        return (_batch_det(v) ** e_v * _batch_det(eye - v) ** e_rest
                * _batch_det(eye - root @ v @ root) ** -b)

    mc = mc_integrate_unit_cone(g, p, samples, seed)
    const = math.exp(log_matrix_gamma(p, c + 0.5 * r)
                     - log_matrix_gamma(p, a + 0.5 * r)
                     - log_matrix_gamma(p, c - a))
    estimate = const * mc.value
    stderr = const * mc.stderr
    z = (series - estimate) / stderr
    cases = [{
        "name": "euler-p2",
        "series": series,
        "estimate": estimate,
        "stderr": stderr,
        "z": z,
        "proposals": mc.n_proposals,
        "pass": bool(abs(z) <= 3.0),
    }]
    return _report("euler", seed, {"samples": int(samples)}, cases)


def _grid_points(p_filter=None):
    pts = []
    for p in (1, 2):
        if p_filter is not None and p != p_filter:
            continue
        for r in (p, p + 1):
            for alpha in (1.0, 1.5):
                pts.append((p, r, alpha))
    return pts


def _grid_argument(p):
    return SpdMatrix(np.array(_GRID_Z[p]))


def suite_fracpower(p=None, samples=1_000_000, seed=42):
    """Closed power form against the Monte Carlo operator on |X|^eta over the
    grid p in {1,2}, r in {p,p+1}, alpha in {1,1.5}, eta in {0,1}."""
    if p is not None and p not in _GRID_Z:
        raise ParameterDomainError(f"grid covers p in {sorted(_GRID_Z)}, got {p}")
    cases = []
    idx = 0
    for pp, r, alpha in _grid_points(p):
        z = _grid_argument(pp)
        order = FracOrder(alpha, RectConfig.with_identity_weights(pp, r))
        for eta in (0.0, 1.0):
            closed = frac_integral_power_closed(order, z, eta).value()
            est = frac_integral_numeric(order, z, DetPowerOperand(eta),
                                        samples, seed + idx)
            zscore = _mc_z(closed, est)
            cases.append({
                "name": f"p{pp}-r{r}-a{alpha}-e{eta}",
                "dimension": pp,
                "r": r,
                "alpha": alpha,
                "eta": eta,
                "closed": closed,
                "estimate": est.value,
                "stderr": est.stderr,
                "z": zscore,
                "pass": bool(abs(zscore) <= 3.0),
            })
            idx += 1
    return _report("fracpower", seed, {"samples": int(samples)}, cases)


def suite_fraczonal(p=None, samples=150_000, seed=42):
    """Closed zonal form against the Monte Carlo operator on C_K over the
    grid p in {1,2}, r in {p,p+1}, alpha in {1,1.5}, K in {(1),(2)}; plus the
    exact reduction of the empty partition to the power form."""
    if p is not None and p not in _GRID_Z:
        raise ParameterDomainError(f"grid covers p in {sorted(_GRID_Z)}, got {p}")
    table = fetch_table(2, 2)
    cases = []
    idx = 0
    for pp, r, alpha in _grid_points(p):
        z = _grid_argument(pp)
        order = FracOrder(alpha, RectConfig.with_identity_weights(pp, r))
        for K in ((1,), (2,)):
            part = Partition.coerce(K)
            closed = frac_integral_zonal_closed(order, z, part, table).value()
            est = frac_integral_numeric(
                order, z, lambda x: zonal_eval(part, x, table),
                samples, seed + idx)
            zscore = _mc_z(closed, est)
            cases.append({
                "name": f"p{pp}-r{r}-a{alpha}-K{list(part.parts)}",
                "dimension": pp,
                "r": r,
                "alpha": alpha,
                "partition": list(part.parts),
                "closed": closed,
                "estimate": est.value,
                "stderr": est.stderr,
                "z": zscore,
                "pass": bool(abs(zscore) <= 3.0),
            })
            idx += 1
    for pp, r, alpha in _grid_points(p):
        z = _grid_argument(pp)
        order = FracOrder(alpha, RectConfig.with_identity_weights(pp, r))
        zonal_empty = frac_integral_zonal_closed(order, z, (), table).value()
        power = frac_integral_power_closed(order, z, 0.0).value()
        rel = abs(zonal_empty - power) / abs(power)
        cases.append({
            "name": f"empty-K-p{pp}-r{r}-a{alpha}",
            "dimension": pp,
            "r": r,
            "alpha": alpha,
            "zonal_form": zonal_empty,
            "power_form": power,
            "rel_error": rel,
            "pass": bool(rel <= 1e-12),
        })
    return _report("fraczonal", seed, {"samples": int(samples)}, cases)


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
        z = _grid_argument(pp)
        order = FracOrder(alpha, RectConfig.with_identity_weights(pp, r))
        collapsed = saigo_power_closed(order, z, SaigoParams(0.0, bb, cc),
                                       eta=eta).value()
        power = frac_integral_power_closed(order, z, eta).value()
        rel = abs(collapsed - power) / abs(power)
        cases.append({
            "name": f"collapse-p{pp}",
            "dimension": pp,
            "collapsed": collapsed,
            "power_form": power,
            "rel_error": rel,
            "pass": bool(rel <= 1e-12),
        })

    pp, r = 1, 1
    aa, bb, cc = 0.3, 0.2, 2.0
    alpha, eta = 1.0, 0.5
    z = _grid_argument(pp)
    order = FracOrder(alpha, RectConfig.with_identity_weights(pp, r))
    trunc = Truncation(k_max=25)
    table = fetch_table(trunc.k_max, pp)
    closed = saigo_power_closed(order, z, SaigoParams(aa, bb, cc), eta=eta,
                                trunc=trunc, table=table).value()

    # dimension 1: the truncated Gauss kernel of I - Z^(-1/2) X Z^(-1/2) is
    # a plain polynomial in 1 - x / z, so precompute its coefficients once
    # instead of re-summing per sample; the operator supplies the rest of
    # the kernel and the scale
    coeffs = []
    for k in range(trunc.k_max + 1):
        part = Partition.coerce((k,) if k else ())
        coeffs.append(gen_pochhammer(aa, part) * gen_pochhammer(bb, part)
                      / (gen_pochhammer(cc, part) * math.factorial(k)))
    poly = np.polynomial.Polynomial(coeffs)
    z11 = z.entries[0, 0]

    def operand(x):
        xx = x[:, 0, 0]
        return xx ** eta * poly(1.0 - xx / z11)

    mc = frac_integral_numeric(order, z, operand, samples, seed)
    zscore = (closed - mc.value) / mc.stderr
    cases.append({
        "name": "mc-small-params",
        "a": aa,
        "b": bb,
        "c": cc,
        "alpha": alpha,
        "eta": eta,
        "closed": closed,
        "estimate": mc.value,
        "stderr": mc.stderr,
        "z": zscore,
        "pass": bool(abs(zscore) <= 3.0),
    })
    return _report("saigo", seed, {"samples": int(samples)}, cases)


def suite_beta(samples=200_000, seed=42):
    """Type-1 and type-2 beta integrals against exp(log of the beta value).

    Type-1 integrates the density kernel over the unit cone directly.  The
    type-2 integral lives on the whole cone, so it is pulled back through
    S = W (I - W)^(-1), whose Jacobian contributes |I - W|^(-(p+1)); the
    check exercises the type-2 integrand code at genuinely unbounded S.
    """
    p = 2
    eye = np.eye(p)
    half = 0.5 * (p + 1)
    cases = []
    for i, (al, be) in enumerate(((2.0, 2.0), (1.5, 2.5))):
        target = math.exp(log_matrix_beta(p, al, be))

        def g_type1(w, al=al, be=be):
            return (_batch_det(w) ** (al - half)
                    * _batch_det(eye - w) ** (be - half))

        est1 = mc_integrate_unit_cone(g_type1, p, samples, seed + i)
        z1 = (target - est1.value) / est1.stderr
        cases.append({
            "name": f"type1-a{al}-b{be}",
            "alpha": al,
            "beta": be,
            "target": target,
            "estimate": est1.value,
            "stderr": est1.stderr,
            "z": z1,
            "pass": bool(abs(z1) <= 3.0),
        })

        def g_type2(w, al=al, be=be):
            rest = eye - w
            s_mat = w @ np.linalg.inv(rest)
            return (_batch_det(s_mat) ** (al - half)
                    * _batch_det(eye + s_mat) ** -(al + be)
                    * _batch_det(rest) ** -(p + 1.0))

        est2 = mc_integrate_unit_cone(g_type2, p, samples, seed + 100 + i)
        z2 = (target - est2.value) / est2.stderr
        cases.append({
            "name": f"type2-a{al}-b{be}",
            "alpha": al,
            "beta": be,
            "target": target,
            "estimate": est2.value,
            "stderr": est2.stderr,
            "z": z2,
            "pass": bool(abs(z2) <= 3.0),
        })
    return _report("beta", seed, {"samples": int(samples), "dimension": p},
                   cases)


def suite_sumdensity(p=None, r1=None, r2=None, samples=100_000, seed=42):
    """Sum of two transformed rectangular draws against the matrix gamma law.

    With no dimension given, runs the two canonical instances: the scalar
    exponential case (p=1, orders 1 and 1, with the distribution test) and
    the p=2 moment case with orders 3 and 4.
    """
    if p is None:
        instances = [(1, 1, 1), (2, 3, 4)]
    else:
        instances = [(p, r1 if r1 is not None else p,
                      r2 if r2 is not None else p)]
    cases = []
    for pp, rr1, rr2 in instances:
        rep = verify_sum_density(RectConfig.with_identity_weights(pp, rr1),
                                 RectConfig.with_identity_weights(pp, rr2),
                                 samples, seed)
        rep = dict(rep)
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
    det_errs = [abs(pathway_det_limit(q, z) - det_target) / det_target
                for q in qs]

    for label, errs in (("factor", factor_errs), ("determinant", det_errs)):
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        ok = (all(5.0 < rho < 20.0 for rho in ratios)
              and errs[-1] < 1e-3)
        cases.append({
            "name": f"{label}-decay",
            "q": list(qs),
            "errors": errs,
            "ratios": ratios,
            "final_error": errs[-1],
            "pass": bool(ok),
        })

    exact_factor = pathway_factor(1.01, Partition.coerce(()))
    exact_det = pathway_det_limit(1.01, [0.0, 0.0])
    cases.append({
        "name": "degenerate-exact",
        "empty_partition_factor": exact_factor,
        "zero_spectrum_limit": exact_det,
        "pass": bool(exact_factor == 1.0 and exact_det == 1.0),
    })
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
    """Dispatch a suite by name, forwarding only the keywords it accepts and
    ignoring None values."""
    if name not in SUITES:
        raise ParameterDomainError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    allowed = inspect.signature(fn).parameters
    passed = {k: v for k, v in kwargs.items()
              if v is not None and k in allowed}
    return fn(**passed)
