"""End-to-end acceptance checks.

One test per top-level requirement, each printing one PASS/FAIL line with
its headline numbers.  Statistical checks run the seeded verification
suites, so reruns are reproducible bit for bit.
"""

import json
import math
import time

import numpy as np
import pytest

from mvfrac import (
    HyperParams,
    SpdMatrix,
    Truncation,
    hyper_pfq,
    partitions_of,
    run_suite,
    zonal_eval,
)

from conftest import run_cli


def _line(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")


def _random_spd(rng, p, lo, hi):
    eigs = rng.uniform(lo, hi, size=p)
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    q = q * np.sign(np.diag(r))
    m = (q * eigs) @ q.T
    return SpdMatrix(0.5 * (m + m.T))


def test_zonal_normalization_sums():
    # fixed-weight sums must reproduce powers of the trace:
    # rel err < 1e-10 over 50 random arguments per (p, k), under 10 s
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst = 0.0
    for p in range(1, 5):
        for k in range(1, 9):
            parts = partitions_of(k, p)
            for _ in range(50):
                z = _random_spd(rng, p, 0.2, 3.0)
                total = sum(zonal_eval(K, z) for K in parts)
                rel = abs(total - z.trace ** k) / z.trace ** k
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _line("zonal normalization", ok,
          f"max rel err {worst:.2e}, {elapsed:.1f}s (limits 1e-10, 10s)")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_determinant_binomial_identity():
    # weighted zonal sums against |I-Z|^{-b}: abs err < 1e-8 at weight 25,
    # spectra inside [0.05, 0.3], under 30 s
    t0 = time.perf_counter()
    rep = run_suite("binomial")
    elapsed = time.perf_counter() - t0
    worst = max(c["abs_error"] for c in rep["cases"])
    ok = rep["pass"] and elapsed < 30.0
    _line("determinant binomial identity", ok,
          f"max abs err {worst:.2e}, {elapsed:.1f}s (limits 1e-8, 30s)")
    assert rep["pass"]
    assert elapsed < 30.0


def test_scalar_series_reduction():
    # dimension-1 evaluation against the classical one-variable series on
    # 200 random parameter tuples with argument at most 1/2
    rng = np.random.default_rng(77)
    trunc = Truncation(k_max=25)
    worst = 0.0
    for _ in range(200):
        a = rng.uniform(0.2, 3.0)
        b = rng.uniform(0.2, 3.0)
        c = rng.uniform(0.8, 4.0)
        z = rng.uniform(0.005, 0.5)
        got = hyper_pfq(HyperParams((a, b), (c,)),
                        SpdMatrix(np.array([[z]])), trunc).value
        term, want = 1.0, 0.0
        for k in range(26):
            want += term
            term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        worst = max(worst, abs(got - want) / abs(want))
    ok = worst < 1e-10
    _line("scalar series reduction", ok,
          f"max rel err {worst:.2e} over 200 tuples (limit 1e-10)")
    assert worst < 1e-10


def test_euler_integral_mc():
    # weighted Gauss function against its cone-integral representation,
    # a million draws, within 3 standard errors, under 2 minutes
    t0 = time.perf_counter()
    rep = run_suite("euler")
    elapsed = time.perf_counter() - t0
    z = rep["cases"][0]["z"]
    ok = rep["pass"] and elapsed < 120.0
    _line("euler integral mc", ok,
          f"z = {z:+.2f}, {elapsed:.0f}s (limits 3 SE, 120s)")
    assert rep["pass"]
    assert elapsed < 120.0


def test_power_closed_form_grid():
    # closed form of the determinant-power integral against the sampler on
    # the 16-point grid; at least 95% of points within 3 standard errors
    rep = run_suite("fracpower")
    n_pass = sum(1 for c in rep["cases"] if c["pass"])
    frac = n_pass / len(rep["cases"])
    worst = max(abs(c["z"]) for c in rep["cases"])
    ok = frac >= 0.95
    _line("power closed form grid", ok,
          f"{n_pass}/{len(rep['cases'])} points, worst |z| = {worst:.2f}")
    assert frac >= 0.95


def test_zonal_closed_form_grid():
    # polynomial-weighted closed form on the same grid, plus the empty
    # partition reducing to the power form at 1e-12
    rep = run_suite("fraczonal")
    mc = [c for c in rep["cases"] if "z" in c]
    exact = [c for c in rep["cases"] if "rel_error" in c]
    worst_z = max(abs(c["z"]) for c in mc)
    worst_rel = max(c["rel_error"] for c in exact)
    ok = rep["pass"]
    _line("zonal closed form grid", ok,
          f"worst |z| = {worst_z:.2f} over {len(mc)} points, "
          f"empty-partition rel err {worst_rel:.1e} (limit 1e-12)")
    assert rep["pass"]


def test_gauss_kernel_operator():
    # kernel-weighted operator: exact collapse when the kernel is constant,
    # and a truncated-kernel MC cross-check within 3 standard errors
    rep = run_suite("saigo")
    collapse = max(c["rel_error"] for c in rep["cases"] if "rel_error" in c)
    zval = [c["z"] for c in rep["cases"] if "z" in c][0]
    ok = rep["pass"]
    _line("gauss kernel operator", ok,
          f"collapse rel err {collapse:.1e} (limit 1e-12), mc z = {zval:+.2f}")
    assert rep["pass"]


def test_pathway_limits():
    # scaling factor and determinant limit: error drops tenfold per decade
    # of q-1 and lands below 1e-3; degenerate cases exact
    rep = run_suite("pathway")
    ok = rep["pass"]
    ratios = [c.get("ratios") for c in rep["cases"] if c.get("ratios")]
    _line("pathway limits", ok, f"step ratios {ratios}")
    assert rep["pass"]


def test_sum_density():
    # sum of two transformed rectangular draws: scalar case by KS at 1%,
    # matrix case by trace/determinant moments within 4 standard errors
    rep = run_suite("sumdensity")
    ok = rep["pass"]
    names = [c["name"] for c in rep["cases"]]
    _line("sum density", ok, f"instances {names}")
    assert rep["pass"]


def test_beta_integrals():
    # both beta integral forms against the log-beta value within 3 SE
    rep = run_suite("beta")
    worst = max(abs(c["z"]) for c in rep["cases"])
    ok = rep["pass"]
    _line("beta integrals", ok,
          f"worst |z| = {worst:.2f} over {len(rep['cases'])} cases")
    assert rep["pass"]


def test_verify_determinism():
    # identical seed, byte-identical verification output
    outputs = []
    for suite, extra in (("pathway", ()),
                         ("sumdensity", ("--samples", "20000"))):
        runs = [run_cli("verify", "--suite", suite, "--seed", "7", *extra)
                for _ in range(2)]
        assert all(r.returncode == 0 for r in runs)
        outputs.append(runs[0].stdout == runs[1].stdout)
        json.loads(runs[0].stdout)  # stays parseable
    ok = all(outputs)
    _line("verify determinism", ok,
          f"byte-identical reruns for 2 suites: {outputs}")
    assert ok
