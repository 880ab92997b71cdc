"""Shared test helpers."""

import functools
import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np

import mvfrac

# The directory holding the imported mvfrac package.  Child interpreters get
# it first on PYTHONPATH, so they run the same code as the test process
# whatever their working directory.
_PACKAGE_ROOT = str(pathlib.Path(mvfrac.__file__).resolve().parents[1])


def run_python(*args):
    """Run a fresh ``python *args`` and capture its text output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (_PACKAGE_ROOT, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env)


def run_cli(*args):
    """Run ``python -m mvfrac.cli *args`` and capture its text output."""
    return run_python("-m", "mvfrac.cli", *args)


def brute_monomial(mu, eigs):
    """Monomial symmetric polynomial for mu: one product per distinct
    arrangement of its exponents over the variables."""
    if len(mu) > len(eigs):
        return 0.0
    exps = tuple(mu) + (0,) * (len(eigs) - len(mu))
    return sum(math.prod(x ** e for x, e in zip(eigs, perm))
               for perm in set(itertools.permutations(exps)))


@functools.lru_cache(maxsize=None)
def _reference_passes(k_max, p):
    # the monomial passes in their original (rows, width) layout, built from
    # the partitions in table order as ZonalTable numbers them
    flat = [q for k in range(k_max + 1) for q in mvfrac.partitions_of(k, p)]
    index = {kappa: i for i, kappa in enumerate(flat)}
    offsets = list(itertools.accumulate(
        [len(mvfrac.partitions_of(k, p)) for k in range(k_max + 1)],
        initial=0))
    one_part = np.array([0] + [index[(k,)] for k in range(1, k_max + 1)])
    removals = [[(index[kappa[:i] + kappa[i + 1:]], kappa[i])
                 for i in range(len(kappa))
                 if i == 0 or kappa[i] != kappa[i - 1]]
                for kappa in flat]
    passes = []
    for j in range(2, p + 1):
        targets = [i for i, kappa in enumerate(flat) if len(kappa) <= j]
        counts = np.searchsorted(targets, offsets[1:]).tolist()
        terms = [([(i, 0)] if len(flat[i]) < j else []) + removals[i]
                 for i in targets]
        width = max(map(len, terms))
        src = np.full((len(terms), width), -1, dtype=np.intp)
        exps = np.zeros_like(src)
        for row, pairs in enumerate(terms):
            src[row, :len(pairs)], exps[row, :len(pairs)] = zip(*pairs)
        passes.append((np.array(targets), counts, src, exps))
    return offsets, one_part, passes


def reference_monomials(table, eigenvalues, k_max):
    """ZonalTable.monomials as one (rows, width) array per pass, each
    summed over its rows' terms along axis 1: the layout the table used
    before its passes were stored (width, rows)."""
    offsets, one_part, passes = _reference_passes(table.k_max, table.p)
    x = np.ascontiguousarray(np.asarray(eigenvalues, dtype=float).T)
    size = offsets[k_max + 1]
    exponents = np.arange(k_max + 1).reshape((-1,) + (1,) * (x.ndim - 1))
    powers = x[:, None] ** exponents
    m = np.zeros((size + 1,) + x.shape[1:])
    m[one_part[:k_max + 1]] = powers[0]
    for j, (targets, counts, src, exps) in enumerate(passes[:len(x) - 1], 1):
        rows = counts[k_max]
        terms = m[src[:rows]] * powers[j, exps[:rows]]
        m = np.zeros_like(m)
        m[targets[:rows]] = terms.sum(axis=1)
    return m[:size]


def _reference_identity(kappa, p):
    # C_kappa(I_p) in closed form, one partition at a time
    num = 2 ** sum(kappa) * math.factorial(sum(kappa))
    den = 1
    for i, ki in enumerate(kappa):
        num *= math.prod(range(p - i, p - i + 2 * ki, 2))
        num *= math.prod(2 * (ki - kj) + j - i
                         for j, kj in enumerate(kappa[i + 1:], i + 1))
        den *= math.factorial(2 * ki + len(kappa) - i - 1)
    return num / den


def _reference_ones(mu, p):
    # m_mu(1, ..., 1) with p ones
    out = math.factorial(p) // math.factorial(p - len(mu))
    for part in set(mu):
        out //= math.factorial(mu.count(part))
    return float(out)


def reference_build_weight(plist, p):
    """One weight's block of a zonal table, as a column-by-column loop that
    rebuilds each column's feeds and dominating rows from the partitions:
    the form the library used before it computed that structure once per
    table build."""
    n = len(plist)
    index = {lam: i for i, lam in enumerate(plist)}
    parts = np.zeros((n, p), dtype=int)
    for i, lam in enumerate(plist):
        parts[i, :len(lam)] = lam
    sums = np.cumsum(parts, axis=1)
    rho = np.array([sum(ki * (ki - (i + 1)) for i, ki in enumerate(lam))
                    for lam in plist], dtype=float)
    block = np.eye(n)
    for pos in range(1, n):
        lam = plist[pos]
        feeds = {}
        for j in range(1, len(lam)):
            for i in range(j):
                for t in range(1, lam[j] + 1):
                    mu = list(lam)
                    mu[i] += t
                    mu[j] -= t
                    src = index[tuple(sorted(filter(None, mu), reverse=True))]
                    feeds[src] = feeds.get(src, 0) + lam[i] - lam[j] + 2 * t
        rows = np.flatnonzero((sums[:pos] >= sums[pos]).all(axis=1))
        block[rows, pos] = (block[rows[:, None], list(feeds)]
                            @ list(feeds.values()) / (rho[rows] - rho[pos]))
    ones = np.array([_reference_ones(mu, p) for mu in plist])
    ident = np.array([_reference_identity(kappa, p) for kappa in plist])
    block *= (ident / (block @ ones))[:, None]
    return block


def sym_from_eigs(eigs, seed=0):
    """Symmetric ndarray with the given eigenvalues in a seeded random
    basis."""
    p = len(eigs)
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    q = q * np.sign(np.diag(r))
    m = (q * np.asarray(eigs)) @ q.T
    return 0.5 * (m + m.T)


def spd_from_eigs(eigs, seed=0):
    """SPD matrix with the given eigenvalues in a seeded random basis."""
    return mvfrac.SpdMatrix(sym_from_eigs(eigs, seed))
