"""Shared test helpers."""

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


def spd_from_eigs(eigs, seed=0):
    """SPD matrix with the given eigenvalues in a seeded random basis."""
    p = len(eigs)
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    q = q * np.sign(np.diag(r))
    m = (q * np.asarray(eigs)) @ q.T
    return mvfrac.SpdMatrix(0.5 * (m + m.T))
