"""Workload task lists, built from a seed, and the rules that judge them.

Each workload is a fixed list of tasks.  The seed decides the random
inputs (Monte Carlo seeds, series arguments and parameters) but never the
amount of work, so run time does not depend on which seed is drawn.

Task outcomes are judged after the timed phase:

* ``error``: the task raised, exited with a code other than 0 or 1, wrote
  malformed or non-finite JSON, broke a deterministic rule (an exact
  identity, a series reference, a definiteness check), or missed a
  statistical rule by more than chance explains (|z| > 6, probability
  about 2e-9 per check).  Any error makes the run incorrect.
* ``miss``: the task missed a statistical rule of ``tests/test_acceptance.py``
  (3 SE per Monte Carlo point, 4 SE for moments, KS at 1 %).  A correct
  program does this now and then, so a miss counts as a failed task but
  does not make the run incorrect.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

import mvfrac.cli
import mvfrac.hyperseries
import mvfrac.zonal
from mvfrac.hyperseries import HyperParams, Truncation
from mvfrac.spdcore import SpdMatrix

GROSS_Z = 6.0


@dataclass
class Outcome:
    status: str = "ok"
    detail: str = ""
    digest: bytes = b""
    bytes_out: int = 0


# ---------------------------------------------------------------------------
# Monte Carlo tasks through the CLI


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite number {token}")
    return json.loads(text, parse_constant=reject)


def _z_case(z, limit):
    if abs(z) > GROSS_Z:
        return "error"
    return "ok" if abs(z) <= limit else "miss"


def _leaf_status(case, z_limit):
    """Status of one reported check, recomputed from its numbers."""
    if "z" in case:
        return _z_case(case["z"], z_limit)
    if "rel_error" in case:
        return "ok" if case["rel_error"] <= 1e-12 else "error"
    if "statistic" in case:
        if case["statistic"] > 2.0 * case["critical"]:
            return "error"
        return "ok" if case["statistic"] < case["critical"] else "miss"
    return "ok" if case["pass"] else "error"


def _worst(statuses):
    for s in ("error", "miss"):
        if s in statuses:
            return s
    return "ok"


def judge_report(suite, report):
    """(status, detail) of a verify report under the acceptance rules."""
    z_limit = 4.0 if suite == "sumdensity" else 3.0
    top = []
    for case in report["cases"]:
        leaves = case["cases"] if "cases" in case else [case]
        statuses = [_leaf_status(c, z_limit) for c in leaves]
        for c, s in zip(leaves, statuses):
            if (s == "ok") != bool(c["pass"]):
                return "error", f"{case['name']}: reported pass disagrees"
        top.append((case["name"], _worst(statuses)))
    if "error" in (s for _, s in top):
        return "error", ", ".join(n for n, s in top if s == "error")
    missed = [n for n, s in top if s == "miss"]
    if suite == "fracpower":
        # test_power_closed_form_grid: at least 95 % of the points within 3 SE
        if (len(top) - len(missed)) / len(top) >= 0.95:
            return "ok", ""
    elif not missed:
        return "ok", ""
    return "miss", "outside the acceptance rule: " + ", ".join(missed)


def _moment_status(values, expected, label):
    se = float(np.std(values, ddof=1) / math.sqrt(values.size))
    z = (float(np.mean(values)) - expected) / se
    status = _z_case(z, 4.0)
    return status, (f"{label} z = {z:+.2f}" if status != "ok" else "")


def judge_sample(kind, p, n, shape, text):
    """Deterministic shape and definiteness checks plus one 4 SE moment."""
    records = [_strict_json(line) for line in text.splitlines()]
    if len(records) != n or [r["index"] for r in records] != list(range(n)):
        return "error", f"expected records 0..{n - 1}"
    w = np.array([r["entries"] for r in records], dtype=float)
    if w.shape != (n, p, p) or not np.all(np.isfinite(w)):
        return "error", f"entries of shape {w.shape}"
    if not np.array_equal(w, w.transpose(0, 2, 1)):
        return "error", "entries not symmetric"
    eig = np.linalg.eigvalsh(w)
    traces = np.trace(w, axis1=1, axis2=2)
    if kind == "uniform-unit-cone":
        if not (np.all(eig > 0.0) and np.all(eig < 1.0)):
            return "error", "draw outside {0 < W < I}"
        # W and I - W have the same law, so E tr W = p/2
        return _moment_status(traces, 0.5 * p, "mean trace")
    if not np.all(eig > 0.0):
        return "error", "draw not positive definite"
    # identity-scale matrix gamma: E tr W = p * shape
    return _moment_status(traces, p * shape, "mean trace")


@dataclass
class CliTask:
    """One in-process ``mvfrac.cli.main`` call writing to a file."""

    name: str
    argv: list
    judge: object
    path: str = ""
    rc: object = None
    stdout: str = ""
    error: str = ""

    def run(self):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                self.rc = mvfrac.cli.main(self.argv + ["--output", self.path])
        except SystemExit as exc:
            self.rc = exc.code
        except Exception as exc:  # a task that raises is a failed task
            self.error = f"raised {type(exc).__name__}: {exc}"
        self.stdout = buf.getvalue()

    def outcome(self):
        data = b""
        if os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                data = fh.read()
            os.remove(self.path)
        h = hashlib.sha256(f"{self.name}\0{self.rc}\0".encode())
        h.update(data)
        h.update(self.stdout.encode())
        out = Outcome(digest=h.digest(),
                      bytes_out=len(data) + len(self.stdout.encode()))
        if self.error:
            out.status, out.detail = "error", self.error
        elif self.rc not in (0, 1):
            out.status, out.detail = "error", f"exit code {self.rc}"
        else:
            try:
                out.status, out.detail = self.judge(self.rc, data.decode())
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                out.status = "error"
                out.detail = f"malformed output: {type(exc).__name__}: {exc}"
        return out


def _verify_judge(suite):
    def judge(rc, text):
        lines = text.splitlines()
        if len(lines) != 1:
            return "error", f"expected one JSON line, got {len(lines)}"
        report = _strict_json(lines[0])
        if rc != (0 if report["pass"] else 1):
            return "error", f"exit code {rc} disagrees with the report"
        return judge_report(suite, report)
    return judge


def _sample_judge(kind, p, n, shape):
    def judge(rc, text):
        if rc != 0:
            return "error", f"exit code {rc}"
        return judge_sample(kind, p, n, shape, text)
    return judge


def _verify_task(suite, samples, seed):
    return CliTask(f"verify-{suite}",
                   ["verify", "--suite", suite, "--samples", str(samples),
                    "--seed", str(seed)],
                   _verify_judge(suite))


def _sample_task(kind, p, n, seed, shape=None):
    argv = ["sample", kind, "--p", str(p), "--n", str(n), "--seed", str(seed)]
    if shape is not None:
        argv += ["--shape", repr(shape)]
    return CliTask(f"sample-{kind}-p{p}", argv, _sample_judge(kind, p, n, shape))


# Sample counts keep one round near five seconds on a 2-core machine.
MC_CALLABLE_SAMPLES = {"euler": 15_000, "beta": 4_000, "fraczonal": 2_000,
                       "saigo": 20_000}
MC_VECTOR_SAMPLES = {"fracpower": 200_000, "sumdensity": 200_000,
                     "uniform-unit-cone": 20_000, "matrix-gamma": 20_000}
GAMMA_SHAPE = 2.5


class McWorkload:
    def __init__(self, tasks, scratch):
        self.tasks = tasks
        for i, task in enumerate(tasks):
            task.path = os.path.join(scratch, f"task{i}.json")

    def prepare(self):
        """Nothing to prepare: every suite builds what it needs."""

    def describe(self):
        return {"tasks": [" ".join(t.argv) for t in self.tasks]}


def mc_callable(seed, scratch):
    return McWorkload([_verify_task(s, n, seed)
                       for s, n in MC_CALLABLE_SAMPLES.items()], scratch)


def mc_vector(seed, scratch):
    s = MC_VECTOR_SAMPLES
    return McWorkload([
        _verify_task("fracpower", s["fracpower"], seed),
        _verify_task("sumdensity", s["sumdensity"], seed),
        _sample_task("uniform-unit-cone", 3, s["uniform-unit-cone"], seed),
        _sample_task("matrix-gamma", 3, s["matrix-gamma"], seed,
                     shape=GAMMA_SHAPE),
    ], scratch)


# ---------------------------------------------------------------------------
# series

# Tables are built in this order.  fetch_table returns the first cached
# table that covers a request, so the order fixes which table each
# evaluation iterates: p <= 3 uses (30, 3), p = 4 uses (25, 4), p = 5 uses
# (20, 5).
SERIES_TABLES = ((30, 3), (25, 4), (20, 5))

# (p, k_max, evaluations), 100 in all.  Each (p, k_max) is a tier of its
# own cost, so ranked by latency the 50th evaluation is always a p = 3,
# k = 20 one (ranks 43-58) and the 90th a p = 4, k = 20 one (ranks 85-98),
# whatever the seed.
SERIES_MIX = ((1, 30, 20), (2, 20, 8), (2, 25, 7), (2, 30, 7),
              (3, 20, 16), (3, 25, 13), (3, 30, 13),
              (4, 20, 14), (4, 25, 1), (5, 20, 1))
SHAPES = ("0F0", "1F0", "2F1")
SPECTRUM = (0.05, 0.3)
ABS_TOL = 1e-8      # 1F0 and 2F1(a, b; b) against |I - Z|^(-a)
REL_TOL = 1e-10     # 0F0 against exp(tr Z); scalar series at p = 1
TAIL_TOL = 1e-10


def _det_tail(power, k_max, radius=SPECTRUM[1]):
    """Sum beyond weight k_max of the 1F0 series of |I - Z|^(-a), power =
    p * a, at Z = radius * I: with every eigenvalue at the spectrum's top
    this is the largest truncation error on the mix's arguments."""
    total = 0.0
    for k in range(k_max + 1, k_max + 200):
        total += math.exp(math.lgamma(power + k) - math.lgamma(power)
                          - math.lgamma(k + 1) + k * math.log(radius))
    return total


@functools.lru_cache(maxsize=None)
def max_det_power(p, k_max, cap=2.5):
    """Largest exponent a (up to cap) whose worst-case 1F0 truncation
    error at (p, k_max) stays below TAIL_TOL, so the 1e-8 reference check
    tests the series and not where it was cut."""
    lo, hi = 0.0, cap
    if _det_tail(p * hi, k_max) <= TAIL_TOL:
        return hi
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if _det_tail(p * mid, k_max) <= TAIL_TOL:
            lo = mid
        else:
            hi = mid
    return lo


def _off_lattice(rng, lo, hi):
    # a denominator within 0.05 of the half-integer lattice b - j/2 in Z
    # gives a vanishing or near-vanishing Pochhammer factor
    while True:
        b = rng.uniform(lo, hi)
        if abs(2.0 * b - round(2.0 * b)) >= 0.1:
            return b


def _rotated(rng, p):
    eigs = [rng.uniform(*SPECTRUM) for _ in range(p)]
    g = np.array([[rng.gauss(0.0, 1.0) for _ in range(p)] for _ in range(p)])
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    m = (q * np.array(eigs)) @ q.T
    return 0.5 * (m + m.T)


@dataclass
class SeriesTask:
    name: str
    shape: str
    p: int
    k_max: int
    numerator: tuple
    denominator: tuple
    z: np.ndarray
    arg: object = None
    result: object = None
    error: str = ""

    def prepare(self):
        self.arg = SpdMatrix(self.z)

    def run(self):
        try:
            self.result = mvfrac.hyperseries.hyper_pfq(
                HyperParams(self.numerator, self.denominator), self.arg,
                Truncation(k_max=self.k_max))
        except Exception as exc:  # a task that raises is a failed task
            self.error = f"raised {type(exc).__name__}: {exc}"

    def reference(self):
        """(value, kind, tolerance) from routes that share no series code."""
        if self.p == 1:
            x = float(self.z[0, 0])
            term, total = 1.0, 0.0
            for k in range(self.k_max + 1):
                total += term
                for a in self.numerator:
                    term *= a + k
                for b in self.denominator:
                    term /= b + k
                term *= x / (k + 1.0)
            return total, "rel", REL_TOL
        if self.shape == "0F0":
            return math.exp(float(np.trace(self.z))), "rel", REL_TOL
        det = float(np.linalg.det(np.eye(self.p) - self.z))
        return det ** -self.numerator[0], "abs", ABS_TOL

    def outcome(self):
        h = hashlib.sha256(self.name.encode())
        out = Outcome()
        if self.error:
            out.status, out.detail = "error", self.error
        else:
            r = self.result
            for v in (r.value, r.tail_estimate, r.last_term, r.ratio):
                h.update(float(v).hex().encode())
            want, kind, tol = self.reference()
            err = abs(r.value - want)
            if kind == "rel":
                err /= abs(want)
            if not (math.isfinite(r.value) and err <= tol):
                out.status = "error"
                out.detail = f"{kind} error {err:.2e} > {tol:g}"
        out.digest = h.digest()
        return out


def _series_task(rng, index, shape, p, k_max):
    top = max_det_power(p, k_max)
    if p == 1:
        num = {"0F0": (), "1F0": (rng.uniform(0.2, 3.0),),
               "2F1": (rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))}[shape]
        den = (_off_lattice(rng, 0.8, 4.0),) if shape == "2F1" else ()
    elif shape == "0F0":
        num, den = (), ()
    elif shape == "1F0":
        num, den = (rng.uniform(0.1, top),), ()
    else:
        # 2F1(a, b; b; Z) = 1F0(a; Z) = |I - Z|^(-a)
        b = _off_lattice(rng, 0.3, 3.0)
        num, den = (rng.uniform(0.1, top), b), (b,)
    return SeriesTask(f"{index:03d}-{shape}-p{p}-k{k_max}", shape, p, k_max,
                      num, den, _rotated(rng, p))


class SeriesWorkload:
    def __init__(self, seed):
        rng = random.Random(seed)
        tasks = []
        for p, k_max, count in SERIES_MIX:
            for i in range(count):
                tasks.append(_series_task(rng, len(tasks), SHAPES[i % 3],
                                          p, k_max))
        rng.shuffle(tasks)
        self.tasks = tasks

    def prepare(self):
        """Build the tables in their fixed order and the SPD arguments."""
        for k_max, p in SERIES_TABLES:
            mvfrac.zonal.build_zonal_table(k_max, p)
        for task in self.tasks:
            task.prepare()

    def describe(self):
        return {"tables_built_in_order": [list(t) for t in SERIES_TABLES],
                "mix": [{"p": p, "k_max": k, "evaluations": n,
                         "table": list(_covering_table(k, p))}
                        for p, k, n in SERIES_MIX],
                "shapes": list(SHAPES),
                "spectrum": list(SPECTRUM)}


def _covering_table(k_max, p):
    return next(t for t in SERIES_TABLES if t[0] >= k_max and t[1] >= p)


def series(seed, scratch):
    return SeriesWorkload(seed)


WORKLOADS = {"mc-callable": mc_callable, "mc-vector": mc_vector,
             "series": series}


def build(name, seed, scratch):
    return WORKLOADS[name](seed, scratch)
