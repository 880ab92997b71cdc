"""In-memory spans around the library's layer functions, from outside it.

The library binds names with ``from .module import name``, so a function
is reachable through several module dictionaries (``fracops._cone_raw``,
``verify.mc_integrate_unit_cone``, ``cli.run_suite`` ...).  ``tracing``
replaces the function at every one of those sites and puts the originals
back on exit.  Methods are patched on their class.  A target that no
longer exists is skipped and listed, so the harness survives refactors.

Each call records one span (name, start, end, parent) in flat arrays; the
self time of a span is its duration minus the durations of its direct
children.  ``layer_metrics`` turns the spans into the per-layer numbers
that ``BENCHMARK.json`` names.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

_PACKAGE = "mvfrac"


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {}

    def name_index(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def record(self, name, start, end, parent=-1):
        """Append a closed span with the given times."""
        idx = len(self.start)
        self.name_id.append(self.name_index(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return idx

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def arrays(self):
        """(names, name_id, parent, duration, self_time) as numpy arrays."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return self.names, nid, parent, dur, dur - child

    def save(self, path):
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


# ---------------------------------------------------------------------------
# targets: (span name, module, attribute path, hook)
#
# A hook runs after the span closes, with (tracer, span index, bound
# arguments, result), and adds counts that the span alone does not carry.

def _rng_words(tracer, idx, args, result):
    tracer.count("rng.words", int(np.size(result)))


def _cone(tracer, idx, args, result):
    p = int(args["p"])
    tracer.count(f"cone.proposals.p{p}", int(result[3]))
    tracer.count(f"cone.accepted.p{p}", int(len(result[0])))
    # throughput counts the sampler's whole duration, its rng draws included
    tracer.count(f"cone.seconds.p{p}", tracer.end[idx] - tracer.start[idx])


def _gamma_draws(tracer, idx, args, result):
    tracer.count("gamma.draws", int(len(result)))


def _series_terms(tracer, idx, args, result):
    from mvfrac.hyperseries import Truncation
    k_max = (args.get("trunc") or Truncation()).k_max
    tracer.count("hyperseries.partitions_summed",
                 _partitions_up_to(k_max, args["Z"].dim))


@functools.lru_cache(maxsize=None)
def _partitions_up_to(k_max, p):
    from mvfrac.gammacalc import partitions_of
    return sum(len(partitions_of(k, p)) for k in range(k_max + 1))


def _leaf_checks(report):
    for case in report.get("cases", ()):
        if "cases" in case:
            yield from _leaf_checks(case)
        else:
            yield case


def _suite_checks(tracer, idx, args, result):
    leaves = list(_leaf_checks(result))
    tracer.count("verify.checks", len(leaves))
    tracer.count("verify.checks_failed",
                 sum(1 for c in leaves if not c.get("pass", False)))


_GAMMACALC = ("log_gamma", "log_matrix_gamma", "log_matrix_gamma_partition",
              "log_matrix_beta", "gen_pochhammer", "signed_log_gen_pochhammer")
_CLOSED = ("frac_integral_power_closed", "frac_integral_zonal_closed",
           "saigo_power_closed")

TARGETS = (
    [("rng", "rng", "uniforms", _rng_words),
     ("rng", "rng", "uniforms_at", _rng_words),
     ("rng", "rng", "normals", None),
     ("rng", "rng", "gamma_variates", None),
     ("matsample.cone", "matsample", "_cone_raw", _cone),
     ("matsample.gamma", "matsample", "_matrix_gamma_raw", _gamma_draws),
     ("matsample.rect", "matsample", "_rect_raw", None),
     ("matsample.mc_loop", "matsample", "mc_integrate_unit_cone", None),
     ("spdcore", "spdcore", "SpdMatrix.__init__", None),
     ("zonal.build", "zonal", "build_zonal_table", None),
     ("zonal.fetch", "zonal", "fetch_table", None),
     ("zonal.eval", "zonal", "zonal_eval", None),
     ("zonal.monomial", "zonal", "ZonalTable.monomial_value", None),
     ("hyperseries", "hyperseries", "hyper_pfq", _series_terms),
     ("fracops.numeric", "fracops", "frac_integral_numeric", None)]
    + [("fracops.closed", "fracops", name, None) for name in _CLOSED]
    + [("gammacalc", "gammacalc", name, None) for name in _GAMMACALC]
    + [("verify", "verify", "run_suite", _suite_checks),
       ("cli", "cli", "main", None)]
)


def _wrap(tracer, nid, fn, hook):
    begin, finish = tracer.begin, tracer.finish
    if hook is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)
        return wrapper

    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        idx = begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(idx)
        bound = signature.bind(*args, **kwargs)
        hook(tracer, idx, bound.arguments, result)
        return result
    return hooked


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == _PACKAGE
                                  or name.startswith(_PACKAGE + "."))]


@contextlib.contextmanager
def tracing(tracer, targets=TARGETS):
    """Patch every target at every import site; restore on exit.

    Yields the list of targets that could not be found."""
    modules = _package_modules()
    undo = []
    missing = []
    try:
        for span, mod_name, path, hook in targets:
            try:
                owner = importlib.import_module(f"{_PACKAGE}.{mod_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{mod_name}.{path}")
                continue
            wrapper = _wrap(tracer, tracer.name_index(span), original, hook)
            if outer:
                sites = [(owner, attr)]
            else:
                sites = [(m, k) for m in modules
                         for k, v in list(vars(m).items()) if v is original]
            for site, key in sites:
                undo.append((site, key, original))
                setattr(site, key, wrapper)
        yield missing
    finally:
        for site, key, original in reversed(undo):
            setattr(site, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics

# span name -> busy-time metric; every span name maps to exactly one, so the
# busy times partition the traced time covered by spans
BUSY = {
    "rng": "rng.busy_s",
    "matsample.cone": "matsample.cone.busy_s",
    "matsample.gamma": "matsample.gamma.busy_s",
    "matsample.rect": "matsample.rect.busy_s",
    "matsample.mc_loop": "matsample.mc_loop.busy_s",
    "spdcore": "spdcore.busy_s",
    "zonal.build": "zonal.table.build_s",
    "zonal.fetch": "zonal.fetch.busy_s",
    "zonal.eval": "zonal.eval.busy_s",
    "zonal.monomial": "zonal.monomial.busy_s",
    "hyperseries": "hyperseries.busy_s",
    "fracops.numeric": "fracops.numeric.busy_s",
    "fracops.closed": "fracops.closed.busy_s",
    "gammacalc": "gammacalc.busy_s",
    "verify": "verify.busy_s",
    "cli": "cli.busy_s",
}

# span name -> call-count metric
CALLS = {
    "spdcore": "spdcore.constructions",
    "zonal.build": "zonal.table.builds",
    "zonal.eval": "zonal.eval.calls",
    "zonal.monomial": "zonal.monomial.calls",
    "hyperseries": "hyperseries.evals",
    "fracops.numeric": "fracops.numeric.calls",
    "gammacalc": "gammacalc.calls",
}


def _ratio(num, den):
    # a layer that did no work on a workload reports 0, not an undefined ratio
    return num / den if den else 0.0


def layer_metrics(tracer, covered_s):
    """Per-layer metrics from the spans.

    covered_s is the traced time the spans fall in; what no span covers is
    reported as trace.unattributed_s, so the busy times plus that remainder
    sum to covered_s.
    """
    names, nid, parent, dur, self_t = tracer.arrays()
    busy = np.bincount(nid, weights=self_t, minlength=len(names))
    calls = np.bincount(nid, minlength=len(names))
    out = {key: 0.0 for key in BUSY.values()}
    out.update({key: 0 for key in CALLS.values()})
    for i, name in enumerate(names):
        out[BUSY[name]] += float(busy[i])
        if name in CALLS:
            out[CALLS[name]] += int(calls[i])

    c = tracer.counts
    out["rng.words"] = int(c.get("rng.words", 0))
    out["rng.words_per_s"] = _ratio(out["rng.words"], out["rng.busy_s"])
    for p in (1, 2, 3):
        proposals = int(c.get(f"cone.proposals.p{p}", 0))
        accepted = int(c.get(f"cone.accepted.p{p}", 0))
        out[f"matsample.cone.proposals.p{p}"] = proposals
        out[f"matsample.cone.accept_ratio.p{p}"] = _ratio(accepted, proposals)
        if p > 1:
            out[f"matsample.cone.accepted_per_s.p{p}"] = _ratio(
                accepted, c.get(f"cone.seconds.p{p}", 0.0))
    out["matsample.gamma.draws"] = int(c.get("gamma.draws", 0))

    fetch_hits = 0
    fetches = 0
    if "zonal.fetch" in names:
        fetch = np.nonzero(nid == names.index("zonal.fetch"))[0]
        fetches = int(fetch.size)
        built = set()
        if "zonal.build" in names:
            build = nid == names.index("zonal.build")
            built = set(parent[build].tolist())
        fetch_hits = sum(1 for i in fetch.tolist() if i not in built)
    out["zonal.fetch.hit_ratio"] = _ratio(fetch_hits, fetches)

    out["hyperseries.partitions_summed"] = int(
        c.get("hyperseries.partitions_summed", 0))
    out["verify.checks"] = int(c.get("verify.checks", 0))
    out["verify.checks_failed"] = int(c.get("verify.checks_failed", 0))
    out["cli.bytes_out"] = int(c.get("cli.bytes_out", 0))
    top = parent < 0
    out["trace.unattributed_s"] = covered_s - float(np.sum(dur[top]))
    out["trace.spans"] = int(dur.size)
    return out

