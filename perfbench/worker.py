"""One round of one workload, in a fresh process.

    python perfbench/worker.py --workload W --seed N --trace 0|1 --result PATH

Run from a checkout root with PYTHONPATH=src.  The round imports the
library, prepares the workload (set-up), runs its task list (the timed
phase) with a speed probe between tasks, then judges the outputs and
writes one JSON object to PATH.  With --trace 1 the layer functions are
wrapped during preparation and the timed phase, and the spans are saved
next to PATH.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time


def _round(args):
    t0 = time.perf_counter()
    import numpy
    import scipy

    import spans
    import workloads

    scratch = os.path.dirname(os.path.abspath(args.result))
    wl = workloads.build(args.workload, args.seed, scratch)
    tracer = spans.Tracer() if args.trace else None
    with (spans.tracing(tracer) if tracer
          else contextlib.nullcontext([])) as missing:
        t_prep = time.perf_counter()
        wl.prepare()
        t_timed = time.perf_counter()
        latencies = []
        probes = [_probe()]
        for task in wl.tasks:
            t = time.perf_counter()
            task.run()
            latencies.append(time.perf_counter() - t)
            probes.append(_probe())
        t_end = time.perf_counter()

    outcomes = [task.outcome() for task in wl.tasks]
    digest = _digest(outcomes)
    # times at the reference speed: each task by the probes around it, the
    # set-up by the probe that follows it
    normalized = [dt * PROBE_REF_S / (0.5 * (a + b))
                  for dt, a, b in zip(latencies, probes, probes[1:])]
    result = {
        "setup_s": (t_timed - t0) * PROBE_REF_S / probes[0],
        "raw_setup_s": t_timed - t0,
        "prep_s": t_timed - t_prep,
        "timed_s": t_end - t_timed,
        "wall_s": sum(normalized),
        "latencies_s": normalized,
        "raw_wall_s": sum(latencies),
        "speed": PROBE_REF_S / statistics.median(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest,
        "tasks": [{"name": task.name, "status": o.status, "detail": o.detail}
                  for task, o in zip(wl.tasks, outcomes)],
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "describe": wl.describe(),
    }
    if tracer:
        tracer.count("cli.bytes_out", sum(o.bytes_out for o in outcomes))
        result["layers"] = spans.layer_metrics(tracer, t_end - t_prep)
        result["missing_targets"] = missing
        path = os.path.splitext(args.result)[0] + "-spans.npz"
        tracer.save(path)
        result["spans_file"] = path
    return result


# On a shared 2-core VM the CPU speed was measured to drift by up to 1.6x
# over spans of 30 s and more (process time tracked wall time, so it was
# speed, not descheduling).  A
# fixed probe, timed between tasks, measures that speed: interpreter-bound
# float work plus a streaming integer pass over a numpy array, because the
# workloads are partly one and partly the other and the two respond to the
# drift differently.  Task times are reported at the speed where the probe
# takes PROBE_REF_S.  The probe is harness code, so a change to the library
# cannot move it.
PROBE_REF_S = 0.002


def _probe():
    """Best of three timings of the probe kernel."""
    import numpy as np
    words = np.arange(100_000, dtype=np.uint64)
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        total = 0.0
        for i in range(800):
            x = 0.1 + i * 1e-4
            term = 1.0
            for e in (3, 2, 1, 1):
                term *= x ** e
            total += term
        w = words
        for _ in range(3):
            w = (w * np.uint64(0x9E3779B97F4A7C15)) ^ (w >> np.uint64(7))
        best = min(best, time.perf_counter() - t)
    return best


def _digest(outcomes):
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.digest)
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    result = _round(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
