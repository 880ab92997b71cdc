"""mvfrac benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/mvfrac`` and
``BENCHMARK.json``).  Each round is a fresh process
(``sys.executable perfbench/worker.py`` with ``PYTHONPATH=src`` and the
BLAS/OpenMP thread count capped at the number of usable cores) that
imports the library, prepares the workload and runs its fixed task list.

--trace 0 runs a fixed number of rounds, planned from S and the
workload's nominal round time so that the run lasts about S seconds, and
at least three.  The count depends only on the arguments, so `attempted`
and `failed` are the same on every run with the same seed.  It reports the
end-to-end metrics of ``BENCHMARK.json`` as medians over rounds: set-up, timed wall, peak memory, and the 50th and 90th percentiles
of each round's per-task latencies.  Times are seconds at a reference CPU
speed measured by a probe between tasks (see ``worker.py``); the record
keeps the raw wall-clock times next to them.

--trace 1 runs one untraced round and one traced round and reports the
per-layer metrics from the traced one; trace.overhead_ratio compares their
raw timed walls.  Per-layer times are raw wall-clock seconds.

Every round writes a digest of its outputs.  Same-seed rounds, traced or
not, must agree.  The last line of stdout is the result object; the full
record, with the environment and the reason for each workload, goes to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import BUSY

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
MIN_ROUNDS = 3
# wall seconds of one round (process start, set-up and timed phase) on a
# 2-core x86-64 host; they only plan the round count
NOMINAL_ROUND_S = {"mc-callable": 4.5, "mc-vector": 6.5, "series": 12.0}
# every run must end within 180 s; leave room for the last round's judging
BUDGET_S = 165.0


class RoundError(Exception):
    pass


def nearest_rank(values, q):
    """The q-th percentile (0 < q <= 100) by the nearest-rank rule: the
    smallest observation with at least q % of the values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(n, beyond=10):
    """Highest whole percentile whose nearest-rank value has at least
    `beyond` of n samples above it, or None when n is too small."""
    if n <= beyond:
        return None
    q = math.floor(100.0 * (n - beyond) / n)
    while q > 0 and n - math.ceil(q / 100.0 * n) < beyond:
        q -= 1
    return q if q > 0 else None


def planned_rounds(workload, seconds):
    """Rounds of an untraced run: a function of the arguments only."""
    return max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))


def _thread_env(cap):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(cap)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_round(args, traced, index, env, deadline):
    out = Path(OUT_DIR) / f"{args.workload}-round{index}.json"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RoundError("time budget exhausted")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--trace", str(int(traced)),
           "--result", str(out)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RoundError("round did not finish within the time budget")
    if proc.returncode != 0 or not out.is_file():
        raise RoundError(f"round exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(out.read_text())
    out.unlink()
    result["traced"] = traced
    return result


def _tally(rounds):
    attempted = sum(len(r["tasks"]) for r in rounds)
    failed = sum(1 for r in rounds for t in r["tasks"] if t["status"] != "ok")
    errors = [f"{t['name']}: {t['detail']}" for r in rounds
              for t in r["tasks"] if t["status"] == "error"]
    misses = sorted({f"{t['name']}: {t['detail']}" for r in rounds
                     for t in r["tasks"] if t["status"] == "miss"})
    digests = sorted({r["digest"] for r in rounds})
    if len(digests) > 1:
        errors.append("same-seed rounds produced different outputs "
                      f"({', '.join(d[:12] for d in digests)})")
    return attempted, failed, errors, misses, digests[0]


def _end_to_end(rounds):
    def median(key):
        return statistics.median(key(r) for r in rounds)

    # percentiles are taken within each round's task list, whose cost tiers
    # are fixed, and then the median over rounds is reported
    return {
        "setup_s": median(lambda r: r["setup_s"]),
        "wall_s": median(lambda r: r["wall_s"]),
        "eval_p50_ms": 1000.0 * median(
            lambda r: nearest_rank(r["latencies_s"], 50)),
        "eval_p90_ms": 1000.0 * median(
            lambda r: nearest_rank(r["latencies_s"], 90)),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
    }, len(rounds[0]["latencies_s"])


def _per_layer(untraced, traced, attempted, failed):
    layers = dict(traced["layers"])
    layers["trace.wall_s"] = traced["timed_s"]
    layers["trace.prep_s"] = traced["prep_s"]
    layers["trace.overhead_ratio"] = (traced["raw_wall_s"]
                                      / untraced["raw_wall_s"] - 1.0)
    layers["fail_ratio"] = failed / attempted
    return layers


def _busy_identity(layers):
    """Layer busy times plus the unattributed remainder, against the traced
    preparation plus timed wall they should add up to."""
    total = (sum(layers[k] for k in BUSY.values())
             + layers["trace.unattributed_s"])
    return {"busy_plus_unattributed_s": total,
            "traced_prep_plus_wall_s": layers["trace.prep_s"]
            + layers["trace.wall_s"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not Path("src/mvfrac/__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/mvfrac",
              file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload)
    if why is None:
        parser.error(f"unknown workload {args.workload!r}")
    cap = len(os.sched_getaffinity(0))
    env = _thread_env(cap)
    Path(OUT_DIR).mkdir(exist_ok=True)
    deadline = start + BUDGET_S
    planned = 2 if args.trace else planned_rounds(args.workload, args.seconds)

    try:
        if args.trace:
            rounds = [_run_round(args, False, 0, env, deadline),
                      _run_round(args, True, 1, env, deadline)]
        else:
            rounds = []
            for index in range(planned):
                # a host far slower than the nominal one cuts the run short
                # rather than overrun the time limit; the record says so
                if rounds and (time.monotonic() + rounds[-1]["raw_setup_s"]
                               + rounds[-1]["timed_s"] > deadline):
                    break
                rounds.append(_run_round(args, False, index, env, deadline))
    except RoundError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted, failed, errors, misses, digest = _tally(rounds)
    e2e, n_evals = _end_to_end([r for r in rounds if not r["traced"]])
    if args.trace:
        layers = _per_layer(rounds[0], rounds[1], attempted, failed)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: layers[k] for k in units}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: e2e[k] for k in units}

    record = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "trace": args.trace,
        "env": {"python": rounds[0]["versions"]["python"],
                "numpy": rounds[0]["versions"]["numpy"],
                "scipy": rounds[0]["versions"]["scipy"],
                "platform": platform.platform(),
                "nproc": cap,
                "blas_threads": cap},
        "workload_spec": rounds[0]["describe"],
        "rounds": [{k: r[k] for k in ("traced", "setup_s", "raw_setup_s",
                                      "wall_s", "raw_wall_s", "speed",
                                      "peak_rss_mb", "digest")}
                   for r in rounds],
        "rounds_planned": planned,
        "rounds_run": len(rounds),
        "digest": digest,
        "eval_samples_per_round": n_evals,
        "eval_supported_percentile": supported_percentile(n_evals),
        "fail_ratio": failed / attempted,
        "misses": misses,
        "errors": errors,
        "end_to_end": e2e,
    }
    if args.trace:
        record["per_layer"] = layers
        record["busy_identity"] = _busy_identity(layers)
        record["missing_targets"] = rounds[1]["missing_targets"]
        record["spans_file"] = rounds[1]["spans_file"]
    Path(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))

    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    print(f"digest {digest}  tasks {attempted}  failed {failed}  "
          f"fail_ratio {failed / attempted:.4g}")
    for line in misses:
        print(f"miss: {line}")
    for line in errors:
        print(f"error: {line}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
