"""Tests of the benchmark harness's own helpers.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mvfrac import cli, fracops, matsample, spdcore, verify, zonal  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (10, None), (11, 9), (20, 50), (100, 90), (101, 90), (300, 96),
    (1000, 99)])
def test_supported_percentile(n, expected):
    q = run.supported_percentile(n)
    assert q == expected
    if q is not None:
        values = list(range(n))
        beyond = sum(1 for v in values if v > run.nearest_rank(values, q))
        assert beyond >= 10
        # one percentile higher leaves fewer than ten beyond
        if q < 99:
            above = run.nearest_rank(values, q + 1)
            assert sum(1 for v in values if v > above) < 10


def test_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.nearest_rank(values, 50) == 3.0
    assert run.nearest_rank(values, 90) == 5.0
    assert run.nearest_rank(values, 20) == 1.0


def test_planned_rounds_depend_only_on_arguments():
    assert set(run.NOMINAL_ROUND_S) == set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert run.planned_rounds(name, 1) == run.MIN_ROUNDS
        assert run.planned_rounds(name, 30) == run.planned_rounds(name, 30)
        assert run.planned_rounds(name, 600) > run.planned_rounds(name, 30)


def test_self_time_on_nested_spans():
    t = spans.Tracer()
    outer = t.record("cli", 0.0, 10.0)
    mid = t.record("verify", 1.0, 9.0, outer)
    t.record("spdcore", 2.0, 3.0, mid)
    t.record("spdcore", 4.0, 6.5, mid)
    t.record("rng", 9.5, 9.75, outer)
    names, nid, parent, dur, self_t = t.arrays()
    assert dur.tolist() == [10.0, 8.0, 1.0, 2.5, 0.25]
    assert self_t.tolist() == [1.75, 4.5, 1.0, 2.5, 0.25]
    m = spans.layer_metrics(t, 12.0)
    assert m["cli.busy_s"] == 1.75
    assert m["verify.busy_s"] == 4.5
    assert m["spdcore.busy_s"] == 3.5
    assert m["spdcore.constructions"] == 2
    assert m["trace.unattributed_s"] == 2.0
    busy = sum(m[k] for k in spans.BUSY.values())
    assert busy + m["trace.unattributed_s"] == 12.0


def _sites(obj):
    mods = [m for name, m in sys.modules.items()
            if m is not None and name.startswith("mvfrac")]
    return sorted((m.__name__, k) for m in mods
                  for k, v in list(vars(m).items()) if v is obj)


def test_wrappers_restored_after_traced_run():
    before = {
        "cone": (matsample._cone_raw, _sites(matsample._cone_raw)),
        "mc": (matsample.mc_integrate_unit_cone,
               _sites(matsample.mc_integrate_unit_cone)),
        "run_suite": (verify.run_suite, _sites(verify.run_suite)),
    }
    init = spdcore.SpdMatrix.__init__
    monomial = zonal.ZonalTable.monomial_value
    # the import sites the wrapping has to cover
    assert ("mvfrac.fracops", "_cone_raw") in before["cone"][1]
    assert ("mvfrac.verify", "mc_integrate_unit_cone") in before["mc"][1]
    assert ("mvfrac.cli", "run_suite") in before["run_suite"][1]

    tracer = spans.Tracer()
    with spans.tracing(tracer) as missing:
        assert missing == []
        for obj, sites in before.values():
            for mod, key in sites:
                assert vars(sys.modules[mod])[key] is not obj
        assert fracops._cone_raw.__wrapped__ is before["cone"][0]
        assert spdcore.SpdMatrix.__init__ is not init
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        rc = cli.main(["verify", "--suite", "pathway", "--output",
                       str(out / "test-pathway.json")])
        assert rc == 0
    (out / "test-pathway.json").unlink()

    for obj, sites in before.values():
        assert _sites(obj) == sites
    assert spdcore.SpdMatrix.__init__ is init
    assert zonal.ZonalTable.monomial_value is monomial
    names = set(tracer.names)
    assert {"cli", "verify", "spdcore"} <= names


def test_missing_target_is_skipped():
    targets = [("rng", "rng", "no_such_function", None),
               ("cli", "cli", "main", None)]
    with spans.tracing(spans.Tracer(), targets) as missing:
        assert missing == ["rng.no_such_function"]
        assert cli.main.__wrapped__ is not None
    assert not hasattr(cli.main, "__wrapped__")


def test_series_references_hold():
    wl = workloads.build("series", 3, "")
    wl.tasks = [t for t in wl.tasks if t.p <= 3 and t.k_max == 20][:9]
    assert {t.shape for t in wl.tasks} == set(workloads.SHAPES)
    for t in wl.tasks:
        t.prepare()
        t.run()
        assert t.outcome().status == "ok", t.name


def test_fracpower_rule_allows_five_percent():
    cases = [{"name": f"c{i}", "z": 0.1, "pass": True} for i in range(40)]
    cases[0] = {"name": "c0", "z": 3.4, "pass": False}
    report = {"cases": cases}
    assert workloads.judge_report("fracpower", report)[0] == "ok"
    assert workloads.judge_report("euler", report)[0] == "miss"
    cases[1] = {"name": "c1", "z": 7.0, "pass": False}
    assert workloads.judge_report("fracpower", report)[0] == "error"
    cases[1] = {"name": "c1", "z": 0.1, "pass": False}
    assert workloads.judge_report("fracpower", report)[0] == "error"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload):
    """One round of each workload with its work cut down, traced, in a
    fresh process; the outputs are judged and the layer times add up."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    code = (
        "import sys, worker, workloads\n"
        "workloads.MC_CALLABLE_SAMPLES = dict(euler=200, beta=100, "
        "fraczonal=100, saigo=200)\n"
        "workloads.MC_VECTOR_SAMPLES = {'fracpower': 2000, 'sumdensity': "
        "2000, 'uniform-unit-cone': 200, 'matrix-gamma': 200}\n"
        "workloads.SERIES_TABLES = ((20, 3),)\n"
        "workloads.SERIES_MIX = ((1, 20, 3), (2, 20, 3), (3, 20, 3))\n"
        "sys.exit(worker.main(sys.argv[1:]))\n")
    result = out / f"test-smoke-{workload}.json"
    proc = subprocess.run(
        [sys.executable, "-c", code, "--workload", workload, "--seed", "5",
         "--trace", "1", "--result", str(result)],
        cwd=ROOT, env={**run._thread_env(1), "PYTHONPATH": f"src:{HERE}"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    r = json.loads(result.read_text())
    result.unlink()
    Path(r["spans_file"]).unlink()
    assert all(t["status"] != "error" for t in r["tasks"]), r["tasks"]
    assert len(r["latencies_s"]) == len(r["tasks"])
    layers = r["layers"]
    busy = sum(layers[k] for k in spans.BUSY.values())
    total = r["prep_s"] + r["timed_s"]
    assert busy + layers["trace.unattributed_s"] == pytest.approx(total)
    # the speed probes between tasks are the main unattributed time
    assert layers["trace.unattributed_s"] >= 0.0
