"""Self-tests of the benchmark: tiny runs, the tracer, seeds and checks."""
import gc
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from sieveforest import csp, maps, rotations, trees  # noqa: E402

E2E = [name for name, _ in run.END_TO_END]


def bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_tiny_run_of_all_four_workloads():
    lines = bench("--workload", "all", "--tiny", "--seed", "3", "--seconds", "1")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in workloads.WORKLOADS:
        for name in E2E:
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["value"] > 0, (workload, name)
    out = "\n".join(lines)
    assert "fail_ratio" in out and "loadavg_end" in out and "inputs_digest" in out


def test_tiny_traced_run_reports_every_layer_metric():
    lines = bench("--workload", "cli_verify", "--tiny", "--trace", "1")
    result = json.loads(lines[-1])
    assert result["correct"]
    names = [name for name, _, _ in tracing.PER_LAYER]
    assert list(result["metrics"]) == names
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.run.calls"] == result["attempted"] // 2
    assert metrics["cli.import_s"] > 0 and metrics["trace.overhead_ratio"] > 0


def _traced(fn, keep_spans=False):
    for cached in (rotations._period_census, maps._map_period_census,
                   maps._btdeg_census_all):
        cached.cache_clear()
    tracer = tracing.Tracer(keep_spans)
    tracing.install_sieveforest(tracer)
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def test_census_is_traced_through_every_binding():
    tracer = _traced(lambda: csp.verify(csp.build_instance("ord", n=5), "all"))
    metrics = tracing.layer_metrics(tracer.raw(), 1.0)
    assert metrics["rotations.rotate.calls"] > 0
    assert metrics["trees.shift_root.calls"] > 0
    assert metrics["trees.enumerate.members"] == trees.catalan(5)
    assert metrics["trees.enumerate.scanned"] == trees.catalan(5)
    assert metrics["rotations.census.misses"] == 1
    assert metrics["csp.verify.calls"] == 1 and metrics["csp.rows"] == 10
    # uninstall restored the originals everywhere
    for fn in (csp.verify, rotations.rotate, rotations.shift_root,
               trees.enumerate_family, csp.fix_count_bruteforce,
               csp.to_polynomial, csp.QPolynomial.__mul__):
        assert not hasattr(fn, "__wrapped__"), fn


def test_nested_map_generators_count_members_once():
    tracer = _traced(lambda: maps.fix_count_maps(maps.TMn(3), 1))
    metrics = tracing.layer_metrics(tracer.raw(), 1.0)
    assert metrics["maps.enumerate_maps.members"] == maps.closed_count_maps(maps.TMn(3))
    assert metrics["maps.rotate_map.calls"] > 0


def test_self_time_plus_children_equals_duration():
    tracer = _traced(lambda: csp.verify(csp.build_instance("btd", b=2,
                                                           degrees=(1, 2, 1)), "all"),
                     keep_spans=True)
    spans = {sid: (parent, name, start, end, self_s)
             for sid, parent, name, start, end, self_s in tracer.kept}
    children = {}
    for sid, (parent, _, start, end, _) in spans.items():
        children.setdefault(parent, []).append(end - start)
    assert len(spans) > 10
    for sid, (parent, name, start, end, self_s) in spans.items():
        assert abs(self_s + sum(children.get(sid, [])) - (end - start)) < 1e-9, name
        assert self_s >= -1e-9
        if parent:
            assert spans[parent][2] <= start <= end <= spans[parent][3]


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        a = workloads.make_calls(workload, 7)
        assert a == workloads.make_calls(workload, 7)
        assert workloads.input_digest(workload, 7, a) == \
            workloads.input_digest(workload, 7, workloads.make_calls(workload, 7))
    for workload in ("qproduct_scale", "cli_verify"):
        assert set(map(workloads.canonical, workloads.make_calls(workload, 1))) != \
            set(map(workloads.canonical, workloads.make_calls(workload, 2)))


def test_dropped_instance_counts_as_failed():
    record = run.load_record("btree_sweep")
    call = ["btd", {"b": 2, "n": 3}]
    rec = record["calls"][workloads.canonical(call)]
    out = {key: {"rows": rows, "agree": True} for key, rows in rec.items()}
    total = sum(len(rows) for rows in rec.values())
    assert run.check_call("btree_sweep", call, out, None, record) == (total, 0, [])
    dropped = next(iter(out))
    lost = len(out.pop(dropped)["rows"])
    attempted, failed, notes = run.check_call("btree_sweep", call, out, None, record)
    assert (attempted, failed) == (total, lost) and notes


def test_speed_probe_scales_and_leaves_the_collector_alone():
    assert speed.scaled(2.0, speed.NOMINAL_S) == 2.0
    assert speed.scaled(2.0, 4 * speed.NOMINAL_S) == 0.5
    assert gc.isenabled()
    before = gc.get_count()[0]
    assert speed.probe() > 0
    assert gc.isenabled() and gc.get_count()[0] == before
