"""One pass of one workload, in a fresh interpreter.

`run.py` starts this module through `STUB`, which imports sieveforest before
anything else so that the import time is measured from interpreter start.
The worker writes one JSON line per call to stdout, then a closing line with
the pass totals.  Timing covers the program calls only; encoding and writing
each line happens outside the timed region.  A speed probe (`speed.py`) runs
after the import and after every call, also outside the timed region; each
line carries the probe time around its measurement.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Run with `python -c STUB <args>`: the first statement is the import.
STUB = ("import time, sieveforest; t = time.monotonic(); import sys; "
        "sys.path.insert(0, {bench!r}); import worker; worker.main(t)")

CLI_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# Sweep calls: one theorem at one size, every instance verified at every
# exponent.  The output maps each instance key to its (e, brute, closed,
# poly_value) rows and whether all three agreed.


def _sweep_instances(call):
    from sieveforest import csp, maps, trees
    theorem, p = call
    if theorem in ("ord_deg", "int_deg"):
        params = [{"degrees": d} for d in trees.degree_distributions(p["n"])]
    elif theorem == "delta":
        params = [{"degrees": d, "delta": delta}
                  for d in trees.degree_distributions(p["n"])
                  for delta, count in enumerate(d, start=1) if count]
    elif theorem == "btd":
        params = [{"b": p["b"], "degrees": d}
                  for d in maps.btree_degree_distributions(p["b"], p["n"])]
    elif theorem == "tmd":
        params = [{"j": p["j"], "degrees": d}
                  for d in maps.btree_degree_distributions(2 * p["j"], p["i"])]
    else:
        params = [p]
    out = []
    for prm in params:
        try:
            out.append(csp.build_instance(theorem, **prm))
        except csp.InfeasibleParams:
            if prm is p:
                raise
    return out


def run_sweep_call(call) -> dict:
    from sieveforest import csp
    out = {}
    for inst in _sweep_instances(call):
        report = csp.verify(inst, csp.ALL_EXPONENTS, size_guard=99)
        key = workloads.canonical([inst.theorem, inst.params])
        out[key] = {"rows": [[r["e"], r["brute"], r["closed"], r["poly_value"]]
                             for r in report.rows],
                    "agree": report.overall}
    return out


# ---------------------------------------------------------------------------
# qproduct_scale: closed form against root value against the expanded
# polynomial, at every divisor of the order.


def run_qproduct_call(call) -> dict:
    from sieveforest import csp, maps, qseries, rotations, trees
    theorem, params = call
    inst = csp.build_instance(theorem, **params)
    poly = inst.polynomial()
    shape = qseries.shape_predicates(poly)
    family = inst.family
    if inst.kind is not None:
        count = trees.closed_count(family)
    else:
        count = maps.closed_count_maps(family)
    values, agree = [], poly.at_one() == count
    m = inst.order
    for d in [d for d in range(1, m + 1) if m % d == 0]:
        e = m // d
        if inst.kind is not None:
            closed = rotations.fix_count_closed(
                rotations.FixQuery(family, inst.kind, e))
        else:
            closed = maps.fix_count_maps_closed(family, e)
        root = qseries.eval_expr_at_root(inst.expr, d)
        value = qseries.eval_at_primitive_root(poly, d)
        agree = agree and closed == root == value
        if value:
            values.append([d, value])
    return {"p1": poly.at_one(), "shape": [shape["nonneg"], shape["is_reciprocal"],
                                           shape["is_unimodal"]],
            "values": values, "agree": agree}


# ---------------------------------------------------------------------------
# cli_verify: each call is a fresh `python -m sieveforest.cli` process.


def cli_env() -> dict:
    """Environment of every interpreter the benchmark starts.

    String hashing is seeded the same way in each: with a random hash seed,
    `call_p50_ms` of identical code varied twice as much between passes.
    Bytecode caches are written and used, as for an installed package,
    whatever the caller's environment says.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("SIEVE_FOREST_SIZE_GUARD", None)
    return env


def run_cli_call(argv, traced=False) -> dict:
    """Exit code and stdout digest of one CLI call; with `traced`, the call
    runs under the tracer in `cli_child.py` and its trace comes back too."""
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py")] + argv
    else:
        cmd = [sys.executable, "-m", "sieveforest.cli"] + argv
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=cli_env(), timeout=CLI_TIMEOUT_S)
    out = {"code": proc.returncode, "stdout": proc.stdout}
    if traced:
        if proc.returncode != 0:
            raise RuntimeError(f"traced call failed: {proc.stderr.decode()[-400:]}")
        out = json.loads(proc.stdout.decode().splitlines()[-1])
        out["stdout"] = out["stdout"].encode()
    elif proc.returncode not in (0, 1, 2):
        out["stderr"] = proc.stderr.decode()[-400:]
    out["stdout"] = "sha256:" + hashlib.sha256(out["stdout"]).hexdigest()
    return out


RUNNERS = {"tree_sweep": run_sweep_call, "btree_sweep": run_sweep_call,
           "qproduct_scale": run_qproduct_call, "cli_verify": run_cli_call}


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def main(import_done: float) -> None:
    """argv: workload seed tiny(0|1) trace(0|1) spawn_time."""
    workload, seed, tiny, trace, spawned = sys.argv[1:6]
    import sieveforest
    src = (ROOT / "src").resolve()
    if src not in Path(sieveforest.__file__).resolve().parents:
        sys.exit(f"sieveforest imported from {sieveforest.__file__}, not {src}")
    before = speed.probe()
    _emit({"setup_s": import_done - float(spawned), "probe": before})
    calls = workloads.make_calls(workload, int(seed), tiny == "1")
    traced = trace == "1"
    tracer = None
    if traced and workload != "cli_verify":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install_sieveforest(tracer)
    runner = RUNNERS[workload]
    merged = {}
    for call in calls:
        start = time.perf_counter()
        try:
            out = runner(call, traced) if workload == "cli_verify" else runner(call)
            err = None
        except Exception as exc:  # a failed call is recorded, the pass goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        after = speed.probe()
        if out and "trace" in out:
            import tracer as tracing
            merged = tracing.merge(merged, out.pop("trace"))
        _emit({"s": elapsed, "probe": (before + after) / 2, "out": out, "err": err})
        before = after
    if workload == "cli_verify":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    done = {"done": True, "peak_rss_mb": rss_kb / 1024}
    if tracer is not None:
        done["trace"] = tracer.raw()
    elif traced:
        done["trace"] = merged
    _emit(done)
