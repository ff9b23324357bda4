"""sieveforest benchmark: run one workload (or all four) and report metrics.

    python3 bench/run.py --workload tree_sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

Each pass of a workload runs in a fresh interpreter (`worker.py`), one call at
a time.  Passes repeat while another one fits in `--seconds`; the reported
value of each metric is its median over the passes.  Every time is scaled to
the nominal speed of the probe in `speed.py`, which runs next to each
measurement; the table also gives the unscaled wall times.  With `--trace 1`
the run makes one untraced and one traced pass and reports the per-layer
metrics.  Every output is checked against the record in `bench/record/`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The lines before it give the metrics as
a table, the environment, the seed and a digest of the workload's inputs.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import STUB, cli_env  # noqa: E402

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("call_p50_ms", "ms"),
              ("call_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))
PROBES_PER_PASS = 3  # setup probes between passes: at least this many,
PROBE_EVERY_S = 1.5  # or one for each this many seconds of the pass before
RUN_LIMIT_S = 170  # a run must end within 180 s; a pass still going is killed
PROBE = ("import time, sieveforest; t = time.monotonic(); import sys; "
         "sys.path.insert(0, {bench!r}); import speed; print(t, speed.probe())")
ADDR_NO_RANDOMIZE = 0x0040000


class BenchError(Exception):
    """The benchmark cannot run here (no program, no record, broken worker)."""


# ---------------------------------------------------------------------------
# Records and checks


def load_record(workload: str) -> dict:
    path = BENCH_DIR / "record" / f"{workload}.json"
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"no record for {workload}: {exc}")


def expected_ops(workload: str, call, record: dict) -> int:
    """Operations a call should perform: rows in the sweeps, else one."""
    if workload in ("tree_sweep", "btree_sweep"):
        rec = record["calls"][workloads.canonical(call)]
        return sum(len(rows) for rows in rec.values())
    return 1


def check_call(workload: str, call, out, err, record: dict) -> tuple[int, int, list]:
    """(attempted, failed, notes) for one call's output against the record."""
    key = workloads.canonical(call)
    if workload in ("tree_sweep", "btree_sweep"):
        return _check_sweep(record["calls"][key], out, err, key)
    rec = record["calls"][key]
    if out is None:
        return 1, 1, [f"{key}: {err}"]
    if workload == "qproduct_scale":
        ok = out.pop("agree") and out == rec
    else:
        ok = out == rec
    return 1, 0 if ok else 1, [] if ok else [f"{key}: got {out}, recorded {rec}"]


def _check_sweep(rec: dict, out, err, key) -> tuple[int, int, list]:
    if out is None:
        n = sum(len(rows) for rows in rec.values())
        return n, n, [f"{key}: {err}"]
    attempted = failed = 0
    notes = []
    for inst, rows in rec.items():
        got = out.get(inst, {}).get("rows", [])
        for i, row in enumerate(rows):
            attempted += 1
            g = got[i] if i < len(got) else None
            if g != row or not g[1] == g[2] == g[3]:
                failed += 1
                notes.append(f"{inst} row {i}: got {g}, recorded {row}")
        extra = max(0, len(got) - len(rows))
        attempted += extra
        failed += extra
    for inst in out.keys() - rec.keys():
        n = len(out[inst]["rows"])
        attempted += n
        failed += n
        notes.append(f"{inst}: not in the record")
    return attempted, failed, notes


# ---------------------------------------------------------------------------
# Passes


def _spawn(argv, **kw):
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=cli_env(),
                            cwd=ROOT, **kw)


def _kill_group(proc) -> None:
    """Kill a worker and any CLI process it started."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def setup_probe() -> tuple[float, float]:
    """Seconds from spawning an interpreter to `import sieveforest` returning,
    and the time of a speed probe run right after the import."""
    spawned = time.monotonic()
    proc = _spawn([sys.executable, "-c", PROBE.format(bench=str(BENCH_DIR))],
                  stderr=subprocess.PIPE)
    try:
        out, errs = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("importing sieveforest took more than 60 s")
    if proc.returncode != 0:
        raise BenchError(f"cannot import sieveforest from {ROOT / 'src'}:\n{errs}")
    imported, probe_s = map(float, out.split())
    return imported - spawned, probe_s


def run_pass(workload, seed, tiny, traced, calls, record, deadline) -> dict:
    """One fresh worker process running every call once, killed at `deadline`
    (a `time.monotonic` value); calls it did not finish count as failed."""
    spawned = time.monotonic()
    argv = [sys.executable, "-c", STUB.format(bench=str(BENCH_DIR)), workload,
            str(seed), "1" if tiny else "0", "1" if traced else "0", repr(spawned)]
    proc = _spawn(argv, start_new_session=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group,
                               [proc])
    watchdog.start()
    result = {"latencies": [], "probes": [], "scaled": [], "attempted": 0,
              "failed": 0, "notes": [], "setup_s": None, "done": None}
    try:
        for line in proc.stdout:
            msg = json.loads(line)
            if "setup_s" in msg:
                result["setup_s"] = (msg["setup_s"], msg["probe"])
            elif "done" in msg:
                result["done"] = msg
            else:
                call = calls[len(result["latencies"])]
                result["latencies"].append(msg["s"])
                result["probes"].append(msg["probe"])
                result["scaled"].append(speed.scaled(msg["s"], msg["probe"]))
                a, f, notes = check_call(workload, call, msg["out"], msg["err"], record)
                result["attempted"] += a
                result["failed"] += f
                result["notes"] += notes
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_group(proc)
        proc.wait()
    if result["setup_s"] is None:
        raise BenchError(f"worker for {workload} exited with {proc.returncode} "
                         "before importing sieveforest")
    for call in calls[len(result["latencies"]):]:  # the worker died early
        n = expected_ops(workload, call, record)
        result["attempted"] += n
        result["failed"] += n
        result["notes"].append(f"{workloads.canonical(call)}: not run "
                               f"(worker exit {proc.returncode})")
    return result


def pass_metrics(p: dict, key: str = "scaled") -> dict:
    """A pass's timings from its scaled latencies, or with key="latencies"
    from its wall times."""
    lat = p[key] or [0.0]
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return {"run_s": sum(lat), "call_p50_ms": 1000 * statistics.median(lat),
            "call_p90_ms": 1000 * p90,
            "peak_rss_mb": (p["done"] or {}).get("peak_rss_mb", 0.0)}


# ---------------------------------------------------------------------------
# Environment


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fix_address_layout() -> bool:
    """Start the benchmark's interpreters without address-space randomisation.

    This sets a Linux personality flag on this process, which only the
    processes it starts inherit.  With random layouts, `run_s` and
    `call_p50_ms` of identical passes varied about twice as much.  Returns
    whether the flag is set; where the system refuses it, runs go on without.
    """
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return False
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)
    if current == -1:
        return False
    personality(current | ADDR_NO_RANDOMIZE)
    return bool(personality(0xFFFFFFFF) & ADDR_NO_RANDOMIZE)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "cpu": cpu_model(),
            "nproc": nproc(), "platform": platform.platform(),
            "commit": git_commit(), "seed": seed,
            "loadavg_start": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# Runs


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    record = load_record(workload)
    calls = workloads.make_calls(workload, seed, tiny)
    for call in calls:
        expected_ops(workload, call, record)  # every call must be recorded
    env = environment(seed)
    env["fixed_address_layout"] = fix_address_layout()
    deadline = time.monotonic() + RUN_LIMIT_S
    setup_probe()  # untimed: lets the interpreter write its bytecode cache
    # Probes run between passes and after the last, so setup_s samples the
    # whole run, and a run of one or two long passes still gets a dozen.
    setups, passes = [], []  # (wall seconds, speed probe seconds)
    probes = PROBES_PER_PASS
    start = time.monotonic()
    while True:
        began = time.monotonic()
        setups += [setup_probe() for _ in range(probes)]
        traced = trace and len(passes) == 1
        passes.append(run_pass(workload, seed, tiny, traced, calls, record, deadline))
        now = time.monotonic()
        probes = max(PROBES_PER_PASS, round((now - began) / PROBE_EVERY_S))
        if trace:
            if len(passes) == 2:
                break
        elif now - start + (now - began) > seconds:
            break
    setups += [setup_probe() for _ in range(probes)]
    setups += [p["setup_s"] for p in passes]
    wall = [pass_metrics(p, "latencies") for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    per_pass = [pass_metrics(p) for p in passes]
    if trace:
        untraced, traced = per_pass
        ratio = traced["run_s"] / untraced["run_s"] if untraced["run_s"] else 0.0
        metrics = tracing.layer_metrics((passes[1]["done"] or {}).get("trace", {}),
                                        ratio)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {name: statistics.median(m[name] for m in per_pass)
                   for name in ("run_s", "call_p50_ms", "call_p90_ms", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(speed.scaled(s, probe_s)
                                               for s, probe_s in setups)
        metrics["ok_ratio"] = 1 - failed / attempted if attempted else 0.0
        metrics = {name: metrics[name] for name, _ in END_TO_END}
        units = dict(END_TO_END)
    env["loadavg_end"] = list(os.getloadavg())
    notes = [n for p in passes for n in p["notes"]]
    complete = all(p["done"] is not None for p in passes)
    return {
        "workload": workload, "seed": seed, "calls": len(calls),
        "inputs_digest": workloads.input_digest(workload, seed, calls),
        "passes": len(passes), "traced": trace, "env": env,
        "pass_run_s": [m["run_s"] for m in per_pass],
        "wall": {"setup_s": statistics.median(s for s, _ in setups),
                 **{name: statistics.median(m[name] for m in wall)
                    for name in ("run_s", "call_p50_ms", "call_p90_ms")}},
        "slowdown": statistics.median([probe_s for _, probe_s in setups]
                                      + [x for p in passes for x in p["probes"]])
                    / speed.NOMINAL_S,
        "correct": complete and failed == 0 and attempted > 0,
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "notes": notes[:20],
    }


def print_report(r: dict) -> None:
    print(f"# {r['workload']}: seed {r['seed']}, {r['calls']} calls, "
          f"{r['passes']} pass(es), {'traced' if r['traced'] else 'untraced'}, "
          f"inputs {r['inputs_digest']}")
    for name, m in r["metrics"].items():
        print(f"{name:<42} {m['value']:>16.6g} {m['unit']}")
    for name, value in r["wall"].items():
        print(f"{'wall ' + name + ' (unscaled)':<42} {value:>16.6g}")
    print(f"{'slowdown (median probe / nominal)':<42} {r['slowdown']:>16.6g}")
    print(f"{'fail_ratio':<42} {r['fail_ratio']:>16.6g} ratio "
          f"({r['failed']} of {r['attempted']} operations)")
    for note in r["notes"]:
        print(f"! {note}")
    print(json.dumps({key: r[key] for key in ("workload", "seed", "inputs_digest",
                                              "passes", "pass_run_s", "wall",
                                              "slowdown", "env")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small calls per workload (self-tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sieveforest" / "__init__.py").is_file():
        print(f"error: no sieveforest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(name, args.seed, args.seconds, bool(args.trace),
                                args.tiny) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in reports:
        print_report(r)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in reports for name, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
