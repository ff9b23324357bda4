"""Write the record that every benchmark run is checked against.

    PYTHONPATH=src python3 bench/record.py [workload ...]

For each workload this runs every call that any seed can draw, untimed, and
stores its outputs under `bench/record/<workload>.json`: per sweep call the
instances it built and their (e, brute, closed, poly_value) rows, per
`qproduct_scale` instance P(1), its shape predicates and its nonzero root
values, per CLI call the exit code and a digest of stdout.  A record is taken
once, at a commit whose outputs are trusted, and is not regenerated to make a
later commit pass.
"""
from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def record_call(workload: str, call):
    if workload in ("tree_sweep", "btree_sweep"):
        out = worker.run_sweep_call(call)
        assert all(inst["agree"] for inst in out.values()), call
        return {key: inst["rows"] for key, inst in out.items()}
    if workload == "qproduct_scale":
        out = worker.run_qproduct_call(call)
        assert out.pop("agree"), call
        return out
    out = worker.run_cli_call(call)
    assert out["code"] == 0, (call, out)
    return out


def write(workload: str) -> None:
    calls = {}
    for i, call in enumerate(workloads.pool(workload)):
        calls[workloads.canonical(call)] = record_call(workload, call)
        if i % 50 == 0:
            print(f"{workload}: {i} calls", file=sys.stderr)
    header = {"workload": workload, "commit": run.git_commit(),
              "python": platform.python_version()}
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
             for k, v in calls.items()]
    text = (json.dumps(header)[:-1] + ', "calls": {\n' + ",\n".join(lines) + "\n}}\n")
    json.loads(text)
    (BENCH_DIR / "record").mkdir(exist_ok=True)
    (BENCH_DIR / "record" / f"{workload}.json").write_text(text)


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        write(name)
