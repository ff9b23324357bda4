"""Run one sieveforest CLI call under the tracer, in a fresh interpreter.

Usage: python bench/cli_child.py <cli argv...>

Prints one JSON line: the call's exit code, its stdout, and the trace,
including how long `import sieveforest.cli` took.
"""
import time

start = time.perf_counter()
import sieveforest.cli  # noqa: E402
import_s = time.perf_counter() - start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import tracer as tracing  # noqa: E402

tracer = tracing.Tracer()
tracing.install_sieveforest(tracer)
tracer.samples["cli.import_s"] = [import_s]
buffer = io.StringIO()
with contextlib.redirect_stdout(buffer):
    code = sieveforest.cli.run(sys.argv[1:])
print(json.dumps({"code": code, "stdout": buffer.getvalue(), "trace": tracer.raw()}))
