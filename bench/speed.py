"""Speed probe: a fixed piece of interpreter work, timed between calls.

The benchmark's host shares its cores with other work, and the same code runs
up to twice as slow while that work is busy; the busy and idle spells last
seconds and come and go from minute to minute.  Wall times taken a few minutes
apart therefore differ by more than any useful bound.  The probe measures how
fast this interpreter runs right now, and `scaled` turns a wall time into the
time it would have taken at the probe's nominal speed.

The probe uses only the standard library and shares no code or data with
sieveforest, so a change to the program cannot change what it measures.  It
creates no objects that the garbage collector tracks, and runs with the
collector off, so the size of the program's heap does not change its time.
"""
from __future__ import annotations

import gc
import time

# Wall time of one probe on an idle core of the host the benchmark was
# defined on (Intel Xeon at 2.1 GHz, Python 3.11): the fastest of thousands
# of probes took 0.97 ms.  A scaled time is in seconds at that speed.
NOMINAL_S = 0.001
LOOPS = 10_000

_TABLE = {i: (i * 7919) % 1009 for i in range(1024)}


def _work(loops: int) -> int:
    table = _TABLE
    acc = 0
    for i in range(loops):
        acc += table[(acc ^ i) & 1023]
    return acc


def probe() -> float:
    """Seconds the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work(LOOPS)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, probe_s: float) -> float:
    """`seconds` measured while a probe took `probe_s`, at nominal speed."""
    return seconds * NOMINAL_S / probe_s
