"""Host speed index: a fixed reference kernel timed between rounds.

The 2-vCPU hosts this benchmark runs on change speed by 20-50 % over
tens of seconds, for every process alike (CPU time tracks wall time, so
it is not preemption).  Raw round times therefore spread by about 25 %
between runs a few minutes apart, more than any bound worth having.

Each worker times :func:`reference_seconds` before its first measured
round and after every round.  The kernel is the benchmark's own code and
never changes with the program: a numpy forward pass through a
3 x 64 SELU network over 61-row blocks (the shape of the serving
engine's work) followed by JSON, dict and heap work on request-sized
objects (the shape of the CLI, flush and simulator work).  A round's
``slowdown`` is the mean kernel time around it over
:data:`REFERENCE_S`, and time-based end-to-end metrics are reported at
reference speed: rates multiplied by it, durations divided by it.  A
faster program still reads faster; a slower host no longer does.
"""

from __future__ import annotations

import heapq
import json
import time

import numpy as np

#: Kernel time at reference speed: the fastest of 60 back-to-back calls
#: on a 2-vCPU Xeon host (the unit the normalised metrics are in).
REFERENCE_S = 0.125

_rng = np.random.default_rng(20230807)
_X = _rng.random((61 * 16, 3))
_WEIGHTS = [
    _rng.normal(0.0, 0.3, (3, 64)),
    _rng.normal(0.0, 0.15, (64, 64)),
    _rng.normal(0.0, 0.15, (64, 64)),
    _rng.normal(0.0, 0.15, (64, 1)),
]
_LINES = [
    json.dumps({"name": f"r{i}", "fp_active": i * 0.013, "dram_active": i / 377.0, "time_at_max_s": 1.5})
    for i in range(64)
]


def _forward() -> np.ndarray:
    h = _X
    for w in _WEIGHTS[:-1]:
        z = h @ w
        h = np.where(z > 0.0, z, np.expm1(np.minimum(z, 0.0)) * 1.6733) * 1.0507
    return h @ _WEIGHTS[-1]


def _bookkeeping() -> int:
    rows = [json.loads(line) for line in _LINES]
    out = [json.dumps({"name": r["name"], "selections": {"EDP": r["fp_active"]}}) for r in rows]
    heap: list[tuple[float, int]] = []
    for i, r in enumerate(rows):
        heapq.heappush(heap, (r["dram_active"], i))
    index = {(r["fp_active"], r["dram_active"]): i for i, r in enumerate(rows)}
    return len(out) + len(heap) + len(index)


def reference_seconds() -> float:
    """Wall time of one fixed batch of reference work."""
    t0 = time.perf_counter()
    for _ in range(40):
        _forward()
    for _ in range(120):
        _bookkeeping()
    return time.perf_counter() - t0
