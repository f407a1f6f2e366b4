"""Tracer-overhead benchmark on the serving hot path.

Times the hot-mix serving flush (8 distinct applications x 8 repeats,
the realistic datacenter scenario from ``test_perf_serving.py``) three
ways — instrumentation disabled, ring-buffer tracer enabled, and JSONL
tracer enabled — and records the slowdown ratios in ``BENCH_obs.json``
at the repo root.

The acceptance bar is the ISSUE's gate: tracing *enabled* must cost at
most 10 % of the untraced flush.  The disabled path has its own, far
stricter bar in ``tests/obs/test_noop_overhead.py`` (< 5 % — in
practice it is nanoseconds per span).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT) not in sys.path:  # tests.golden holds the tiny-pipeline config
    sys.path.insert(0, str(_REPO_ROOT))

import numpy as np
import pytest

from repro import obs
from repro.core.dataset import FeatureVector
from repro.obs.report import write_bench
from repro.serving import SelectionRequest, SelectionService

from tests.golden.tiny_pipeline import make_tiny_pipeline, train_tiny_models

BENCH_PATH = _REPO_ROOT / "BENCH_obs.json"

N_REQUESTS = 64
N_DISTINCT = 8
#: The ISSUE's gate: tracing enabled slows the flush by at most this factor.
MAX_TRACED_SLOWDOWN = 1.10


@pytest.fixture(scope="module")
def pipeline():
    return make_tiny_pipeline(train_tiny_models())


def _hot_requests() -> list[SelectionRequest]:
    rng = np.random.default_rng(42)
    distinct = []
    for i in range(N_DISTINCT):
        fv = FeatureVector(
            float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95)), 1410.0
        )
        distinct.append(
            SelectionRequest.from_features(fv, float(rng.uniform(0.5, 20.0)), name=f"app-{i}")
        )
    return (distinct * (N_REQUESTS // N_DISTINCT))[:N_REQUESTS]


def _best_of(fn, repeats: int = 7) -> float:
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _measure(pipeline, tmp_path_factory) -> dict:
    requests = _hot_requests()

    def flush():
        # Fresh service per run: the DNN forward must actually execute.
        SelectionService(pipeline, max_batch_size=N_REQUESTS).select_many(requests)

    assert not obs.is_enabled()
    disabled_s = _best_of(flush)

    obs.configure()  # ring-buffer sink only
    try:
        ring_s = _best_of(flush)
    finally:
        obs.disable()

    trace_path = tmp_path_factory.mktemp("obs_bench") / "trace.jsonl"
    obs.configure(trace_path)
    try:
        jsonl_s = _best_of(flush)
    finally:
        obs.disable()

    def row(seconds: float) -> dict:
        return {
            "seconds": round(seconds, 6),
            "selections_per_s": round(N_REQUESTS / seconds, 1),
            "slowdown_vs_disabled": round(seconds / disabled_s, 4),
        }

    return {
        "disabled": row(disabled_s),
        "ring": row(ring_s),
        "jsonl": row(jsonl_s),
    }


def test_tracer_overhead_tracked(pipeline, tmp_path_factory):
    """Record the overhead trajectory and enforce the <= 10 % gate."""
    previous = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    scenarios = _measure(pipeline, tmp_path_factory)
    write_bench(
        BENCH_PATH,
        bench="obs-tracer-overhead",
        config={
            "n_requests": N_REQUESTS,
            "n_distinct": N_DISTINCT,
            "scenario": "hot-mix serving flush",
            "max_traced_slowdown": MAX_TRACED_SLOWDOWN,
        },
        metrics={"slowdown_vs_disabled": (scenarios["jsonl"]["slowdown_vs_disabled"], "lower")},
        detail={
            "pre_pr_baseline": previous.get("detail", {}).get("pre_pr_baseline")
            or scenarios["disabled"],
            "scenarios": scenarios,
        },
    )

    for name in ("ring", "jsonl"):
        slowdown = scenarios[name]["slowdown_vs_disabled"]
        assert slowdown <= MAX_TRACED_SLOWDOWN, (
            f"{name} tracing slows the hot flush {slowdown:.3f}x — above the "
            f"{MAX_TRACED_SLOWDOWN:.2f}x gate ({scenarios['disabled']['seconds'] * 1e3:.2f} ms "
            f"untraced vs {scenarios[name]['seconds'] * 1e3:.2f} ms traced)"
        )


def test_traced_flush_emits_expected_span_families(pipeline):
    """The timed scenario really exercises the instrumentation."""
    tracer = obs.configure()
    try:
        SelectionService(pipeline, max_batch_size=N_REQUESTS).select_many(_hot_requests())
        names = {e["name"] for e in tracer.events()}
    finally:
        obs.disable()
    assert {"serving.flush", "serving.measure", "serving.lookup", "serving.predict", "serving.select"} <= names
