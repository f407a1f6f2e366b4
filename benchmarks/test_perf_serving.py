"""Serving-layer throughput benchmark.

Times flushes of ``N_REQUESTS`` selection requests through
:class:`repro.serving.SelectionService` against the pre-PR path — a
sequential per-request predict+select loop (what ``run_online`` does per
application) — and records per-scenario throughput in
``BENCH_serving.json`` at the repo root.

Scenarios (every service is long-lived; "cold" means an empty curve
cache via :meth:`~repro.serving.SelectionService.clear_cache`, not a
fresh process):

* **cold** — 2048 distinct profiles, empty cache: the packed engine
  doing 2048 * 2 full DNN curves per flush.  Carries the >= 3x
  acceptance bar against the sequential loop.
* **hot / hot_d64 / hot_d256** — 2048 requests with 8 / 64 / 256
  distinct applications, cache cleared per flush: intra-flush dedup
  computes only the distinct curves.  ``hot`` (8 distinct, the
  realistic datacenter mix — most submissions are re-runs) carries the
  >= 60k selections/s acceptance bar.
* **cached** — the hot mix again on a warm LRU: no DNN forward at all.

Each scenario's selections/s is a tracked metric whose ``best`` (highest
ever committed for the current config) :func:`repro.obs.report.write_bench`
keeps next to ``current``;
``repro report --gate`` fails CI when a committed ``current`` drops
more than 10% below its ``best``.  Throughput numbers are
machine-dependent; the in-test ``REGRESSION_FACTOR`` guard is
deliberately looser so the benchmark stays runnable on slower hosts.
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

from repro.core.energy import ED2P, EDP, energy_from_power_time
from repro.core.dataset import FeatureVector
from repro.core.selection import select_optimal_frequency
from repro.obs.report import write_bench
from repro.serving import SelectionRequest, SelectionService

from tests.golden.tiny_pipeline import make_tiny_pipeline, train_tiny_models

BENCH_PATH = _REPO_ROOT / "BENCH_serving.json"

N_REQUESTS = 2048
N_DISTINCT_HOT = 8
HOT_SWEEP = (64, 256)
#: Acceptance bars: cold flush vs the sequential loop, and
#: absolute hot-mix throughput.
COLD_SPEEDUP_BAR = 3.0
HOT_SELECTIONS_PER_S_BAR = 60_000.0
SPEEDUP_BAR = 5.0
#: Fail when throughput drops more than this factor below the best record.
REGRESSION_FACTOR = 3.0


@pytest.fixture(scope="module")
def pipeline():
    return make_tiny_pipeline(train_tiny_models())


def _profiles(n_distinct: int) -> list[SelectionRequest]:
    """Deterministic pre-profiled requests spread over the feature plane."""
    rng = np.random.default_rng(42)
    requests = []
    for i in range(n_distinct):
        fv = FeatureVector(
            float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95)), 1410.0
        )
        requests.append(
            SelectionRequest.from_features(
                fv, float(rng.uniform(0.5, 20.0)), name=f"app-{i}"
            )
        )
    return requests


def _mix(n_distinct: int) -> list[SelectionRequest]:
    """N_REQUESTS requests drawn from ``n_distinct`` distinct profiles."""
    distinct = _profiles(n_distinct)
    return (distinct * (N_REQUESTS // n_distinct + 1))[:N_REQUESTS]


def _sequential_select(pipeline, requests) -> list[dict]:
    """The pre-PR path: run_online's predict+select stages, one at a time."""
    freqs = pipeline.device.dvfs.usable_array()
    scale = pipeline.device.arch.tdp_watts
    out = []
    for req in requests:
        power = pipeline.power_model.predict_power(
            req.features, freqs, target_power_scale_w=scale
        )
        time_s = pipeline.time_model.predict_time(
            req.features, freqs, time_at_max_s=req.time_at_max_s
        )
        energy = energy_from_power_time(power, time_s)
        out.append(
            {
                obj.name: select_optimal_frequency(freqs, energy, time_s, objective=obj)
                for obj in (EDP, ED2P)
            }
        )
    return out


def _best_of(fn, repeats: int = 5) -> float:
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _throughput(seconds: float) -> float:
    return round(N_REQUESTS / seconds, 1)


def _measure_all(pipeline) -> dict:
    cold_requests = _profiles(N_REQUESTS)
    hot_requests = _mix(N_DISTINCT_HOT)

    seq_s = _best_of(lambda: _sequential_select(pipeline, hot_requests), repeats=3)

    service = SelectionService(pipeline, max_batch_size=N_REQUESTS)

    def timed_flush(requests):
        def run():
            service.clear_cache()
            service.select_many(requests)

        return _best_of(run)

    elapsed = {"cold": timed_flush(cold_requests), "hot": timed_flush(hot_requests)}
    for n_distinct in HOT_SWEEP:
        elapsed[f"hot_d{n_distinct}"] = timed_flush(_mix(n_distinct))

    service.clear_cache()
    service.select_many(hot_requests)  # prime the LRU
    elapsed["cached"] = _best_of(lambda: service.select_many(hot_requests))

    sequential = {"seconds": round(seq_s, 6), "selections_per_s": _throughput(seq_s)}
    scenarios = {}
    for name, secs in elapsed.items():
        scenarios[name] = {
            "seconds": round(secs, 6),
            "selections_per_s": _throughput(secs),
            "speedup_vs_sequential": round(seq_s / secs, 2),
        }
    return {"sequential": sequential, "scenarios": scenarios}


def test_serving_throughput_tracked(pipeline):
    """Record the serving perf trajectory and enforce the acceptance bars."""
    # Correctness sanity before timing: the batched flush must agree with
    # the sequential loop decision-for-decision (the full bitwise
    # contract is asserted in tests/serving).
    hot_requests = _mix(N_DISTINCT_HOT)
    expected = _sequential_select(pipeline, hot_requests)
    responses = SelectionService(pipeline, max_batch_size=N_REQUESTS).select_many(
        hot_requests
    )
    for response, want in zip(responses, expected):
        for obj_name, sel in want.items():
            assert response.selection(obj_name).freq_mhz == sel.freq_mhz
            assert response.selection(obj_name).index == sel.index

    previous = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    config = {
        "n_requests": N_REQUESTS,
        "n_distinct_hot": N_DISTINCT_HOT,
        "hot_sweep": list(HOT_SWEEP),
        "objectives": ["EDP", "ED2P"],
        "cold_speedup_bar": COLD_SPEEDUP_BAR,
        "hot_selections_per_s_bar": HOT_SELECTIONS_PER_S_BAR,
    }
    same_config = previous.get("config") == config

    measured = _measure_all(pipeline)
    scenarios = measured["scenarios"]
    payload = write_bench(
        BENCH_PATH,
        bench="serving-batch-throughput",
        config=config,
        metrics={
            f"{name}.selections_per_s": (record["selections_per_s"], "higher")
            for name, record in scenarios.items()
        },
        detail={
            # The baseline is the sequential per-request loop itself.
            "pre_pr_baseline": (
                previous.get("detail", {}).get("pre_pr_baseline") if same_config else None
            )
            or measured["sequential"],
            "sequential": measured["sequential"],
            "scenarios": scenarios,
        },
    )

    cold = scenarios["cold"]
    assert cold["speedup_vs_sequential"] >= COLD_SPEEDUP_BAR, (
        f"cold-flush speedup {cold['speedup_vs_sequential']:.2f}x is below the "
        f"{COLD_SPEEDUP_BAR:.0f}x acceptance bar (sequential "
        f"{measured['sequential']['selections_per_s']:.0f} vs cold "
        f"{cold['selections_per_s']:.0f} selections/s)"
    )
    hot = scenarios["hot"]
    assert hot["selections_per_s"] >= HOT_SELECTIONS_PER_S_BAR, (
        f"hot-mix throughput {hot['selections_per_s']:.0f} selections/s is below "
        f"the {HOT_SELECTIONS_PER_S_BAR:.0f}/s acceptance bar"
    )
    assert hot["speedup_vs_sequential"] >= SPEEDUP_BAR

    for name, record in scenarios.items():
        best = payload["metrics"][f"{name}.selections_per_s"]["best"]
        floor = best / REGRESSION_FACTOR
        assert record["selections_per_s"] >= floor, (
            f"{name} throughput regressed: {record['selections_per_s']:.0f} "
            f"selections/s is below the {floor:.0f} floor ({REGRESSION_FACTOR}x "
            f"under the best recorded {best:.0f})"
        )


def test_cached_flush_is_fastest_path(pipeline):
    """A warm LRU must beat (or match) recomputing the same flush."""
    metrics = json.loads(BENCH_PATH.read_text())["metrics"]
    assert metrics["cached.selections_per_s"]["current"] >= metrics["cold.selections_per_s"]["current"]
