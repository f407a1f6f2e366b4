"""Collection-campaign throughput micro-benchmark.

Times one fixed mini-campaign (3 workloads x 10 clocks x 2 runs, default
512-sample cap) end-to-end — collect plus per-sample dataset assembly —
and records runs/sec and samples/sec in ``BENCH_collection.json`` at the
repo root, so the collection-path perf trajectory is tracked across PRs.

The recorded file doubles as a regression guard: the measured throughput
must stay within ``REGRESSION_FACTOR`` of the best recorded measurement
(machine-to-machine variance is real; a >3x drop is not variance, it is a
perf bug on the campaign hot path).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.dataset import build_dataset
from repro.gpusim import GA100, SimulatedGPU
from repro.obs.report import write_bench
from repro.telemetry import LaunchConfig, Launcher
from repro.workloads import get_workload

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_collection.json"

WORKLOAD_NAMES = ("stream", "dgemm", "fft")
N_CLOCKS = 10
RUNS_PER_CONFIG = 2
#: Fail when throughput drops more than this factor below the best record.
REGRESSION_FACTOR = 3.0


def _measure_once(workers: int | None) -> tuple[int, int, float]:
    device = SimulatedGPU(GA100, seed=7)
    launcher = Launcher(device)
    freqs = tuple(device.dvfs.usable_mhz[::6][:N_CLOCKS])
    config = LaunchConfig(freqs_mhz=freqs, runs_per_config=RUNS_PER_CONFIG)
    workloads = [get_workload(name) for name in WORKLOAD_NAMES]
    start = time.perf_counter()
    artifacts = launcher.collect(workloads, config, workers=workers)
    build_dataset(artifacts, per_sample=True)
    elapsed = time.perf_counter() - start
    return len(artifacts), sum(a.record.n_samples for a in artifacts), elapsed


def _measure(workers: int | None = 1, repeats: int = 3) -> dict:
    """Best-of-``repeats`` timing (noise floor, not average machine load)."""
    best = None
    runs = samples = 0
    for _ in range(repeats):
        runs, samples, elapsed = _measure_once(workers)
        best = elapsed if best is None else min(best, elapsed)
    return {
        "runs": runs,
        "samples": samples,
        "seconds": round(best, 6),
        "runs_per_s": round(runs / best, 2),
        "samples_per_s": round(samples / best, 1),
    }


def test_collection_throughput_tracked():
    previous = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    current = _measure(workers=1)
    payload = write_bench(
        BENCH_PATH,
        bench="collection-mini-campaign",
        config={
            "workloads": list(WORKLOAD_NAMES),
            "clocks": N_CLOCKS,
            "runs_per_config": RUNS_PER_CONFIG,
        },
        metrics={name: (current[name], "higher") for name in ("runs_per_s", "samples_per_s")},
        detail={
            "pre_pr_baseline": previous.get("detail", {}).get("pre_pr_baseline"),
            "measured": {k: current[k] for k in ("runs", "samples", "seconds")},
        },
    )

    best = payload["metrics"]["samples_per_s"]["best"]
    floor = best / REGRESSION_FACTOR
    assert current["samples_per_s"] >= floor, (
        f"collection throughput regressed: {current['samples_per_s']:.0f} samples/s "
        f"is below the {floor:.0f} samples/s floor "
        f"({REGRESSION_FACTOR}x under the best recorded {best:.0f})"
    )


def test_vectorized_path_beats_pre_pr_baseline_10x():
    """The acceptance bar of the vectorization PR, kept as a living check."""
    recorded = json.loads(BENCH_PATH.read_text())
    baseline = recorded["detail"].get("pre_pr_baseline")
    assert baseline is not None, "BENCH_collection.json lost its pre-PR baseline entry"
    current = _measure(workers=1, repeats=2)
    assert current["samples_per_s"] >= 10.0 * baseline["samples_per_s"]
