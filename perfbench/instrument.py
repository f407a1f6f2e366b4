"""Spans around the program's public calls, and the per-layer table.

:class:`Patches` wraps public methods and functions for the duration of
a ``with`` block and puts the originals back afterwards.  The traced
run (``--trace 1``) installs :func:`install_spans`, which opens one
:func:`repro.obs.span` around each public call a layer exposes, nested
in the program's own ``serving.*`` / ``cluster.*`` / ``fleet.*`` spans
on the same tracer.  :func:`layer_metrics` then reads the trace file
back through :func:`repro.obs.forest_from_file` (the loader behind
``repro obs analyze``) and turns it into the per-layer metrics.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

#: Per-layer metric name -> unit, in the order the table prints them.
LAYER_UNITS = {
    "cli.serve_io_s": "s",
    "service.flushes": "count",
    "service.batch_mean": "requests",
    "service.select_many_s": "s",
    "service.lookup_s": "s",
    "service.predict_s": "s",
    "service.select_s": "s",
    "service.measure_s": "s",
    "service.flush_self_s": "s",
    "engine.infer_s": "s",
    "engine.curves": "count",
    "engine.us_per_curve": "us",
    "engine.gflop_per_s": "GFLOP/s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.s": "s",
    "selection.rows": "count",
    "selection.s": "s",
    "batcher.queue_wait_ms_p50": "ms",
    "batcher.flush_ms_p50": "ms",
    "batcher.batch_mean": "requests",
    "loadgen.late_ms_p99": "ms",
    "measure.calls": "count",
    "measure.s": "s",
    "fleet.decide_s": "s",
    "fleet.decide_us_p50": "us",
    "fleet.admit_s": "s",
    "fleet.admit_calls": "count",
    "cluster.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "host.slowdown": "ratio",
}


class Patches:
    """Replace attributes while the block runs; restore them on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, name: str, make_wrapper) -> None:
        """Set ``owner.name`` to ``make_wrapper(original)``."""
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def install_spans(patches: Patches, flops_per_row: float) -> None:
    """Open a span around each layer's public entry point.

    ``flops_per_row`` is the multiply-add count of one feature row
    through both networks, from their layer shapes (2 * in * out per
    dense layer); a curve has one row per usable clock.
    """
    from repro import obs
    from repro.fleet.capping import PowerCapController
    from repro.fleet.services import FleetServicePolicy
    from repro.serving import service as service_module
    from repro.serving.cache import LRUCache
    from repro.serving.engine import FusedInferenceEngine

    def select_many(original):
        def wrapper(self, requests, **kwargs):
            with obs.span(
                "bench.select_many",
                batch=len(requests),
                names=[r.name for r in requests],
                t0=time.perf_counter(),
            ):
                return original(self, requests, **kwargs)

        return wrapper

    def infer(original):
        def wrapper(self, fp_active, dram_active):
            rows = len(fp_active) * self.freqs_mhz.size
            with obs.span("bench.engine.infer", curves=len(fp_active), flops=rows * flops_per_row):
                return original(self, fp_active, dram_active)

        return wrapper

    def get_many(original):
        def wrapper(self, keys):
            with obs.span("bench.cache.get_many") as sp:
                out = original(self, keys)
                misses = sum(1 for entry in out if entry is None)
                sp.set(hits=len(out) - misses, misses=misses)
                return out

        return wrapper

    def put_many(original):
        def wrapper(self, items):
            with obs.span("bench.cache.put_many", entries=len(items)):
                return original(self, items)

        return wrapper

    def selection(original):
        def wrapper(freqs_mhz, energy_j, time_s, **kwargs):
            with obs.span("bench.selection", rows=len(energy_j)):
                return original(freqs_mhz, energy_j, time_s, **kwargs)

        return wrapper

    def measure(original):
        def wrapper(device, workload, **kwargs):
            with obs.span("bench.measure"):
                return original(device, workload, **kwargs)

        return wrapper

    def decide(original):
        def wrapper(self, job, device):
            with obs.span("bench.fleet.decide"):
                return original(self, job, device)

        return wrapper

    def admit(original):
        def wrapper(self, now_s, job, decision):
            with obs.span("bench.fleet.admit"):
                return original(self, now_s, job, decision)

        return wrapper

    patches.wrap(service_module.SelectionService, "select_many", select_many)
    patches.wrap(FusedInferenceEngine, "infer", infer)
    patches.wrap(LRUCache, "get_many", get_many)
    patches.wrap(LRUCache, "put_many", put_many)
    # The flush looks both functions up in the service module's globals.
    patches.wrap(service_module, "select_optimal_frequency_many", selection)
    patches.wrap(service_module, "features_at_max", measure)
    patches.wrap(FleetServicePolicy, "decide", decide)
    patches.wrap(PowerCapController, "admit", admit)


def flops_per_row(*models) -> float:
    """Dense-layer flops of one feature row through each model."""
    return float(
        sum(2 * w.shape[0] * w.shape[1] for m in models for w, _, _ in m.inference_spec().layers)
    )


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (p in 1..99), interpolated; 0.0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(
    trace_path,
    rounds: int,
    *,
    serve_wall_s: float = 0.0,
    submit_s: dict[str, float] | None = None,
    late_s: list[float] | None = None,
    overhead_ratio: float,
) -> tuple[dict[str, float], list]:
    """Per-layer metrics per traced round, and the span forest.

    ``serve_wall_s`` is the summed first-read-to-last-write window of
    the traced serve rounds; ``submit_s`` maps each batcher request name
    to the ``perf_counter`` time it was submitted and ``late_s`` lists
    how late each submission ran.
    """
    from repro import obs

    forest = obs.forest_from_file(trace_path)
    spans = defaultdict(list)
    for root in forest:
        for node in root.walk():
            if node.kind == "span":
                spans[node.name].append(node)

    def total(name: str) -> float:
        return sum(node.dur_s for node in spans[name])

    def attr_sum(name: str, key: str) -> float:
        return float(sum(node.attrs.get(key, 0) for node in spans[name]))

    n = float(rounds)
    select_many = spans["bench.select_many"]
    select_many_s = total("bench.select_many")
    infer_s = total("bench.engine.infer")
    curves = attr_sum("bench.engine.infer", "curves")
    hits = attr_sum("bench.cache.get_many", "hits")
    misses = attr_sum("bench.cache.get_many", "misses")
    cache_s = total("bench.cache.get_many") + total("bench.cache.put_many")
    selection_s = total("bench.selection")
    measure_s = total("bench.measure")
    decide_s = total("bench.fleet.decide")
    admit_s = total("bench.fleet.admit")

    queue_wait_ms: list[float] = []
    if submit_s:
        for node in select_many:
            started = node.attrs["t0"]
            queue_wait_ms.extend(1e3 * (started - submit_s[name]) for name in node.attrs["names"])
    batch_sizes = [node.attrs["batch"] for node in select_many]

    metrics = {
        "cli.serve_io_s": (serve_wall_s - select_many_s) / n if serve_wall_s else 0.0,
        "service.flushes": len(select_many) / n,
        "service.batch_mean": statistics.fmean(batch_sizes) if batch_sizes else 0.0,
        "service.select_many_s": select_many_s / n,
        "service.lookup_s": total("serving.lookup") / n,
        "service.predict_s": total("serving.predict") / n,
        "service.select_s": total("serving.select") / n,
        "service.measure_s": total("serving.measure") / n,
        "service.flush_self_s": (select_many_s - infer_s - cache_s - selection_s - measure_s) / n,
        "engine.infer_s": infer_s / n,
        "engine.curves": curves / n,
        "engine.us_per_curve": 1e6 * infer_s / curves if curves else 0.0,
        "engine.gflop_per_s": attr_sum("bench.engine.infer", "flops") / infer_s / 1e9 if infer_s else 0.0,
        "cache.hits": hits / n,
        "cache.misses": misses / n,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.s": cache_s / n,
        "selection.rows": attr_sum("bench.selection", "rows") / n,
        "selection.s": selection_s / n,
        "batcher.queue_wait_ms_p50": percentile(queue_wait_ms, 50),
        "batcher.flush_ms_p50": percentile([1e3 * s.dur_s for s in select_many], 50) if submit_s else 0.0,
        "batcher.batch_mean": statistics.fmean(batch_sizes) if submit_s and batch_sizes else 0.0,
        "loadgen.late_ms_p99": percentile([1e3 * s for s in late_s], 99) if late_s else 0.0,
        "measure.calls": len(spans["bench.measure"]) / n,
        "measure.s": measure_s / n,
        "fleet.decide_s": decide_s / n,
        "fleet.decide_us_p50": percentile([1e6 * s.dur_s for s in spans["bench.fleet.decide"]], 50),
        "fleet.admit_s": admit_s / n,
        "fleet.admit_calls": len(spans["bench.fleet.admit"]) / n,
        "cluster.self_s": (total("fleet.campaign") - decide_s - admit_s) / n if spans["fleet.campaign"] else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
    return metrics, forest


def render_table(metrics: dict[str, float]) -> str:
    """The per-layer metrics as an aligned text table."""
    lines = [f"{'per-layer metric (per traced round)':38s} {'value':>14s}  unit"]
    for name, unit in LAYER_UNITS.items():
        lines.append(f"{name:38s} {metrics[name]:14.6g}  {unit}")
    return "\n".join(lines)
