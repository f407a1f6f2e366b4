"""Unified observability layer: metrics, tracing, and run manifests.

Three orthogonal pieces share this package (see DESIGN.md §10):

* :mod:`repro.obs.metrics` — process-local typed metrics
  (Counter / Gauge / Histogram) behind a named registry, exported as
  Prometheus text or round-trippable JSON.
* :mod:`repro.obs.trace` — span tracer with parent/child nesting, a
  JSONL sink plus bounded ring buffer, and a no-op fast path that makes
  permanent instrumentation of hot loops free when tracing is off.
* :mod:`repro.obs.manifest` — one structured provenance record per CLI
  invocation (config hash, seed, model fingerprints, git state, wall
  time, metric snapshot).

One consumer module sits on top of the emitters (DESIGN.md §15):

* :mod:`repro.obs.analyze` — the one trace reader: span-tree
  reconstruction, self- vs cumulative-time attribution with latency
  percentiles, instant-event counts, critical path, collapsed-stack
  flamegraph export, and per-phase diffs between two runs.

The instrumentation contract for the rest of the codebase: importing
and calling into ``repro.obs`` must never perturb numerics, RNG
streams, or public APIs — the golden suite runs fully traced and is
asserted bitwise-identical to the untraced run.
"""

from repro.obs.analyze import (
    DiffRow,
    SpanNode,
    analysis,
    attribution,
    build_span_forest,
    critical_path,
    diff_attribution,
    forest_from_file,
    load_events,
    render_attribution,
    render_critical_path,
    render_diff,
    to_collapsed,
    write_collapsed,
)
from repro.obs.manifest import (
    RunContext,
    RunManifest,
    annotate,
    config_hash,
    current_run,
    git_describe,
    start_run,
    write_manifest,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    get_registry,
    registry_from_json,
)
from repro.obs.trace import (
    Span,
    Tracer,
    configure,
    disable,
    event,
    get_tracer,
    is_enabled,
    span,
)

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "get_registry",
    "registry_from_json",
    # trace
    "Span",
    "Tracer",
    "span",
    "event",
    "configure",
    "disable",
    "get_tracer",
    "is_enabled",
    # manifest
    "RunManifest",
    "RunContext",
    "start_run",
    "current_run",
    "annotate",
    "config_hash",
    "git_describe",
    "write_manifest",
    # analyze
    "load_events",
    "SpanNode",
    "DiffRow",
    "build_span_forest",
    "forest_from_file",
    "attribution",
    "analysis",
    "critical_path",
    "diff_attribution",
    "to_collapsed",
    "write_collapsed",
    "render_attribution",
    "render_critical_path",
    "render_diff",
]
