"""Trace analytics: span trees, time attribution, flamegraphs, run diffs.

:mod:`repro.obs.trace` emits a *flat* stream of span/event records (one
JSON object per closed span).  This module is the one consumer of that
stream (``repro obs analyze``): it reconstructs the span forest a run
executed, attributes time to each span name (count, cumulative vs
*self* — the time a span spent outside its traced children — and the
latency percentiles of its durations), counts instant events, extracts
the critical path, exports collapsed-stack flamegraph input
(``flamegraph.pl`` / speedscope compatible), and diffs two runs' trees
into a per-phase delta table.

Reconstruction facts the tracer guarantees (asserted by the hypothesis
suite in ``tests/obs/test_properties.py``):

* span ids are assigned at *entry* in one monotone counter, so sorting
  children by id recovers start order;
* records are emitted at *close*, so a parent always appears after its
  children in the stream — tree building must therefore index first,
  attach second;
* nesting is per-thread LIFO, so same-thread children lie strictly
  inside their parent's interval and ``self = dur - sum(child durs)``
  is non-negative up to clock granularity, and self-times of a tree sum
  exactly to the root's cumulative time.

A record whose parent is missing from the stream (ring-buffer eviction,
truncated file) is promoted to a root rather than dropped, so partial
traces still analyze.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "load_events",
    "SpanNode",
    "build_span_forest",
    "forest_from_file",
    "attribution",
    "analysis",
    "critical_path",
    "to_collapsed",
    "write_collapsed",
    "diff_attribution",
    "DiffRow",
    "render_attribution",
    "render_critical_path",
    "render_diff",
]


def load_events(path: str | Path) -> list[dict]:
    """Parse a JSONL trace; tolerates a truncated final line (crash tail)."""
    events: list[dict] = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # interrupted mid-write; everything before is good
            raise
    return events


@dataclass
class SpanNode:
    """One reconstructed span (or instant event) in the tree."""

    name: str
    span_id: int
    parent_id: int | None
    thread: str
    ts: float
    dur_s: float
    kind: str  # "span" | "event"
    attrs: dict
    children: list["SpanNode"] = field(default_factory=list)
    #: Time not covered by traced children (== dur_s for leaves).
    self_s: float = 0.0
    #: Position of the record in the stream (emission = close order).
    seq: int = 0

    def walk(self):
        """Yield this node then every descendant, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def depth_of(self, node: "SpanNode") -> int | None:
        """Depth of ``node`` below this root (0 = the root itself)."""
        for depth, candidate in self._walk_depth(0):
            if candidate is node:
                return depth
        return None

    def _walk_depth(self, depth: int):
        yield depth, self
        for child in self.children:
            yield from child._walk_depth(depth + 1)


def build_span_forest(events: list[dict]) -> list[SpanNode]:
    """Reconstruct the span forest from a flat record stream.

    Returns the roots ordered by span id (= start order).  Instant
    events become zero-duration leaves with ``kind == "event"``; they
    never affect self-time.
    """
    nodes: dict[int, SpanNode] = {}
    ordered: list[SpanNode] = []
    for seq, record in enumerate(events):
        if record.get("type") not in ("span", "event"):
            continue
        node = SpanNode(
            name=str(record.get("name", "?")),
            span_id=int(record.get("span_id", 0)),
            parent_id=record.get("parent_id"),
            thread=str(record.get("thread", "?")),
            ts=float(record.get("ts", 0.0)),
            dur_s=float(record.get("dur_s", 0.0)),
            kind=str(record.get("type")),
            attrs=dict(record.get("attrs") or {}),
            seq=seq,
        )
        nodes[node.span_id] = node
        ordered.append(node)

    roots: list[SpanNode] = []
    for node in ordered:
        parent = nodes.get(node.parent_id) if node.parent_id is not None else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)

    for node in ordered:
        node.children.sort(key=lambda n: n.span_id)
        node.self_s = node.dur_s - sum(c.dur_s for c in node.children if c.kind == "span")
    roots.sort(key=lambda n: n.span_id)
    return roots


def forest_from_file(path: str | Path) -> list[SpanNode]:
    """Load a JSONL trace and reconstruct its span forest."""
    return build_span_forest(load_events(path))


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def attribution(forest: list[SpanNode]) -> dict[str, dict]:
    """Per-span-name time attribution across the whole forest.

    Each row carries ``count``, cumulative time (``cum_s`` — sums every
    occurrence, so recursive same-name nests double-count, as in every
    profiler), ``self_s``, and the distribution of the name's durations:
    ``mean_s``, ``p50_s``/``p90_s``/``p95_s``/``p99_s`` (linear
    ``np.percentile``) and ``max_cum_s``.  Durations are taken in stream
    order, so the sums equal those over the flat ``dur_s`` records.
    Instant events are excluded (they own no time; :func:`analysis`
    counts them).
    """
    by_name: dict[str, list[SpanNode]] = {}
    for root in forest:
        for node in root.walk():
            if node.kind == "span":
                by_name.setdefault(node.name, []).append(node)
    rows: dict[str, dict] = {}
    for name, nodes in by_name.items():
        nodes.sort(key=lambda n: n.seq)
        durs = np.array([n.dur_s for n in nodes])
        rows[name] = {
            "count": len(nodes),
            "cum_s": float(durs.sum()),
            "self_s": sum(n.self_s for n in nodes),
            "mean_s": float(durs.mean()),
            **{f"p{q}_s": float(np.percentile(durs, q)) for q in (50, 90, 95, 99)},
            "max_cum_s": float(durs.max()),
        }
    return rows


def analysis(forest: list[SpanNode]) -> dict:
    """JSON-ready trace report: record and thread counts, the
    :func:`attribution` rows under ``spans``, and under ``events`` how
    often each instant event (early stop, cache clear, ...) fired."""
    nodes = [node for root in forest for node in root.walk()]
    events: dict[str, int] = {}
    for node in nodes:
        if node.kind == "event":
            events[node.name] = events.get(node.name, 0) + 1
    return {
        "records": len(nodes),
        "threads": len({node.thread for node in nodes}),
        "spans": attribution(forest),
        "events": events,
    }


def critical_path(forest: list[SpanNode]) -> list[SpanNode]:
    """Heaviest root-to-leaf chain: at each level, the child with the
    largest cumulative time.  Empty forest gives an empty path."""
    spans = [r for r in forest if r.kind == "span"]
    if not spans:
        return []
    node = max(spans, key=lambda n: n.dur_s)
    path = [node]
    while True:
        children = [c for c in node.children if c.kind == "span"]
        if not children:
            return path
        node = max(children, key=lambda n: n.dur_s)
        path.append(node)


# ----------------------------------------------------------------------
# Flamegraph export
# ----------------------------------------------------------------------
def to_collapsed(forest: list[SpanNode]) -> str:
    """Collapsed-stack flamegraph format: ``a;b;c <self-nanoseconds>``.

    One line per distinct stack, weights are integer *self* times in
    nanoseconds (clamped at 0 — timer granularity can make a crowded
    parent's self marginally negative).  Identical stacks are summed.
    The output feeds ``flamegraph.pl`` directly and imports into
    speedscope as Brendan-Gregg-collapsed.
    """
    weights: dict[tuple[str, ...], int] = {}

    def visit(node: SpanNode, stack: tuple[str, ...]) -> None:
        if node.kind != "span":
            return
        here = stack + (node.name,)
        weights[here] = weights.get(here, 0) + max(0, round(node.self_s * 1e9))
        for child in node.children:
            visit(child, here)

    for root in forest:
        visit(root, ())
    lines = [f"{';'.join(stack)} {weight}" for stack, weight in sorted(weights.items())]
    return "\n".join(lines)


def write_collapsed(forest: list[SpanNode], target: str | Path) -> Path:
    """Write the collapsed-stack export (returns the path written)."""
    path = Path(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_collapsed(forest) + "\n", encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# Run diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiffRow:
    """One span name compared across two runs (a = before, b = after)."""

    name: str
    count_a: int
    count_b: int
    cum_a_s: float
    cum_b_s: float
    self_a_s: float
    self_b_s: float

    @property
    def delta_cum_s(self) -> float:
        return self.cum_b_s - self.cum_a_s

    @property
    def delta_self_s(self) -> float:
        return self.self_b_s - self.self_a_s

    @property
    def cum_ratio(self) -> float | None:
        """b/a cumulative ratio, or None when the span is new in b."""
        return self.cum_b_s / self.cum_a_s if self.cum_a_s > 0.0 else None


def diff_attribution(
    events_a: list[dict] | list[SpanNode],
    events_b: list[dict] | list[SpanNode],
) -> list[DiffRow]:
    """Per-phase delta table between two runs' span trees.

    Accepts raw event lists or prebuilt forests.  Rows cover the union
    of span names, sorted by the magnitude of the self-time delta so the
    phase that moved most is first.
    """

    def rows_of(events) -> dict[str, dict]:
        if events and isinstance(events[0], SpanNode):
            return attribution(events)
        return attribution(build_span_forest(events))

    a, b = rows_of(events_a), rows_of(events_b)
    empty = {"count": 0, "cum_s": 0.0, "self_s": 0.0}
    out = [
        DiffRow(
            name=name,
            count_a=a.get(name, empty)["count"],
            count_b=b.get(name, empty)["count"],
            cum_a_s=a.get(name, empty)["cum_s"],
            cum_b_s=b.get(name, empty)["cum_s"],
            self_a_s=a.get(name, empty)["self_s"],
            self_b_s=b.get(name, empty)["self_s"],
        )
        for name in sorted(set(a) | set(b))
    ]
    out.sort(key=lambda r: (-abs(r.delta_self_s), r.name))
    return out


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_s(seconds: float) -> str:
    if abs(seconds) < 1e-3:
        return f"{seconds * 1e6:9.1f}µs"
    if abs(seconds) < 1.0:
        return f"{seconds * 1e3:9.2f}ms"
    return f"{seconds:9.3f}s "


def render_attribution(forest: list[SpanNode], *, top: int | None = None) -> str:
    """Fixed-width self/cumulative/percentile table, heaviest self-time
    first, followed by the instant-event counts and record totals."""
    report = analysis(forest)
    rows = report["spans"]
    total_self = sum(r["self_s"] for r in rows.values())
    lines = [
        f"{'span':32s} {'count':>7s} {'self':>11s} {'cum':>11s} {'mean':>11s} "
        f"{'p50':>11s} {'p90':>11s} {'p95':>11s} {'p99':>11s} {'max':>11s} {'self%':>6s}"
    ]
    ranked = sorted(rows.items(), key=lambda kv: (-kv[1]["self_s"], kv[0]))
    if top is not None:
        ranked = ranked[:top]
    columns = ("self_s", "cum_s", "mean_s", "p50_s", "p90_s", "p95_s", "p99_s", "max_cum_s")
    for name, row in ranked:
        share = 100.0 * row["self_s"] / total_self if total_self > 0.0 else 0.0
        times = " ".join(_fmt_s(row[key]) for key in columns)
        lines.append(f"{name:32s} {row['count']:7d} {times} {share:5.1f}%")
    events = report["events"]
    if events:
        lines.append("")
        lines.append("events:")
        for name in sorted(events):
            lines.append(f"  {name:30s} x{events[name]}")
    lines.append("")
    lines.append(f"{report['records']} records across {report['threads']} thread(s)")
    return "\n".join(lines)


def render_critical_path(forest: list[SpanNode]) -> str:
    """Indented critical path with per-hop cumulative/self times."""
    path = critical_path(forest)
    if not path:
        return "critical path: (no spans)"
    root_cum = path[0].dur_s
    lines = ["critical path (heaviest child at each level):"]
    for depth, node in enumerate(path):
        share = 100.0 * node.dur_s / root_cum if root_cum > 0.0 else 0.0
        lines.append(
            f"  {'  ' * depth}{node.name}  cum {_fmt_s(node.dur_s).strip()} "
            f"self {_fmt_s(node.self_s).strip()} ({share:.1f}% of root)"
        )
    return "\n".join(lines)


def render_diff(rows: list[DiffRow], *, fmt: str = "text", top: int | None = None) -> str:
    """Delta table as fixed-width text or a GitHub-markdown table."""
    if top is not None:
        rows = rows[:top]
    if fmt == "markdown":
        lines = [
            "| span | count a→b | self a | self b | Δ self | cum b/a |",
            "|---|---|---|---|---|---|",
        ]
        for r in rows:
            ratio = f"{r.cum_ratio:.2f}x" if r.cum_ratio is not None else "new"
            lines.append(
                f"| `{r.name}` | {r.count_a}→{r.count_b} | {_fmt_s(r.self_a_s).strip()} "
                f"| {_fmt_s(r.self_b_s).strip()} | {_fmt_s(r.delta_self_s).strip()} | {ratio} |"
            )
        return "\n".join(lines)
    lines = [
        f"{'span':32s} {'count a':>8s} {'count b':>8s} {'self a':>11s} "
        f"{'self b':>11s} {'Δ self':>11s} {'cum b/a':>8s}"
    ]
    for r in rows:
        ratio = f"{r.cum_ratio:7.2f}x" if r.cum_ratio is not None else "     new"
        lines.append(
            f"{r.name:32s} {r.count_a:8d} {r.count_b:8d} {_fmt_s(r.self_a_s)} "
            f"{_fmt_s(r.self_b_s)} {_fmt_s(r.delta_self_s)} {ratio}"
        )
    return "\n".join(lines)
