"""Trace analytics: tree reconstruction, attribution, flamegraphs, diffs.

Unit tests drive :mod:`repro.obs.analyze` on hand-built event lists
(where every expected number is exact) and on a *golden serving trace*:
a real traced flush of the tiny pipeline, whose reconstructed tree,
flamegraph export and run-diff must reflect the serving stage structure
pinned by the instrumentation (flush -> measure/lookup/predict/select).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.analyze import (
    analysis,
    attribution,
    build_span_forest,
    critical_path,
    diff_attribution,
    forest_from_file,
    render_attribution,
    render_critical_path,
    render_diff,
    to_collapsed,
    write_collapsed,
)

from tests.golden.tiny_pipeline import make_tiny_pipeline, train_tiny_models


def _span(name, span_id, parent_id, dur, *, ts=0.0, thread="MainThread", attrs=None):
    return {
        "type": "span",
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "thread": thread,
        "ts": ts,
        "dur_s": dur,
        "attrs": attrs or {},
    }


def _event(name, span_id, parent_id, *, thread="MainThread"):
    return {
        "type": "event",
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "thread": thread,
        "ts": 0.0,
        "attrs": {},
    }


#: root(1.0s) -> a(0.6) -> leaf(0.2); root -> b(0.1); children close
#: before parents, exactly as the tracer emits them.
def _sample_events():
    return [
        _span("leaf", 3, 2, 0.2),
        _span("a", 2, 1, 0.6),
        _span("b", 4, 1, 0.1),
        _event("tick", 5, 1),
        _span("root", 1, None, 1.0),
    ]


class TestBuildForest:
    def test_reconstructs_nesting_despite_close_order(self):
        roots = build_span_forest(_sample_events())
        assert [r.name for r in roots] == ["root"]
        root = roots[0]
        assert [c.name for c in root.children] == ["a", "b", "tick"]
        assert [c.name for c in root.children[0].children] == ["leaf"]

    def test_children_sorted_by_start_order(self):
        roots = build_span_forest(_sample_events())
        ids = [c.span_id for c in roots[0].children]
        assert ids == sorted(ids)

    def test_self_time_subtracts_span_children_only(self):
        root = build_span_forest(_sample_events())[0]
        # 1.0 - (0.6 + 0.1); the instant event owns no time.
        assert root.self_s == pytest.approx(0.3)
        a = root.children[0]
        assert a.self_s == pytest.approx(0.4)
        assert a.children[0].self_s == pytest.approx(0.2)

    def test_self_times_sum_to_root_cumulative(self):
        root = build_span_forest(_sample_events())[0]
        assert sum(n.self_s for n in root.walk()) == pytest.approx(root.dur_s, abs=1e-12)

    def test_orphaned_parent_promotes_to_root(self):
        # Ring eviction dropped span 1: its children must still analyze.
        events = [_span("leaf", 3, 2, 0.2), _span("a", 2, 1, 0.6)]
        roots = build_span_forest(events)
        assert [r.name for r in roots] == ["a"]
        assert [c.name for c in roots[0].children] == ["leaf"]

    def test_multiple_roots_ordered(self):
        events = [_span("x", 1, None, 0.1), _span("y", 2, None, 0.2)]
        assert [r.name for r in build_span_forest(events)] == ["x", "y"]

    def test_event_only_stream(self):
        roots = build_span_forest([_event("tick", 1, None)])
        assert roots[0].kind == "event"
        assert critical_path(roots) == []


class TestAttribution:
    def test_counts_and_totals(self):
        rows = attribution(build_span_forest(_sample_events()))
        assert rows["root"] == {
            "count": 1,
            "cum_s": pytest.approx(1.0),
            "self_s": pytest.approx(0.3),
            "mean_s": pytest.approx(1.0),
            "p50_s": pytest.approx(1.0),
            "p90_s": pytest.approx(1.0),
            "p95_s": pytest.approx(1.0),
            "p99_s": pytest.approx(1.0),
            "max_cum_s": pytest.approx(1.0),
        }
        assert "tick" not in rows  # events own no time
        assert analysis(build_span_forest(_sample_events()))["events"] == {"tick": 1}

    def test_repeated_names_aggregate(self):
        events = [
            _span("work", 2, 1, 0.25),
            _span("outer", 1, None, 0.5),
            _span("work", 4, 3, 0.75),
            _span("outer", 3, None, 1.0),
        ]
        rows = attribution(build_span_forest(events))
        assert rows["work"]["count"] == 2
        assert rows["work"]["cum_s"] == pytest.approx(1.0)
        assert rows["outer"]["self_s"] == pytest.approx(0.5)

    def test_render_ranks_by_self_time(self):
        text = render_attribution(build_span_forest(_sample_events()))
        assert text.index("a") < text.index("root") or text.index("leaf") < text.index("b")
        assert "self" in text.splitlines()[0]


class TestCriticalPath:
    def test_follows_heaviest_child(self):
        path = critical_path(build_span_forest(_sample_events()))
        assert [n.name for n in path] == ["root", "a", "leaf"]

    def test_picks_heaviest_root(self):
        events = [_span("small", 1, None, 0.1), _span("big", 2, None, 5.0)]
        assert [n.name for n in critical_path(build_span_forest(events))] == ["big"]

    def test_render_mentions_every_hop(self):
        text = render_critical_path(build_span_forest(_sample_events()))
        for name in ("root", "a", "leaf"):
            assert name in text


class TestCollapsed:
    def test_stacks_weighted_by_self_nanoseconds(self):
        lines = to_collapsed(build_span_forest(_sample_events())).splitlines()
        table = dict(line.rsplit(" ", 1) for line in lines)
        assert table["root"] == str(round(0.3 * 1e9))
        assert table["root;a"] == str(round(0.4 * 1e9))
        assert table["root;a;leaf"] == str(round(0.2 * 1e9))
        assert table["root;b"] == str(round(0.1 * 1e9))

    def test_identical_stacks_summed(self):
        events = [
            _span("work", 2, 1, 0.25),
            _span("work", 3, 1, 0.25),
            _span("outer", 1, None, 1.0),
        ]
        lines = to_collapsed(build_span_forest(events)).splitlines()
        table = dict(line.rsplit(" ", 1) for line in lines)
        assert table["outer;work"] == str(round(0.5 * 1e9))

    def test_negative_self_clamped_to_zero(self):
        # Timer granularity can make children sum past the parent.
        events = [_span("c", 2, 1, 0.6), _span("p", 1, None, 0.5)]
        table = dict(
            line.rsplit(" ", 1)
            for line in to_collapsed(build_span_forest(events)).splitlines()
        )
        assert table["p"] == "0"

    def test_write_collapsed_round_trips(self, tmp_path):
        out = write_collapsed(build_span_forest(_sample_events()), tmp_path / "fg.collapsed")
        assert out.read_text().strip().splitlines() == to_collapsed(
            build_span_forest(_sample_events())
        ).splitlines()


class TestDiff:
    def test_delta_table_sorted_by_self_movement(self):
        a = [_span("fast", 1, None, 0.1), _span("slow", 2, None, 1.0)]
        b = [_span("fast", 1, None, 0.1), _span("slow", 2, None, 3.0)]
        rows = diff_attribution(a, b)
        assert rows[0].name == "slow"
        assert rows[0].delta_self_s == pytest.approx(2.0)
        assert rows[0].cum_ratio == pytest.approx(3.0)
        assert rows[1].delta_self_s == pytest.approx(0.0)

    def test_span_only_in_one_run(self):
        rows = diff_attribution([], [_span("new", 1, None, 0.5)])
        assert rows[0].count_a == 0 and rows[0].count_b == 1
        assert rows[0].cum_ratio is None

    def test_render_text_and_markdown(self):
        a = [_span("phase", 1, None, 1.0)]
        b = [_span("phase", 1, None, 2.0)]
        rows = diff_attribution(a, b)
        assert "phase" in render_diff(rows)
        md = render_diff(rows, fmt="markdown")
        assert md.splitlines()[0].startswith("| span |")
        assert "`phase`" in md


# ----------------------------------------------------------------------
# Golden serving trace: a real traced flush analyzes end to end.
# ----------------------------------------------------------------------
_STAGES = ("serving.measure", "serving.lookup", "serving.predict", "serving.select")


@pytest.fixture(scope="module")
def pipeline():
    return make_tiny_pipeline(train_tiny_models())


def _traced_flush(pipeline, requests):
    from repro.serving import SelectionService

    tracer = obs.configure(ring_size=65536)
    try:
        SelectionService(pipeline, max_batch_size=64).select_many(requests)
        return tracer.events()
    finally:
        obs.disable()


def _feature_requests(n, seed):
    import numpy as np

    from repro.core.dataset import FeatureVector
    from repro.serving import SelectionRequest

    rng = np.random.default_rng(seed)
    return [
        SelectionRequest.from_features(
            FeatureVector(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9)), 1410.0),
            float(rng.uniform(0.5, 10.0)),
            name=f"app-{i}",
        )
        for i in range(n)
    ]


class TestGoldenServingTrace:
    def test_flush_tree_has_stage_children_with_attrs(self, pipeline):
        events = _traced_flush(pipeline, _feature_requests(8, seed=7))
        roots = build_span_forest(events)
        flushes = [r for r in roots if r.name == "serving.flush"]
        assert len(flushes) == 1
        flush = flushes[0]
        assert [c.name for c in flush.children] == list(_STAGES)
        assert flush.attrs["batch"] == 8
        assert flush.attrs["unique"] == flush.attrs["hits"] + flush.attrs["curves_computed"]
        predict = flush.children[2]
        assert predict.attrs["misses"] == flush.attrs["curves_computed"]
        # Stage times nest inside the flush: self + children == cum.
        assert sum(n.self_s for n in flush.walk()) == pytest.approx(flush.dur_s, abs=1e-9)

    def test_flamegraph_export_contains_stage_stacks(self, pipeline, tmp_path):
        events = _traced_flush(pipeline, _feature_requests(8, seed=7))
        out = write_collapsed(build_span_forest(events), tmp_path / "serving.collapsed")
        stacks = {line.rsplit(" ", 1)[0] for line in out.read_text().splitlines() if line}
        for stage in _STAGES:
            assert f"serving.flush;{stage}" in stacks
        # Every weight is a non-negative integer (flamegraph.pl contract).
        for line in out.read_text().splitlines():
            if line:
                assert int(line.rsplit(" ", 1)[1]) >= 0

    def test_diff_of_cold_vs_hot_flush_shows_predict_drop(self, pipeline):
        cold = _traced_flush(pipeline, _feature_requests(8, seed=7))
        # Same service would be hot; a fresh one re-run on *repeated*
        # requests dedups to one curve, so predict work collapses.
        hot = _traced_flush(pipeline, _feature_requests(1, seed=7) * 8)
        rows = {r.name: r for r in diff_attribution(cold, hot)}
        assert rows["serving.flush"].count_a == rows["serving.flush"].count_b == 1
        cold_misses = rows["serving.predict"]
        assert cold_misses.count_a == cold_misses.count_b == 1

    def test_cli_trace_file_round_trip(self, pipeline, tmp_path):
        from repro.serving import SelectionService

        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        try:
            SelectionService(pipeline, max_batch_size=64).select_many(
                _feature_requests(4, seed=3)
            )
        finally:
            obs.disable()
        forest = forest_from_file(trace)
        assert [n.name for n in critical_path(forest)][0] == "serving.flush"


def assert_summary_matches_records(report: dict, events: list[dict]) -> None:
    """Every per-name summary number equals the one computed directly
    over that name's flat ``dur_s`` records (stream order)."""
    import numpy as np

    durations: dict[str, list[float]] = {}
    instants: dict[str, int] = {}
    for record in events:
        if record["type"] == "span":
            durations.setdefault(record["name"], []).append(record["dur_s"])
        else:
            instants[record["name"]] = instants.get(record["name"], 0) + 1
    assert set(report["spans"]) == set(durations)
    for name, durs in durations.items():
        row, arr = report["spans"][name], np.asarray(durs)
        assert row["count"] == len(durs)
        assert row["cum_s"] == arr.sum()
        assert row["mean_s"] == arr.mean()
        assert row["max_cum_s"] == arr.max()
        for q in (50, 90, 95, 99):
            assert row[f"p{q}_s"] == np.percentile(arr, q)
    assert report["events"] == instants
    assert report["records"] == len(events)


class TestSummaryColumns:
    def test_golden_serving_trace_matches_flat_records(self, pipeline, tmp_path):
        from repro.serving import SelectionService

        trace = tmp_path / "t.jsonl"
        obs.configure(trace)
        try:
            service = SelectionService(pipeline, max_batch_size=8)
            for seed in range(3):
                service.select_many(_feature_requests(8, seed=seed))
            service.clear_cache()
            service.select_many(_feature_requests(8, seed=0))
        finally:
            obs.disable()
        events = obs.load_events(trace)
        assert_summary_matches_records(analysis(forest_from_file(trace)), events)
        assert analysis(forest_from_file(trace))["spans"]["serving.flush"]["count"] == 4

    def test_events_and_threads_counted(self):
        events = _sample_events() + [_span("other", 6, None, 0.5, thread="w-1")]
        report = analysis(build_span_forest(events))
        assert report["threads"] == 2
        assert_summary_matches_records(report, events)
        text = render_attribution(build_span_forest(events))
        assert "events:" in text and "tick" in text
