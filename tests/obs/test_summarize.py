"""Per-span trace summary of `repro obs analyze`: counts, latency
percentiles, instant events, rendering, corrupt-tail tolerance."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.analyze import (
    analysis,
    build_span_forest,
    forest_from_file,
    load_events,
    render_attribution,
)


def _summary(events):
    return analysis(build_span_forest(events))


def _span(name, dur, thread="MainThread"):
    return {"type": "span", "name": name, "dur_s": dur, "thread": thread}


class TestSummarize:
    def test_groups_spans_by_name(self):
        events = [_span("a", 0.1), _span("a", 0.3), _span("b", 0.2)]
        summary = _summary(events)
        assert summary["spans"]["a"]["count"] == 2
        assert summary["spans"]["a"]["cum_s"] == pytest.approx(0.4)
        assert summary["spans"]["a"]["mean_s"] == pytest.approx(0.2)
        assert summary["spans"]["a"]["max_cum_s"] == pytest.approx(0.3)
        assert summary["spans"]["b"]["count"] == 1

    def test_percentiles_from_durations(self):
        events = [_span("a", d) for d in (0.1, 0.2, 0.3, 0.4, 0.5)]
        row = _summary(events)["spans"]["a"]
        assert row["p50_s"] == pytest.approx(0.3)
        assert row["p90_s"] == pytest.approx(0.46)
        assert row["p95_s"] == pytest.approx(0.48)
        assert row["p99_s"] <= row["max_cum_s"]
        assert row["p50_s"] <= row["p95_s"] <= row["p99_s"]

    def test_summary_is_json_ready(self):
        events = [_span("a", 0.1), {"type": "event", "name": "e", "thread": "t"}]
        payload = json.dumps(_summary(events))
        restored = json.loads(payload)
        assert restored["spans"]["a"]["p95_s"] == pytest.approx(0.1)
        assert restored["events"] == {"e": 1}

    def test_counts_instant_events_and_threads(self):
        events = [
            _span("a", 0.1, thread="w-0"),
            _span("a", 0.1, thread="w-1"),
            {"type": "event", "name": "early_stop", "thread": "w-0"},
        ]
        summary = _summary(events)
        assert summary["events"] == {"early_stop": 1}
        assert summary["threads"] == 2
        assert summary["records"] == 3

    def test_render_orders_by_total_and_honours_top(self):
        events = [_span("small", 0.001), _span("big", 1.0), _span("big", 1.0)]
        forest = build_span_forest(events)
        text = render_attribution(forest)
        assert text.index("big") < text.index("small")
        assert "small" not in render_attribution(forest, top=1)
        assert "p95" in text.splitlines()[0]
        assert text.splitlines()[-1] == "3 records across 1 thread(s)"


class TestLoadEvents:
    def test_round_trip_from_tracer(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path)
        with obs.span("x"):
            obs.event("tick")
        obs.disable()
        events = load_events(path)
        assert [e["name"] for e in events] == ["tick", "x"]
        assert analysis(forest_from_file(path))["spans"]["x"]["count"] == 1

    def test_tolerates_truncated_final_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(_span("a", 0.1)) + "\n" + '{"type": "sp')
        assert [e["name"] for e in load_events(path)] == ["a"]

    def test_rejects_corruption_mid_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('garbage\n' + json.dumps(_span("a", 0.1)) + "\n")
        with pytest.raises(json.JSONDecodeError):
            load_events(path)


class TestEndToEndTrace:
    """One traced process covering collection, training, serving, and
    scheduling must analyze with all four span families present."""

    def test_all_phases_visible_in_one_summary(self, tmp_path, tiny_models):
        from repro.cluster import FIFOScheduler, GPUNode, Job
        from repro.cluster.policy import StaticClockPolicy
        from repro.gpusim import GA100
        from repro.nn.network import FeedForwardNetwork
        from repro.nn.training import TrainConfig, train
        from repro.serving import SelectionService
        from repro.workloads import get_workload
        from tests.golden.tiny_pipeline import make_tiny_pipeline

        import numpy as np

        path = tmp_path / "trace.jsonl"
        obs.configure(path)
        try:
            # Training epochs.
            rng = np.random.default_rng(0)
            net = FeedForwardNetwork.build(3, (8,), 1, seed=0)
            train(net, rng.normal(size=(64, 3)), rng.normal(size=64),
                  config=TrainConfig(epochs=3, validation_split=0.25), seed=0)
            # Telemetry sampling + serving flush stages (workload-handle
            # requests profile on-device inside the flush).
            pipeline = make_tiny_pipeline(tiny_models)
            service = SelectionService(pipeline)
            from repro.serving import SelectionRequest

            service.select_many(
                [SelectionRequest.from_workload(get_workload("lammps"))]
            )
            # Scheduler decisions.
            node = GPUNode(0, GA100, gpus_per_node=1, seed=5, max_samples_per_run=4)
            jobs = [Job(job_id=i, workload=get_workload("dgemm"), arrival_s=0.0) for i in range(2)]
            FIFOScheduler([node], StaticClockPolicy(1000.0)).run(jobs)
        finally:
            obs.disable()

        forest = forest_from_file(path)
        spans = analysis(forest)["spans"]
        for family in (
            "telemetry.cell",      # telemetry sampling
            "nn.epoch",            # training epochs
            "serving.flush",       # serving flush...
            "serving.measure",     # ...and its stages
            "serving.predict",
            "serving.select",
            "cluster.decide",      # scheduler decisions
            "cluster.place",
        ):
            assert family in spans, f"missing span family {family}"
            row = spans[family]
            assert row["count"] >= 1
            assert 0.0 <= row["p50_s"] <= row["p99_s"] <= row["max_cum_s"]
        assert spans["nn.epoch"]["count"] == 3
        assert spans["cluster.decide"]["count"] == 2
        text = render_attribution(forest)
        assert "nn.epoch" in text and "cluster.decide" in text
