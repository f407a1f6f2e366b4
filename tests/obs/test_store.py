"""Run-history store: append/query round-trips and bench-payload ingestion."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.store import (
    FileLock,
    LockTimeout,
    RunRecord,
    RunStore,
    record_from_bench_payload,
    tracked_metrics,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _record(bench="b", value=1.0, when=0.0, **metrics):
    metrics = metrics or {"m": value}
    return RunRecord(
        schema=1,
        bench=bench,
        config_hash="c" * 8,
        git="deadbeef",
        recorded_unix=when,
        source="test",
        metrics=metrics,
    )


class TestRunStore:
    def test_append_and_read_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "h.jsonl")
        store.append(_record(value=1.5))
        store.append(_record(value=2.5, when=1.0))
        records = store.records()
        assert len(records) == 2
        assert records[0].metrics == {"m": 1.5}
        assert records[1].recorded_unix == pytest.approx(1.0)

    def test_directory_target_gets_default_name(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(_record())
        assert (tmp_path / "run_history.jsonl").exists()

    def test_bench_filter_and_names(self, tmp_path):
        store = RunStore(tmp_path / "h.jsonl")
        store.append(_record(bench="x"))
        store.append(_record(bench="y"))
        store.append(_record(bench="x", when=2.0))
        assert len(store.records("x")) == 2
        assert store.benches() == ["x", "y"]
        assert store.latest("x").recorded_unix == pytest.approx(2.0)

    def test_trajectory_and_best_both_directions(self, tmp_path):
        store = RunStore(tmp_path / "h.jsonl")
        for i, v in enumerate((3.0, 1.0, 2.0)):
            store.append(_record(when=float(i), m=v))
        assert store.trajectory("b", "m") == [(0.0, 3.0), (1.0, 1.0), (2.0, 2.0)]
        assert store.best("b", "m") == 3.0
        assert store.best("b", "m", higher_is_better=False) == 1.0
        assert store.best("b", "absent") is None
        assert store.best("nope", "m") is None

    def test_tolerates_crash_tail(self, tmp_path):
        path = tmp_path / "h.jsonl"
        store = RunStore(path)
        store.append(_record())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"bench": "trunc')  # interrupted mid-write
        assert len(store.records()) == 1

    def test_empty_store_reads_empty(self, tmp_path):
        assert RunStore(tmp_path / "missing.jsonl").records() == []


class TestFileLock:
    """Inter-process append lock: clean release and stale-pid takeover."""

    def test_append_leaves_no_lock_file(self, tmp_path):
        store = RunStore(tmp_path / "h.jsonl")
        store.append(_record())
        assert not store.lock_path.exists()

    def test_context_manager_releases_on_exception(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with pytest.raises(RuntimeError):
            with lock:
                assert (tmp_path / "x.lock").exists()
                raise RuntimeError("mid-append crash")
        assert not (tmp_path / "x.lock").exists()

    def test_stale_lock_from_dead_pid_is_taken_over(self, tmp_path):
        path = tmp_path / "h.jsonl"
        # Fabricate the crash artifact: a lock file naming a pid that no
        # longer exists (max pid + spawn churn makes 2**22+1 safely dead).
        dead_pid = 2**22 + 1
        store = RunStore(path, lock_timeout_s=2.0)
        store.lock_path.write_text(str(dead_pid), encoding="ascii")
        store.append(_record())
        assert len(store.records()) == 1
        assert not store.lock_path.exists()

    def test_empty_lock_file_counts_as_stale(self, tmp_path):
        # Holder died between open and write: file exists, no pid inside.
        lock = FileLock(tmp_path / "x.lock", timeout_s=2.0)
        (tmp_path / "x.lock").write_text("", encoding="ascii")
        with lock:
            assert (tmp_path / "x.lock").read_text(encoding="ascii").strip() != ""

    def test_live_holder_times_out(self, tmp_path):
        import os

        # Our own pid is alive by definition — a waiter must not steal it.
        (tmp_path / "x.lock").write_text(str(os.getpid()), encoding="ascii")
        lock = FileLock(tmp_path / "x.lock", timeout_s=0.2, poll_s=0.02)
        with pytest.raises(LockTimeout):
            lock.acquire()
        assert (tmp_path / "x.lock").exists()

    def test_reentry_after_release(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with lock:
            pass
        with lock:
            assert (tmp_path / "x.lock").exists()
        assert not (tmp_path / "x.lock").exists()


class TestTrackedMetrics:
    """The one reader over the three *checked-in* BENCH payloads."""

    def test_serving_payload_tracks_every_scenario(self):
        payload = json.loads((REPO_ROOT / "BENCH_serving.json").read_text())
        rows = tracked_metrics(payload)
        names = {r.metric for r in rows}
        assert {f"{s}.selections_per_s" for s in payload["detail"]["scenarios"]} == names
        assert all(r.higher_is_better for r in rows)

    def test_collection_payload_tracks_rates(self):
        payload = json.loads((REPO_ROOT / "BENCH_collection.json").read_text())
        rows = tracked_metrics(payload)
        assert {r.metric for r in rows} == {"runs_per_s", "samples_per_s"}

    def test_obs_payload_tracks_slowdown_lower_is_better(self):
        payload = json.loads((REPO_ROOT / "BENCH_obs.json").read_text())
        (row,) = tracked_metrics(payload)
        assert row.metric == "slowdown_vs_disabled"
        assert not row.higher_is_better

    def test_unknown_bench_rejected(self):
        with pytest.raises(ValueError, match="no metrics"):
            tracked_metrics({"bench": "mystery"})
        with pytest.raises(ValueError, match="bench"):
            tracked_metrics({})

    def test_malformed_serving_rejected(self):
        with pytest.raises(ValueError, match="no metrics"):
            tracked_metrics({"bench": "serving-batch-throughput", "metrics": {}})
        for entry in ({}, {"current": 1.0, "best": 1.0}, {"current": 1.0, "best": 1.0, "better": "up"}):
            with pytest.raises(ValueError, match="malformed"):
                tracked_metrics(
                    {"bench": "serving-batch-throughput", "metrics": {"cold.selections_per_s": entry}}
                )


class TestIngestion:
    def test_bench_payload_record(self, tmp_path):
        payload = json.loads((REPO_ROOT / "BENCH_obs.json").read_text())
        record = record_from_bench_payload(payload, source="BENCH_obs.json")
        assert record.bench == "obs-tracer-overhead"
        current = payload["metrics"]["slowdown_vs_disabled"]["current"]
        assert record.metrics["slowdown_vs_disabled"] == current
        assert record.meta["higher_is_better"]["slowdown_vs_disabled"] is False
        assert len(record.config_hash) == 64
        RunStore(tmp_path / "h.jsonl").append(record)  # serializes cleanly

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("BENCH_collection.json", "a72ce93bfb4035e51a5ee0d0e1f75f6f1c4fb2c52b99a494d72c159968050bd1"),
            ("BENCH_serving.json", "702f1de2e46589dcf919a462c75e91099194b7445aa45d6487ff548c72513793"),
            ("BENCH_obs.json", "5c03609740b39ac28c2643c51ad178837aabe9c751da6b294ed149e738bc502c"),
        ],
    )
    def test_committed_config_hashes_are_stable(self, name, digest):
        """Store history stays keyed the same across bench-file rewrites."""
        payload = json.loads((REPO_ROOT / name).read_text())
        assert record_from_bench_payload(payload).config_hash == digest
