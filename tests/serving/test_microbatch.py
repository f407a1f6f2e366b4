"""MicroBatcher / concurrent-submission tests.

Concurrency note: submission *order* is nondeterministic under a thread
pool, so these tests use pre-profiled feature requests — each response
depends only on its own request (curves are pure functions of the
profile), which is exactly why cross-thread serving can still meet the
bitwise bar per request.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.dataset import features_at_max
from repro.obs import registry_from_json
from repro.serving import MicroBatcher, SelectionRequest, SelectionService
from repro.workloads import get_workload

from tests.serving.asserts import assert_online_results_identical


@pytest.fixture()
def profiled_requests(quiet_pipeline):
    """Feature-vector requests profiled once on the quiet device."""
    requests = []
    for name in ("lammps", "lstm", "resnet50"):
        fv, p_max, t_max = features_at_max(quiet_pipeline.device, get_workload(name))
        requests.append(
            SelectionRequest.from_features(fv, t_max, power_at_max_w=p_max, name=name)
        )
    return requests


class TestSubmit:
    @pytest.mark.parametrize("n_workers", [1, 2, 8])
    def test_threaded_submit_matches_direct_flush(
        self, quiet_pipeline, profiled_requests, n_workers
    ):
        """Every future resolves to the same response a direct flush gives."""
        expected = {
            req.name: SelectionService(quiet_pipeline).select_one(req)
            for req in profiled_requests
        }
        stream = profiled_requests * 8  # 24 submissions
        with SelectionService(quiet_pipeline, batch_window_s=0.01) as service:
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                futures = list(pool.map(service.submit, stream))
            responses = [f.result(timeout=30) for f in futures]
        for req, response in zip(stream, responses):
            assert response.name == req.name
            assert_online_results_identical(
                response.to_online_result(), expected[req.name].to_online_result()
            )

    def test_submissions_coalesce_into_batches(self, quiet_pipeline, profiled_requests):
        """Requests landing inside one window share a flush."""
        with SelectionService(quiet_pipeline, batch_window_s=0.25) as service:
            futures = [service.submit(req) for req in profiled_requests * 4]
            for f in futures:
                f.result(timeout=30)
            stats = service.stats()
        assert stats.requests == 12
        # The dispatcher may split the stream, but a per-request flush
        # pattern would mean the window never coalesced anything.
        assert stats.batches < stats.requests
        assert stats.max_batch_size > 1

    def test_max_batch_size_respected(self, quiet_pipeline, profiled_requests):
        with SelectionService(
            quiet_pipeline, max_batch_size=2, batch_window_s=0.25
        ) as service:
            futures = [service.submit(req) for req in profiled_requests * 4]
            for f in futures:
                f.result(timeout=30)
            assert service.stats().max_batch_size <= 2

    def test_concurrent_select_many_is_serialized(self, quiet_pipeline, profiled_requests):
        """Racing synchronous flushes never corrupt responses or counters."""
        service = SelectionService(quiet_pipeline)
        expected = {
            req.name: service.select_one(req) for req in profiled_requests
        }
        errors = []

        def worker():
            try:
                for _ in range(5):
                    for req, resp in zip(
                        profiled_requests, service.select_many(profiled_requests)
                    ):
                        assert_online_results_identical(
                            resp.to_online_result(), expected[req.name].to_online_result()
                        )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # 3 initial + 6 threads * 5 rounds * 3 requests
        assert service.stats().requests == 3 + 6 * 5 * 3


class TestThreadedStress:
    def test_every_entry_point_at_once(self, quiet_pipeline, profiled_requests):
        """All public entry points race on one service and none interferes.

        Submitters feed the micro-batcher while other threads flush
        synchronously, read stats and export the metrics registry, clear
        the cache and refresh the (unchanged) models.  A lock-order
        inversion between the service, batcher, cache and metrics locks
        shows up as a hang, which the join/result timeouts turn into a
        failure; a lost update shows up in the counters or the bits.
        """
        names = [req.name for req in profiled_requests]
        direct = SelectionService(quiet_pipeline)
        expected = {req.name: direct.select_one(req) for req in profiled_requests}
        n_submitters, rounds = 4, 8
        # Three distinct profiles through a two-entry cache: it evicts.
        cache_size = 2
        service = SelectionService(
            quiet_pipeline, cache_size=cache_size, batch_window_s=0.001
        )
        errors: list[BaseException] = []
        submitted: list[tuple[str, object]] = []
        flushed: list[tuple[str, object]] = []
        cache_entries: list[int] = []
        done = threading.Event()

        def guarded(fn):
            def run():
                try:
                    fn()
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            return run

        def submitter():
            for _ in range(rounds):
                for req in profiled_requests:
                    submitted.append((req.name, service.submit(req)))

        def flusher():
            for _ in range(rounds):
                flushed.extend(zip(names, service.select_many(profiled_requests)))

        def refresher():
            for _ in range(rounds):
                service.refresh_models()
                time.sleep(0.001)

        def observer():
            while not done.is_set():
                cache_entries.append(service.stats().cache_entries)
                service.metrics.to_json()
                service.metrics.to_prometheus_text()
                time.sleep(0.001)

        def clearer():
            while not done.is_set():
                service.clear_cache()
                time.sleep(0.001)

        # Daemon threads, and close() only once nothing hung: a deadlocked
        # run must fail on its timeouts, not hang the test process.
        producers = [
            threading.Thread(target=guarded(submitter), daemon=True)
            for _ in range(n_submitters)
        ]
        producers += [
            threading.Thread(target=guarded(f), daemon=True) for f in (flusher, refresher)
        ]
        background = [
            threading.Thread(target=guarded(f), daemon=True) for f in (observer, clearer)
        ]
        try:
            for t in producers + background:
                t.start()
            deadline = time.monotonic() + 60
            for t in producers:
                t.join(timeout=max(deadline - time.monotonic(), 0))
            assert not [t for t in producers if t.is_alive()], "thread hung"
            responses = [(name, future.result(timeout=60)) for name, future in submitted]
        finally:
            done.set()
            for t in background:
                t.join(timeout=10)
        assert not [t for t in background if t.is_alive()], "thread hung"
        service.close()
        assert not errors, errors

        n_requests = (n_submitters + 1) * rounds * len(profiled_requests)
        assert len(responses) + len(flushed) == n_requests
        for name, response in responses + flushed:
            assert response.name == name
            assert_online_results_identical(
                response.to_online_result(), expected[name].to_online_result()
            )
        stats = service.stats()
        assert stats.requests == n_requests
        assert cache_entries and max(cache_entries + [stats.cache_entries]) <= cache_size
        snapshot = service.metrics.to_json()
        assert registry_from_json(snapshot).to_json() == snapshot


class _RecordingService:
    """select_many stub that records batch sizes and simulates flush cost."""

    def __init__(self, delay_s: float = 0.0) -> None:
        self.delay_s = delay_s
        self.batches: list[int] = []

    def select_many(self, requests):
        self.batches.append(len(requests))
        if self.delay_s:
            time.sleep(self.delay_s)
        return list(requests)


class TestBurstLatency:
    def test_burst_drains_all_pending_per_wakeup(self):
        """A burst queued during a slow flush drains in back-to-back
        max_batch_size chunks — paying the batch window once, not once
        per chunk (and never once per request)."""
        service = _RecordingService(delay_s=0.5)
        batcher = MicroBatcher(service, max_batch_size=4, batch_window_s=0.05)
        try:
            start = time.monotonic()
            first = batcher.submit("warm")
            time.sleep(0.2)  # lands mid-flush of the first batch
            burst = [batcher.submit(i) for i in range(6)]
            for f in (first, *burst):
                f.result(timeout=10)
            elapsed = time.monotonic() - start
        finally:
            batcher.close()
        assert service.batches == [1, 4, 2]
        # 3 flushes + one window; a per-request dispatcher would need
        # 7 x 0.5s of flush time alone.
        assert elapsed < 2.5

    def test_full_batch_skips_window_wait(self):
        """Once the batch is full, waiting out the window is pure latency."""
        service = _RecordingService()
        batcher = MicroBatcher(service, max_batch_size=2, batch_window_s=30.0)
        try:
            futures = [batcher.submit(i) for i in range(2)]
            for f in futures:
                f.result(timeout=10)
        finally:
            batcher.close()
        assert service.batches == [2]


class TestLifecycle:
    def test_submit_after_close_raises(self, quiet_pipeline, profiled_requests):
        batcher = MicroBatcher(SelectionService(quiet_pipeline))
        batcher.submit(profiled_requests[0]).result(timeout=30)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(profiled_requests[0])

    def test_close_drains_pending(self, quiet_pipeline, profiled_requests):
        service = SelectionService(quiet_pipeline, batch_window_s=0.5)
        futures = [service.submit(req) for req in profiled_requests]
        service.close()  # must flush the open window, not drop it
        for f in futures:
            assert f.result(timeout=5) is not None

    def test_service_reusable_after_close(self, quiet_pipeline, profiled_requests):
        service = SelectionService(quiet_pipeline)
        service.submit(profiled_requests[0]).result(timeout=30)
        service.close()
        # A new dispatcher spins up lazily on the next submit.
        assert service.submit(profiled_requests[1]).result(timeout=30).name == "lstm"
        service.close()

    def test_close_idempotent(self, quiet_pipeline):
        service = SelectionService(quiet_pipeline)
        service.close()
        service.close()
