"""SelectionService correctness: the bitwise-equivalence bar and friends.

The tentpole contract: batched + cached serving produces responses
bitwise-identical to a sequential ``run_online`` loop over the same
request stream.  Everything here compares with exact equality — no
tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import features_at_max
from repro.core.energy import ED2P, EDP
from repro.gpusim import GA100, NoiseModel, SimulatedGPU
from repro.serving import SelectionRequest, SelectionService
from repro.workloads import get_workload

from tests.golden.tiny_pipeline import MAX_SAMPLES_PER_RUN, make_tiny_pipeline
from tests.serving.asserts import assert_online_results_identical

EVAL_NAMES = ("lammps", "lstm", "resnet50", "lammps", "lstm", "lammps")


def sequential_baseline(pipeline, names, *, threshold=None):
    """The reference: one run_online call per request, in order."""
    return [pipeline.run_online(get_workload(n), threshold=threshold) for n in names]


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("chunking", ["one_flush", "per_request", "mixed"])
    def test_batched_equals_sequential_loop(self, pipeline_pair, chunking):
        """Same stream, any flush partition → bitwise-identical results."""
        seq_pipe, srv_pipe = pipeline_pair
        expected = sequential_baseline(seq_pipe, EVAL_NAMES)

        service = SelectionService(srv_pipe)
        requests = [SelectionRequest.from_workload(get_workload(n)) for n in EVAL_NAMES]
        if chunking == "one_flush":
            chunks = [requests]
        elif chunking == "per_request":
            chunks = [[r] for r in requests]
        else:
            chunks = [requests[:2], requests[2:5], requests[5:]]
        responses = [resp for chunk in chunks for resp in service.select_many(chunk)]

        assert len(responses) == len(expected)
        for response, want in zip(responses, expected):
            assert_online_results_identical(response.to_online_result(), want)

    def test_threshold_variant_equivalence(self, pipeline_pair):
        seq_pipe, srv_pipe = pipeline_pair
        expected = sequential_baseline(seq_pipe, EVAL_NAMES, threshold=0.03)
        service = SelectionService(srv_pipe, threshold=0.03)
        responses = service.select_many(
            [SelectionRequest.from_workload(get_workload(n)) for n in EVAL_NAMES]
        )
        for response, want in zip(responses, expected):
            assert_online_results_identical(response.to_online_result(), want)

    def test_run_online_many_equals_loop(self, pipeline_pair):
        """The pipeline-level wrapper honours the same contract."""
        seq_pipe, srv_pipe = pipeline_pair
        expected = sequential_baseline(seq_pipe, EVAL_NAMES)
        got = srv_pipe.run_online_many([get_workload(n) for n in EVAL_NAMES])
        for result, want in zip(got, expected):
            assert_online_results_identical(result, want)

    def test_cached_second_pass_identical(self, quiet_pipeline):
        """On a quiet device the second pass is served from cache, bitwise."""
        service = SelectionService(quiet_pipeline)
        requests = [
            SelectionRequest.from_workload(get_workload(n))
            for n in ("lammps", "lstm", "resnet50")
        ]
        first = service.select_many(requests)
        second = service.select_many(requests)
        assert all(not r.from_cache for r in first)
        assert all(r.from_cache for r in second)
        for a, b in zip(first, second):
            assert_online_results_identical(b.to_online_result(), a.to_online_result())

    def test_features_request_matches_manual_pipeline_math(self, pipeline_pair):
        """Pre-profiled requests reproduce the prediction stage exactly."""
        seq_pipe, srv_pipe = pipeline_pair
        expected = seq_pipe.run_online(get_workload("lstm"))
        # Profile on the *other* identically-seeded device, then hand the
        # profile to the service — only prediction+selection remain.
        fv, p_max, t_max = features_at_max(srv_pipe.device, get_workload("lstm"))
        service = SelectionService(srv_pipe)
        response = service.select_one(
            SelectionRequest.from_features(fv, t_max, power_at_max_w=p_max, name="lstm")
        )
        assert_online_results_identical(response.to_online_result(), expected)


class TestDedupAndCache:
    def test_intra_flush_dedup_computes_unique_curves_once(self, quiet_pipeline):
        service = SelectionService(quiet_pipeline)
        requests = [
            SelectionRequest.from_workload(get_workload(n))
            for n in ("lammps", "lammps", "lstm", "lammps", "lstm")
        ]
        responses = service.select_many(requests)
        stats = service.stats()
        # Quiet device → identical repeat profiles → 2 unique curves.
        assert stats.curves_computed == 2
        assert stats.requests == 5
        assert_online_results_identical(
            responses[1].to_online_result(), responses[0].to_online_result()
        )
        assert responses[1].name == "lammps"

    def test_cache_hits_skip_dnn_forward(self, quiet_pipeline):
        service = SelectionService(quiet_pipeline)
        req = SelectionRequest.from_workload(get_workload("resnet50"))
        service.select_one(req)
        before = service.stats().curves_computed
        service.select_one(req)
        after = service.stats()
        assert after.curves_computed == before
        assert after.cache_hits >= 1
        assert 0.0 < after.hit_rate <= 1.0

    def test_refresh_models_invalidates_cache(self, quiet_pipeline):
        service = SelectionService(quiet_pipeline)
        req = SelectionRequest.from_workload(get_workload("lammps"))
        service.select_one(req)
        assert service.stats().cache_entries == 1
        service.refresh_models()
        assert service.stats().cache_entries == 0
        response = service.select_one(req)
        assert not response.from_cache

    def test_coarse_quantization_hits_across_noisy_repeats(self, tiny_models):
        """Coarse keys make re-measured noisy profiles reuse cached curves.

        Sensor noise on this simulator moves the activity features at the
        second decimal, so 1-decimal quantization buckets repeat profiles
        of the same application together (and the default 12 decimals,
        exercised elsewhere, keeps them apart).
        """
        device = SimulatedGPU(GA100, seed=9, max_samples_per_run=MAX_SAMPLES_PER_RUN)
        pipeline = make_tiny_pipeline(tiny_models, device=device)
        service = SelectionService(pipeline, quantize_decimals=1)
        req = SelectionRequest.from_workload(get_workload("lammps"))
        service.select_one(req)
        response = service.select_one(req)  # noisy re-measurement
        assert response.from_cache
        assert service.stats().curves_computed == 1

    def test_cache_eviction_is_bounded(self, quiet_pipeline):
        service = SelectionService(quiet_pipeline, cache_size=1)
        for name in ("lammps", "lstm", "resnet50"):
            service.select_one(SelectionRequest.from_workload(get_workload(name)))
        stats = service.stats()
        assert stats.cache_entries == 1
        assert stats.cache_evictions == 2


class TestFusedService:
    """The packed engine behind the service keeps its weights and arenas."""

    @pytest.fixture()
    def profiled(self, quiet_pipeline):
        requests = []
        for name in ("lammps", "lstm", "resnet50"):
            fv, p_max, t_max = features_at_max(quiet_pipeline.device, get_workload(name))
            requests.append(
                SelectionRequest.from_features(fv, t_max, power_at_max_w=p_max, name=name)
            )
        return requests

    def test_clear_cache_forces_recompute(self, quiet_pipeline, profiled):
        service = SelectionService(quiet_pipeline)
        first = service.select_many(profiled)
        service.clear_cache()
        assert service.stats().cache_entries == 0
        again = service.select_many(profiled)
        assert all(not r.from_cache for r in again)
        # Same engine, same weights: the recompute is bitwise-stable.
        for a, b in zip(again, first):
            assert_online_results_identical(b.to_online_result(), a.to_online_result())


class TestRequestValidation:
    def test_needs_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            SelectionRequest(name="x")

    def test_rejects_both_sources(self, quiet_pipeline):
        fv, _, t_max = features_at_max(quiet_pipeline.device, get_workload("lstm"))
        with pytest.raises(ValueError, match="exactly one"):
            SelectionRequest(
                name="x", workload=get_workload("lstm"), features=fv, time_at_max_s=t_max
            )

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError, match="runs"):
            SelectionRequest.from_workload(get_workload("lstm"), runs=0)


class TestServiceConfig:
    def test_requires_fitted_pipeline(self):
        from repro.core import FrequencySelectionPipeline

        pipe = FrequencySelectionPipeline(SimulatedGPU(GA100, seed=0))
        with pytest.raises(ValueError, match="fitted"):
            SelectionService(pipe)

    def test_rejects_bad_batch_size(self, quiet_pipeline):
        with pytest.raises(ValueError, match="max_batch_size"):
            SelectionService(quiet_pipeline, max_batch_size=0)

    def test_rejects_negative_quantization(self, quiet_pipeline):
        with pytest.raises(ValueError, match="quantize_decimals"):
            SelectionService(quiet_pipeline, quantize_decimals=-1)

    def test_empty_flush(self, quiet_pipeline):
        assert SelectionService(quiet_pipeline).select_many([]) == []

    def test_objective_override(self, quiet_pipeline):
        service = SelectionService(quiet_pipeline)
        response = service.select_one(
            SelectionRequest.from_workload(get_workload("lstm")), objectives=(ED2P,)
        )
        assert set(response.selections) == {"ED2P"}
        with pytest.raises(KeyError, match="EDP"):
            response.selection("EDP")

    def test_threshold_override_per_call(self, quiet_pipeline):
        service = SelectionService(quiet_pipeline, threshold=None)
        req = SelectionRequest.from_workload(get_workload("lstm"))
        free = service.select_one(req, objectives=(EDP,))
        tight = service.select_one(req, objectives=(EDP,), threshold=0.0)
        assert tight.selection("EDP").perf_degradation == 0.0
        assert free.selection("EDP").freq_mhz <= tight.selection("EDP").freq_mhz

    def test_run_online_many_rejects_foreign_service(self, pipeline_pair):
        pipe_a, pipe_b = pipeline_pair
        service = SelectionService(pipe_a)
        with pytest.raises(ValueError, match="different pipeline"):
            pipe_b.run_online_many([get_workload("lstm")], service=service)


class TestStats:
    def test_counters_accumulate(self, quiet_pipeline):
        service = SelectionService(quiet_pipeline)
        service.select_many(
            [SelectionRequest.from_workload(get_workload(n)) for n in ("lammps", "lstm")]
        )
        service.select_one(SelectionRequest.from_workload(get_workload("lammps")))
        stats = service.stats()
        assert stats.requests == 3
        assert stats.batches == 2
        assert stats.max_batch_size == 2
        assert stats.mean_batch_size == pytest.approx(1.5)
        assert stats.measured_requests == 3
        assert stats.total_s >= 0.0
        assert stats.total_s == pytest.approx(
            stats.measure_s + stats.lookup_s + stats.predict_s + stats.select_s
        )

    def test_fresh_service_zeroed(self, quiet_pipeline):
        stats = SelectionService(quiet_pipeline).stats()
        assert stats.requests == 0
        assert stats.batches == 0
        assert stats.mean_batch_size == 0.0
        assert stats.hit_rate == 0.0
