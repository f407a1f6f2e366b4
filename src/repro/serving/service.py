"""Batched, cached online frequency-selection service.

The paper's online phase (Section 5, Algorithm 1) decides one unseen
application at a time; a datacenter deployment sees a *stream* of
applications, most of which it has seen before.  The
:class:`SelectionService` serves that stream on top of a trained
:class:`~repro.core.pipeline.FrequencySelectionPipeline`:

* **Batching** — a flush of n requests runs *one* packed forward pass
  per model through the inference engine
  (:class:`~repro.serving.engine.FusedInferenceEngine`), which replays
  the reference pipeline bitwise, instead of n sequential curve
  predictions.
* **Caching** — prediction curves are memoized in a bounded LRU keyed by
  the quantized feature vector + device architecture + model
  fingerprints, so repeated (or near-identical, under coarse
  quantization) applications skip DNN inference entirely.
* **Dedup** — identical requests inside one flush share a single curve
  computation and a single Algorithm 1 pass.

Hard correctness bar, asserted by ``tests/serving``: every batched or
cached response is bitwise-identical to what a sequential
``run_online`` loop would have produced for the same request stream.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.dataset import FeatureVector, features_at_max
from repro.core.energy import ED2P, EDP, ObjectiveFunction, energy_from_power_time
from repro.units import JoulesArray, MHzArray, Seconds, SecondsArray, Watts, WattsArray
from repro.core.pipeline import FrequencySelectionPipeline, OnlineResult
from repro.core.selection import SelectionResult, select_optimal_frequency_many
from repro.obs.metrics import HistogramSnapshot, MetricsRegistry
from repro.serving.cache import LRUCache
from repro.serving.engine import FusedInferenceEngine
from repro.workloads.base import Workload

__all__ = ["SelectionRequest", "ServiceResponse", "ServiceStats", "SelectionService", "STAGES"]

#: Sentinel distinguishing "no threshold override" from "override to None".
_UNSET = object()


@dataclass(frozen=True)
class SelectionRequest:
    """One application asking the service for a clock.

    Either a ``workload`` handle (the service profiles it once at the
    default clock, exactly as ``run_online`` would) or a pre-profiled
    ``features`` vector with the measured ``time_at_max_s`` (and
    optionally ``power_at_max_w``, reporting-only).
    """

    name: str
    workload: Workload | None = None
    features: FeatureVector | None = None
    time_at_max_s: Seconds | None = None
    #: Measured power at f_max; reporting-only (0.0 when unknown).
    power_at_max_w: Watts = 0.0
    size: int | None = None
    runs: int = 1

    def __post_init__(self) -> None:
        if (self.workload is None) == (self.features is None):
            raise ValueError("request needs exactly one of workload= or features=")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")

    @classmethod
    def from_workload(
        cls, workload: Workload, *, size: int | None = None, runs: int = 1
    ) -> "SelectionRequest":
        """Request that has the service profile ``workload`` at f_max."""
        return cls(name=workload.name, workload=workload, size=size, runs=runs)

    @classmethod
    def from_features(
        cls,
        features: FeatureVector,
        time_at_max_s: Seconds,
        *,
        power_at_max_w: Watts = 0.0,
        name: str = "request",
    ) -> "SelectionRequest":
        """Request for an application already profiled at the default clock."""
        return cls(
            name=name,
            features=features,
            time_at_max_s=float(time_at_max_s),
            power_at_max_w=float(power_at_max_w),
        )


@dataclass(frozen=True)
class ServiceResponse:
    """Everything the service decided for one request.

    Field-compatible with :class:`~repro.core.pipeline.OnlineResult`
    (see :meth:`to_online_result`), plus service provenance flags.
    """

    name: str
    freqs_mhz: MHzArray
    features: FeatureVector
    measured_power_at_max_w: Watts
    measured_time_at_max_s: Seconds
    power_w: WattsArray
    time_s: SecondsArray
    energy_j: JoulesArray
    selections: dict[str, SelectionResult]
    #: Whether the curves came out of the LRU (no DNN forward this flush).
    from_cache: bool

    def selection(self, objective_name: str) -> SelectionResult:
        """Selection result for one objective by name."""
        try:
            return self.selections[objective_name]
        except KeyError:
            raise KeyError(
                f"no selection for {objective_name!r}; available: {sorted(self.selections)}"
            ) from None

    def to_online_result(self) -> OnlineResult:
        """The equivalent ``run_online`` result object."""
        return OnlineResult(
            workload=self.name,
            freqs_mhz=self.freqs_mhz,
            features=self.features,
            measured_power_at_max_w=self.measured_power_at_max_w,
            measured_time_at_max_s=self.measured_time_at_max_s,
            power_w=self.power_w,
            time_s=self.time_s,
            energy_j=self.energy_j,
            selections=self.selections,
        )


#: Flush stages in execution order (also the stage-histogram keys).
STAGES = ("measure", "lookup", "predict", "select")


class _Fanout:
    """One service instrument mirrored onto one or more registries.

    The first target is the service's private instrument (the source of
    truth for :meth:`SelectionService.stats`); any further targets are
    shared registries that aggregate across services.
    """

    __slots__ = ("_targets",)

    def __init__(self, targets) -> None:
        self._targets = tuple(targets)

    @property
    def primary(self):
        return self._targets[0]

    def inc(self, amount: float = 1.0) -> None:
        for target in self._targets:
            target.inc(amount)

    def observe(self, value: float) -> None:
        for target in self._targets:
            target.observe(value)

    def set_max(self, value: float) -> None:
        for target in self._targets:
            target.set_max(value)


@dataclass(frozen=True)
class ServiceStats:
    """Lifetime service counters plus per-stage wall time.

    The per-stage floats (``measure_s`` ...) keep their historical
    meaning — total wall time across all flushes — but are now the sums
    of per-flush :class:`~repro.obs.metrics.Histogram` observations, so
    the snapshot also carries full latency distributions in
    ``stage_latency`` (one histogram snapshot per stage, keyed
    "measure"/"lookup"/"predict"/"select").
    """

    requests: int
    batches: int
    max_batch_size: int
    measured_requests: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_entries: int
    #: Unique curve computations actually sent through the DNNs.
    curves_computed: int
    measure_s: float
    lookup_s: float
    predict_s: float
    select_s: float
    #: Per-flush latency distribution per stage.
    stage_latency: dict[str, HistogramSnapshot] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        """Average requests per flush."""
        return self.requests / self.batches if self.batches else 0.0

    @property
    def hit_rate(self) -> float:
        """LRU hit fraction over all curve lookups."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def total_s(self) -> float:
        """Wall time across all service stages."""
        return self.measure_s + self.lookup_s + self.predict_s + self.select_s

    def percentile(self, stage: str, p: float) -> float:
        """Per-flush latency percentile for one stage (p in [0, 100])."""
        try:
            snap = self.stage_latency[stage]
        except KeyError:
            raise KeyError(f"unknown stage {stage!r}; available: {STAGES}") from None
        return snap.percentile(p)


class SelectionService:
    """Thread-safe batched/cached frontend over a fitted pipeline.

    One service instance owns one device and one trained model pair.
    ``select_many`` is the synchronous batch entry point;
    :meth:`submit` feeds the background micro-batcher
    (:class:`~repro.serving.microbatch.MicroBatcher`) and returns a
    future.  All public entry points may be called from many threads;
    selection work is serialized internally (the device and its RNG are
    stateful), which is also what makes workload-handle measurement
    order deterministic.

    ``quantize_decimals`` controls cache-key quantization of the
    activity features.  The default (12 decimals) is far below sensor
    noise, so only bit-exact repeats share an entry and every response
    stays bitwise-identical to a sequential ``run_online`` loop.
    Coarser values (e.g. 3) trade that identity for cache hits across
    *near*-identical profiles of the same application — re-measured
    features differing in the noise digits reuse the first profile's
    curves.
    """

    def __init__(
        self,
        pipeline: FrequencySelectionPipeline,
        *,
        objectives: tuple[ObjectiveFunction, ...] = (EDP, ED2P),
        threshold: float | None = None,
        cache_size: int = 1024,
        quantize_decimals: int = 12,
        max_batch_size: int = 64,
        batch_window_s: float = 0.002,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not pipeline.is_fitted:
            raise ValueError("pipeline must be fitted before serving")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if quantize_decimals < 0:
            raise ValueError("quantize_decimals must be non-negative")
        self.pipeline = pipeline
        self.objectives = tuple(objectives)
        self.threshold = threshold
        self.quantize_decimals = quantize_decimals
        self.max_batch_size = max_batch_size
        self.batch_window_s = batch_window_s
        self._cache = LRUCache(cache_size)
        self._lock = threading.RLock()
        self._batcher = None
        self._key_static: tuple = ()
        self._engine: FusedInferenceEngine | None = None
        self.refresh_models()
        # Counters and stage histograms live on a private metrics
        # registry, so ``stats()`` always describes *this* service.  An
        # external ``registry`` (e.g. ``obs.get_registry()``, as the CLI
        # passes) additionally receives every update under the same
        # metric names — there the numbers aggregate across services and
        # process lifetime, which is what an exporter wants.
        self.metrics = MetricsRegistry()
        registries = (self.metrics,) if registry is None else (self.metrics, registry)

        def counter(name: str, help: str) -> _Fanout:
            return _Fanout([r.counter(name, help) for r in registries])

        self._m_requests = counter("serving_requests_total", "selection requests served")
        self._m_batches = counter("serving_batches_total", "flushes executed")
        self._m_measured = counter(
            "serving_measured_requests_total", "requests profiled on-device at f_max"
        )
        self._m_curves = counter(
            "serving_curves_computed_total", "unique curve computations through the DNNs"
        )
        self._m_max_batch = _Fanout(
            [r.gauge("serving_max_batch_size", "largest flush seen") for r in registries]
        )
        self._m_stage = {
            stage: _Fanout(
                [
                    r.histogram(
                        f"serving_flush_{stage}_seconds",
                        f"per-flush wall time of the {stage} stage",
                    )
                    for r in registries
                ]
            )
            for stage in STAGES
        }

    # ------------------------------------------------------------------
    # Cache keys and invalidation
    # ------------------------------------------------------------------
    def refresh_models(self) -> None:
        """Re-fingerprint the models and invalidate every cached curve.

        Call after refitting or reloading the pipeline's models: the new
        fingerprints orphan old keys, the explicit clear releases their
        memory immediately rather than waiting for LRU churn, and the
        packed inference engine is rebuilt around the new weights.
        """
        with self._lock:
            power_model = self.pipeline.power_model
            time_model = self.pipeline.time_model
            device = self.pipeline.device
            self._key_static = (
                device.arch.name,
                power_model.fingerprint(),
                time_model.fingerprint(),
            )
            self._cache.clear()
            scale = (
                device.arch.tdp_watts if power_model.reference_power_w is not None else None
            )
            self._engine = FusedInferenceEngine(
                power_model.inference_spec(),
                time_model.inference_spec(),
                device.dvfs.usable_array(),
                power_scale_w=scale,
            )

    def clear_cache(self) -> None:
        """Drop every memoized curve, keeping the packed engine.

        The cheap way to force cold-path behaviour (e.g. for
        benchmarking, or after an external store invalidation): unlike
        :meth:`refresh_models` it neither re-fingerprints nor repacks —
        the engine's packed weights and warmed arenas survive.
        """
        with self._lock:
            self._cache.clear()

    def _curve_key(self, features: FeatureVector) -> tuple:
        return (
            *self._key_static,
            round(features.fp_active, self.quantize_decimals),
            round(features.dram_active, self.quantize_decimals),
        )

    # ------------------------------------------------------------------
    # Synchronous batch path
    # ------------------------------------------------------------------
    def select_one(self, request: SelectionRequest, **kwargs) -> ServiceResponse:
        """Convenience single-request flush (same path as a 1-batch)."""
        return self.select_many([request], **kwargs)[0]

    def select_many(
        self,
        requests: Sequence[SelectionRequest],
        *,
        objectives: tuple[ObjectiveFunction, ...] | None = None,
        threshold: float | None = _UNSET,  # type: ignore[assignment]
    ) -> list[ServiceResponse]:
        """Serve one flush of requests; responses align with the input order.

        Workload-handle requests are profiled sequentially in request
        order on the pipeline's device (measurement is stateful and
        cannot batch); everything downstream — curve prediction,
        energy, Algorithm 1 — runs batched and deduplicated.
        """
        objs = self.objectives if objectives is None else tuple(objectives)
        thr = self.threshold if threshold is _UNSET else threshold
        if not requests:
            return []
        with self._lock:
            return self._flush(list(requests), objs, thr)

    def _flush(
        self,
        requests: list[SelectionRequest],
        objectives: tuple[ObjectiveFunction, ...],
        threshold: float | None,
    ) -> list[ServiceResponse]:
        device = self.pipeline.device
        freqs = device.dvfs.usable_array()

        with obs.span("serving.flush", batch=len(requests)) as flush_span:
            return self._flush_traced(
                flush_span, requests, objectives, threshold, device, freqs
            )

    def _flush_traced(
        self,
        flush_span,
        requests: list[SelectionRequest],
        objectives: tuple[ObjectiveFunction, ...],
        threshold: float | None,
        device,
        freqs,
    ) -> list[ServiceResponse]:
        """Column-oriented flush: requests live in parallel numpy columns.

        From here on a request is a row index — features, measured
        maxima, cache slots, and Algorithm-1 combos are parallel columns
        joined by gather/scatter index arrays rather than per-request
        dicts, so the per-request Python cost is one response object.
        """
        time_model = self.pipeline.time_model
        measured = 0
        n = len(requests)

        # Stage 1 — acquire per-request profiles (measure workload handles).
        t0 = _time.perf_counter()
        with obs.span("serving.measure") as measure_span:
            features_col: list[FeatureVector] = []
            p_max_col: list[float] = []
            t_max_col: list[float | None] = []
            fp_col = np.empty(n)
            dram_col = np.empty(n)
            for i, req in enumerate(requests):
                if req.workload is not None:
                    fv, p_max, t_max = features_at_max(
                        device, req.workload, runs=req.runs, size=req.size
                    )
                    measured += 1
                else:
                    fv, p_max, t_max = req.features, req.power_at_max_w, req.time_at_max_s
                features_col.append(fv)
                p_max_col.append(p_max)
                t_max_col.append(t_max)
                fp_col[i] = fv.fp_active
                dram_col[i] = fv.dram_active
            measure_span.set(measured=measured)
        t1 = _time.perf_counter()

        # Stage 2 — dedup into curve slots, then one batched cache probe.
        with obs.span("serving.lookup") as lookup_span:
            q = self.quantize_decimals
            static = self._key_static
            keys = [
                (*static, round(fp, q), round(dram, q))
                for fp, dram in zip(fp_col.tolist(), dram_col.tolist())
            ]
            slot_of: dict[tuple, int] = {}
            slots = np.empty(n, dtype=np.intp)
            first_row: list[int] = []
            unique_keys: list[tuple] = []
            for i, key in enumerate(keys):
                slot = slot_of.get(key)
                if slot is None:
                    slot = len(unique_keys)
                    slot_of[key] = slot
                    unique_keys.append(key)
                    first_row.append(i)
                slots[i] = slot
            cached = self._cache.get_many(unique_keys)
            power_rows = [entry[0] if entry is not None else None for entry in cached]
            unit_rows = [entry[1] if entry is not None else None for entry in cached]
            miss_slots = [s for s, entry in enumerate(cached) if entry is None]
            lookup_span.set(unique=len(unique_keys), hits=len(unique_keys) - len(miss_slots))
        t2 = _time.perf_counter()

        # Stage 3 — one engine pass over all missing curves.
        with obs.span("serving.predict", misses=len(miss_slots)):
            full_matrices = None
            if miss_slots:
                all_miss = len(miss_slots) == len(unique_keys)
                miss_rows = (
                    np.asarray(first_row, dtype=np.intp)
                    if all_miss
                    else np.array([first_row[s] for s in miss_slots], dtype=np.intp)
                )
                power_matrix, unit_time_matrix = self._engine.infer(
                    fp_col[miss_rows], dram_col[miss_rows]
                )
                # Responses and cache entries share these rows; freeze them so
                # no consumer can corrupt a curve another request will reuse.
                power_matrix.flags.writeable = False
                unit_time_matrix.flags.writeable = False
                if all_miss:
                    # Cold-flush shortcut: slot j is matrix row j, so the
                    # scatter is a C-level row split instead of a Python loop.
                    power_rows = list(power_matrix)
                    unit_rows = list(unit_time_matrix)
                    entries = list(zip(unique_keys, zip(power_rows, unit_rows)))
                    full_matrices = (power_matrix, unit_time_matrix)
                else:
                    entries = []
                    for j, slot in enumerate(miss_slots):
                        power_rows[slot] = power_matrix[j]
                        unit_rows[slot] = unit_time_matrix[j]
                        entries.append((unique_keys[slot], (power_matrix[j], unit_time_matrix[j])))
                self._cache.put_many(entries)
        t3 = _time.perf_counter()

        # Stage 4 — energy + Algorithm 1, vectorized over deduped
        # (curve, p_max, t_max) combos; objectives/threshold are flush
        # constants, so the combo key replaces the old per-request memo.
        with obs.span("serving.select") as select_span:
            combo_of: dict[tuple, int] = {}
            combo_col = np.empty(n, dtype=np.intp)
            combo_slot: list[int] = []
            combo_t_max: list[float | None] = []
            for i in range(n):
                ck = (int(slots[i]), p_max_col[i], t_max_col[i])
                combo = combo_of.get(ck)
                if combo is None:
                    combo = len(combo_slot)
                    combo_of[ck] = combo
                    combo_slot.append(int(slots[i]))
                    combo_t_max.append(t_max_col[i])
                combo_col[i] = combo
            if (
                full_matrices is not None
                and len(combo_slot) == n
                and combo_slot == list(range(n))
            ):
                # All requests distinct and uncached: the combo matrices ARE
                # the engine outputs — skip the per-row restack entirely.
                power_c, unit_c = full_matrices
            else:
                power_c = np.stack([power_rows[s] for s in combo_slot])
                unit_c = np.stack([unit_rows[s] for s in combo_slot])
            if time_model.target == "relative":
                if any(t is None for t in combo_t_max):
                    raise ValueError("time_at_max_s is required for the relative time target")
                time_c = unit_c * np.asarray(combo_t_max, dtype=float)[:, None]
            else:
                time_c = unit_c
            energy_c = energy_from_power_time(power_c, time_c)
            selections_c: list[dict[str, SelectionResult]] = [{} for _ in combo_slot]
            for obj in objectives:
                results = select_optimal_frequency_many(
                    freqs, energy_c, time_c, objective=obj, threshold=threshold
                )
                for combo, result in enumerate(results):
                    selections_c[combo][obj.name] = result
            responses: list[ServiceResponse] = []
            for i, req in enumerate(requests):
                combo = combo_col[i]
                slot = combo_slot[combo]
                t_max = t_max_col[i]
                responses.append(
                    ServiceResponse(
                        name=req.name,
                        freqs_mhz=freqs,
                        features=features_col[i],
                        measured_power_at_max_w=p_max_col[i],
                        measured_time_at_max_s=t_max if t_max is not None else 0.0,
                        power_w=power_rows[slot],
                        time_s=time_c[combo],
                        energy_j=energy_c[combo],
                        selections=selections_c[combo],
                        from_cache=cached[slot] is not None,
                    )
                )
            select_span.set(combos=len(combo_slot), objectives=len(objectives))
        t4 = _time.perf_counter()

        self._m_requests.inc(n)
        self._m_batches.inc()
        self._m_measured.inc(measured)
        self._m_curves.inc(len(miss_slots))
        self._m_max_batch.set_max(n)
        self._m_stage["measure"].observe(t1 - t0)
        self._m_stage["lookup"].observe(t2 - t1)
        self._m_stage["predict"].observe(t3 - t2)
        self._m_stage["select"].observe(t4 - t3)
        flush_span.set(
            hits=len(unique_keys) - len(miss_slots),
            curves_computed=len(miss_slots),
            measured=measured,
            unique=len(unique_keys),
        )
        return responses

    # ------------------------------------------------------------------
    # Asynchronous micro-batching path
    # ------------------------------------------------------------------
    def submit(self, request: SelectionRequest):
        """Enqueue one request; returns a ``Future[ServiceResponse]``.

        Requests submitted within ``batch_window_s`` of each other (up
        to ``max_batch_size``) are flushed as one batch.  The dispatcher
        thread starts lazily on first use; call :meth:`close` (or use
        the service as a context manager) to drain and stop it.
        """
        from repro.serving.microbatch import MicroBatcher

        with self._lock:
            if self._batcher is None:
                self._batcher = MicroBatcher(
                    self,
                    max_batch_size=self.max_batch_size,
                    batch_window_s=self.batch_window_s,
                )
            batcher = self._batcher
        return batcher.submit(request)

    def close(self) -> None:
        """Drain pending submissions and stop the dispatcher thread.

        The service stays usable afterwards: a later :meth:`submit`
        starts a new dispatcher.
        """
        with self._lock:
            batcher, self._batcher = self._batcher, None
        if batcher is not None:
            batcher.close()

    def __enter__(self) -> "SelectionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Immutable snapshot of the lifetime service counters.

        Always reads this service's private instruments — a shared
        export ``registry`` passed at construction receives mirrored
        updates but never feeds back into ``stats()``.
        """
        with self._lock:
            stage_latency = {
                stage: hist.primary.snapshot() for stage, hist in self._m_stage.items()
            }
            return ServiceStats(
                requests=int(self._m_requests.primary.value),
                batches=int(self._m_batches.primary.value),
                max_batch_size=int(self._m_max_batch.primary.value),
                measured_requests=int(self._m_measured.primary.value),
                cache_hits=self._cache.hits,
                cache_misses=self._cache.misses,
                cache_evictions=self._cache.evictions,
                cache_entries=len(self._cache),
                curves_computed=int(self._m_curves.primary.value),
                measure_s=stage_latency["measure"].sum,
                lookup_s=stage_latency["lookup"].sum,
                predict_s=stage_latency["predict"].sum,
                select_s=stage_latency["select"].sum,
                stage_latency=stage_latency,
            )
