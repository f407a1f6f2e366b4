"""Fused inference engine: the bitwise (exact) and 1e-9 (fast) contracts.

Two equivalence bars, matching DESIGN.md §13:

* ``fast=False`` (the default everywhere) replays the reference model
  path — results must equal ``predict_power_many`` /
  ``predict_unit_time_many`` *bitwise*, including on arena-reusing
  repeat calls.
* ``fast=True`` folds scalers/SELU-scale/exp2 into the weights — gated
  by a 1e-9 relative-error bar, property-tested over random stacks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.dataset import FeatureVector
from repro.core.models import InferenceSpec
from repro.nn.activations import SELU, get_activation
from repro.serving.engine import FusedInferenceEngine, PackedModel, ShardPool, _selu_inplace

from tests.golden.tiny_pipeline import make_tiny_pipeline


@pytest.fixture(scope="module")
def served(tiny_models):
    """Pipeline plus the specs/grid/scale the service would hand the engine."""
    pipeline = make_tiny_pipeline(tiny_models)
    freqs = pipeline.device.dvfs.usable_array()
    scale = pipeline.device.arch.tdp_watts
    return pipeline, freqs, scale


def _columns(n: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 0.95, n), rng.uniform(0.05, 0.95, n)


def _feature_list(fp: np.ndarray, dram: np.ndarray) -> list[FeatureVector]:
    return [FeatureVector(f, d, 1410.0) for f, d in zip(fp, dram)]


def _assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    """Bitwise equality; unlike ``array_equal`` it tells -0.0 from 0.0."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _reference_curves(pipeline, fp, dram, freqs, scale):
    """What the pre-engine predict stage produced, via the model API."""
    features = _feature_list(fp, dram)
    power = pipeline.power_model.predict_power_many(
        features, freqs, target_power_scale_w=scale
    )
    unit_time = pipeline.time_model.predict_unit_time_many(features, freqs)
    return power, unit_time


class TestExactBitwise:
    def test_matches_model_path_bitwise(self, served):
        pipeline, freqs, scale = served
        engine = FusedInferenceEngine(
            pipeline.power_model.inference_spec(),
            pipeline.time_model.inference_spec(),
            freqs,
            power_scale_w=scale,
        )
        fp, dram = _columns(37)
        want_power, want_time = _reference_curves(pipeline, fp, dram, freqs, scale)
        power, unit_time = engine.infer(fp, dram)
        _assert_same_bytes(power, want_power)
        _assert_same_bytes(unit_time, want_time)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 17])
    def test_chunk_boundaries_stay_bitwise(self, served, n):
        """Partial, exact and straddled 8-request chunks all match."""
        pipeline, freqs, scale = served
        engine = FusedInferenceEngine(
            pipeline.power_model.inference_spec(),
            pipeline.time_model.inference_spec(),
            freqs,
            power_scale_w=scale,
            chunk_reqs=8,
        )
        fp, dram = _columns(n, seed=n)
        want_power, want_time = _reference_curves(pipeline, fp, dram, freqs, scale)
        power, unit_time = engine.infer(fp, dram)
        _assert_same_bytes(power, want_power)
        _assert_same_bytes(unit_time, want_time)

    def test_arena_reuse_stays_bitwise(self, served):
        """Second and shrunken calls reuse warmed arenas without drift."""
        pipeline, freqs, scale = served
        engine = FusedInferenceEngine(
            pipeline.power_model.inference_spec(),
            pipeline.time_model.inference_spec(),
            freqs,
            power_scale_w=scale,
        )
        big_fp, big_dram = _columns(40, seed=1)
        engine.infer(big_fp, big_dram)  # grow arenas past the next calls
        for n, seed in ((40, 2), (5, 3), (17, 4)):
            fp, dram = _columns(n, seed=seed)
            want_power, want_time = _reference_curves(pipeline, fp, dram, freqs, scale)
            power, unit_time = engine.infer(fp, dram)
            _assert_same_bytes(power, want_power)
            _assert_same_bytes(unit_time, want_time)

    def test_outputs_are_fresh_arrays(self, served):
        """Curves must survive later flushes — never arena views."""
        pipeline, freqs, scale = served
        engine = FusedInferenceEngine(
            pipeline.power_model.inference_spec(),
            pipeline.time_model.inference_spec(),
            freqs,
            power_scale_w=scale,
        )
        fp, dram = _columns(6)
        power_a, time_a = engine.infer(fp, dram)
        keep_p, keep_t = power_a.copy(), time_a.copy()
        engine.infer(*_columns(6, seed=9))
        assert np.array_equal(power_a, keep_p)
        assert np.array_equal(time_a, keep_t)


class TestExactKernels:
    """The two rewrites the exact path rests on, checked against numpy."""

    SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 800.0, -800.0, np.inf, -np.inf, np.nan)

    def _check_selu(self, z: np.ndarray) -> None:
        with np.errstate(all="ignore"):
            want = SELU()(z)
            got = _selu_inplace(z.copy(), np.empty_like(z))
        _assert_same_bytes(got, want)

    def test_selu_special_values(self):
        z = np.array(self.SPECIALS)
        self._check_selu(z)
        # Sign-flipped NaN and a spread of ordinary values, in a block
        # long enough to run the SIMD loops, not just their scalar tails.
        rng = np.random.default_rng(0)
        self._check_selu(np.concatenate([z, -z, rng.normal(0.0, 5.0, 997)]))

    @given(
        z=hnp.arrays(
            np.float64, st.integers(1, 300), elements=st.floats(allow_nan=True, allow_infinity=True)
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_selu_property(self, z):
        self._check_selu(z)

    @pytest.mark.parametrize("k,h", [(3, 64), (64, 64), (64, 1)])
    def test_stacked_matmul_is_per_curve(self, k, h):
        """One ``matmul`` over a (t, f, k) stack equals one ``@`` per
        f-row block bitwise — the gemm blocking ``predict_blocked`` uses."""
        rng = np.random.default_rng(k * 100 + h)
        f = 61
        w = rng.normal(size=(k, h))
        for t in (1, 7, 8, 9, 17, 32):
            x = rng.normal(size=(t * f, k))
            want = np.empty((t * f, h))
            for s in range(0, t * f, f):
                want[s : s + f] = x[s : s + f] @ w
            got = np.empty((t * f, h))
            np.matmul(x.reshape(t, f, k), w, out=got.reshape(t, f, h))
            _assert_same_bytes(got, want)


class TestFastPath:
    def test_within_1e9_of_model_path(self, served):
        pipeline, freqs, scale = served
        engine = FusedInferenceEngine(
            pipeline.power_model.inference_spec(),
            pipeline.time_model.inference_spec(),
            freqs,
            power_scale_w=scale,
            fast=True,
        )
        fp, dram = _columns(64)
        want_power, want_time = _reference_curves(pipeline, fp, dram, freqs, scale)
        power, unit_time = engine.infer(fp, dram)
        np.testing.assert_allclose(power, want_power, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(unit_time, want_time, rtol=1e-9, atol=0.0)

    def test_direct_out_requires_contiguous(self, served):
        pipeline, freqs, _ = served
        model = PackedModel(pipeline.power_model.inference_spec(), freqs, fast=True)
        fp, dram = _columns(4)
        out = np.empty((freqs.size, 4)).T  # F-order: reshape would copy
        with pytest.raises(ValueError, match="C-contiguous"):
            model.forward_into(fp, dram, out)

    def test_fast_rejects_unsupported_activation(self, served):
        pipeline, freqs, _ = served
        spec = pipeline.power_model.inference_spec()
        w, b, _ = spec.layers[1]
        layers = (spec.layers[0], (w, b, "tanh"), *spec.layers[2:])
        bent = InferenceSpec(
            x_mean=spec.x_mean,
            x_scale=spec.x_scale,
            y_mean=spec.y_mean,
            y_scale=spec.y_scale,
            log_target=spec.log_target,
            layers=layers,
            fingerprint=spec.fingerprint,
        )
        with pytest.raises(ValueError, match="fast mode"):
            PackedModel(bent, freqs, fast=True)
        PackedModel(bent, freqs)  # exact mode falls back to the reference op


class TestValidation:
    def test_out_shape_checked(self, served):
        pipeline, freqs, _ = served
        model = PackedModel(pipeline.power_model.inference_spec(), freqs)
        fp, dram = _columns(3)
        with pytest.raises(ValueError, match="shape"):
            model.forward_into(fp, dram, np.empty((3, freqs.size - 1)))

    def test_column_shapes_checked(self, served):
        pipeline, freqs, scale = served
        engine = FusedInferenceEngine(
            pipeline.power_model.inference_spec(),
            pipeline.time_model.inference_spec(),
            freqs,
            power_scale_w=scale,
        )
        with pytest.raises(ValueError, match="1-D"):
            engine.infer(np.zeros(3), np.zeros(4))

    def test_bad_config_rejected(self, served):
        pipeline, freqs, _ = served
        spec = pipeline.power_model.inference_spec()
        with pytest.raises(ValueError, match="tile_reqs"):
            PackedModel(spec, freqs, tile_reqs=0)
        with pytest.raises(ValueError, match="shards"):
            FusedInferenceEngine(spec, spec, freqs, shards=0)

    def test_empty_flush(self, served):
        pipeline, freqs, scale = served
        engine = FusedInferenceEngine(
            pipeline.power_model.inference_spec(),
            pipeline.time_model.inference_spec(),
            freqs,
            power_scale_w=scale,
            fast=True,
        )
        power, unit_time = engine.infer(np.empty(0), np.empty(0))
        assert power.shape == (0, freqs.size)
        assert unit_time.shape == (0, freqs.size)

    def test_mode_strings(self, served):
        pipeline, freqs, _ = served
        spec_p = pipeline.power_model.inference_spec()
        spec_t = pipeline.time_model.inference_spec()
        assert FusedInferenceEngine(spec_p, spec_t, freqs).mode == "exact"
        assert FusedInferenceEngine(spec_p, spec_t, freqs, fast=True).mode == "fused"


# ----------------------------------------------------------------------
# Property test: fast ≈ exact over random packed stacks
# ----------------------------------------------------------------------
def _random_spec(seed: int, widths: list[int], acts: list[str], log_target: bool) -> InferenceSpec:
    """A synthetic trained-model snapshot with the given stack shape."""
    rng = np.random.default_rng(seed)
    dims = [3, *widths, 1]
    layers = []
    for i, act in enumerate(acts):
        w = rng.normal(0.0, 0.5, (dims[i], dims[i + 1]))
        b = rng.normal(0.0, 0.2, dims[i + 1])
        layers.append((w, b, act))
    return InferenceSpec(
        x_mean=rng.normal(0.0, 1.0, 3),
        x_scale=rng.uniform(0.5, 2.0, 3),
        y_mean=rng.normal(0.0, 0.5, 1),
        y_scale=rng.uniform(0.1, 1.0, 1),
        log_target=log_target,
        layers=tuple(layers),
        fingerprint=f"prop-{seed}",
    )


def _plain_forward(spec: InferenceSpec, fp, dram, freqs) -> np.ndarray:
    """Straight-line numpy forward pass, no folding, no arenas."""
    n, f = fp.size, freqs.size
    x = np.empty((n * f, 3))
    x[:, 0] = np.repeat(fp, f)
    x[:, 1] = np.repeat(dram, f)
    x[:, 2] = np.tile(freqs, n)
    cur = (x - spec.x_mean) / spec.x_scale
    for w, b, act in spec.layers:
        cur = get_activation(act)(cur @ w + b)
    y = cur * spec.y_scale + spec.y_mean
    if spec.log_target:
        y = np.exp(y)
    return y.reshape(n, f)


@given(
    seed=st.integers(0, 2**31 - 1),
    widths=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    hidden_act=st.sampled_from(["selu", "relu"]),
    out_act=st.sampled_from(["linear", "selu", "relu"]),
    log_target=st.booleans(),
    n=st.integers(1, 30),
)
@settings(max_examples=40, deadline=None)
def test_fast_path_property(seed, widths, hidden_act, out_act, log_target, n):
    """Fast mode stays within 1e-9 rtol of the unfolded forward pass for
    any selu/relu/linear stack, and exact mode replays it bitwise."""
    acts = [hidden_act] * len(widths) + [out_act]
    spec = _random_spec(seed, widths, acts, log_target)
    freqs = np.linspace(500.0, 1500.0, 9)
    rng = np.random.default_rng(seed + 1)
    fp = rng.uniform(0.0, 1.0, n)
    dram = rng.uniform(0.0, 1.0, n)
    want = _plain_forward(spec, fp, dram, freqs)

    fast = np.empty((n, freqs.size))
    PackedModel(spec, freqs, fast=True, tile_reqs=4).forward_into(fp, dram, fast)
    np.testing.assert_allclose(fast, want, rtol=1e-9, atol=0.0)

    exact = np.empty((n, freqs.size))
    PackedModel(spec, freqs, chunk_reqs=8).forward_into(fp, dram, exact)
    np.testing.assert_allclose(exact, want, rtol=1e-12, atol=0.0)


# ----------------------------------------------------------------------
# Shard pool
# ----------------------------------------------------------------------
class TestShardPool:
    def test_sharded_exact_is_bitwise(self, served):
        pipeline, freqs, scale = served
        spec_p = pipeline.power_model.inference_spec()
        spec_t = pipeline.time_model.inference_spec()
        fp, dram = _columns(11)
        want_power, want_time = _reference_curves(pipeline, fp, dram, freqs, scale)
        with FusedInferenceEngine(
            spec_p, spec_t, freqs, power_scale_w=scale, shards=2
        ) as engine:
            assert engine.mode == "exactx2"
            power, unit_time = engine.infer(fp, dram)
            # A 1-row flush is below the shard count: in-process fallback.
            solo_p, solo_t = engine.infer(fp[:1], dram[:1])
        _assert_same_bytes(power, want_power)
        _assert_same_bytes(unit_time, want_time)
        _assert_same_bytes(solo_p, want_power[:1])
        _assert_same_bytes(solo_t, want_time[:1])

    def test_pool_over_capacity_returns_none(self, served):
        pipeline, freqs, scale = served
        spec_p = pipeline.power_model.inference_spec()
        spec_t = pipeline.time_model.inference_spec()
        fp, dram = _columns(8)
        with ShardPool(
            spec_p, spec_t, freqs, power_scale_w=scale, n_shards=2, capacity=4
        ) as pool:
            assert pool.infer(fp, dram) is None
            small = pool.infer(fp[:4], dram[:4])
        assert small is not None
        want_power, _ = _reference_curves(pipeline, fp[:4], dram[:4], freqs, scale)
        np.testing.assert_allclose(small[0], want_power, rtol=1e-9, atol=0.0)

    def test_closed_pool_rejects_work(self, served):
        pipeline, freqs, _ = served
        spec_p = pipeline.power_model.inference_spec()
        spec_t = pipeline.time_model.inference_spec()
        pool = ShardPool(spec_p, spec_t, freqs, n_shards=2, capacity=8)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.infer(np.zeros(2), np.zeros(2))

    def test_pool_config_validated(self, served):
        pipeline, freqs, _ = served
        spec = pipeline.power_model.inference_spec()
        with pytest.raises(ValueError, match="n_shards"):
            ShardPool(spec, spec, freqs, n_shards=1)
        with pytest.raises(ValueError, match="capacity"):
            ShardPool(spec, spec, freqs, n_shards=4, capacity=2)
