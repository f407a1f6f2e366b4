"""Packed inference engine: the bitwise contract of DESIGN.md §13.

The engine replays the per-request model path ``run_online`` takes —
results must equal ``predict_power`` / ``predict_slowdown`` row by row
*bitwise*, including across chunk boundaries and on arena-reusing
repeat calls.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.dataset import FeatureVector
from repro.core.models import InferenceSpec
from repro.nn.activations import SELU, get_activation
from repro.serving.engine import _CHUNK_REQS, FusedInferenceEngine, PackedModel, _selu_inplace

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
    """One model call per request, as the sequential ``run_online`` makes."""
    features = _feature_list(fp, dram)
    power = np.stack(
        [
            pipeline.power_model.predict_power(fv, freqs, target_power_scale_w=scale)
            for fv in features
        ]
    )
    unit_time = np.stack([pipeline.time_model.predict_slowdown(fv, freqs) for fv in features])
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

    @pytest.mark.parametrize("n", [1, _CHUNK_REQS - 1, _CHUNK_REQS, _CHUNK_REQS + 1, 2 * _CHUNK_REQS + 1])
    def test_chunk_boundaries_stay_bitwise(self, served, n):
        """Partial, exact and straddled chunks all match."""
        pipeline, freqs, scale = served
        engine = FusedInferenceEngine(
            pipeline.power_model.inference_spec(),
            pipeline.time_model.inference_spec(),
            freqs,
            power_scale_w=scale,
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
    """The two rewrites the forward pass rests on, checked against numpy."""

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
        f-row block bitwise — one per-request ``predict_curve`` gemm each."""
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
        with pytest.raises(ValueError, match="1-D grid"):
            PackedModel(spec, freqs[:0])
        with pytest.raises(ValueError, match="no layers"):
            PackedModel(dataclasses.replace(spec, layers=()), freqs)
        w, b, act = spec.layers[0]
        wide = dataclasses.replace(spec, layers=((np.vstack([w, w[:1]]), b, act), *spec.layers[1:]))
        with pytest.raises(ValueError, match="3-feature"):
            PackedModel(wide, freqs)

    def test_empty_flush(self, served):
        pipeline, freqs, scale = served
        engine = FusedInferenceEngine(
            pipeline.power_model.inference_spec(),
            pipeline.time_model.inference_spec(),
            freqs,
            power_scale_w=scale,
        )
        power, unit_time = engine.infer(np.empty(0), np.empty(0))
        assert power.shape == (0, freqs.size)
        assert unit_time.shape == (0, freqs.size)


# ----------------------------------------------------------------------
# Property test: the packed forward over random stacks
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
    hidden_act=st.sampled_from(["selu", "relu", "tanh"]),
    out_act=st.sampled_from(["linear", "selu", "relu"]),
    log_target=st.booleans(),
    n=st.integers(1, 2 * _CHUNK_REQS + 2),
)
@settings(max_examples=40, deadline=None)
def test_exact_path_property(seed, widths, hidden_act, out_act, log_target, n):
    """The packed forward replays the unfolded forward pass for any
    stack, including activations without an in-place kernel (tanh takes
    the reference callable), and across chunk boundaries."""
    acts = [hidden_act] * len(widths) + [out_act]
    spec = _random_spec(seed, widths, acts, log_target)
    freqs = np.linspace(500.0, 1500.0, 9)
    rng = np.random.default_rng(seed + 1)
    fp = rng.uniform(0.0, 1.0, n)
    dram = rng.uniform(0.0, 1.0, n)
    got = np.empty((n, freqs.size))
    with np.errstate(over="ignore"):  # random log-target stacks may overflow exp
        want = _plain_forward(spec, fp, dram, freqs)
        PackedModel(spec, freqs).forward_into(fp, dram, got)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
