"""Packed-weight inference engine for the serving hot path.

The reference for one profile's curves is the per-request model path
``run_online`` takes: ``PowerModel.predict_power`` and
``TimeModel.predict_slowdown`` each build an ``(f, 3)`` grid,
standardise it, run the network, inverse-transform, exp and clip, every
stage allocating fresh arrays.  At realistic flush sizes that loop is
allocation/page-fault bound, not FLOP bound.  This module packs both
networks once per model fingerprint and replays the same arithmetic
through preallocated arenas: the same per-curve gemm calls (one stacked
``matmul`` per layer per chunk issues them) and the same elementwise
values (SELU as a mask-free ``max + ALPHA * expm1(min)`` sum that
equals the reference ``where`` bit for bit).  Results stay *bitwise
identical* to the per-request path while the steady state allocates
nothing but the output matrices.

Thread-safety: engines reuse arenas across calls and are *not* locked
internally; the owning :class:`~repro.serving.service.SelectionService`
serializes flushes, which is the intended usage.
"""

from __future__ import annotations

import numpy as np

from repro.core.models import InferenceSpec
from repro.nn.activations import SELU, get_activation
from repro.units import FractionArray, MHzArray, Watts, WattsArray

__all__ = ["FusedInferenceEngine", "PackedModel"]

_ALPHA = SELU.ALPHA
_SCALE = SELU.SCALE

#: Requests per forward chunk.  Each SELU layer makes 6 full-SIMD
#: elementwise passes over the chunk's gemm output and its scratch, so
#: the chunk must keep that pair cache-resident: at 16 requests x 61
#: clocks each 64-wide buffer is ~0.5 MiB, inside a 2 MiB L2, and
#: ``repro serve`` on all-new profiles ran ~15 % faster than at 32
#: (1 MiB buffers); 8 measured the same as 16.  Boundaries fall on
#: whole requests, which preserves the per-curve gemm blocking and
#: hence bitwiseness.
_CHUNK_REQS = 16

#: Smallest time value the reference pipeline allows (models.py clip).
_TIME_FLOOR = 1e-12


class _Arena:
    """Named scratch buffers that grow to a high-water mark and persist.

    ``take`` returns a leading-rows view of a kept buffer, allocating
    only when a request is larger than anything seen before — a
    saturated service's steady state allocates nothing here.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, rows: int, cols: int) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < rows or buf.shape[1] != cols:
            keep = rows if buf is None or buf.shape[1] != cols else buf.shape[0]
            buf = np.empty((max(rows, keep), cols))
            self._buffers[name] = buf
        return buf[:rows]


def _finalize_power(curves: np.ndarray, power_scale_w: float | None) -> None:
    """In-place TDP rescale + clip, mirroring ``predict_power``."""
    if power_scale_w is not None:
        np.multiply(curves, power_scale_w, out=curves)
    np.maximum(curves, 0.0, out=curves)


def _finalize_unit_time(curves: np.ndarray) -> None:
    """In-place floor clip, mirroring ``predict_slowdown``."""
    np.maximum(curves, _TIME_FLOOR, out=curves)


def _selu_inplace(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``activations.SELU()(z)`` bit for bit, written into ``z``.

    The reference computes ``SCALE * where(z > 0, z, ALPHA * expm1(min(z,
    0)))``; this is ``SCALE * (max(z, 0) + ALPHA * expm1(min(z, 0)))``.
    For z > 0 the second term is exactly +0.0, so the sum is z; for z < 0
    the first term is +0.0, so the sum is the second term; for z = ±0
    max and min break the tie alike, so both terms are the same zero; a
    NaN propagates through both.  Every pass is a full-SIMD ufunc — the
    ``where=`` copy a masked blend needs drops to a scalar loop.
    ``scratch`` must match ``z``'s shape and must not alias it.
    """
    np.minimum(z, 0.0, out=scratch)
    np.expm1(scratch, out=scratch)
    np.multiply(_ALPHA, scratch, out=scratch)
    np.maximum(z, 0.0, out=z)
    np.add(z, scratch, out=z)
    np.multiply(_SCALE, z, out=z)
    return z


class PackedModel:
    """One regression model packed for repeated batched inference.

    Built from an :class:`~repro.core.models.InferenceSpec` snapshot and
    a fixed clock grid; :meth:`forward_into` then evaluates the full
    curve matrix for a column of (fp_active, dram_active) profiles.  The
    output is the *curve* in model units (after the y-inverse transform
    and the log-target exp) — power rescale/clip and the time floor are
    the engine's job, matching where they live in ``core.models``.
    """

    def __init__(self, spec: InferenceSpec, freqs_mhz: MHzArray) -> None:
        if not spec.layers:
            raise ValueError("inference spec has no layers")
        if spec.layers[0][0].shape[0] != 3:
            raise ValueError("packed inference expects the paper's 3-feature input")
        self.fingerprint = spec.fingerprint
        self.log_target = spec.log_target
        self._freqs = np.ascontiguousarray(freqs_mhz, dtype=float)
        if self._freqs.ndim != 1 or self._freqs.size < 1:
            raise ValueError("freqs_mhz must be a non-empty 1-D grid")
        self._arena = _Arena()
        # Verbatim copies: the forward pass repeats the reference
        # arithmetic, so the parameters must be untouched.
        self._x_mean = spec.x_mean
        self._x_scale = spec.x_scale
        self._y_mean = spec.y_mean
        self._y_scale = spec.y_scale
        self._layers = list(spec.layers)

    def forward_into(
        self,
        fp_active: FractionArray,
        dram_active: FractionArray,
        out: np.ndarray,
        finalize=None,
    ) -> None:
        """Fill ``out`` (n, n_freqs) with the model curve per profile.

        ``finalize`` (optional) is an in-place callable applied to each
        chunk view of ``out`` while it is still cache-resident — the
        engine passes its rescale/clip stage here so those passes never
        re-stream the full matrix from DRAM.  Its ops must be
        elementwise for the chunked application to match a whole-matrix
        pass bitwise (the engine's are: scalar multiply and clips).

        Chunk boundaries fall on whole requests, and each layer's gemm
        is one stacked ``matmul`` over the chunk's ``(t, f, k)`` view:
        numpy loops that stack dimension issuing one BLAS call per
        curve, with the same operand shapes and leading dimensions as
        the per-request path's ``@``.  One gemm over the whole stack
        would not do: BLAS handles a matrix's tail rows with edge kernels
        whose accumulation order can differ from an interior row's.
        Every other stage is an elementwise ufunc, which chunking and
        ``out=`` placement cannot perturb.
        """
        n = fp_active.shape[0]
        f = self._freqs.size
        if out.shape != (n, f):
            raise ValueError(f"out must have shape ({n}, {f}), got {out.shape}")
        arena = self._arena
        for c0 in range(0, n, _CHUNK_REQS):
            c1 = min(c0 + _CHUNK_REQS, n)
            t = c1 - c0
            rows = t * f
            x = arena.take("x", rows, 3)
            grid = x.reshape(t, f, 3)
            grid[:, :, 0] = fp_active[c0:c1, None]
            grid[:, :, 1] = dram_active[c0:c1, None]
            grid[:, :, 2] = self._freqs
            np.subtract(x, self._x_mean, out=x)
            np.divide(x, self._x_scale, out=x)
            cur = x
            for li, (w, b, act) in enumerate(self._layers):
                k, h = w.shape
                z = arena.take(f"z{li}", rows, h)
                np.matmul(cur.reshape(t, f, k), w, out=z.reshape(t, f, h))
                np.add(z, b, out=z)
                cur = self._activate(act, z)
            np.multiply(cur, self._y_scale, out=cur)
            np.add(cur, self._y_mean, out=cur)
            if self.log_target:
                np.exp(cur, out=cur)
            out[c0:c1] = cur.reshape(t, f)
            if finalize is not None:
                finalize(out[c0:c1])

    def _activate(self, act: str, z: np.ndarray) -> np.ndarray:
        if act == "linear":
            return z
        if act == "relu":
            np.maximum(z, 0.0, out=z)
            return z
        if act == "selu":
            rows, cols = z.shape
            return _selu_inplace(z, self._arena.take(f"t{cols}", rows, cols))
        # Exotic sweep activations: fall back to the reference callable
        # (allocates, but stays bitwise by construction).
        return get_activation(act)(z)


class FusedInferenceEngine:
    """Both serving DNNs packed behind one :meth:`infer` call.

    Construct once per (power, time) fingerprint pair — the service
    rebuilds it from :meth:`~repro.core.models._RegressionModel.inference_spec`
    whenever :meth:`~repro.serving.service.SelectionService.refresh_models`
    detects new weights.  ``power_scale_w`` carries the TDP rescale the
    service would otherwise pass to ``predict_power`` (None for
    absolute-watt models).
    """

    def __init__(
        self,
        power_spec: InferenceSpec,
        time_spec: InferenceSpec,
        freqs_mhz: MHzArray,
        *,
        power_scale_w: Watts | None = None,
    ) -> None:
        self.freqs_mhz = np.ascontiguousarray(freqs_mhz, dtype=float)
        self.power_scale_w = None if power_scale_w is None else float(power_scale_w)
        self.fingerprints = (power_spec.fingerprint, time_spec.fingerprint)
        self._power = PackedModel(power_spec, self.freqs_mhz)
        self._time = PackedModel(time_spec, self.freqs_mhz)

    def infer(
        self, fp_active: FractionArray, dram_active: FractionArray
    ) -> tuple[WattsArray, np.ndarray]:
        """Power (W) and unit-time curve matrices for a profile column.

        Returns two fresh ``(n, n_freqs)`` arrays the caller owns —
        cache entries must outlive the engine's reusable arenas, so the
        outputs are never arena views.
        """
        fp = np.ascontiguousarray(fp_active, dtype=float)
        dram = np.ascontiguousarray(dram_active, dtype=float)
        if fp.ndim != 1 or fp.shape != dram.shape:
            raise ValueError("fp_active and dram_active must be matching 1-D columns")
        n = fp.size
        f = self.freqs_mhz.size
        power = np.empty((n, f))
        unit_time = np.empty((n, f))
        scale = self.power_scale_w
        self._power.forward_into(fp, dram, power, finalize=lambda v: _finalize_power(v, scale))
        self._time.forward_into(fp, dram, unit_time, finalize=_finalize_unit_time)
        return power, unit_time
