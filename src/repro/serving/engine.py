"""Fused packed-weight inference engine for the serving hot path.

The service's predict stage used to route every flush through the
generic model path: build a ``(n * f, 3)`` grid, standardise it, run
``predict_blocked``, inverse-transform, exp, clip — twice (power and
time), each stage allocating fresh multi-megabyte arrays.  At realistic
flush sizes the hot loop was allocation/page-fault bound, not FLOP
bound.  This module packs both networks once per model fingerprint and
executes the whole stack through preallocated arenas:

* **Exact mode** (``fast=False``, the default) computes the reference
  pipeline's arithmetic into reused buffers: the same per-curve gemm
  calls (one stacked ``matmul`` per layer per chunk issues them) and
  the same elementwise values (SELU as a mask-free ``max + ALPHA *
  expm1(min)`` sum that equals the reference ``where`` bit for bit).
  Results stay *bitwise identical* to ``predict_power_many`` /
  ``predict_unit_time_many`` while the steady state allocates nothing
  but the output matrices.
* **Fast mode** (``fast=True``) folds the x-scaler affine into layer 0
  and the y-scaler inverse into the last layer (DESIGN.md §13 derives
  why both compose), decomposes the first layer over the replicated
  grid as ``z0[i, j] = u_i + v_j`` (the frequency column is shared by
  every request, so its contribution is a pack-time constant), and runs
  the remaining gemms over L2-resident request tiles with a single-pass
  SELU blend.  Fast mode is gated by a 1e-9 rtol equivalence suite, not
  the bitwise bar.

Optionally a :class:`ShardPool` fans request rows out to worker
processes that map the packed weights via
``multiprocessing.shared_memory`` — multi-core scale-out behind a flag,
off by default.

Thread-safety: engines reuse arenas across calls and are *not* locked
internally; the owning :class:`~repro.serving.service.SelectionService`
serializes flushes, which is the intended usage.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import shared_memory

import numpy as np

from repro.core.models import InferenceSpec
from repro.nn.activations import SELU, get_activation
from repro.units import FractionArray, MHzArray, Watts, WattsArray

try:  # BLAS ``y += a*x`` keeps the fast-path SELU blend single-pass,
    # and gemm-with-beta folds the bias add into the matmul call.
    from scipy.linalg.blas import daxpy as _daxpy
    from scipy.linalg.blas import dgemm as _dgemm
except ImportError:  # pragma: no cover - scipy is a baked-in dependency
    _daxpy = None
    _dgemm = None

__all__ = ["FusedInferenceEngine", "PackedModel", "ShardPool"]

_ALPHA = SELU.ALPHA
_SCALE = SELU.SCALE
#: log2(e): SELU-layer weights are pre-scaled by this so the blend can
#: use ``exp2`` (measurably cheaper than ``exp`` here); the inverse
#: scale folds into the consumer layer, see ``_pack_fast``.
_LOG2E = 1.4426950408889634
#: axpy coefficient of the exp2 blend (ALPHA * LOG2E, see _activate_fast).
_BLEND_A = _ALPHA * _LOG2E

#: Requests per fast-path tile.  One tile's working set (two ping-pong
#: gemm buffers plus the activation scratch, each tile * n_freqs rows x
#: 64 columns) must stay inside L2 so the layer walk runs cache-resident
#: instead of DRAM-bound; 12 requests x 61 clocks ~ 3 x 0.35 MiB of
#: float64, the measured sweet spot on a 2 MiB L2.
_TILE_REQS = 12

#: Requests per exact-path chunk.  Each SELU layer makes 6 full-SIMD
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
    """In-place TDP rescale + clip, mirroring ``predict_power_many``."""
    if power_scale_w is not None:
        np.multiply(curves, power_scale_w, out=curves)
    np.maximum(curves, 0.0, out=curves)


def _finalize_unit_time(curves: np.ndarray) -> None:
    """In-place floor clip, mirroring ``predict_unit_time_many``."""
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

    def __init__(
        self,
        spec: InferenceSpec,
        freqs_mhz: MHzArray,
        *,
        fast: bool = False,
        tile_reqs: int = _TILE_REQS,
        chunk_reqs: int = _CHUNK_REQS,
    ) -> None:
        if tile_reqs < 1 or chunk_reqs < 1:
            raise ValueError("tile_reqs and chunk_reqs must be >= 1")
        if not spec.layers:
            raise ValueError("inference spec has no layers")
        if spec.layers[0][0].shape[0] != 3:
            raise ValueError("packed inference expects the paper's 3-feature input")
        self.fingerprint = spec.fingerprint
        self.log_target = spec.log_target
        self.fast = fast
        self.tile_reqs = tile_reqs
        self.chunk_reqs = chunk_reqs
        self._freqs = np.ascontiguousarray(freqs_mhz, dtype=float)
        if self._freqs.ndim != 1 or self._freqs.size < 1:
            raise ValueError("freqs_mhz must be a non-empty 1-D grid")
        self._arena = _Arena()
        if fast:
            self._pack_fast(spec)
        else:
            self._pack_exact(spec)

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------
    def _pack_exact(self, spec: InferenceSpec) -> None:
        # Verbatim copies: the exact path repeats the reference
        # arithmetic, so the parameters must be untouched.
        self._x_mean = spec.x_mean
        self._x_scale = spec.x_scale
        self._y_mean = spec.y_mean
        self._y_scale = spec.y_scale
        self._layers = list(spec.layers)

    def _pack_fast(self, spec: InferenceSpec) -> None:
        acts = [act for _, _, act in spec.layers]
        unsupported = sorted(set(acts) - {"selu", "relu", "linear"})
        if unsupported:
            raise ValueError(
                f"fast mode folds selu/relu/linear stacks only, got {unsupported}; "
                "use the exact mode for other activations"
            )
        w0, b0, act0 = spec.layers[0]
        # Fold the x-standardisation into layer 0:
        #   ((x - m) / s) @ W0 + b0  ==  x @ (W0 / s[:, None]) + (b0 - (m / s) @ W0)
        w0_folded = w0 / spec.x_scale[:, None]
        b0_folded = b0 - (spec.x_mean / spec.x_scale) @ w0

        # Every remaining rewrite is one affine bookkeeping exercise: the
        # packed network carries ``computed = a * true + s`` (scalar a, s)
        # between layers, where ``true`` is the reference activation
        # output, and each consumer's weights/bias compensate:
        #   W' = (a_pre / a) * W        b' = a_pre * b - s * colsum(W')
        # with ``a_pre`` the scale the *next* stage wants on its input.
        # Three folds ride on this single recurrence:
        #   * SELU's outer SCALE (a picks up 1/SCALE after each selu);
        #   * the exp2 blend — a selu layer wants its pre-activation
        #     times LOG2E so that exp2(min(z', 0)) == exp(min(z, 0)),
        #     ``exp2`` being the cheaper ufunc (a_pre = LOG2E), and the
        #     blend emits LOG2E * (inner + ALPHA), i.e. a = LOG2E/SCALE
        #     relative to the true selu output with drift s = LOG2E*ALPHA
        #     (the +ALPHA because the negative branch uses plain exp
        #     instead of expm1 — exp is the ~2x-throughput ufunc);
        #   * the y-inverse affine, folded into the final linear layer
        #     (a_pre = y_scale, plus y_mean on the bias) or left as a
        #     scalar out-affine when the output activation is nonlinear.
        def act_state(act: str) -> tuple[float, float]:
            if act == "selu":
                return _LOG2E / _SCALE, _LOG2E * _ALPHA
            return 1.0, 0.0

        a_pre0 = _LOG2E if act0 == "selu" else 1.0
        self._u_w = np.ascontiguousarray(a_pre0 * w0_folded[:2])
        self._u_b = np.ascontiguousarray(a_pre0 * b0_folded)
        # The grid row for request i at clock j is (fp_i, dram_i, f_j), so
        # layer 0's pre-activation splits as u_i + v_j; v is a pack-time
        # constant of the clock grid — the first gemm disappears entirely.
        self._v = np.ascontiguousarray(self._freqs[:, None] * (a_pre0 * w0_folded[2]))
        self._act0 = act0

        a, s = act_state(act0)
        y_scale = float(spec.y_scale[0])
        y_mean = float(spec.y_mean[0])
        n_hidden = len(spec.layers) - 1
        stack: list[tuple[np.ndarray, np.ndarray, str]] = []
        self._out_affine: tuple[float, float] | None = None
        for idx, (w, b, act) in enumerate(spec.layers[1:]):
            if idx == n_hidden - 1 and act == "linear":
                wp = np.ascontiguousarray((y_scale / a) * w)
                bp = y_scale * b - s * wp.sum(axis=0) + y_mean
                a, s = 1.0, 0.0
            else:
                a_pre = _LOG2E if act == "selu" else 1.0
                wp = np.ascontiguousarray((a_pre / a) * w)
                bp = a_pre * b - s * wp.sum(axis=0)
                a, s = act_state(act)
            stack.append((wp, np.ascontiguousarray(bp), act))
        if not (stack and stack[-1][2] == "linear"):
            self._out_affine = (y_scale / a, y_mean - s * (y_scale / a))
        self._stack = stack
        # The (h, 1) output layer can gemm straight into the caller's
        # out-matrix view — one tile copy less per flush.
        self._direct_out = bool(stack) and stack[-1][0].shape[1] == 1
        # Bias templates for gemm-beta fusion: dgemm(..., beta=1) lands
        # ``x @ W + b`` in one BLAS call when the output buffer is
        # pre-filled with the broadcast bias (a memcpy, cheaper than a
        # separate broadcast add pass).
        rows_max = self.tile_reqs * self._freqs.size
        self._btiles: list[np.ndarray | None] = [
            np.ascontiguousarray(np.broadcast_to(b, (rows_max, w.shape[1])))
            if _dgemm is not None and w.shape[1] > 1
            else None
            for w, b, _ in stack
        ]

    # ------------------------------------------------------------------
    # Forward passes
    # ------------------------------------------------------------------
    def forward_into(
        self,
        fp_active: FractionArray,
        dram_active: FractionArray,
        out: np.ndarray,
        finalize=None,
    ) -> None:
        """Fill ``out`` (n, n_freqs) with the model curve per profile.

        ``finalize`` (optional) is an in-place callable applied to each
        tile/chunk view of ``out`` while it is still cache-resident —
        the engine passes its rescale/clip stage here so those passes
        never re-stream the full matrix from DRAM.  Its ops must be
        elementwise for the chunked application to match a whole-matrix
        pass bitwise (the engine's are: scalar multiply and clips).
        """
        n = fp_active.shape[0]
        f = self._freqs.size
        if out.shape != (n, f):
            raise ValueError(f"out must have shape ({n}, {f}), got {out.shape}")
        if self.fast and self._direct_out and not out.flags.c_contiguous:
            raise ValueError("fast-path out matrix must be C-contiguous")
        if n == 0:
            return
        if self.fast:
            self._forward_fast(fp_active, dram_active, out, finalize)
        else:
            self._forward_exact(fp_active, dram_active, out, finalize)

    def _forward_exact(self, fp: np.ndarray, dram: np.ndarray, out: np.ndarray, finalize=None) -> None:
        """Reference pipeline replay into arenas (bitwise-identical).

        Chunk boundaries fall on whole requests, and each layer's gemm
        is one stacked ``matmul`` over the chunk's ``(t, f, k)`` view:
        numpy loops that stack dimension issuing one BLAS call per
        curve, with the same operand shapes and leading dimensions as
        ``predict_blocked``'s per-block ``@``.  Every other stage is an
        elementwise ufunc, which chunking and ``out=`` placement cannot
        perturb.
        """
        n = fp.shape[0]
        f = self._freqs.size
        arena = self._arena
        for c0 in range(0, n, self.chunk_reqs):
            c1 = min(c0 + self.chunk_reqs, n)
            t = c1 - c0
            rows = t * f
            x = arena.take("x", rows, 3)
            grid = x.reshape(t, f, 3)
            grid[:, :, 0] = fp[c0:c1, None]
            grid[:, :, 1] = dram[c0:c1, None]
            grid[:, :, 2] = self._freqs
            np.subtract(x, self._x_mean, out=x)
            np.divide(x, self._x_scale, out=x)
            cur = x
            for li, (w, b, act) in enumerate(self._layers):
                k, h = w.shape
                z = arena.take(f"z{li}", rows, h)
                np.matmul(cur.reshape(t, f, k), w, out=z.reshape(t, f, h))
                np.add(z, b, out=z)
                cur = self._activate_exact(act, z)
            np.multiply(cur, self._y_scale, out=cur)
            np.add(cur, self._y_mean, out=cur)
            if self.log_target:
                np.exp(cur, out=cur)
            out[c0:c1] = cur.reshape(t, f)
            if finalize is not None:
                finalize(out[c0:c1])

    def _activate_exact(self, act: str, z: np.ndarray) -> np.ndarray:
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

    def _forward_fast(self, fp: np.ndarray, dram: np.ndarray, out: np.ndarray, finalize=None) -> None:
        # Tile working set is deliberately three buffers — two ping-pong
        # gemm operands plus one activation scratch (~1.5 MiB at the
        # default tile) — so a whole tile's layer walk stays L2-resident;
        # a buffer per layer was measured L2-thrashing at 64-wide stacks.
        n = fp.shape[0]
        f = self._freqs.size
        arena = self._arena
        h0 = self._u_b.size
        last = len(self._stack) - 1
        xin = arena.take("xin", n, 2)
        xin[:, 0] = fp
        xin[:, 1] = dram
        u = arena.take("u", n, h0)
        np.dot(xin, self._u_w, out=u)
        np.add(u, self._u_b, out=u)
        for c0 in range(0, n, self.tile_reqs):
            c1 = min(c0 + self.tile_reqs, n)
            t = c1 - c0
            rows = t * f
            view = out[c0:c1]
            z = arena.take("za", rows, h0)
            np.add(u[c0:c1, None, :], self._v, out=z.reshape(t, f, h0))
            cur = self._activate_fast(self._act0, z)
            flip = 1
            for li, (w, b, act) in enumerate(self._stack):
                if li == last and self._direct_out:
                    zz = view.reshape(rows, 1)
                else:
                    zz = arena.take("zb" if flip else "za", rows, w.shape[1])
                    flip ^= 1
                btile = self._btiles[li]
                if btile is not None:
                    # One BLAS call for x @ W + b: pre-fill with the bias
                    # (memcpy) and accumulate the product via beta=1.  A
                    # C-order matmul is the F-order matmul of the
                    # transposes, which is what the raw dgemm wants.
                    np.copyto(zz, btile[:rows])
                    _dgemm(1.0, w.T, cur.T, beta=1.0, c=zz.T, overwrite_c=1)
                else:
                    np.dot(cur, w, out=zz)
                    np.add(zz, b, out=zz)
                cur = self._activate_fast(act, zz)
            if self._out_affine is not None:
                a, c = self._out_affine
                np.multiply(cur, a, out=cur)
                np.add(cur, c, out=cur)
            if not self._direct_out:
                view[...] = cur.reshape(t, f)
            if self.log_target:
                np.exp(view, out=view)
            if finalize is not None:
                finalize(view)

    def _activate_fast(self, act: str, z: np.ndarray) -> np.ndarray:
        if act == "linear":
            return z
        if act == "relu":
            np.maximum(z, 0.0, out=z)
            return z
        # SELU blend on the LOG2E-scaled pre-activation z = LOG2E * z_true
        # (see _pack_fast):  max(z, 0) + ALPHA*LOG2E * exp2(min(z, 0))
        #                 == LOG2E * (selu_inner(z_true) + ALPHA),
        # an affine of the true output that the consumer layer undoes.
        # ``z - min(z, 0)`` IS max(z, 0) exactly (z>0: z-0; z<=0: z-z),
        # and a BLAS axpy runs that subtraction cheaper than a second
        # ufunc pass.  Ufunc `where=` kwargs drop to scalar loops — keep
        # every pass full-SIMD instead.
        rows, cols = z.shape
        t = self._arena.take(f"t{cols}", rows, cols)
        np.minimum(z, 0.0, out=t)
        if _daxpy is not None:
            zf = z.reshape(-1)
            tf = t.reshape(-1)
            _daxpy(tf, zf, a=-1.0)
            np.exp2(t, out=t)
            _daxpy(tf, zf, a=_BLEND_A)
        else:
            np.subtract(z, t, out=z)
            np.exp2(t, out=t)
            np.multiply(t, _BLEND_A, out=t)
            np.add(z, t, out=z)
        return z


class FusedInferenceEngine:
    """Both serving DNNs packed behind one :meth:`infer` call.

    Construct once per (power, time) fingerprint pair — the service
    rebuilds it from :meth:`~repro.core.models._RegressionModel.inference_spec`
    whenever :meth:`~repro.serving.service.SelectionService.refresh_models`
    detects new weights.  ``power_scale_w`` carries the TDP rescale the
    service would otherwise pass to ``predict_power_many`` (None for
    absolute-watt models).  ``shards > 1`` routes fast-path flushes
    through a :class:`ShardPool`.
    """

    def __init__(
        self,
        power_spec: InferenceSpec,
        time_spec: InferenceSpec,
        freqs_mhz: MHzArray,
        *,
        power_scale_w: Watts | None = None,
        fast: bool = False,
        shards: int = 1,
        tile_reqs: int = _TILE_REQS,
        chunk_reqs: int = _CHUNK_REQS,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.freqs_mhz = np.ascontiguousarray(freqs_mhz, dtype=float)
        self.fast = fast
        self.shards = shards
        self.power_scale_w = None if power_scale_w is None else float(power_scale_w)
        self.fingerprints = (power_spec.fingerprint, time_spec.fingerprint)
        self._power = PackedModel(
            power_spec, self.freqs_mhz, fast=fast, tile_reqs=tile_reqs, chunk_reqs=chunk_reqs
        )
        self._time = PackedModel(
            time_spec, self.freqs_mhz, fast=fast, tile_reqs=tile_reqs, chunk_reqs=chunk_reqs
        )
        self._pool: ShardPool | None = None
        if shards > 1:
            self._pool = ShardPool(
                power_spec,
                time_spec,
                self.freqs_mhz,
                power_scale_w=self.power_scale_w,
                n_shards=shards,
                fast=fast,
            )

    @property
    def mode(self) -> str:
        """Human-readable engine configuration for stats/CLI output."""
        base = "fused" if self.fast else "exact"
        return f"{base}x{self.shards}" if self.shards > 1 else base

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
        if self._pool is not None and n >= self._pool.n_shards:
            sharded = self._pool.infer(fp, dram)
            if sharded is not None:
                return sharded
        power = np.empty((n, f))
        unit_time = np.empty((n, f))
        scale = self.power_scale_w
        self._power.forward_into(fp, dram, power, finalize=lambda v: _finalize_power(v, scale))
        self._time.forward_into(fp, dram, unit_time, finalize=_finalize_unit_time)
        return power, unit_time

    def close(self) -> None:
        """Stop the shard pool (no-op for single-shard engines)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "FusedInferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Multiprocess shard pool
# ----------------------------------------------------------------------
def _spec_arrays(spec: InferenceSpec) -> list[np.ndarray]:
    """Canonical array order used by the shared-memory weight layout."""
    arrays = [spec.x_mean, spec.x_scale, spec.y_mean, spec.y_scale]
    for w, b, _ in spec.layers:
        arrays.append(w)
        arrays.append(b)
    return arrays


def _rebuild_spec(base: np.ndarray, manifest: list[tuple[int, tuple[int, ...]]], meta: dict) -> InferenceSpec:
    """Reconstruct an :class:`InferenceSpec` from shared-memory views."""
    views = [base[off : off + int(np.prod(shape, dtype=int))].reshape(shape) for off, shape in manifest]
    layers = tuple(
        (views[4 + 2 * i], views[5 + 2 * i], act) for i, act in enumerate(meta["acts"])
    )
    return InferenceSpec(
        x_mean=views[0],
        x_scale=views[1],
        y_mean=views[2],
        y_scale=views[3],
        log_target=meta["log_target"],
        layers=layers,
        fingerprint=meta["fingerprint"],
    )


def _shard_worker(
    conn,
    weights_name: str,
    io_name: str,
    manifests: tuple[list, list],
    metas: tuple[dict, dict],
    freqs: np.ndarray,
    power_scale_w: float | None,
    fast: bool,
    capacity: int,
) -> None:  # pragma: no cover - exercised in a child process
    weights_shm = shared_memory.SharedMemory(name=weights_name)
    try:
        # The io attach can itself fail — nested try/finally so the
        # weights mapping never outlives this worker on any path.
        io_shm = shared_memory.SharedMemory(name=io_name)
        try:
            total = weights_shm.size // 8
            base = np.ndarray((total,), dtype=np.float64, buffer=weights_shm.buf)
            power_model = PackedModel(_rebuild_spec(base, manifests[0], metas[0]), freqs, fast=fast)
            time_model = PackedModel(_rebuild_spec(base, manifests[1], metas[1]), freqs, fast=fast)
            f = freqs.size
            io = np.ndarray((2 * capacity + 2 * capacity * f,), dtype=np.float64, buffer=io_shm.buf)
            fp_col = io[:capacity]
            dram_col = io[capacity : 2 * capacity]
            power_out = io[2 * capacity : 2 * capacity + capacity * f].reshape(capacity, f)
            unit_out = io[2 * capacity + capacity * f :].reshape(capacity, f)
            conn.send("ready")
            while True:
                message = conn.recv()
                if message is None:
                    return
                start, stop = message
                try:
                    power_model.forward_into(
                        fp_col[start:stop],
                        dram_col[start:stop],
                        power_out[start:stop],
                        finalize=lambda v: _finalize_power(v, power_scale_w),
                    )
                    time_model.forward_into(
                        fp_col[start:stop], dram_col[start:stop], unit_out[start:stop], finalize=_finalize_unit_time
                    )
                    conn.send(True)
                except Exception as exc:  # defensive: surface worker faults to the parent
                    conn.send(exc)
        finally:
            io_shm.close()
    finally:
        weights_shm.close()


class ShardPool:
    """Row-sharded inference across worker processes.

    The packed weights are written *once* into a shared-memory block;
    each worker maps it read-only and rebuilds its own
    :class:`PackedModel` pair over the mapped views, so forking N shards
    costs no weight copies.  Per flush, the parent writes the input
    columns into a shared I/O block, hands each worker a contiguous row
    range, and reads the results back — whole requests per shard, so
    exact-mode shards preserve the per-curve gemm blocking (and hence
    bitwiseness) too.

    Flushes larger than ``capacity`` rows fall back to in-process
    inference (:meth:`infer` returns None).  Single-flight use is the
    owner's responsibility — the service's flush lock provides it.
    """

    def __init__(
        self,
        power_spec: InferenceSpec,
        time_spec: InferenceSpec,
        freqs_mhz: MHzArray,
        *,
        power_scale_w: Watts | None = None,
        n_shards: int = 2,
        fast: bool = True,
        capacity: int = 8192,
    ) -> None:
        if n_shards < 2:
            raise ValueError("a shard pool needs n_shards >= 2")
        if capacity < n_shards:
            raise ValueError("capacity must be >= n_shards")
        self.n_shards = n_shards
        self.capacity = capacity
        self._closed = False
        freqs = np.ascontiguousarray(freqs_mhz, dtype=float)
        f = freqs.size

        arrays = [_spec_arrays(power_spec), _spec_arrays(time_spec)]
        manifests: list[list[tuple[int, tuple[int, ...]]]] = [[], []]
        offset = 0
        for which, group in enumerate(arrays):
            for arr in group:
                manifests[which].append((offset, arr.shape))
                offset += arr.size
        self._weights_shm = shared_memory.SharedMemory(create=True, size=max(offset, 1) * 8)
        # Everything past the first block's creation runs under the
        # cleanup guard: a failed io-block allocation or worker spawn must
        # not leak the already-created /dev/shm segments.
        self._workers = []
        self._conns = []
        try:
            base = np.ndarray((offset,), dtype=np.float64, buffer=self._weights_shm.buf)
            cursor = 0
            for group in arrays:
                for arr in group:
                    flat = np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)
                    base[cursor : cursor + flat.size] = flat
                    cursor += flat.size
            metas = (
                {
                    "log_target": power_spec.log_target,
                    "fingerprint": power_spec.fingerprint,
                    "acts": [act for _, _, act in power_spec.layers],
                },
                {
                    "log_target": time_spec.log_target,
                    "fingerprint": time_spec.fingerprint,
                    "acts": [act for _, _, act in time_spec.layers],
                },
            )

            io_elems = 2 * capacity + 2 * capacity * f
            self._io_shm = shared_memory.SharedMemory(create=True, size=io_elems * 8)
            io = np.ndarray((io_elems,), dtype=np.float64, buffer=self._io_shm.buf)
            self._fp_col = io[:capacity]
            self._dram_col = io[capacity : 2 * capacity]
            self._power_out = io[2 * capacity : 2 * capacity + capacity * f].reshape(capacity, f)
            self._unit_out = io[2 * capacity + capacity * f :].reshape(capacity, f)

            # fork shares the parent's page cache with zero pickling; fall
            # back to the platform default (spawn) where fork is unavailable.
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-fork platforms
                ctx = multiprocessing.get_context()
            for _ in range(n_shards):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(
                        child_conn,
                        self._weights_shm.name,
                        self._io_shm.name,
                        tuple(manifests),
                        metas,
                        freqs,
                        None if power_scale_w is None else float(power_scale_w),
                        fast,
                        capacity,
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._workers.append(proc)
                self._conns.append(parent_conn)
            for conn in self._conns:
                if conn.recv() != "ready":  # pragma: no cover - handshake guard
                    raise RuntimeError("shard worker failed to initialise")
        except BaseException:
            self.close()
            raise

    def infer(self, fp_active: np.ndarray, dram_active: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """Sharded curve matrices, or None when the flush exceeds capacity."""
        if self._closed:
            raise RuntimeError("shard pool is closed")
        n = fp_active.size
        if n > self.capacity:
            return None
        self._fp_col[:n] = fp_active
        self._dram_col[:n] = dram_active
        active = []
        for i, conn in enumerate(self._conns):
            start = i * n // self.n_shards
            stop = (i + 1) * n // self.n_shards
            if stop > start:
                conn.send((start, stop))
                active.append(conn)
        failure: Exception | None = None
        for conn in active:
            result = conn.recv()
            if isinstance(result, Exception) and failure is None:
                failure = result
        if failure is not None:
            raise failure
        return np.array(self._power_out[:n]), np.array(self._unit_out[:n])

    def close(self) -> None:
        """Stop the workers and release the shared-memory blocks."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._workers:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        for conn in self._conns:
            conn.close()
        # _io_shm does not exist yet when construction fails between the
        # two allocations — the cleanup guard still routes through here.
        for shm in (self._weights_shm, getattr(self, "_io_shm", None)):
            if shm is None:
                continue
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
