"""Power and time DNNs with the paper's hyper-parameters (Section 4.3).

Both models are feedforward networks with 3 hidden layers of 64 SELU
neurons, trained with RMSprop on MSE at batch size 64 over an 80/20
split.  The power model trains 100 epochs; the time model 25 ("slight
overfitting was observed" beyond that — paper Fig. 6 (b)).

Features and targets are standardised internally; callers deal only in
physical units (watts / slowdown factors / seconds).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.dataset import DVFSDataset, FeatureVector
from repro.features.scaling import StandardScaler
from repro.nn.network import FeedForwardNetwork
from repro.nn.optimizers import RMSprop
from repro.nn.serialize import load_network, save_network
from repro.nn.training import History, TrainConfig, train

__all__ = ["PAPER_FEATURES", "InferenceSpec", "PowerModel", "TimeModel"]

#: The paper's Eq. 1 feature names, in canonical column order.
PAPER_FEATURES: tuple[str, ...] = ("fp_active", "dram_active", "sm_app_clock")


@dataclass(frozen=True)
class InferenceSpec:
    """Everything an external engine needs to run one model's forward pass.

    A self-contained snapshot — scaler affines, per-layer weight/bias
    copies with activation names, the target transform flag, and the
    weight fingerprint — so :mod:`repro.serving.engine` can pack the
    stack into its arenas without reaching into model internals.
    """

    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: np.ndarray
    y_scale: np.ndarray
    log_target: bool
    #: Forward-order ``(W, b, activation_name)`` copies (see Dense.spec).
    layers: tuple[tuple[np.ndarray, np.ndarray, str], ...]
    #: SHA-256 weight digest; engines key their packed arenas on it.
    fingerprint: str


class _RegressionModel:
    """Shared scaler + FNN wrapper for the two paper models.

    Targets are log-transformed before standardisation (``log_target``,
    on by default): power and time are strictly positive with
    multiplicative structure, and MSE on the log target optimises
    *relative* error — the quantity the paper's accuracy metric
    (100 - MAPE) actually measures.
    """

    #: Subclasses set these to the paper's values.
    epochs: int = 100
    target_name: str = "target"

    def __init__(
        self,
        *,
        hidden: tuple[int, ...] = (64, 64, 64),
        activation: str = "selu",
        learning_rate: float = 0.001,
        batch_size: int = 64,
        log_target: bool = True,
        seed: int = 0,
    ) -> None:
        self.hidden = hidden
        self.activation = activation
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.log_target = log_target
        self.seed = seed
        self.network: FeedForwardNetwork | None = None
        self.history: History | None = None
        self._x_scaler = StandardScaler()
        self._y_scaler = StandardScaler()

    # ------------------------------------------------------------------
    def _target(self, dataset: DVFSDataset) -> np.ndarray:
        raise NotImplementedError

    def _forward_target(self, y: np.ndarray) -> np.ndarray:
        if not self.log_target:
            return y
        if np.any(y <= 0):
            raise ValueError(f"{self.target_name}: log target requires positive values")
        return np.log(y)

    def _inverse_target(self, y: np.ndarray) -> np.ndarray:
        return np.exp(y) if self.log_target else y

    def fit(self, dataset: DVFSDataset, *, epochs: int | None = None) -> History:
        """Train on a DVFS-sweep dataset; returns the loss history."""
        x = self._x_scaler.fit_transform(dataset.x)
        y = self._y_scaler.fit_transform(self._forward_target(self._target(dataset))[:, None])
        self.network = FeedForwardNetwork.build(
            x.shape[1], self.hidden, 1, activation=self.activation, seed=self.seed
        )
        self.history = train(
            self.network,
            x,
            y,
            optimizer=RMSprop(self.learning_rate),
            loss="mse",
            config=TrainConfig(epochs=epochs if epochs is not None else self.epochs, batch_size=self.batch_size),
            seed=self.seed,
        )
        return self.history

    # ------------------------------------------------------------------
    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        """Predict in physical units from a (n, 3) feature matrix."""
        if self.network is None:
            raise RuntimeError("model used before fit()/load()")
        xs = self._x_scaler.transform(np.atleast_2d(np.asarray(x, dtype=float)))
        ys = self.network.predict(xs)
        return self._inverse_target(self._y_scaler.inverse_transform(ys)).reshape(-1)

    def predict_curve(self, features: FeatureVector, freqs_mhz: np.ndarray) -> np.ndarray:
        """Predict across a clock grid by feature replication.

        The activity features measured at the default clock are held
        constant; only ``sm_app_clock`` varies — the paper's online-phase
        mechanic (Section 4, "prediction phase").
        """
        freqs = np.asarray(freqs_mhz, dtype=float)
        x = np.column_stack(
            [
                np.full(freqs.size, features.fp_active),
                np.full(freqs.size, features.dram_active),
                freqs,
            ]
        )
        return self.predict_raw(x)

    def inference_spec(self) -> InferenceSpec:
        """Snapshot this model for an external packed-inference engine.

        Arrays are copies (see :meth:`~repro.nn.layers.Dense.spec`), so
        later training steps never reach a packed engine's weights; the
        embedded fingerprint lets the service detect refits and repack.
        """
        if self.network is None:
            raise RuntimeError("model used before fit()/load()")
        return InferenceSpec(
            x_mean=np.ascontiguousarray(self._x_scaler.mean_, dtype=float),
            x_scale=np.ascontiguousarray(self._x_scaler.scale_, dtype=float),
            y_mean=np.ascontiguousarray(self._y_scaler.mean_, dtype=float),
            y_scale=np.ascontiguousarray(self._y_scaler.scale_, dtype=float),
            log_target=self.log_target,
            layers=self.network.layer_specs(),
            fingerprint=self.fingerprint(),
        )

    def fingerprint(self) -> str:
        """Digest of the trained weights plus scaler state.

        Serving-layer cache keys include it so memoized curves can never
        outlive the model that produced them: refitting or loading other
        weights changes the fingerprint and orphans every old entry.
        """
        if self.network is None:
            raise RuntimeError("model used before fit()/load()")
        digest = hashlib.sha256()
        digest.update(type(self).__name__.encode())
        digest.update(b"log" if self.log_target else b"raw")
        for scaler in (self._x_scaler, self._y_scaler):
            digest.update(np.ascontiguousarray(scaler.mean_).tobytes())
            digest.update(np.ascontiguousarray(scaler.scale_).tobytes())
        for layer in self.network.layers:
            digest.update(np.ascontiguousarray(layer.params["W"]).tobytes())
            digest.update(np.ascontiguousarray(layer.params["b"]).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Persist network weights plus scaler state."""
        if self.network is None:
            raise RuntimeError("nothing to save before fit()")
        path = save_network(self.network, path)
        np.savez(
            path.with_suffix(".scalers.npz"),
            x_mean=self._x_scaler.mean_,
            x_scale=self._x_scaler.scale_,
            y_mean=self._y_scaler.mean_,
            y_scale=self._y_scaler.scale_,
            log_target=np.array(self.log_target),
        )
        return path

    def load(self, path: str | Path) -> None:
        """Restore a model saved by :meth:`save`."""
        path = Path(path)
        self.network = load_network(path)
        with np.load(path.with_suffix(".scalers.npz")) as data:
            self._x_scaler.mean_ = np.array(data["x_mean"])
            self._x_scaler.scale_ = np.array(data["x_scale"])
            self._y_scaler.mean_ = np.array(data["y_mean"])
            self._y_scaler.scale_ = np.array(data["y_scale"])
            self.log_target = bool(data["log_target"])


class PowerModel(_RegressionModel):
    """Predicts board power (paper Eq. 3/4; 100 epochs).

    ``reference_power_w`` enables cross-architecture portability (paper
    Section 4.2.4 / abstract): when set, training targets are normalised
    to fractions of the training GPU's TDP, and predictions can be
    rescaled to any target GPU's TDP.  Without it, the model predicts
    absolute watts and only transfers between same-envelope GPUs.
    """

    epochs = 100
    target_name = "power_usage"

    def __init__(self, *, reference_power_w: float | None = None, **kwargs) -> None:
        if reference_power_w is not None and reference_power_w <= 0:
            raise ValueError("reference_power_w must be positive")
        super().__init__(**kwargs)
        self.reference_power_w = reference_power_w

    def _target(self, dataset: DVFSDataset) -> np.ndarray:
        if self.reference_power_w is not None:
            return dataset.y_power / self.reference_power_w
        return dataset.y_power

    def predict_power(
        self,
        features: FeatureVector,
        freqs_mhz: np.ndarray,
        *,
        target_power_scale_w: float | None = None,
    ) -> np.ndarray:
        """Watts across a clock grid (clipped at zero).

        ``target_power_scale_w`` rescales TDP-normalised predictions onto
        another GPU's power envelope; it defaults to the training
        reference and is rejected when the model was trained on absolute
        watts (a silent unit mismatch otherwise).
        """
        curve = self.predict_curve(features, freqs_mhz)
        if self.reference_power_w is None:
            if target_power_scale_w is not None:
                raise ValueError(
                    "model trained on absolute watts; rebuild with reference_power_w "
                    "to rescale across architectures"
                )
            return np.maximum(curve, 0.0)
        scale = target_power_scale_w if target_power_scale_w is not None else self.reference_power_w
        return np.maximum(curve * scale, 0.0)


class TimeModel(_RegressionModel):
    """Predicts execution time (paper Eq. 6/7; 25 epochs).

    The regression target is the per-workload slowdown ``T(f)/T(f_max)``
    by default (``target="relative"``); absolute seconds are available
    for the ablation bench via ``target="absolute"``.
    """

    epochs = 25
    target_name = "execution_time"

    def __init__(self, *, target: str = "relative", **kwargs) -> None:
        if target not in ("relative", "absolute"):
            raise ValueError(f"target must be 'relative' or 'absolute', got {target!r}")
        super().__init__(**kwargs)
        self.target = target

    def _target(self, dataset: DVFSDataset) -> np.ndarray:
        return dataset.y_slowdown if self.target == "relative" else dataset.y_time

    def predict_time(
        self,
        features: FeatureVector,
        freqs_mhz: np.ndarray,
        *,
        time_at_max_s: float | None = None,
    ) -> np.ndarray:
        """Execution time in seconds across a clock grid.

        For the relative target, ``time_at_max_s`` (measured in the online
        phase) rescales slowdowns to seconds; it is required there and
        ignored for the absolute target.
        """
        curve = self.predict_curve(features, freqs_mhz)
        curve = np.maximum(curve, 1e-12)
        if self.target == "relative":
            if time_at_max_s is None:
                raise ValueError("time_at_max_s is required for the relative time target")
            return curve * float(time_at_max_s)
        return curve

    def predict_slowdown(self, features: FeatureVector, freqs_mhz: np.ndarray) -> np.ndarray:
        """Normalized execution time T(f)/T(f_max) (relative target only)."""
        if self.target != "relative":
            raise RuntimeError("slowdown prediction requires the relative target")
        return np.maximum(self.predict_curve(features, freqs_mhz), 1e-12)
