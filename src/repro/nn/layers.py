"""Dense (fully connected) layer with backpropagation.

Implements the neuron of paper Eq. 5: ``s = sum(w_i x_i) + b`` followed by
the activation, vectorized as ``A = act(X @ W + b)`` over the batch.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import Activation, get_activation
from repro.nn.initializers import for_activation

__all__ = ["Dense"]


class Dense:
    """Fully connected layer ``y = act(x @ W + b)``.

    Parameters live in :attr:`params` and the matching gradients (after a
    backward pass) in :attr:`grads`, both keyed ``"W"`` / ``"b"`` — the
    contract optimizers rely on.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: Activation | str = "linear",
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("in_features and out_features must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.activation = get_activation(activation) if isinstance(activation, str) else activation
        # A fixed-seed default keeps standalone layers reproducible; the
        # network builder always threads its own SeedSequence-derived rng.
        rng = rng if rng is not None else np.random.default_rng(0)
        init = for_activation(self.activation.name)
        self.params: dict[str, np.ndarray] = {
            "W": init(rng, in_features, out_features),
            "b": np.zeros(out_features),
        }
        self.grads: dict[str, np.ndarray] = {}
        self._x: np.ndarray | None = None
        self._z: np.ndarray | None = None

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        """Batch forward pass; caches inputs when ``training``."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"expected input of shape (batch, {self.in_features}), got {x.shape}")
        z = x @ self.params["W"] + self.params["b"]
        if training:
            self._x, self._z = x, z
        return self.activation(z)

    def spec(self) -> tuple[np.ndarray, np.ndarray, str]:
        """Packed-inference export: ``(W, b, activation_name)``.

        Returns C-contiguous float64 *copies* so an inference engine never
        aliases the trainable parameters — later training steps must
        never mutate a packed engine's weights.
        """
        return (
            np.ascontiguousarray(self.params["W"], dtype=float),
            np.ascontiguousarray(self.params["b"], dtype=float),
            self.activation.name,
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backprop: consumes dL/dA, fills grads, returns dL/dX.

        Gradients are *mean-reduced* over the batch (matching the MSE loss
        convention in :mod:`repro.nn.losses`), so learning rates transfer
        across batch sizes.
        """
        if self._x is None or self._z is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        grad_z = grad_out * self.activation.derivative(self._z)
        self.grads["W"] = self._x.T @ grad_z
        self.grads["b"] = grad_z.sum(axis=0)
        return grad_z @ self.params["W"].T

    def num_parameters(self) -> int:
        """Total trainable scalars in this layer."""
        return sum(int(p.size) for p in self.params.values())
