"""Feedforward network: a stack of Dense layers with backprop training.

The paper's architecture — 3 hidden layers x 64 SELU neurons with a
linear regression output — is ``FeedForwardNetwork.build(3, (64, 64, 64),
1, activation="selu", seed=...)``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.layers import Dense
from repro.nn.losses import Loss
from repro.nn.optimizers import Optimizer

__all__ = ["FeedForwardNetwork"]


class FeedForwardNetwork:
    """A sequential stack of :class:`~repro.nn.layers.Dense` layers."""

    def __init__(self, layers: Sequence[Dense]) -> None:
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_features != nxt.in_features:
                raise ValueError(
                    f"layer size mismatch: {prev.out_features} outputs feeding {nxt.in_features} inputs"
                )
        self.layers = list(layers)

    @classmethod
    def build(
        cls,
        input_dim: int,
        hidden: Sequence[int],
        output_dim: int,
        *,
        activation: str = "selu",
        output_activation: str = "linear",
        seed: int | None = None,
    ) -> "FeedForwardNetwork":
        """Construct input -> hidden* -> output with one activation family."""
        rng = np.random.default_rng(seed)
        dims = [input_dim, *hidden]
        layers = [
            Dense(d_in, d_out, activation, rng=rng) for d_in, d_out in zip(dims, dims[1:])
        ]
        layers.append(Dense(dims[-1], output_dim, output_activation, rng=rng))
        return cls(layers)

    # ------------------------------------------------------------------
    @property
    def input_dim(self) -> int:
        """Expected feature count."""
        return self.layers[0].in_features

    @property
    def output_dim(self) -> int:
        """Prediction width."""
        return self.layers[-1].out_features

    def num_parameters(self) -> int:
        """Total trainable scalars."""
        return sum(layer.num_parameters() for layer in self.layers)

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        """Full forward pass over a (batch, features) array."""
        out = np.asarray(x, dtype=float)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass."""
        return self.forward(x, training=False)

    def layer_specs(self) -> tuple[tuple[np.ndarray, np.ndarray, str], ...]:
        """Packed-inference export of every layer (see :meth:`Dense.spec`).

        The tuple is what :class:`repro.serving.engine.PackedModel` packs:
        contiguous weight/bias copies plus activation names, in forward
        order.
        """
        return tuple(layer.spec() for layer in self.layers)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backprop through all layers; returns dL/dinput."""
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def train_batch(self, x: np.ndarray, y: np.ndarray, loss: Loss, optimizer: Optimizer) -> float:
        """One forward/backward/update step on a mini-batch; returns loss."""
        y_pred = self.forward(x, training=True)
        value = loss(y_pred, y)
        self.backward(loss.gradient(y_pred, y))
        optimizer.begin_step()
        for i, layer in enumerate(self.layers):
            for name, param in layer.params.items():
                optimizer.update((i, name), param, layer.grads[name])
        return value

    def evaluate(self, x: np.ndarray, y: np.ndarray, loss: Loss) -> float:
        """Loss on held-out data (no parameter updates)."""
        return loss(self.predict(x), np.asarray(y, dtype=float))
