"""Embedding and dense layers with explicit backward passes."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import ConfigError, ModelError
from .inference import row_matmul


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilised."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy(probabilities: np.ndarray,
                  targets: np.ndarray) -> float:
    """Mean negative log-likelihood of integer ``targets``.

    Args:
        probabilities: (batch, classes) softmax output.
        targets: (batch,) integer class ids.
    """
    if probabilities.ndim != 2 or targets.ndim != 1:
        raise ModelError("cross_entropy expects (B, C) probs and (B,) targets")
    batch = probabilities.shape[0]
    picked = probabilities[np.arange(batch), targets]
    return float(-np.log(np.clip(picked, 1e-12, None)).mean())


class Embedding:
    """A trainable lookup table with sparse gradient accumulation."""

    def __init__(self, vocab_size: int, dim: int,
                 rng: Optional[np.random.Generator] = None):
        if vocab_size < 1 or dim < 1:
            raise ConfigError("vocab_size and dim must be >= 1")
        rng = rng or np.random.default_rng()
        self.vocab_size = vocab_size
        self.dim = dim
        self.weight = rng.normal(0.0, 0.1, size=(vocab_size, dim))
        self.grad = np.zeros_like(self.weight)
        self._last_indices: Optional[np.ndarray] = None

    def forward(self, indices: np.ndarray) -> np.ndarray:
        """Look up rows; ``indices`` may be any integer-shaped array."""
        indices = np.asarray(indices)
        vectors = self.lookup(indices)
        self._last_indices = indices
        return vectors

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """Inference-only :meth:`forward`: no state kept for backward."""
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0
                             or indices.max() >= self.vocab_size):
            raise ModelError("embedding index out of range")
        return self.weight[indices]

    def backward(self, grad_output: np.ndarray) -> None:
        """Accumulate gradients for the most recent forward call."""
        if self._last_indices is None:
            raise ModelError("backward called before forward")
        flat_idx = self._last_indices.reshape(-1)
        flat_grad = grad_output.reshape(-1, self.dim)
        np.add.at(self.grad, flat_idx, flat_grad)

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {"weight": self.grad}

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


class Dense:
    """Affine layer ``y = x @ W + b``."""

    def __init__(self, in_dim: int, out_dim: int,
                 rng: Optional[np.random.Generator] = None):
        if in_dim < 1 or out_dim < 1:
            raise ConfigError("layer dimensions must be >= 1")
        rng = rng or np.random.default_rng()
        scale = 1.0 / np.sqrt(in_dim)
        self.w = rng.normal(0.0, scale, size=(in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._last_input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._last_input = x
        return x @ self.w + self.b

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference-only :meth:`forward`: no state kept for backward,
        and each output row's bits are independent of the batch."""
        return row_matmul(x, self.w) + self.b

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; return gradient w.r.t. input."""
        if self._last_input is None:
            raise ModelError("backward called before forward")
        self.dw += self._last_input.T @ grad_output
        self.db += grad_output.sum(axis=0)
        return grad_output @ self.w.T

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {"w": self.dw, "b": self.db}

    def zero_grad(self) -> None:
        self.dw.fill(0.0)
        self.db.fill(0.0)
