"""A fused-gate LSTM layer with full backpropagation through time.

Gate layout in the fused weight matrices is ``[i | f | o | g]`` (input,
forget, output, candidate).  The layer processes whole (batch, time,
feature) tensors; :meth:`LSTM.backward` accepts per-step hidden-state
gradients and returns gradients w.r.t. the inputs, accumulating
parameter gradients internally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, ModelError
from .inference import INFER_BLOCK_ROWS, row_matmul


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class LSTM:
    """Single LSTM layer over full sequences.

    Args:
        input_dim: Feature size of each timestep input.
        hidden_dim: Hidden/cell state size.
        rng: Generator for parameter initialisation.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator] = None):
        if input_dim < 1 or hidden_dim < 1:
            raise ConfigError("LSTM dimensions must be >= 1")
        rng = rng or np.random.default_rng()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        scale = 1.0 / np.sqrt(input_dim + hidden_dim)
        self.wx = rng.normal(0.0, scale, size=(input_dim, 4 * hidden_dim))
        self.wh = rng.normal(0.0, scale, size=(hidden_dim, 4 * hidden_dim))
        self.b = np.zeros(4 * hidden_dim)
        # Standard trick: bias the forget gate open at init.
        self.b[hidden_dim:2 * hidden_dim] = 1.0
        self.dwx = np.zeros_like(self.wx)
        self.dwh = np.zeros_like(self.wh)
        self.db = np.zeros_like(self.b)
        self._cache: Optional[List[Tuple]] = None
        self._inputs: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray,
                h0: Optional[np.ndarray] = None,
                c0: Optional[np.ndarray] = None) -> np.ndarray:
        """Run the layer over ``x`` of shape (batch, time, input_dim).

        Returns:
            Hidden states of shape (batch, time, hidden_dim).
        """
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ModelError(
                f"expected (B, T, {self.input_dim}) input, got {x.shape}")
        batch, time, _ = x.shape
        hd = self.hidden_dim
        h = np.zeros((batch, hd)) if h0 is None else h0
        c = np.zeros((batch, hd)) if c0 is None else c0
        outputs = np.zeros((batch, time, hd))
        cache: List[Tuple] = []
        for t in range(time):
            z = x[:, t, :] @ self.wx + h @ self.wh + self.b
            i = _sigmoid(z[:, :hd])
            f = _sigmoid(z[:, hd:2 * hd])
            o = _sigmoid(z[:, 2 * hd:3 * hd])
            g = np.tanh(z[:, 3 * hd:])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            cache.append((h, c, i, f, o, g, tanh_c))
            h, c = h_new, c_new
            outputs[:, t, :] = h
        self._cache = cache
        self._inputs = x
        return outputs

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference-only :meth:`forward` from a zero state.

        Keeps no backward cache (``_cache``/``_inputs`` stay as the
        last training step left them) and contracts with
        :func:`~repro.ml.inference.row_matmul`, so each row's hidden
        states have the same bits whatever batch the row arrives in.
        Rows run :data:`~repro.ml.inference.INFER_BLOCK_ROWS` at a time.

        Returns:
            Hidden states of shape (batch, time, hidden_dim).
        """
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ModelError(
                f"expected (B, T, {self.input_dim}) input, got {x.shape}")
        batch, time, _ = x.shape
        hd = self.hidden_dim
        outputs = np.empty((batch, time, hd))
        for start in range(0, batch, INFER_BLOCK_ROWS):
            block = x[start:start + INFER_BLOCK_ROWS]
            rows = block.shape[0]
            h = np.zeros((rows, hd))
            c = np.zeros((rows, hd))
            for t in range(time):
                z = (row_matmul(block[:, t, :], self.wx)
                     + row_matmul(h, self.wh) + self.b)
                # One elementwise call for the three sigmoid gates.
                ifo = _sigmoid(z[:, :3 * hd])
                g = np.tanh(z[:, 3 * hd:])
                c = ifo[:, hd:2 * hd] * c + ifo[:, :hd] * g
                h = ifo[:, 2 * hd:] * np.tanh(c)
                outputs[start:start + rows, t, :] = h
        return outputs

    def backward(self, grad_h: np.ndarray) -> np.ndarray:
        """BPTT given per-step hidden gradients (batch, time, hidden).

        Use a zeros tensor with only the last step populated when the
        loss depends only on the final hidden state.

        Returns:
            Gradient w.r.t. the input tensor (batch, time, input_dim).
        """
        if self._cache is None or self._inputs is None:
            raise ModelError("backward called before forward")
        x = self._inputs
        batch, time, _ = x.shape
        hd = self.hidden_dim
        dx = np.zeros_like(x)
        dh_next = np.zeros((batch, hd))
        dc_next = np.zeros((batch, hd))
        for t in reversed(range(time)):
            h_prev, c_prev, i, f, o, g, tanh_c = self._cache[t]
            dh = grad_h[:, t, :] + dh_next
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c ** 2) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dz = np.concatenate([
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                do * o * (1.0 - o),
                dg * (1.0 - g ** 2),
            ], axis=1)
            self.dwx += x[:, t, :].T @ dz
            self.dwh += h_prev.T @ dz
            self.db += dz.sum(axis=0)
            dx[:, t, :] = dz @ self.wx.T
            dh_next = dz @ self.wh.T
            dc_next = dc * f
        return dx

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"wx": self.wx, "wh": self.wh, "b": self.b}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {"wx": self.dwx, "wh": self.dwh, "b": self.db}

    def zero_grad(self) -> None:
        self.dwx.fill(0.0)
        self.dwh.fill(0.0)
        self.db.fill(0.0)
