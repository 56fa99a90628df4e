"""Multi-head self-attention with exact manual backward."""

from __future__ import annotations

import numpy as np

from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.utils.seeding import RngStream

__all__ = ["MultiHeadSelfAttention", "softmax", "softmax_backward"]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(y: np.ndarray, grad_out: np.ndarray, axis: int = -1) -> np.ndarray:
    """Backward of softmax given its output ``y``."""
    dot = (grad_out * y).sum(axis=axis, keepdims=True)
    return y * (grad_out - dot)


class MultiHeadSelfAttention(Module):
    """Standard (bidirectional) multi-head self-attention over (B, T, H)."""

    def __init__(self, dim: int, num_heads: int, rng: RngStream | None = None):
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        rng = rng or RngStream(0, "mhsa")
        self.q_proj = Linear(dim, dim, rng=rng.child("q"))
        self.k_proj = Linear(dim, dim, rng=rng.child("k"))
        self.v_proj = Linear(dim, dim, rng=rng.child("v"))
        self.out_proj = Linear(dim, dim, rng=rng.child("out"))
        self._cache: tuple | None = None

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, t, _ = x.shape
        return x.reshape(b, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        b, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * d)

    def forward(self, x: np.ndarray) -> np.ndarray:
        q = self._split(self.q_proj(x))
        k = self._split(self.k_proj(x))
        v = self._split(self.v_proj(x))
        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k.swapaxes(-1, -2)) * scale
        attn = softmax(scores, axis=-1)
        ctx = attn @ v
        self._cache = (q, k, v, attn, scale)
        return self.out_proj(self._merge(ctx))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        q, k, v, attn, scale = self._cache
        g_ctx = self._split(self.out_proj.backward(grad_out))
        g_attn = g_ctx @ v.swapaxes(-1, -2)
        g_v = attn.swapaxes(-1, -2) @ g_ctx
        g_scores = softmax_backward(attn, g_attn, axis=-1) * scale
        g_q = g_scores @ k
        g_k = g_scores.swapaxes(-1, -2) @ q
        g_x = self.q_proj.backward(self._merge(g_q))
        g_x = g_x + self.k_proj.backward(self._merge(g_k))
        g_x = g_x + self.v_proj.backward(self._merge(g_v))
        return g_x
