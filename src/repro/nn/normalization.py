"""Normalization layers: LayerNorm (transformers) and BatchNorm2d (ResNets)."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter

__all__ = ["LayerNorm", "BatchNorm2d"]


class LayerNorm(Module):
    """Normalize over the trailing feature dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = self.register_parameter("gamma", Parameter(np.ones(dim)))
        self.beta = self.register_parameter("beta", Parameter(np.zeros(dim)))
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # one centring pass shared by the variance and x_hat; bitwise
        # equal to x.var, which centres x again internally
        xc = x - x.mean(axis=-1, keepdims=True)
        var = (xc * xc).mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = xc * inv_std
        self._cache = (x_hat, inv_std)
        return x_hat * self.gamma.data + self.beta.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        x_hat, inv_std = self._cache
        axes = tuple(range(grad_out.ndim - 1))
        self.gamma.accumulate_grad((grad_out * x_hat).sum(axis=axes))
        self.beta.accumulate_grad(grad_out.sum(axis=axes))
        g = grad_out * self.gamma.data
        g_mean = g.mean(axis=-1, keepdims=True)
        gx_mean = (g * x_hat).mean(axis=-1, keepdims=True)
        return inv_std * (g - g_mean - x_hat * gx_mean)


class BatchNorm2d(Module):
    """Batch normalization over NCHW inputs with running statistics.

    Running statistics are part of the volatile model state: they live in
    the state dict so that checkpoints, replicas, and replayed recoveries
    all restore them (the paper's "model state" includes such buffers).
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = self.register_parameter("gamma", Parameter(np.ones(channels)))
        self.beta = self.register_parameter("beta", Parameter(np.zeros(channels)))
        # running stats are non-trainable state, registered as parameters so
        # they travel with state dicts but excluded from optimization
        self.running_mean = self.register_parameter(
            "running_mean", Parameter(np.zeros(channels), requires_grad=False)
        )
        self.running_var = self.register_parameter(
            "running_var", Parameter(np.ones(channels), requires_grad=False)
        )
        self._cache: tuple[np.ndarray, np.ndarray, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got ndim={x.ndim}")
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            n = x.shape[0] * x.shape[2] * x.shape[3]
            self.running_mean.data = (
                (1 - self.momentum) * self.running_mean.data + self.momentum * mean
            )
            unbiased = var * n / max(n - 1, 1)
            self.running_var.data = (
                (1 - self.momentum) * self.running_var.data + self.momentum * unbiased
            )
        else:
            mean = self.running_mean.data
            var = self.running_var.data
            n = 0
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = (x_hat, inv_std, n)
        return x_hat * self.gamma.data[None, :, None, None] + self.beta.data[
            None, :, None, None
        ]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        x_hat, inv_std, n = self._cache
        axes = (0, 2, 3)
        self.gamma.accumulate_grad((grad_out * x_hat).sum(axis=axes))
        self.beta.accumulate_grad(grad_out.sum(axis=axes))
        g = grad_out * self.gamma.data[None, :, None, None]
        if n == 0:  # eval mode: running stats are constants
            return g * inv_std[None, :, None, None]
        g_mean = g.mean(axis=axes, keepdims=True)
        gx_mean = (g * x_hat).mean(axis=axes, keepdims=True)
        return (
            inv_std[None, :, None, None] * (g - g_mean - x_hat * gx_mean)
        )
