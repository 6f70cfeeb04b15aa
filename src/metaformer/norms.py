"""Normalization layers: per-sample, per-position, per-channel-batch, or none.

All variants carry per-channel affine parameters gamma/beta of shape [C] and
use the biased (divide-by-count) variance in the denominator. Inputs are
channel-first [B, C, H, W].
"""

from __future__ import annotations

import numpy as np

from .module import Module
from .tensor import InvalidArgument, Tensor, sqrt


class _AffineNorm(Module):
    def __init__(self, channels: int, eps: float = 1e-5, dtype="f32"):
        if eps <= 0:
            raise InvalidArgument(f"norm eps must be positive, got {eps}")
        self.channels = channels
        self.eps = eps
        self.gamma = Tensor(np.ones(channels), requires_grad=True, dtype=dtype)
        self.beta = Tensor(np.zeros(channels), requires_grad=True, dtype=dtype)

    def _normalize(self, x: Tensor, axes) -> tuple:
        """(affine((x - mean) / sqrt(var + eps)), mean, biased var), the moments taken over ``axes``."""
        mu = x.mean(axis=axes, keepdims=True)
        d = x - mu
        var = (d * d).mean(axis=axes, keepdims=True)
        return self._affine(d / sqrt(var + self.eps)), mu, var

    def _affine(self, y: Tensor) -> Tensor:
        c = self.channels
        return y * self.gamma.reshape(1, c, 1, 1) + self.beta.reshape(1, c, 1, 1)


class ModifiedLayerNorm(_AffineNorm):
    """Normalizes each sample over all of (C, H, W), affine per channel."""

    def __call__(self, x: Tensor, mode: str = "eval") -> Tensor:
        return self._normalize(x, (1, 2, 3))[0]


class ChannelLayerNorm(_AffineNorm):
    """Normalizes each (b, h, w) position over channels only."""

    def __call__(self, x: Tensor, mode: str = "eval") -> Tensor:
        return self._normalize(x, 1)[0]


class BatchNorm(_AffineNorm):
    """Per-channel batch normalization with running statistics.

    Train mode normalizes with biased batch statistics and updates the
    running buffers with momentum (the running variance stores the unbiased
    estimate). Eval mode normalizes with the running buffers.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1, dtype="f32"):
        super().__init__(channels, eps, dtype)
        self.momentum = momentum
        np_dtype = self.gamma.dtype
        self.running_mean = np.zeros(channels, dtype=np_dtype)
        self.running_var = np.ones(channels, dtype=np_dtype)

    def __call__(self, x: Tensor, mode: str = "eval") -> Tensor:
        c = self.channels
        if mode == "train":
            B, _, H, W = x.shape
            count = B * H * W
            if count < 2:
                raise InvalidArgument(
                    f"batch_norm: train mode needs B*H*W >= 2 elements per channel, got {count}"
                )
            y, mu, var = self._normalize(x, (0, 2, 3))
            m = self.momentum
            unbiased = var.data.reshape(c) * (count / (count - 1))
            # In-place so checkpoint buffer references stay valid.
            self.running_mean[:] = (1 - m) * self.running_mean + m * mu.data.reshape(c)
            self.running_var[:] = (1 - m) * self.running_var + m * unbiased
            return y
        mu = Tensor(self.running_mean.reshape(1, c, 1, 1))
        denom = Tensor(np.sqrt(self.running_var + self.eps).reshape(1, c, 1, 1))
        return self._affine((x - mu) / denom)


class NoNorm(Module):
    """Identity stand-in so 'no normalization' stays a selectable variant."""

    def __init__(self, channels: int, dtype="f32"):
        self.channels = channels

    def __call__(self, x: Tensor, mode: str = "eval") -> Tensor:
        return x


NORMS = {"mln": ModifiedLayerNorm, "ln": ChannelLayerNorm, "bn": BatchNorm, "none": NoNorm}
NORM_KINDS = tuple(NORMS)


def make_norm(kind: str, channels: int, dtype="f32"):
    if kind not in NORMS:
        raise InvalidArgument(f"unknown norm kind {kind!r}, expected one of {NORM_KINDS}")
    return NORMS[kind](channels, dtype=dtype)
