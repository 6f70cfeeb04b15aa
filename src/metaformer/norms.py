"""Normalization layers: per-sample, per-position, per-channel-batch, or none.

All variants carry per-channel affine parameters gamma/beta of shape [C] and
use the biased (divide-by-count) variance in the denominator. Inputs are
channel-first [B, C, H, W]. Each normalization, moments and affine included,
is one graph node (``tensor.affine_norm``).
"""

from __future__ import annotations

import numpy as np

from .module import Module, is_training
from .tensor import InvalidArgument, Tensor, affine_norm

BN_MOMENTUM = 0.1


class _AffineNorm(Module):
    def __init__(self, channels: int, eps: float = 1e-5, dtype="f32"):
        if eps <= 0:
            raise InvalidArgument(f"norm eps must be positive, got {eps}")
        self.eps = eps
        self.gamma = Tensor(np.ones(channels), requires_grad=True, dtype=dtype)
        self.beta = Tensor(np.zeros(channels), requires_grad=True, dtype=dtype)


class ModifiedLayerNorm(_AffineNorm):
    """Normalizes each sample over all of (C, H, W), affine per channel."""

    def __call__(self, x: Tensor, mode: str = "eval") -> Tensor:
        return affine_norm(x, self.gamma, self.beta, (1, 2, 3), self.eps)[0]


class ChannelLayerNorm(_AffineNorm):
    """Normalizes each (b, h, w) position over channels only."""

    def __call__(self, x: Tensor, mode: str = "eval") -> Tensor:
        return affine_norm(x, self.gamma, self.beta, 1, self.eps)[0]


class BatchNorm(_AffineNorm):
    """Per-channel batch normalization with running statistics.

    Train mode normalizes with biased batch statistics and updates the
    running buffers with momentum ``BN_MOMENTUM`` (the running variance stores
    the unbiased estimate). Eval mode normalizes with the running buffers.
    """

    def __init__(self, channels: int, eps: float = 1e-5, dtype="f32"):
        super().__init__(channels, eps, dtype)
        np_dtype = self.gamma.dtype
        self.running_mean = np.zeros(channels, dtype=np_dtype)
        self.running_var = np.ones(channels, dtype=np_dtype)

    def __call__(self, x: Tensor, mode: str = "eval") -> Tensor:
        c = self.gamma.shape[0]
        if is_training(mode):
            B, _, H, W = x.shape
            count = B * H * W
            if count < 2:
                raise InvalidArgument(
                    f"batch_norm: train mode needs B*H*W >= 2 elements per channel, got {count}"
                )
            y, mu, var = affine_norm(x, self.gamma, self.beta, (0, 2, 3), self.eps)
            m = BN_MOMENTUM
            unbiased = var.reshape(c) * (count / (count - 1))
            # In-place so checkpoint buffer references stay valid.
            self.running_mean[:] = (1 - m) * self.running_mean + m * mu.reshape(c)
            self.running_var[:] = (1 - m) * self.running_var + m * unbiased
            return y
        moments = (self.running_mean.reshape(1, c, 1, 1), self.running_var.reshape(1, c, 1, 1))
        return affine_norm(x, self.gamma, self.beta, (0, 2, 3), self.eps, moments)[0]


class NoNorm(Module):
    """Identity stand-in so 'no normalization' stays a selectable variant."""

    def __init__(self, channels: int, dtype="f32"):
        """Takes the other norms' arguments and keeps none of them."""

    def __call__(self, x: Tensor, mode: str = "eval") -> Tensor:
        return x


NORMS = {"mln": ModifiedLayerNorm, "ln": ChannelLayerNorm, "bn": BatchNorm, "none": NoNorm}
NORM_KINDS = tuple(NORMS)


def make_norm(kind: str, channels: int, dtype="f32"):
    if kind not in NORMS:
        raise InvalidArgument(f"unknown norm kind {kind!r}, expected one of {NORM_KINDS}")
    return NORMS[kind](channels, dtype=dtype)
