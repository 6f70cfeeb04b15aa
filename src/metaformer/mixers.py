"""Token mixers: the pluggable spatial-communication half of a block.

Every mixer maps [B, C, H, W] -> [B, C, H, W] so the surrounding residual
structure never changes. Six strategies are provided: average pooling minus
identity (parameter-free), plain identity, a frozen row-stochastic random
matrix over tokens, depthwise convolution, multi-head self-attention, and a
single spatial fully connected layer shared across channels.

A mixer kind is one class registered in ``MIXERS``. Besides its forward
pass the class owns everything that depends on the kind: the ``MixerConfig``
fields it reads (and writes to JSON), their validation, its one constructor
``(cfg, channels, n_tokens, rng, dtype)``, whether it binds the model to its
build resolution, and its analytic parameter and MAC counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .init import trunc_normal
from .module import Module
from .tensor import (
    InvalidArgument,
    Tensor,
    avg_pool2d_excl,
    conv2d,
    matmul,
    narrow,
    softmax_lastdim,
)

# Head count defaults to C/32 (at least 1); complexity is head-count-invariant.
HEAD_DIM = 32


@dataclass(frozen=True)
class MixerConfig:
    """Declarative description of one token-mixing strategy."""

    kind: str = "pooling"
    pool_size: int = 3
    kernel: int = 3
    heads: Optional[int] = None

    def __post_init__(self) -> None:
        # Reset the fields this kind does not read, so that configs of the same mixer compare equal.
        if self.kind in MIXER_KINDS:
            for f in fields(self):
                if f.name != "kind" and f.name not in MIXERS[self.kind].fields:
                    object.__setattr__(self, f.name, f.default)

    def validate(self, path: str, channels: int) -> None:
        """Check the fields this kind reads, and their fit to a ``channels``-wide block."""
        if self.kind not in MIXER_KINDS:
            raise InvalidArgument(f"{path}.kind: unknown mixer {self.kind!r}, expected one of {MIXER_KINDS}")
        for name, check in MIXERS[self.kind].fields.items():
            check(getattr(self, name), f"{path}.{name}", channels)

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind}
        for name in MIXERS[self.kind].fields:
            if getattr(self, name) is not None:
                d[name] = getattr(self, name)
        return d


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_odd(value, what: str, channels: Optional[int] = None) -> None:
    if not _is_int(value) or value < 1 or value % 2 == 0:
        raise InvalidArgument(f"{what}: must be a positive odd integer, got {value!r}")


def _check_heads(heads, what: str, channels: int) -> int:
    """The head count for ``channels`` (default C/32, at least 1), checked to divide it."""
    if heads is not None and (not _is_int(heads) or heads < 1):
        raise InvalidArgument(f"{what}: must be a positive integer, got {heads!r}")
    if heads is None:
        heads = max(1, channels // HEAD_DIM)
    if channels % heads != 0:
        raise InvalidArgument(f"{what}: channel dim {channels} is not divisible by {heads} heads")
    return heads


class Mixer(Module):
    """Base of the token mixers: the per-kind hooks, with the defaults of a mixer that has no state."""

    kind: str
    # MixerConfig fields this kind reads (in JSON order), each with its check(value, path, channels).
    fields: Dict[str, Callable] = {}
    resolution_bound = False  # bound to the token count of the build-time grid

    def __init__(self, cfg: MixerConfig, channels: int, n_tokens: int, rng: Optional[np.random.Generator],
                 dtype="f32"):
        """Takes every kind's constructor arguments and keeps none of them."""

    @staticmethod
    def params(cfg: MixerConfig, c: int, n: int) -> Tuple[int, int]:
        """(trainable, frozen) parameter counts at width ``c`` and ``n`` build-time tokens."""
        return 0, 0

    @staticmethod
    def macs(cfg: MixerConfig, c: int, n: int) -> Tuple[int, int, int]:
        """(macs, pool_macs, attn_matmul_macs) at width ``c`` and ``n`` tokens."""
        return 0, 0, 0


def _tokens(x: Tensor) -> Tuple[Tensor, Tuple[int, int, int, int]]:
    """Flatten spatial dims: [B, C, H, W] -> [B, N, C] with N = H*W."""
    B, C, H, W = x.shape
    return x.reshape(B, C, H * W).swapaxes(1, 2), (B, C, H, W)


def _untokens(t: Tensor, dims: Tuple[int, int, int, int]) -> Tensor:
    B, C, H, W = dims
    return t.swapaxes(1, 2).reshape(B, C, H, W)


def _bound_tokens(x: Tensor, weight: Tensor, label: str) -> int:
    """The token count H*W of ``x``, refused unless it is the N of the mixer's N x N ``weight``."""
    _, _, H, W = x.shape
    if H * W != weight.shape[0]:
        raise InvalidArgument(f"{label} mixer is bound to {weight.shape[0]} tokens, input has {H * W} ({H}x{W})")
    return H * W


class PoolingMixer(Mixer):
    """Average of each token's neighborhood minus the token itself.

    The subtraction cancels the block's own residual connection, so the
    branch contributes pure neighborhood differences. No parameters.
    """

    kind = "pooling"
    fields = {"pool_size": _check_odd}

    def __init__(self, cfg, channels, n_tokens, rng, dtype="f32"):
        _check_odd(cfg.pool_size, "pooling mixer: pool size")
        self.pool_size = cfg.pool_size

    def __call__(self, x: Tensor) -> Tensor:
        return avg_pool2d_excl(x, self.pool_size) - x

    @staticmethod
    def macs(cfg, c, n):
        k = cfg.pool_size
        return k * k * c * n, k * k * c * n, 0


class IdentityMixer(Mixer):
    kind = "identity"

    def __call__(self, x: Tensor) -> Tensor:
        return x


class RandomMatrixMixer(Mixer):
    """Frozen row-stochastic N x N matrix applied across tokens.

    The matrix is drawn uniform [0, 1), row-softmaxed, renormalized so each
    row sums to 1 in f64, then frozen: it is excluded from the optimizer but
    persisted in checkpoints. Without an rng the matrix is f32 zeros, as
    ``init.trunc_normal(None, ...)`` gives, to be filled from a checkpoint.
    """

    kind = "random_matrix"
    resolution_bound = True

    def __init__(self, cfg, channels, n_tokens, rng, dtype="f32"):
        if n_tokens < 1:
            raise InvalidArgument(f"random-matrix mixer: token count must be >= 1, got {n_tokens}")
        if rng is None:
            w = np.zeros((n_tokens, n_tokens), np.float32)
        else:
            raw = rng.random((n_tokens, n_tokens), dtype=np.float64)
            e = np.exp(raw - raw.max(axis=1, keepdims=True))
            w = e / e.sum(axis=1, keepdims=True)
            w /= w.sum(axis=1, keepdims=True)
        self.weight = Tensor(w, requires_grad=False, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        _bound_tokens(x, self.weight, "random-matrix")
        t, dims = _tokens(x)
        return _untokens(matmul(self.weight, t), dims)

    @staticmethod
    def params(cfg, c, n):
        return 0, n * n

    @staticmethod
    def macs(cfg, c, n):
        return n * n * c, 0, 0


class DepthwiseConvMixer(Mixer):
    """Per-channel k x k convolution, shape preserving."""

    kind = "depthwise_conv"
    fields = {"kernel": _check_odd}

    def __init__(self, cfg, channels, n_tokens, rng, dtype="f32"):
        k = cfg.kernel
        _check_odd(k, "depthwise mixer: kernel")
        self.weight = Tensor(trunc_normal(rng, (channels, 1, k, k)), requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(channels), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        channels, _, k, _ = self.weight.shape
        p = k // 2
        return conv2d(x, self.weight, self.bias, stride=(1, 1), padding=(p, p), groups=channels)

    @staticmethod
    def params(cfg, c, n):
        return c * cfg.kernel * cfg.kernel + c, 0

    @staticmethod
    def macs(cfg, c, n):
        return c * cfg.kernel * cfg.kernel * n, 0, 0


class AttentionMixer(Mixer):
    """Multi-head self-attention over the flattened token grid."""

    kind = "attention"
    fields = {"heads": _check_heads}

    def __init__(self, cfg, channels, n_tokens, rng, dtype="f32"):
        self.heads = _check_heads(cfg.heads, "attention mixer: heads", channels)
        c = channels
        self.qkv_weight = Tensor(trunc_normal(rng, (3 * c, c)), requires_grad=True, dtype=dtype)
        self.qkv_bias = Tensor(np.zeros(3 * c), requires_grad=True, dtype=dtype)
        self.proj_weight = Tensor(trunc_normal(rng, (c, c)), requires_grad=True, dtype=dtype)
        self.proj_bias = Tensor(np.zeros(c), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        t, dims = _tokens(x)
        B, C, H, W = dims
        n, h = H * W, self.heads
        d = C // h
        qkv = matmul(t, self.qkv_weight.swapaxes(0, 1)) + self.qkv_bias.reshape(1, 1, 3 * C)
        q = _split_heads(narrow(qkv, 2, 0, C), B, n, h, d)
        k = _split_heads(narrow(qkv, 2, C, C), B, n, h, d)
        v = _split_heads(narrow(qkv, 2, 2 * C, C), B, n, h, d)
        scores = matmul(q, k.swapaxes(2, 3)) * (1.0 / math.sqrt(d))
        attn = softmax_lastdim(scores)
        mixed = matmul(attn, v).swapaxes(1, 2).reshape(B, n, C)
        out = matmul(mixed, self.proj_weight.swapaxes(0, 1)) + self.proj_bias.reshape(1, 1, C)
        return _untokens(out, dims)

    @staticmethod
    def params(cfg, c, n):
        return 4 * c * c + 4 * c, 0

    @staticmethod
    def macs(cfg, c, n):
        attn = 2 * n * n * c
        return 4 * c * c * n + attn, 0, attn


def _split_heads(t: Tensor, B: int, n: int, h: int, d: int) -> Tensor:
    return t.reshape(B, n, h, d).swapaxes(1, 2)


class SpatialFCMixer(Mixer):
    """One fully connected layer across tokens, shared over channels."""

    kind = "spatial_fc"
    resolution_bound = True

    def __init__(self, cfg, channels, n_tokens, rng, dtype="f32"):
        if n_tokens < 1:
            raise InvalidArgument(f"spatial-fc mixer: token count must be >= 1, got {n_tokens}")
        self.weight = Tensor(trunc_normal(rng, (n_tokens, n_tokens)), requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(n_tokens), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        B, C, H, W = x.shape
        n = _bound_tokens(x, self.weight, "spatial-fc")
        flat = x.reshape(B, C, n)
        out = matmul(flat, self.weight.swapaxes(0, 1)) + self.bias.reshape(1, 1, n)
        return out.reshape(B, C, H, W)

    @staticmethod
    def params(cfg, c, n):
        return n * n + n, 0

    @staticmethod
    def macs(cfg, c, n):
        return n * n * c, 0, 0


MIXERS = {
    cls.kind: cls
    for cls in (PoolingMixer, IdentityMixer, RandomMatrixMixer, DepthwiseConvMixer, AttentionMixer, SpatialFCMixer)
}
MIXER_KINDS = tuple(MIXERS)
