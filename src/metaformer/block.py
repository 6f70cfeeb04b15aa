"""One MetaFormer block: mixer sub-block plus channel-MLP sub-block.

Forward (all switches on):

    y = x + drop_path(ls1 * mixer(norm1(x)))
    z = y + drop_path(ls2 * mlp(norm2(y)))

LayerScale multiplies the branch before drop-path. ``use_residual=False``
drops both "+ x"/"+ y" terms; ``use_channel_mlp=False`` skips the second
sub-block entirely. Each norm and each "x + drop_path(ls * h)" is one graph
node (``tensor.affine_norm``, ``tensor.residual_add``).

An eval block that records no graph streams a batch of large samples: it
runs both sub-blocks on one sample at a time into one preallocated output,
so that only one sample's norm, mixer, hidden and residual arrays are alive
instead of the batch's; see ``MetaFormerBlock``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from .init import trunc_normal
from .mixers import MIXERS
from .module import Module, is_training
from .norms import NORMS
from .tensor import ACTIVATIONS, InvalidArgument, Tensor, _is_index, conv2d, residual_add

if TYPE_CHECKING:
    from .model import ModelConfig

MLP_RATIO = 4
# Fewest values in one sample ([1, C, H, W]) for which a graph-free eval block streams. Streaming pays
# Python dispatch per sample: against the whole batch, a graph-free f32 pooling block at batch 8 took
# 3.0-3.3x as long at 1,024 values a sample, 1.4x at 8,192, 1.1x at 32,768 and 0.9x at 200,704 (two
# runs, one BLAS thread, 2-core x86_64), while below this size a batch-8 f32 array is under 1 MiB.
# S12 at 224² streams stages 1-3 (200,704 to 62,720 values a sample), not stage 4 (25,088).
STREAM_MIN_VALUES = 32768


class ChannelMlp(Module):
    """Two 1x1 convolutions with a nonlinearity between them, hidden width 4C.

    When fc1's output records no graph, the activation writes over that
    fresh array in place (``inplace=True``) instead of making a second
    hidden-size array; the values are the same.
    """

    def __init__(self, channels: int, activation: str, rng: np.random.Generator, dtype="f32"):
        if activation not in ACTIVATIONS:
            raise InvalidArgument(f"channel_mlp: unknown activation {activation!r}, "
                                  f"expected one of {tuple(ACTIVATIONS)}")
        hidden = MLP_RATIO * channels
        self.activation = activation
        self.fc1_weight = Tensor(trunc_normal(rng, (hidden, channels, 1, 1)), requires_grad=True, dtype=dtype)
        self.fc1_bias = Tensor(np.zeros(hidden), requires_grad=True, dtype=dtype)
        self.fc2_weight = Tensor(trunc_normal(rng, (channels, hidden, 1, 1)), requires_grad=True, dtype=dtype)
        self.fc2_bias = Tensor(np.zeros(channels), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        act = ACTIVATIONS[self.activation]  # per call, so that a swapped table entry (perfbench's tracer) is used
        h = conv2d(x, self.fc1_weight, self.fc1_bias)
        return conv2d(act(h, inplace=not h.requires_grad), self.fc2_weight, self.fc2_bias)


def _drop_mask(x: Tensor, p: float, mode: str, rng: Optional[np.random.Generator]) -> Optional[np.ndarray]:
    """Per-sample keep mask for ``x`` scaled by 1/(1-p), shaped [B, 1, ...]; None where drop path is the identity.

    ``p`` must lie in [0, 1); its callers check it.
    """
    if not is_training(mode) or p == 0.0:
        return None
    if rng is None:
        raise InvalidArgument("drop_path: train mode requires an rng")
    B = x.shape[0]
    keep = (rng.random(B) >= p).astype(x.dtype.type)
    return (keep / (1.0 - p)).reshape((B,) + (1,) * (x.ndim - 1))


def drop_path(x: Tensor, p: float, mode: str, rng: Optional[np.random.Generator]) -> Tensor:
    """Stochastic depth: zero the branch per sample with probability p.

    Kept samples are scaled by 1/(1-p) so the output matches x in
    expectation. Eval mode and p=0 are exact identities.
    """
    if not 0.0 <= p < 1.0:
        raise InvalidArgument(f"drop_path: rate must lie in [0, 1), got {p}")
    return residual_add(None, x, mask=_drop_mask(x, p, mode, rng))


class MetaFormerBlock(Module):
    """Block of stage ``stage`` of ``config``: its width, mixer and switches, and drop path at ``drop_path_rate``.

    An eval call on a batch of two or more streams when nothing in the block
    records a graph (neither the input nor any of its tensors requires grad)
    and one sample holds at least ``STREAM_MIN_VALUES`` values: the whole
    block, both norms, the mixer, the MLP and both residuals, runs on one
    sample at a time and writes each result into one preallocated output.
    The outputs are bit-identical to the whole-batch call, since in eval
    mode every mixer and norm treats each sample on its own, and a 1x1 conv
    is already one GEMM per sample. Every other call runs on the whole
    batch, so training and its backward are unchanged.
    """

    def __init__(self, config: ModelConfig, stage: int, drop_path_rate: float, rng: np.random.Generator,
                 n_tokens: int, dtype="f32"):
        if not (_is_index(stage) and 0 <= stage < 4):
            raise InvalidArgument(f"block.stage: must be 0, 1, 2 or 3, got {stage!r}")
        if not 0.0 <= drop_path_rate < 1.0:
            raise InvalidArgument(f"block.drop_path_rate: must lie in [0, 1), got {drop_path_rate}")
        channels, cfg = config.dims[stage], config.mixers[stage]
        self.config = config
        self.drop_path_rate = drop_path_rate
        mlp, ls, init = config.use_channel_mlp, config.use_layer_scale, config.layer_scale_init
        # Assignment order is checkpoint order (see Module).
        self.norm1 = NORMS[config.norm](channels, dtype=dtype)
        self.mixer = MIXERS[cfg.kind](cfg, channels, n_tokens, rng, dtype)
        self.ls1 = Tensor(np.full(channels, init), requires_grad=True, dtype=dtype) if ls else None
        self.norm2 = NORMS[config.norm](channels, dtype=dtype) if mlp else None
        self.mlp = ChannelMlp(channels, config.activation, rng, dtype=dtype) if mlp else None
        self.ls2 = Tensor(np.full(channels, init), requires_grad=True, dtype=dtype) if ls and mlp else None

    def _residual(self, x: Tensor, h: Tensor, ls: Optional[Tensor], mode: str, rng) -> Tensor:
        """x + drop_path(ls * h), without the "x +" when the residual is off; one graph node."""
        mask = _drop_mask(h, self.drop_path_rate, mode, rng)
        return residual_add(x if self.config.use_residual else None, h, ls, mask)

    def __call__(self, x: Tensor, mode: str = "eval", rng: Optional[np.random.Generator] = None) -> Tensor:
        if not self._streams(x, mode):
            return self._forward(x, mode, rng)
        out = np.empty_like(x.data)
        for b in range(x.shape[0]):
            out[b] = self._forward(Tensor(x.data[b : b + 1]), mode, rng).data[0]
        return Tensor(out)

    def _streams(self, x: Tensor, mode: str) -> bool:
        """Whether this call runs one sample at a time (see the class docstring); cheapest tests first."""
        if x.ndim != 4 or x.shape[0] < 2 or x.data[0].size < STREAM_MIN_VALUES or is_training(mode):
            return False
        return not x.requires_grad and not any(isinstance(t, Tensor) and t.requires_grad
                                               for _, t in self.named_state())

    def _forward(self, x: Tensor, mode: str, rng: Optional[np.random.Generator]) -> Tensor:
        y = self._residual(x, self.mixer(self.norm1(x, mode)), self.ls1, mode, rng)
        if not self.config.use_channel_mlp:
            return y
        return self._residual(y, self.mlp(self.norm2(y, mode)), self.ls2, mode, rng)
