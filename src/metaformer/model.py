"""Four-stage hierarchical backbone assembly and the named configurations.

Stage i runs at a (H / 2^{i+1}, W / 2^{i+1}) token grid for input (H, W):
the first patch embedding downsamples 4x (7x7 conv, stride 4, pad 2), each
later stage boundary 2x (3x3 conv, stride 2, pad 1). Small models use
channel dims [64, 128, 320, 512], medium [96, 192, 384, 768]; a model with
L blocks distributes them [L/6, L/6, L/2, L/6] across stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .block import MetaFormerBlock
from .init import child_rng, trunc_normal
from .mixers import MIXERS, MixerConfig
from .module import Module
from .norms import NORM_KINDS, make_norm
from .tensor import ACTIVATIONS, InvalidArgument, Tensor, conv2d, conv_out_size, matmul

SMALL_DIMS = (64, 128, 320, 512)
MEDIUM_DIMS = (96, 192, 384, 768)

# (kernel, stride, pad) per stage boundary; paddings chosen so a 224 input
# yields exactly 56/28/14/7 grids.
EMBED_SPECS = ((7, 4, 2), (3, 2, 1), (3, 2, 1), (3, 2, 1))

_VARIANT_TABLE = {
    # name: (dims, total blocks, layer_scale_init, peak drop path)
    "S12": (SMALL_DIMS, 12, 1e-5, 0.1),
    "S24": (SMALL_DIMS, 24, 1e-5, 0.1),
    "S36": (SMALL_DIMS, 36, 1e-6, 0.2),
    "M36": (MEDIUM_DIMS, 36, 1e-6, 0.3),
    "M48": (MEDIUM_DIMS, 48, 1e-6, 0.4),
}
VARIANTS = tuple(_VARIANT_TABLE)


class ConfigError(ValueError):
    """A model configuration violates its invariants; message carries the field path."""


def stage_plan(total_blocks: int) -> List[int]:
    """Distribute L blocks as [L/6, L/6, L/2, L/6]."""
    if total_blocks % 6 != 0:
        raise InvalidArgument(f"stage_plan: total blocks must be divisible by 6, got {total_blocks}")
    sixth = total_blocks // 6
    return [sixth, sixth, total_blocks // 2, sixth]


def drop_path_schedule(peak_rate: float, total_blocks: int) -> List[float]:
    """Linear ramp of per-block drop rates from 0 to ``peak_rate`` by global index."""
    if not 0.0 <= peak_rate < 1.0:
        raise InvalidArgument(f"drop_path_schedule: peak rate must lie in [0, 1), got {peak_rate}")
    if total_blocks == 1:
        return [0.0]
    return [peak_rate * i / (total_blocks - 1) for i in range(total_blocks)]


def stage_grids(input_size: int) -> List[int]:
    """Token-grid side length at each stage for a square input."""
    grids = []
    side = input_size
    for kernel, stride, pad in EMBED_SPECS:
        side = conv_out_size(side, kernel, stride, pad)
        grids.append(side)
    return grids


@dataclass(frozen=True)
class ModelConfig:
    dims: Tuple[int, int, int, int] = SMALL_DIMS
    depths: Tuple[int, int, int, int] = (2, 2, 6, 2)
    mixers: Tuple[MixerConfig, MixerConfig, MixerConfig, MixerConfig] = tuple(
        MixerConfig() for _ in range(4)
    )
    norm: str = "mln"
    activation: str = "gelu"
    use_residual: bool = True
    use_channel_mlp: bool = True
    use_layer_scale: bool = True
    layer_scale_init: float = 1e-5
    drop_path: float = 0.0
    num_classes: int = 1000
    in_channels: int = 3
    input_size: int = 224

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            _check_type(getattr(self, f.name), f.default, f.name)
        if len(self.dims) != 4 or any(d < 1 for d in self.dims):
            raise ConfigError(f"dims: need 4 positive channel dims, got {self.dims}")
        if len(self.depths) != 4 or any(d < 1 for d in self.depths):
            raise ConfigError(f"depths: need 4 positive block counts, got {self.depths}")
        if len(self.mixers) != 4:
            raise ConfigError(f"mixers: need one mixer per stage, got {len(self.mixers)}")
        for i, m in enumerate(self.mixers):
            try:
                m.validate(f"mixers[{i}]", self.dims[i])
            except InvalidArgument as e:
                raise ConfigError(str(e)) from e
        if self.norm not in NORM_KINDS:
            raise ConfigError(f"norm: unknown kind {self.norm!r}, expected one of {NORM_KINDS}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation: unknown {self.activation!r}, expected one of {tuple(ACTIVATIONS)}")
        if not 0.0 <= self.drop_path < 1.0:
            raise ConfigError(f"drop_path: must lie in [0, 1), got {self.drop_path}")
        # Above 1 the residual branches can overflow an f32 forward (1e9 does without a per-sample norm).
        if not -math.inf < self.layer_scale_init <= 1.0 or self.use_layer_scale and self.layer_scale_init <= 0:
            raise ConfigError(f"layer_scale_init: must be finite and <= 1, and > 0 with layer scale on, "
                              f"got {self.layer_scale_init}")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes: must be >= 1, got {self.num_classes}")
        if self.in_channels < 1:
            raise ConfigError(f"in_channels: must be >= 1, got {self.in_channels}")
        if self.input_size < 32:
            raise ConfigError(f"input_size: must be >= 32, the smallest input a forward accepts, got {self.input_size}")
        if 4 * self.in_channels * self.input_size**2 > np.iinfo(np.intp).max:  # numpy sizes no larger array
            raise ConfigError(f"input_size: a batch-1 f32 input [1, {self.in_channels}, S, S] must fit in "
                              f"{np.iinfo(np.intp).max} bytes, got S = {self.input_size}")

    def check_input_size(self, height: int, width: int, where: str) -> None:
        """Refuse a height x width other than ``input_size``^2 when a mixer is bound to the build-time grid."""
        S = self.input_size
        if (height, width) != (S, S) and any(MIXERS[m.kind].resolution_bound for m in self.mixers):
            raise InvalidArgument(f"{where}: model is bound to {S}x{S} input (resolution-dependent mixers bind it), "
                                  f"got {height}x{width}")

    # -------------------------------------------------------------- variants
    @property
    def variant(self) -> Optional[str]:
        """The name of the variant this config equals, or None."""
        return next((name for name in _VARIANT_TABLE if self == ModelConfig.variant_named(name)), None)

    @staticmethod
    def variant_named(name: str, num_classes: int = 1000) -> "ModelConfig":
        if name not in _VARIANT_TABLE:
            raise ConfigError(f"variant: unknown name {name!r}, expected one of {VARIANTS}")
        dims, total, ls_init, peak_dp = _VARIANT_TABLE[name]
        return ModelConfig(
            dims=dims,
            depths=tuple(stage_plan(total)),
            mixers=tuple(MixerConfig() for _ in range(4)),
            norm="mln",
            activation="gelu",
            layer_scale_init=ls_init,
            drop_path=peak_dp,
            num_classes=num_classes,
        )

    def with_mixers(self, kinds: Sequence[str], norm: Optional[str] = None) -> "ModelConfig":
        """Same architecture with per-stage mixer kinds swapped (ablation helper)."""
        mixers = tuple(MixerConfig(kind=k) for k in kinds)
        return replace(self, mixers=mixers, norm=norm or self.norm)

    # ------------------------------------------------------------------ JSON
    def to_json_dict(self) -> dict:
        if self.variant is not None:
            return {"variant": self.variant}
        custom = {f.name: getattr(self, f.name) for f in fields(self)}
        custom["dims"], custom["depths"] = list(self.dims), list(self.depths)
        custom["mixers"] = [m.to_json_dict() for m in self.mixers]
        return {"custom": custom}

    @staticmethod
    def from_json_dict(obj: dict) -> "ModelConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"config: expected an object, got {type(obj).__name__}")
        unknown = set(obj) - {"variant", "custom"}
        if unknown:
            raise ConfigError(f"config: unknown fields {sorted(unknown)}")
        if ("variant" in obj) == ("custom" in obj):
            raise ConfigError("config: exactly one of 'variant' or 'custom' is required")
        if "variant" in obj:
            if not isinstance(obj["variant"], str):
                raise ConfigError(f"config.variant: expected a name, got {obj['variant']!r}")
            return ModelConfig.variant_named(obj["variant"])
        custom = obj["custom"]
        if not isinstance(custom, dict):
            raise ConfigError("config.custom: expected an object")
        defaults = {f.name: f.default for f in fields(ModelConfig)}
        unknown = set(custom) - set(defaults)
        if unknown:
            raise ConfigError(f"config.custom: unknown fields {sorted(unknown)}")
        kwargs = {key: _from_json(value, defaults[key], f"config.custom.{key}") for key, value in custom.items()}
        try:
            return ModelConfig(**kwargs)
        except ConfigError as e:
            raise ConfigError(f"config.custom.{e}") from e


# Only the types JSON writes back as themselves: a numpy integer or a Fraction would not survive a save.
_SCALAR_TYPES = {bool: bool, int: int, float: (int, float), str: str, MixerConfig: MixerConfig}


def _check_type(value, default, path: str) -> None:
    """Refuse ``value`` unless it has the type of the field's ``default``; a bool is never a number here."""
    if isinstance(default, tuple):
        if not isinstance(value, tuple):
            raise ConfigError(f"{path}: expected a tuple, got {value!r}")
        for i, v in enumerate(value):
            _check_type(v, default[0], f"{path}[{i}]")
    elif not isinstance(value, _SCALAR_TYPES[type(default)]) or isinstance(value, bool) != isinstance(default, bool):
        raise ConfigError(f"{path}: expected {type(default).__name__}, got {value!r}")


def _from_json(value, default, path: str):
    """``value`` read from JSON as the field's Python value: lists become tuples, mixer objects ``MixerConfig``s."""
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return tuple(_from_json(v, default[0], f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(default, MixerConfig):
        return _mixer_from_json(value, path)
    return value


def _mixer_from_json(obj, path: str) -> MixerConfig:
    """A mixer object: its kind plus the fields that kind reads; ``MixerConfig`` resets the others."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{path}: expected an object with a 'kind' field")
    unknown = set(obj) - {f.name for f in fields(MixerConfig)}
    if unknown:
        raise ConfigError(f"{path}: unknown fields {sorted(unknown)}")
    return MixerConfig(**obj)


class PatchEmbed(Module):
    """Strided convolution downsampling the grid at a stage boundary."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int, stride: int,
                 pad: int, rng: np.random.Generator, dtype="f32"):
        self.stride, self.pad = stride, pad
        self.weight = Tensor(
            trunc_normal(rng, (out_channels, in_channels, kernel, kernel)), requires_grad=True, dtype=dtype
        )
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=(self.stride, self.stride),
                      padding=(self.pad, self.pad))


class Model(Module):
    """Built network: 4 embed/stage pairs, final norm, global pool, linear head.

    ``seed`` None draws nothing: every randomly initialized array is zero,
    and the caller fills the state (``checkpoint.load`` reads it from a file).
    """

    def __init__(self, config: ModelConfig, seed: Optional[int], dtype="f32"):
        self.config = config
        rng = None if seed is None else child_rng(seed, 0)
        grids = stage_grids(config.input_size)
        rates = iter(drop_path_schedule(config.drop_path, sum(config.depths)))
        in_ch = config.in_channels
        for s in range(4):
            kernel, stride, pad = EMBED_SPECS[s]
            embed = PatchEmbed(in_ch, config.dims[s], kernel, stride, pad, rng, dtype=dtype)
            in_ch = config.dims[s]
            blocks = [
                MetaFormerBlock(config, s, next(rates), rng, n_tokens=grids[s] * grids[s], dtype=dtype)
                for _ in range(config.depths[s])
            ]
            # Attributes embed1, stage1, embed2, ... so that the state walk
            # interleaves each embedding with the blocks of its stage.
            setattr(self, f"embed{s + 1}", embed)
            setattr(self, f"stage{s + 1}", blocks)
        self.norm = make_norm(config.norm, config.dims[3], dtype=dtype)
        self.head_weight = Tensor(
            trunc_normal(rng, (config.num_classes, config.dims[3])), requires_grad=True, dtype=dtype
        )
        self.head_bias = Tensor(np.zeros(config.num_classes), requires_grad=True, dtype=dtype)

    def forward(self, x: Tensor, mode: str = "eval",
                rng: Optional[np.random.Generator] = None) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.config.in_channels:
            raise InvalidArgument(
                f"forward: expected input [B, {self.config.in_channels}, H, W], got shape {x.shape}"
            )
        _, _, H, W = x.shape
        if H < 32 or W < 32:
            raise InvalidArgument(f"forward: spatial dims must be >= 32, got ({H}, {W})")
        self.config.check_input_size(H, W, "forward")
        for embed, blocks in zip(self.embeds, self.stages):
            x = embed(x)
            for blk in blocks:
                x = blk(x, mode, rng)
        x = self.norm(x, mode)
        pooled = x.mean(axis=(2, 3))
        return matmul(pooled, self.head_weight.swapaxes(0, 1)) + self.head_bias.reshape(1, -1)

    __call__ = forward

    @property
    def embeds(self) -> List[PatchEmbed]:
        return [getattr(self, f"embed{s + 1}") for s in range(4)]

    @property
    def stages(self) -> List[List[MetaFormerBlock]]:
        return [getattr(self, f"stage{s + 1}") for s in range(4)]

    def state_arrays(self) -> Dict[str, Tuple[np.ndarray, bool]]:
        """All persistent arrays by name, with their frozen flag (non-trainable)."""
        out: Dict[str, Tuple[np.ndarray, bool]] = {}
        for name, t in self.named_parameters():
            out[name] = (t.data, False)
        for name, t in self.frozen_parameters():
            out[name] = (t.data, True)
        for name, arr in self.named_buffers():
            out[name] = (arr, True)
        return out


def build(config: ModelConfig, seed: int = 0, dtype="f32") -> Model:
    """Deterministically initialize all parameters of ``config``."""
    return Model(config, seed, dtype=dtype)
