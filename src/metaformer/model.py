"""Four-stage hierarchical backbone assembly and the named configurations.

Stage i runs at a (H / 2^{i+1}, W / 2^{i+1}) token grid for input (H, W):
the first patch embedding downsamples 4x (7x7 conv, stride 4, pad 2), each
later stage boundary 2x (3x3 conv, stride 2, pad 1). Small models use
channel dims [64, 128, 320, 512], medium [96, 192, 384, 768]; a model with
L blocks distributes them [L/6, L/6, L/2, L/6] across stages.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .block import BlockConfig, MetaFormerBlock
from .init import child_rng, trunc_normal
from .mixers import MIXER_KINDS, MIXERS, MixerConfig
from .module import Module
from .norms import NORM_KINDS, make_norm
from .tensor import ACTIVATIONS, InvalidArgument, Tensor, conv2d, conv_out_size, matmul

SMALL_DIMS = (64, 128, 320, 512)
MEDIUM_DIMS = (96, 192, 384, 768)

# (kernel, stride, pad) per stage boundary; paddings chosen so a 224 input
# yields exactly 56/28/14/7 grids.
EMBED_SPECS = ((7, 4, 2), (3, 2, 1), (3, 2, 1), (3, 2, 1))

VARIANTS = ("S12", "S24", "S36", "M36", "M48")
_VARIANT_TABLE = {
    # name: (dims, total blocks, layer_scale_init, peak drop path)
    "S12": (SMALL_DIMS, 12, 1e-5, 0.1),
    "S24": (SMALL_DIMS, 24, 1e-5, 0.1),
    "S36": (SMALL_DIMS, 36, 1e-6, 0.2),
    "M36": (MEDIUM_DIMS, 36, 1e-6, 0.3),
    "M48": (MEDIUM_DIMS, 48, 1e-6, 0.4),
}


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
    variant: Optional[str] = None

    def validate(self) -> None:
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
        if self.use_layer_scale and self.layer_scale_init <= 0:
            raise ConfigError(f"layer_scale_init: must be > 0 when layer scale is enabled, got {self.layer_scale_init}")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes: must be >= 1, got {self.num_classes}")
        if self.in_channels < 1:
            raise ConfigError(f"in_channels: must be >= 1, got {self.in_channels}")
        for i, grid in enumerate(stage_grids(self.input_size)):
            if grid < 1:
                raise ConfigError(f"input_size: {self.input_size} collapses to an empty grid at stage {i + 1}")

    def resolution_bound(self) -> bool:
        return any(m.resolution_bound() for m in self.mixers)

    def total_blocks(self) -> int:
        return sum(self.depths)

    # -------------------------------------------------------------- variants
    @staticmethod
    def variant_named(name: str, num_classes: int = 1000, input_size: int = 224) -> "ModelConfig":
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
            input_size=input_size,
            variant=name,
        )

    def with_mixers(self, kinds: Sequence[str], norm: Optional[str] = None) -> "ModelConfig":
        """Same architecture with per-stage mixer kinds swapped (ablation helper)."""
        mixers = tuple(MixerConfig(kind=k) for k in kinds)
        return replace(self, mixers=mixers, norm=norm or self.norm, variant=None)

    # ------------------------------------------------------------------ JSON
    def to_json_dict(self) -> dict:
        if self.variant in _VARIANT_TABLE and self == ModelConfig.variant_named(self.variant):
            return {"variant": self.variant}
        custom = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "variant"}
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
        defaults = {f.name: f.default for f in fields(ModelConfig) if f.name != "variant"}
        unknown = set(custom) - set(defaults)
        if unknown:
            raise ConfigError(f"config.custom: unknown fields {sorted(unknown)}")
        cfg = ModelConfig(**{
            key: _json_typed(value, defaults[key], f"config.custom.{key}") for key, value in custom.items()
        })
        cfg.validate()
        return cfg


_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _json_typed(value, default, path: str):
    """``value`` read from JSON, checked to have the JSON type of the field's ``default``."""
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return tuple(_json_typed(v, default[0], f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(default, MixerConfig):
        return _mixer_from_json(value, path)
    if not isinstance(value, _JSON_TYPES[type(default)]) or isinstance(value, bool) != isinstance(default, bool):
        raise ConfigError(f"{path}: expected {type(default).__name__}, got {value!r}")
    return value


def _mixer_from_json(obj, path: str) -> MixerConfig:
    """A mixer object: its kind plus the fields that kind reads, which its ``validate`` checks."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{path}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind not in MIXER_KINDS:
        raise ConfigError(f"{path}.kind: unknown mixer {kind!r}")
    unknown = set(obj) - {f.name for f in fields(MixerConfig)}
    if unknown:
        raise ConfigError(f"{path}: unknown fields {sorted(unknown)}")
    return MixerConfig(kind=kind, **{name: obj[name] for name in MIXERS[kind].fields if name in obj})


class PatchEmbed(Module):
    """Strided convolution downsampling the grid at a stage boundary."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int, stride: int,
                 pad: int, rng: np.random.Generator, dtype="f32"):
        self.kernel, self.stride, self.pad = kernel, stride, pad
        self.weight = Tensor(
            trunc_normal(rng, (out_channels, in_channels, kernel, kernel)), requires_grad=True, dtype=dtype
        )
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=(self.stride, self.stride),
                      padding=(self.pad, self.pad))


class Model(Module):
    """Built network: 4 embed/stage pairs, final norm, global pool, linear head."""

    def __init__(self, config: ModelConfig, seed: int, dtype="f32"):
        config.validate()
        self.config = config
        self.seed = seed
        rng = child_rng(seed, 0)
        grids = stage_grids(config.input_size)
        rates = drop_path_schedule(config.drop_path, config.total_blocks())
        block_index = 0
        in_ch = config.in_channels
        for s in range(4):
            kernel, stride, pad = EMBED_SPECS[s]
            embed = PatchEmbed(in_ch, config.dims[s], kernel, stride, pad, rng, dtype=dtype)
            in_ch = config.dims[s]
            blocks = []
            for _ in range(config.depths[s]):
                bcfg = BlockConfig(
                    mixer=config.mixers[s],
                    norm=config.norm,
                    activation=config.activation,
                    use_residual=config.use_residual,
                    use_channel_mlp=config.use_channel_mlp,
                    use_layer_scale=config.use_layer_scale,
                    layer_scale_init=config.layer_scale_init,
                    drop_path_rate=rates[block_index],
                )
                blocks.append(
                    MetaFormerBlock(config.dims[s], bcfg, rng, n_tokens=grids[s] * grids[s], dtype=dtype)
                )
                block_index += 1
            # Attributes embed1, stage1, embed2, ... so that the state walk
            # interleaves each embedding with the blocks of its stage.
            setattr(self, f"embed{s + 1}", embed)
            setattr(self, f"stage{s + 1}", blocks)
        self.final_norm = make_norm(config.norm, config.dims[3], dtype=dtype)
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
        if self.config.resolution_bound() and (H, W) != (self.config.input_size, self.config.input_size):
            raise InvalidArgument(
                f"forward: model is bound to {self.config.input_size}x{self.config.input_size} input "
                f"(resolution-dependent mixers), got {H}x{W}"
            )
        for embed, blocks in zip(self.embeds, self.stages):
            x = embed(x)
            for blk in blocks:
                x = blk(x, mode, rng)
        x = self.final_norm(x, mode)
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
