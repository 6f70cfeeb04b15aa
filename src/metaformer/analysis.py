"""Analytic parameter and multiply-accumulate accounting.

Counts are derived from the architecture description alone (no tracing), at
batch size 1. MAC rules follow the fvcore-style convention the reference
complexity tables were produced with:

  conv2d           Cout * (Cin/groups) * Kh * Kw * Hout * Wout
  linear head      in * out
  token matmul     N^2 * C per block (random matrix, spatial FC)
  attention        4*C^2*N for qkv+proj, plus 2*N^2*C for the score/value matmuls
  average pooling  K^2 * C * Hout * Wout (window sums; reported separately
                   in ``pool_macs`` because one of the reference ablation
                   tables was produced with pooling excluded)

Normalization, activations, residual adds, bias adds, softmax and LayerScale
multiplies count zero.

Two historical counting conventions coexist in the reference tables and both
are exposed: the five-variant table excludes the (trainable) LayerScale
vectors from its parameter totals and includes pooling MACs, while the
ablation table does the opposite. ``trainable_params`` is always the honest
optimizer-visible total; ``table_params`` / ``macs_excl_pool`` derive the
alternative convention from the reported subtotals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Union

from .block import MLP_RATIO
from .mixers import MIXERS
from .model import EMBED_SPECS, Model, ModelConfig, stage_grids


@dataclass(frozen=True)
class StageCost:
    name: str
    params: int
    layer_scale_params: int
    frozen_params: int
    macs: int
    pool_macs: int
    attn_matmul_macs: int


@dataclass(frozen=True)
class CostReport:
    trainable_params: int
    layer_scale_params: int
    frozen_params: int
    macs: int
    pool_macs: int
    attn_matmul_macs: int
    input_size: int
    per_stage: List[StageCost]

    @property
    def table_params(self) -> int:
        """Parameter total under the five-variant table's convention (LayerScale excluded)."""
        return self.trainable_params - self.layer_scale_params

    @property
    def macs_excl_pool(self) -> int:
        """MAC total under the ablation table's convention (pooling excluded)."""
        return self.macs - self.pool_macs

    @property
    def backbone_macs(self) -> int:
        """MACs of the four stages only; excludes the resolution-independent head."""
        return sum(s.macs for s in self.per_stage if s.name != "head")

    def to_json_dict(self) -> dict:
        return {
            "trainable_params": self.trainable_params,
            "layer_scale_params": self.layer_scale_params,
            "frozen_params": self.frozen_params,
            "table_params": self.table_params,
            "macs": self.macs,
            "pool_macs": self.pool_macs,
            "macs_excl_pool": self.macs_excl_pool,
            "input_size": self.input_size,
            "per_stage": [
                {
                    "stage": s.name,
                    "params": s.params,
                    "layer_scale_params": s.layer_scale_params,
                    "frozen_params": s.frozen_params,
                    "macs": s.macs,
                    "pool_macs": s.pool_macs,
                    "attn_matmul_macs": s.attn_matmul_macs,
                }
                for s in self.per_stage
            ],
        }


def _norm_param_count(norm: str, channels: int) -> int:
    return 0 if norm == "none" else 2 * channels


def _block_param_counts(cfg: ModelConfig, stage: int, n_tokens: int) -> tuple:
    """(trainable, layer_scale, frozen) parameter counts of one block in ``stage``."""
    c = cfg.dims[stage]
    mixer = cfg.mixers[stage]
    trainable, frozen = MIXERS[mixer.kind].params(mixer, c, n_tokens)
    trainable += _norm_param_count(cfg.norm, c)
    layer_scale = 0
    if cfg.use_channel_mlp:
        trainable += _norm_param_count(cfg.norm, c)
        hidden = MLP_RATIO * c
        trainable += 2 * hidden * c + hidden + c  # fc1 and fc2 weights and biases
    if cfg.use_layer_scale:
        layer_scale = 2 * c if cfg.use_channel_mlp else c
    return trainable + layer_scale, layer_scale, frozen


def _block_mac_counts(cfg: ModelConfig, stage: int, grid: int) -> tuple:
    """(macs, pool_macs, attn_matmul_macs) of one block at a ``grid``^2 token grid."""
    c = cfg.dims[stage]
    n = grid * grid
    mixer = cfg.mixers[stage]
    macs, pool, attn = MIXERS[mixer.kind].macs(mixer, c, n)
    if cfg.use_channel_mlp:
        macs += 2 * MLP_RATIO * c * c * n
    return macs, pool, attn


def cost_report(config: ModelConfig, input_size: Optional[int] = None) -> CostReport:
    """Per-stage and total parameter/MAC accounting for ``config``."""
    if input_size is None:
        input_size = config.input_size
    config.check_input_size(input_size, input_size, "cost report")
    config = replace(config, input_size=input_size)
    grids = stage_grids(input_size)
    stages: List[StageCost] = []
    in_ch = config.in_channels
    for s in range(4):
        kernel = EMBED_SPECS[s][0]
        embed_weights = config.dims[s] * in_ch * kernel * kernel
        params = embed_weights + config.dims[s]
        embed_macs = embed_weights * grids[s] * grids[s]
        in_ch = config.dims[s]
        bp, bls, bfz = _block_param_counts(config, s, grids[s] * grids[s])
        bm, bpool, battn = _block_mac_counts(config, s, grids[s])
        depth = config.depths[s]
        stages.append(
            StageCost(
                name=f"stage{s + 1}",
                params=params + depth * bp,
                layer_scale_params=depth * bls,
                frozen_params=depth * bfz,
                macs=embed_macs + depth * bm,
                pool_macs=depth * bpool,
                attn_matmul_macs=depth * battn,
            )
        )
    head_params = _norm_param_count(config.norm, config.dims[3])
    head_params += config.num_classes * config.dims[3] + config.num_classes
    stages.append(
        StageCost(
            name="head",
            params=head_params,
            layer_scale_params=0,
            frozen_params=0,
            macs=config.dims[3] * config.num_classes,
            pool_macs=0,
            attn_matmul_macs=0,
        )
    )
    return CostReport(
        trainable_params=sum(s.params for s in stages),
        layer_scale_params=sum(s.layer_scale_params for s in stages),
        frozen_params=sum(s.frozen_params for s in stages),
        macs=sum(s.macs for s in stages),
        pool_macs=sum(s.pool_macs for s in stages),
        attn_matmul_macs=sum(s.attn_matmul_macs for s in stages),
        input_size=input_size,
        per_stage=stages,
    )


def count_params(model_or_config: Union[Model, ModelConfig]) -> tuple:
    """(trainable, frozen) parameter counts.

    A built model is counted from its actual arrays; a config analytically.
    Trainable covers every optimizer-visible scalar (LayerScale included);
    frozen covers only frozen mixer weights, never running statistics.
    """
    if isinstance(model_or_config, Model):
        trainable = sum(t.data.size for _, t in model_or_config.named_parameters())
        frozen = sum(t.data.size for _, t in model_or_config.frozen_parameters())
        return trainable, frozen
    report = cost_report(model_or_config)
    return report.trainable_params, report.frozen_params
