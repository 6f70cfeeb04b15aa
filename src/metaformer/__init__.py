"""MetaFormer vision backbones with pluggable token mixers.

The block structure (norm -> token mixer -> residual, norm -> channel MLP ->
residual, both with LayerScale and stochastic depth) is fixed; the token
mixer is swappable: average pooling minus identity, identity, a frozen
random matrix, depthwise convolution, multi-head attention, or a spatial FC
layer. Everything runs on a small numpy autodiff core.
"""

from .analysis import CostReport, StageCost, cost_report, count_params
from .block import ChannelMlp, MetaFormerBlock, drop_path
from .checkpoint import (
    CheckpointCorruptionError,
    CheckpointFormatError,
    load,
    load_tensors,
    save,
    save_tensors,
)
from .mixers import (
    AttentionMixer,
    DepthwiseConvMixer,
    IdentityMixer,
    MixerConfig,
    PoolingMixer,
    RandomMatrixMixer,
    SpatialFCMixer,
    make_mixer,
)
from .model import (
    ConfigError,
    Model,
    ModelConfig,
    build,
    drop_path_schedule,
    stage_grids,
    stage_plan,
)
from .norms import BatchNorm, ChannelLayerNorm, ModifiedLayerNorm, NoNorm, make_norm
from .tensor import (
    InvalidArgument,
    Tensor,
    avg_pool2d_excl,
    conv2d,
    gelu,
    log_softmax_lastdim,
    matmul,
    relu,
    silu,
    softmax_lastdim,
)
from .train import (
    AdamW,
    TrainResult,
    cosine_lr,
    default_peak_lr,
    label_smoothing_ce,
    synth_batch,
    train_loop,
)

__all__ = [
    "AdamW",
    "AttentionMixer",
    "BatchNorm",
    "ChannelLayerNorm",
    "ChannelMlp",
    "CheckpointCorruptionError",
    "CheckpointFormatError",
    "ConfigError",
    "CostReport",
    "DepthwiseConvMixer",
    "IdentityMixer",
    "InvalidArgument",
    "MetaFormerBlock",
    "MixerConfig",
    "Model",
    "ModelConfig",
    "ModifiedLayerNorm",
    "NoNorm",
    "PoolingMixer",
    "RandomMatrixMixer",
    "SpatialFCMixer",
    "StageCost",
    "Tensor",
    "TrainResult",
    "avg_pool2d_excl",
    "build",
    "conv2d",
    "cosine_lr",
    "cost_report",
    "count_params",
    "default_peak_lr",
    "drop_path",
    "drop_path_schedule",
    "gelu",
    "label_smoothing_ce",
    "load",
    "load_tensors",
    "log_softmax_lastdim",
    "make_mixer",
    "make_norm",
    "matmul",
    "relu",
    "save",
    "save_tensors",
    "silu",
    "softmax_lastdim",
    "stage_grids",
    "stage_plan",
    "synth_batch",
    "train_loop",
]

__version__ = "0.1.0"
