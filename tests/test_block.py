import tracemalloc

import numpy as np
import pytest

from metaformer import block
from metaformer.block import ChannelMlp, MetaFormerBlock, drop_path
from metaformer.gradcheck import check_tensor_gradient
from metaformer.mixers import MIXER_KINDS, MixerConfig
from metaformer.model import ConfigError, ModelConfig, build
from metaformer.norms import NORM_KINDS, BatchNorm
from metaformer.tensor import ACTIVATIONS, InvalidArgument, Tensor


def rng64(seed=0):
    return np.random.default_rng(seed)


def make_block(channels=8, n_tokens=36, dtype="f64", seed=0, mixer=MixerConfig(kind="pooling"),
               drop_path_rate=0.0, **cfg_kwargs):
    kwargs = dict(norm="mln", activation="gelu", use_layer_scale=True, layer_scale_init=0.1)
    kwargs.update(cfg_kwargs)
    cfg = ModelConfig(dims=(channels,) * 4, mixers=(mixer,) * 4, **kwargs)
    return MetaFormerBlock(cfg, 0, drop_path_rate, rng64(seed), n_tokens=n_tokens, dtype=dtype)


# -------------------------------------------------------------- channel MLP

def test_mlp_zero_weights_give_zero_output():
    mlp = ChannelMlp(3, "gelu", rng64(0), dtype="f64")
    for t in (mlp.fc1_weight, mlp.fc1_bias, mlp.fc2_weight, mlp.fc2_bias):
        t.data[:] = 0.0
    x = Tensor(np.random.default_rng(1).standard_normal((2, 3, 4, 4)), dtype="f64")
    np.testing.assert_array_equal(mlp(x).data, np.zeros_like(x.data))


def test_mlp_hand_composed_identity_on_nonnegative_input():
    # C=1, W1 = [1,1,1,1], relu, W2 = [1,0,0,0]: the composition is x -> x for x >= 0.
    mlp = ChannelMlp(1, "relu", rng64(2), dtype="f64")
    mlp.fc1_weight.data[:] = 1.0
    mlp.fc1_bias.data[:] = 0.0
    mlp.fc2_weight.data[:] = 0.0
    mlp.fc2_weight.data[0, 0, 0, 0] = 1.0
    mlp.fc2_bias.data[:] = 0.0
    x = Tensor(np.random.default_rng(3).random((1, 1, 3, 3)), dtype="f64")
    np.testing.assert_allclose(mlp(x).data, x.data, atol=1e-12)


def test_mlp_parameter_count_closed_form():
    # 8C^2 weights + 5C biases.
    for c in (16, 320):
        mlp = ChannelMlp(c, "gelu", rng64(4))
        n = sum(t.data.size for _, t in mlp.named_parameters("m"))
        assert n == 8 * c * c + 5 * c
    assert 8 * 320 * 320 + 5 * 320 == 820_800


# ------------------------------------------------ graph-free channel MLP

def mlp_and_input(activation="gelu", dtype="f64", batch=3, channels=8, grid=(6, 5), seed=0):
    """A ChannelMlp with nonzero biases and a [batch, channels, *grid] input."""
    mlp = ChannelMlp(channels, activation, rng64(seed), dtype=dtype)
    for bias in (mlp.fc1_bias, mlp.fc2_bias):
        bias.data[:] = rng64(seed + 1).standard_normal(bias.shape)
    x = Tensor(rng64(seed + 2).standard_normal((batch, channels) + grid), dtype=dtype)
    return mlp, x


def state_bytes(module):
    return {name: (v.data if isinstance(v, Tensor) else v).tobytes() for name, v in module.named_state()}


def count_conv2d(monkeypatch):
    """Batch sizes of the conv2d calls ChannelMlp makes from now on."""
    batches = []
    real = block.conv2d

    def counting_conv2d(x, *args):
        batches.append(x.shape[0])
        return real(x, *args)

    monkeypatch.setattr(block, "conv2d", counting_conv2d)
    return batches


@pytest.mark.parametrize("activation", tuple(ACTIVATIONS))
@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("batch", [1, 3])
def test_graph_free_mlp_is_bit_identical_to_the_recording_forward(activation, dtype, batch, monkeypatch):
    mlp, x = mlp_and_input(activation, dtype, batch)
    recorded = mlp(x)
    assert recorded.requires_grad
    x_before, state_before = x.data.tobytes(), state_bytes(mlp)
    calls = count_conv2d(monkeypatch)
    free = mlp.requires_grad_(False)(x)  # the activation writes over fc1's output in place
    assert not free.requires_grad and free.dtype == recorded.dtype and free.shape == recorded.shape
    assert free.data.tobytes() == recorded.data.tobytes()
    assert x.data.tobytes() == x_before and state_bytes(mlp) == state_before
    assert calls == [batch, batch]  # fc1 and fc2 once, on the whole batch: the block is what streams


@pytest.mark.parametrize("recording", ["x", "fc1_weight", "fc1_bias", "fc2_weight", "fc2_bias"])
def test_mlp_with_anything_recording_a_graph_runs_on_the_whole_batch(recording, monkeypatch):
    mlp, x = mlp_and_input(batch=3)
    mlp.requires_grad_(False)
    leaf = x if recording == "x" else getattr(mlp, recording)
    leaf.requires_grad = True
    calls = count_conv2d(monkeypatch)
    y = mlp(x)
    assert calls == [3, 3]
    assert y.requires_grad and y._parents
    y.sum().backward()
    assert leaf.grad is not None and leaf.grad.shape == leaf.shape


# ------------------------------------------------------ graph-free block streaming

# 128 channels on a 16x16 grid: one sample holds exactly block.STREAM_MIN_VALUES values.
STREAM_CHANNELS, STREAM_GRID = 128, (16, 16)


def streaming_block_and_input(kind="pooling", norm="mln", activation="gelu", dtype="f64", batch=3,
                              channels=STREAM_CHANNELS, seed=0):
    """A block whose norms, biases, LayerScale and BatchNorm statistics are random, and its input."""
    rng = rng64(seed)
    blk = make_block(channels=channels, n_tokens=STREAM_GRID[0] * STREAM_GRID[1], dtype=dtype, seed=seed,
                     mixer=MixerConfig(kind=kind), norm=norm, activation=activation)
    for name, leaf in blk.named_state():
        arr = leaf.data if isinstance(leaf, Tensor) else leaf
        if arr.ndim == 1:  # gamma, beta, biases, LayerScale, running mean and variance
            arr[:] = rng.uniform(0.5, 1.5, arr.shape)
    x = Tensor(rng.standard_normal((batch, channels) + STREAM_GRID), dtype=dtype)
    return blk, x


def count_block_calls(blk, monkeypatch):
    """Batch sizes seen by the block's mixer and by its MLP from now on, as (mixer, mlp) lists."""
    seen = ([], [])
    for calls, cls in zip(seen, (type(blk.mixer), ChannelMlp)):
        real = cls.__call__

        def counting(self, x, *args, _real=real, _calls=calls):
            _calls.append(x.shape[0])
            return _real(self, x, *args)

        monkeypatch.setattr(cls, "__call__", counting)
    return seen


# Every mixer with every norm; the activations take turns so that each meets every mixer and every norm.
STREAM_COMBOS = [(kind, norm, tuple(ACTIVATIONS)[(i + j) % len(ACTIVATIONS)])
                 for i, kind in enumerate(MIXER_KINDS) for j, norm in enumerate(NORM_KINDS)]


@pytest.mark.parametrize("kind,norm,activation", STREAM_COMBOS)
@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("batch", [1, 3])
def test_graph_free_block_streams_bit_identical_to_the_recording_forward(kind, norm, activation, dtype, batch,
                                                                         monkeypatch):
    blk, x = streaming_block_and_input(kind, norm, activation, dtype, batch)
    assert x.data[0].size == block.STREAM_MIN_VALUES
    recorded = blk(x)
    assert recorded.requires_grad
    x_before, state_before = x.data.tobytes(), state_bytes(blk)
    mixer_calls, mlp_calls = count_block_calls(blk, monkeypatch)
    free = blk.requires_grad_(False)(x)
    assert not free.requires_grad and free.dtype == recorded.dtype and free.shape == recorded.shape
    assert free.data.tobytes() == recorded.data.tobytes()
    assert x.data.tobytes() == x_before and state_bytes(blk) == state_before
    assert mixer_calls == mlp_calls == [1] * batch  # the whole block, once per sample


def test_small_samples_train_mode_and_recording_calls_run_the_block_on_the_whole_batch(monkeypatch):
    small, x_small = streaming_block_and_input(channels=STREAM_CHANNELS - 1)
    small.requires_grad_(False)
    blk, x = streaming_block_and_input()
    blk.requires_grad_(False)
    mixer_calls, mlp_calls = count_block_calls(blk, monkeypatch)
    small(x_small)  # one value below the threshold
    blk(x, "train", rng64(1))  # graph-free, but train mode
    blk.ls2.requires_grad = True
    blk(x)  # one tensor records a graph
    blk.ls2.requires_grad = False
    x.requires_grad = True
    blk(x)  # the input records a graph
    assert mixer_calls == mlp_calls == [3] * 4


def test_graph_free_block_streams_so_its_peak_stays_below_two_and_a_half_batch_arrays():
    # The S12 block (pooling, MLN, GELU) in f32 at batch 8. Streaming keeps the [B, C, H, W] output and
    # one sample's arrays: its norm, pooled and residual arrays, its 4C hidden array (activated in place)
    # and the f32 erf's four 32,768-value blocks, about 10 sample arrays or 1.3 batch arrays here. The
    # whole-batch block keeps at least four batch arrays alive at once (input of the MLP's norm, its
    # output, the MLP output and the residual).
    blk, x = streaming_block_and_input(dtype="f32", batch=8)
    blk.requires_grad_(False)
    blk(x)
    tracemalloc.start()
    try:
        y = blk(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.shape == x.shape
    assert peak < 2.5 * x.data.nbytes, (peak, x.data.nbytes)


# ---------------------------------------------------------------- drop path

def test_drop_path_p0_and_eval_are_identity():
    x = Tensor(np.random.default_rng(5).standard_normal((4, 3, 2, 2)), dtype="f64")
    assert drop_path(x, 0.0, "train", rng64(6)) is x
    assert drop_path(x, 0.0, "eval", None) is x
    assert drop_path(x, 0.7, "eval", None) is x


def test_drop_path_rejects_p_out_of_range():
    x = Tensor(np.zeros((2, 1, 1, 1)))
    for p in (1.0, 1.5, -0.1):
        with pytest.raises(InvalidArgument):
            drop_path(x, p, "train", rng64(7))
    with pytest.raises(InvalidArgument, match="train mode requires an rng"):
        drop_path(x, 0.5, "train", None)


@pytest.mark.parametrize("mode", ["Train", "EVAL", "training", ""])
def test_mode_other_than_train_or_eval_is_refused(mode):
    # Drop path off everywhere and a BatchNorm: no layer may read an unknown
    # mode as "train" for one purpose and as "eval" for another.
    x = Tensor(np.random.default_rng(10).standard_normal((2, 8, 6, 6)))
    model = build(ModelConfig(dims=(8, 8, 8, 8), depths=(1, 1, 1, 1), num_classes=4, input_size=32))
    image = Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32))
    calls = (
        lambda: model.forward(image, mode=mode, rng=rng64(11)),
        lambda: make_block(norm="bn")(x, mode, rng64(11)),
        lambda: BatchNorm(8, dtype="f64")(x, mode),
        lambda: drop_path(x, 0.0, mode, rng64(11)),
    )
    for call in calls:
        with pytest.raises(InvalidArgument, match=f"^mode must be 'train' or 'eval', got {mode!r}$"):
            call()


def test_drop_path_expectation_matches_identity():
    # 10,000 per-sample draws at p=0.5 of x=1: mean within 3 standard errors of 1.
    n = 10_000
    x = Tensor(np.ones((n, 1, 1, 1)), dtype="f64")
    out = drop_path(x, 0.5, "train", rng64(8)).data
    # Each sample is 0 or 2, variance 1 -> stderr of the mean is 1/sqrt(n).
    stderr = 1.0 / np.sqrt(n)
    assert abs(out.mean() - 1.0) < 3 * stderr


def test_drop_path_scales_kept_samples():
    x = Tensor(np.ones((1000, 1)), dtype="f64")
    out = drop_path(x, 0.25, "train", rng64(9)).data
    kept = out[out != 0]
    np.testing.assert_allclose(kept, 1.0 / 0.75)


# -------------------------------------------------------------------- block

def test_block_config_checks_itself_when_constructed():
    # Norm, activation and layer scale are the model config's, checked when it is constructed.
    with pytest.raises(InvalidArgument, match=r"^block\.drop_path_rate:"):
        make_block(drop_path_rate=1.0)
    # The mixer is checked against the stage's width by the model config that holds it.
    with pytest.raises(ConfigError, match=r"^mixers\[0\]\.heads: channel dim 8 is not divisible by 3 heads"):
        make_block(mixer=MixerConfig(kind="attention", heads=3))


@pytest.mark.parametrize("stage", [7, 4, -1, 1.0, True])
def test_block_refuses_a_stage_outside_0_to_3(stage):
    cfg = ModelConfig(dims=(8,) * 4)
    with pytest.raises(InvalidArgument, match=f"^block\\.stage: must be 0, 1, 2 or 3, got {stage!r}$"):
        MetaFormerBlock(cfg, stage, 0.0, rng64(0), n_tokens=36)


def test_channel_mlp_refuses_an_unknown_activation_when_constructed():
    with pytest.raises(InvalidArgument, match=r"^channel_mlp: unknown activation 'bogus', expected one of \("):
        ChannelMlp(3, "bogus", rng64(0))


def test_block_identity_mixer_doubles_prenormalized_input():
    # gamma=1, beta=0, pre-normalized x, LayerScale off, zero MLP:
    # y = x + norm(x) = 2x, z = y + 0.
    block = make_block(channels=2, mixer=MixerConfig(kind="identity"),
                       use_layer_scale=False, seed=10)
    for t in (block.mlp.fc1_weight, block.mlp.fc1_bias, block.mlp.fc2_weight, block.mlp.fc2_bias):
        t.data[:] = 0.0
    x = np.empty((1, 2, 3, 3))
    x[0, 0] = -1.0
    x[0, 1] = 1.0  # zero mean, unit variance over (C, H, W)
    out = block(Tensor(x, dtype="f64"))
    np.testing.assert_allclose(out.data, 2 * x, atol=1e-4)


def test_block_zero_layer_scale_is_bitwise_identity():
    block = make_block(seed=11)
    block.ls1.data[:] = 0.0
    block.ls2.data[:] = 0.0
    x = Tensor(np.random.default_rng(12).standard_normal((2, 8, 6, 6)), dtype="f64")
    out = block(x, mode="eval")
    assert np.array_equal(out.data, x.data)


def test_block_eval_forward_is_deterministic():
    block = make_block(seed=13)
    x = Tensor(np.random.default_rng(14).standard_normal((2, 8, 6, 6)), dtype="f64")
    a = block(x, mode="eval").data
    b = block(x, mode="eval").data
    assert np.array_equal(a, b)


def test_block_per_block_parameter_count():
    # Pooling mixer, MLN, LayerScale: 4C norm affines + 8C^2+5C MLP + 2C LayerScale.
    c = 64
    block = make_block(channels=c, seed=15)
    n = sum(t.data.size for _, t in block.named_parameters("b"))
    assert n == 8 * c * c + 11 * c == 33_472


def test_block_residual_and_mlp_switches():
    x = Tensor(np.random.default_rng(16).standard_normal((2, 4, 3, 3)), dtype="f64")
    no_res = make_block(channels=4, n_tokens=9, use_residual=False, seed=17)
    out = no_res(x)
    assert out.shape == x.shape
    assert not np.allclose(out.data, x.data)

    no_mlp = make_block(channels=4, n_tokens=9, use_channel_mlp=False, seed=18)
    assert no_mlp.mlp is None and no_mlp.norm2 is None and no_mlp.ls2 is None
    # Only the mixer sub-block runs.
    n = sum(t.data.size for _, t in no_mlp.named_parameters("b"))
    assert n == 2 * 4 + 4  # norm1 affine + ls1


def test_block_shape_preserved_for_every_combination():
    x = Tensor(np.random.default_rng(19).standard_normal((2, 8, 6, 6)), dtype="f64")
    for kind in ("pooling", "identity", "random_matrix", "depthwise_conv", "attention", "spatial_fc"):
        for norm in ("mln", "ln", "bn", "none"):
            for act in ("gelu", "relu", "silu"):
                block = make_block(mixer=MixerConfig(kind=kind, heads=2 if kind == "attention" else None),
                                   norm=norm, activation=act, seed=20)
                assert block(x).shape == x.shape, (kind, norm, act)


# Diverse sample covering all mixers, norms, activations (>= 12 combinations).
GRADCHECK_COMBOS = [
    ("pooling", "mln", "gelu"),
    ("pooling", "ln", "relu"),
    ("pooling", "bn", "silu"),
    ("identity", "ln", "gelu"),
    ("identity", "none", "silu"),
    ("random_matrix", "mln", "silu"),
    ("random_matrix", "bn", "gelu"),
    ("depthwise_conv", "bn", "gelu"),
    ("depthwise_conv", "mln", "relu"),
    ("attention", "ln", "gelu"),
    ("attention", "mln", "silu"),
    ("spatial_fc", "none", "relu"),
    ("spatial_fc", "ln", "silu"),
]


@pytest.mark.parametrize("kind,norm,act", GRADCHECK_COMBOS)
def test_block_gradients_match_finite_differences(kind, norm, act):
    block = make_block(
        mixer=MixerConfig(kind=kind, heads=2 if kind == "attention" else None),
        norm=norm, activation=act, seed=21,
    )
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((2, 8, 6, 6)), dtype="f64", requires_grad=True)
    proj = Tensor(rng.standard_normal((2, 8, 6, 6)), dtype="f64")
    mode = "train" if norm == "bn" else "eval"  # drop_path_rate is 0, so train is still deterministic

    def loss():
        return (block(x, mode=mode) * proj).sum()

    coords = [tuple(rng.integers(0, s) for s in x.shape) for _ in range(6)]
    assert check_tensor_gradient(loss, x, coords=coords) < 1e-4
    for name, p in block.named_parameters("b"):
        pcoords = [tuple(rng.integers(0, s) for s in p.shape) for _ in range(4)]
        assert check_tensor_gradient(loss, p, coords=pcoords) < 1e-4, name
