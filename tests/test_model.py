import json
from dataclasses import fields, replace

import numpy as np
import pytest

from metaformer import cli
from metaformer.gradcheck import check_parameter_group
from metaformer.init import child_rng, trunc_normal
from metaformer.mixers import MixerConfig
from metaformer.model import (
    ConfigError,
    Model,
    ModelConfig,
    build,
    drop_path_schedule,
    stage_grids,
    stage_plan,
)
from metaformer.tensor import ACTIVATIONS, InvalidArgument, Tensor, matmul
from metaformer.train import tiny_train_config
from oracles import loop_trunc_normal

TINY = ModelConfig(dims=(16, 32, 64, 128), depths=(1, 1, 2, 1), num_classes=4,
                   input_size=32, drop_path=0.0)
MICRO = ModelConfig(dims=(8, 16, 32, 64), depths=(1, 1, 2, 1), num_classes=4,
                    input_size=32, drop_path=0.0, layer_scale_init=0.1)


# --------------------------------------------------------------- stage plan

def test_stage_plan_named_depths():
    assert stage_plan(12) == [2, 2, 6, 2]
    assert stage_plan(24) == [4, 4, 12, 4]
    assert stage_plan(36) == [6, 6, 18, 6]
    assert stage_plan(48) == [8, 8, 24, 8]


def test_stage_plan_rejects_indivisible():
    with pytest.raises(InvalidArgument, match="divisible by 6"):
        stage_plan(13)


# --------------------------------------------------------- drop path schedule

def test_drop_path_schedule_linear_ramp():
    rates = drop_path_schedule(0.1, 12)
    assert rates[0] == 0.0
    assert rates[-1] == 0.1
    assert rates[1] == pytest.approx(0.1 / 11)
    diffs = np.diff(rates)
    np.testing.assert_allclose(diffs, diffs[0])


@pytest.mark.parametrize("peak", [1.0, -0.1, float("nan")])
def test_drop_path_schedule_refuses_a_peak_rate_outside_0_1(peak):
    with pytest.raises(InvalidArgument, match=r"drop_path_schedule: peak rate must lie in \[0, 1\)"):
        drop_path_schedule(peak, 12)


def test_drop_path_schedule_degenerate_cases():
    assert drop_path_schedule(0.0, 5) == [0.0] * 5
    assert drop_path_schedule(0.3, 1) == [0.0]
    assert drop_path_schedule(0.25, 7)[-1] == 0.25


def test_drop_path_schedule_applied_by_global_block_index():
    cfg = ModelConfig(dims=(8, 8, 8, 8), depths=(2, 1, 2, 1), num_classes=4,
                      input_size=32, drop_path=0.3)
    model = build(cfg, seed=0)
    got = [blk.drop_path_rate for stage in model.stages for blk in stage]
    want = drop_path_schedule(0.3, 6)
    np.testing.assert_allclose(got, want)


# -------------------------------------------------------------- patch embeds

def test_stage_grids_for_224():
    assert stage_grids(224) == [56, 28, 14, 7]


def test_stage_grids_other_resolutions():
    assert stage_grids(448) == [112, 56, 28, 14]
    assert stage_grids(32) == [8, 4, 2, 1]
    # conv shape formula: floor((224 + 2*2 - 7)/4) + 1 = 56
    assert (224 + 4 - 7) // 4 + 1 == 56
    assert (56 + 2 - 3) // 2 + 1 == 28


def test_stage1_embed_parameter_count():
    model = build(ModelConfig.variant_named("S12"), seed=0)
    n = sum(t.data.size for _, t in model.embeds[0].named_parameters("e"))
    assert n == 3 * 64 * 49 + 64 == 9_472


# --------------------------------------------------------------------- build

def test_build_same_seed_is_bitwise_identical():
    a = build(TINY, seed=7)
    b = build(TINY, seed=7)
    for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data), na


def test_build_different_seeds_differ():
    a = build(TINY, seed=0)
    b = build(TINY, seed=1)
    assert not np.array_equal(a.head_weight.data, b.head_weight.data)


def test_build_initialization_contracts():
    model = build(TINY, seed=0)
    params = dict(model.named_parameters())
    # Truncated normal, std 0.02, bounded at +/- 2 sigma.
    w = params["embed1.weight"].data
    assert np.abs(w).max() <= 0.04 + 1e-12
    assert 0.01 < w.std() < 0.03
    np.testing.assert_array_equal(params["embed1.bias"].data, 0.0)
    np.testing.assert_array_equal(params["stage1.block0.norm1.gamma"].data, 1.0)
    np.testing.assert_array_equal(params["stage1.block0.ls1"].data, np.float32(TINY.layer_scale_init))


TRUNC_NORMAL_CASES = [(seed, shape) for seed in (0, 1, 2) for shape in ((17,), (64, 3, 7, 7), (1000, 1000))]


@pytest.mark.parametrize("seed, shape", TRUNC_NORMAL_CASES + [(0, (3136, 3136))])
def test_trunc_normal_is_bit_identical_to_the_whole_array_loop(seed, shape):
    got = trunc_normal(child_rng(seed, 0), shape)
    assert got.dtype == np.float64 and got.shape == shape
    assert np.array_equal(got, loop_trunc_normal(child_rng(seed, 0), shape))


def test_trunc_normal_without_rng_is_f64_zeros():
    out = trunc_normal(None, (5, 3))
    assert out.dtype == np.float64 and out.shape == (5, 3)
    assert not out.any()


INIT_FREE_CONFIGS = [
    MICRO,
    ModelConfig(dims=(8, 16, 32, 64), depths=(1, 1, 1, 1), num_classes=4, input_size=32, norm="bn",
                mixers=(MixerConfig(kind="attention", heads=2), MixerConfig(kind="depthwise_conv"),
                        MixerConfig(kind="random_matrix"), MixerConfig(kind="spatial_fc"))),
]


@pytest.mark.parametrize("cfg", INIT_FREE_CONFIGS, ids=["pooling", "hybrid-bn"])
def test_model_without_seed_has_the_built_state_and_draws_nothing(cfg):
    built, other = build(cfg, seed=0).state_arrays(), build(cfg, seed=1).state_arrays()
    empty = Model(cfg, None).state_arrays()
    assert [(n, a.shape, a.dtype, f) for n, (a, f) in empty.items()] == \
        [(n, a.shape, a.dtype, f) for n, (a, f) in built.items()]
    drawn = {name for name, (arr, _) in built.items() if not np.array_equal(arr, other[name][0])}
    assert "head.weight" in drawn and "embed1.weight" in drawn
    for name, (arr, _) in empty.items():
        if name in drawn:
            assert not arr.any(), name
        else:
            assert np.array_equal(arr, built[name][0]), name


def test_named_variant_table():
    s12 = ModelConfig.variant_named("S12")
    assert s12.dims == (64, 128, 320, 512)
    assert s12.depths == (2, 2, 6, 2)
    assert s12.layer_scale_init == 1e-5 and s12.drop_path == 0.1
    m48 = ModelConfig.variant_named("M48")
    assert m48.dims == (96, 192, 384, 768)
    assert m48.depths == (8, 8, 24, 8)
    assert m48.layer_scale_init == 1e-6 and m48.drop_path == 0.4
    with pytest.raises(ConfigError, match="unknown name"):
        ModelConfig.variant_named("S18")


# ------------------------------------------------------------------- forward

def test_s12_forward_shape_at_224():
    model = build(ModelConfig.variant_named("S12"), seed=0)
    x = Tensor(np.random.default_rng(0).random((2, 3, 224, 224)).astype(np.float32))
    assert model.forward(x).shape == (2, 1000)


def test_pooling_model_accepts_multiple_resolutions():
    model = build(TINY, seed=0)
    for size in (32, 48, 64):
        x = Tensor(np.random.default_rng(1).random((1, 3, size, size)).astype(np.float32))
        assert model.forward(x).shape == (1, 4)


def test_tiny_forward_shape():
    model = build(TINY, seed=0)
    x = Tensor(np.random.default_rng(2).random((4, 3, 32, 32)).astype(np.float32))
    assert model.forward(x).shape == (4, 4)


def test_resolution_bound_model_rejects_other_sizes():
    cfg = ModelConfig(dims=(8, 8, 8, 8), depths=(1, 1, 1, 1), num_classes=4, input_size=32,
                      mixers=tuple(MixerConfig(kind="spatial_fc") for _ in range(4)))
    model = build(cfg, seed=0)
    x = Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
    with pytest.raises(InvalidArgument, match="bound to 32x32"):
        model.forward(x)


def test_forward_rejects_tiny_inputs():
    model = build(TINY, seed=0)
    with pytest.raises(InvalidArgument, match=">= 32"):
        model.forward(Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32)))


def test_head_is_permutation_invariant_over_final_tokens():
    # Global average pooling: permuting final-stage tokens leaves logits unchanged.
    cfg = ModelConfig(dims=(8, 8, 8, 8), depths=(1, 1, 1, 1), num_classes=4, input_size=64,
                      mixers=tuple(MixerConfig(kind="identity") for _ in range(4)),
                      norm="none", use_layer_scale=False, use_channel_mlp=False)
    model = build(cfg, seed=3)
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((1, 8, 2, 2)).astype(np.float32)

    def head_path(f):
        x = model.norm(Tensor(f), "eval")
        pooled = x.mean(axis=(2, 3))
        return (matmul(pooled, model.head_weight.swapaxes(0, 1)) + model.head_bias.reshape(1, -1)).data

    base = head_path(feats)
    perm = feats.reshape(1, 8, 4)[:, :, [2, 0, 3, 1]].reshape(1, 8, 2, 2)
    np.testing.assert_allclose(head_path(np.ascontiguousarray(perm)), base, atol=1e-6)


def test_full_model_gradients_match_finite_differences():
    model = build(MICRO, seed=0, dtype="f64")
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((2, 3, 32, 32)), dtype="f64")
    proj = Tensor(rng.standard_normal((2, 4)), dtype="f64")

    def loss():
        return (model.forward(x, mode="eval") * proj).sum()

    params = dict(model.named_parameters())
    report = check_parameter_group(loss, params, max_coords_per_tensor=3, seed=0)
    worst = max(report.values())
    assert worst < 1e-4, sorted(report.items(), key=lambda kv: -kv[1])[:3]


# -------------------------------------------------------------------- config

@pytest.mark.parametrize("activation", tuple(ACTIVATIONS))
@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("norm", ["mln", "bn"])
def test_graph_free_forward_is_bit_identical_to_the_recording_eval_forward(activation, dtype, batch, norm):
    model = build(replace(MICRO, activation=activation, norm=norm), seed=0, dtype=dtype)
    x = Tensor(np.random.default_rng(1).random((batch, 3, 32, 32)), dtype=dtype)
    recorded = model.forward(x, mode="eval")
    assert recorded.requires_grad
    x_before = x.data.tobytes()
    state_before = {name: arr.tobytes() for name, (arr, _) in model.state_arrays().items()}
    free = model.requires_grad_(False).forward(x, mode="eval")
    assert not free.requires_grad
    assert free.data.tobytes() == recorded.data.tobytes()
    assert x.data.tobytes() == x_before
    assert {name: arr.tobytes() for name, (arr, _) in model.state_arrays().items()} == state_before


def test_config_json_roundtrip_variant():
    cfg = ModelConfig.variant_named("S24")
    assert cfg.to_json_dict() == {"variant": "S24"}
    back = ModelConfig.from_json_dict({"variant": "S24"})
    assert back == cfg


def test_config_json_roundtrip_custom():
    d = TINY.to_json_dict()
    assert "custom" in d
    back = ModelConfig.from_json_dict(d)
    assert back == TINY


def test_config_json_roundtrip_keeps_variant_overrides():
    for cfg in (ModelConfig.variant_named("S12", num_classes=4),
                replace(ModelConfig.variant_named("S12"), drop_path=0.0)):
        d = cfg.to_json_dict()
        assert "custom" in d
        back = ModelConfig.from_json_dict(d)
        assert back == cfg


def test_variant_is_derived_from_the_fields():
    assert "variant" not in {f.name for f in fields(ModelConfig)}
    s12 = ModelConfig.variant_named("S12")
    assert s12.variant == "S12"
    # Equal fields name the variant however the config was built; any override unnames it.
    same = ModelConfig(dims=s12.dims, depths=s12.depths, layer_scale_init=s12.layer_scale_init,
                       drop_path=s12.drop_path)
    assert same.variant == "S12" and same.to_json_dict() == {"variant": "S12"}
    assert ModelConfig.variant_named("S12", num_classes=4).variant is None
    assert TINY.variant is None


def test_mixer_config_resets_the_fields_its_kind_does_not_read():
    assert MixerConfig(kind="pooling", kernel=5, heads=2) == MixerConfig(kind="pooling")
    assert MixerConfig(kind="attention", pool_size=5, kernel=5, heads=2) == MixerConfig(kind="attention", heads=2)
    assert MixerConfig(kind="depthwise_conv", pool_size=5, kernel=5).kernel == 5
    # An unknown kind keeps what it was given, for validate to refuse.
    assert MixerConfig(kind="bogus", pool_size=5).pool_size == 5


TINY_CUSTOM = {"dims": [8, 16, 32, 64], "depths": [1, 1, 2, 1], "num_classes": 4, "input_size": 32}

NON_FINITE_LS = r"config\.custom\.layer_scale_init: must be finite"
ABOVE_ONE_LS = r"config\.custom\.layer_scale_init: must be finite and <= 1.*got (1\.5|1000000000\.0|10\.0)$"
MALFORMED_CUSTOM = {
    "scalar dims": ({"dims": 5}, r"config\.custom\.dims"),
    "string dims": ({"dims": ["8", "16", "32", "64"]}, r"config\.custom\.dims\[0\]"),
    "string input_size": ({"input_size": "224"}, r"config\.custom\.input_size"),
    "null drop_path": ({"drop_path": None}, r"config\.custom\.drop_path"),
    "int use_residual": ({"use_residual": 1}, r"config\.custom\.use_residual"),
    "float num_classes": ({"num_classes": 4.0}, r"config\.custom\.num_classes"),
    "scalar mixers": ({"mixers": 5}, r"config\.custom\.mixers"),
    "string pool_size": ({"mixers": [{"kind": "pooling", "pool_size": "3"}] * 4}, r"mixers\[0\]\.pool_size"),
    "bool kernel": ({"mixers": [{"kind": "depthwise_conv", "kernel": True}] * 4}, r"mixers\[0\]\.kernel"),
    "string heads": ({"mixers": [{"kind": "attention", "heads": "2"}] * 4}, r"mixers\[0\]\.heads"),
    "indivisible heads": ({"mixers": [{"kind": "attention", "heads": 3}] * 4}, r"mixers\[0\]\.heads.*divisible"),
    # json.load reads NaN, Infinity and -Infinity.
    "nan layer_scale_init": ({"layer_scale_init": float("nan")}, NON_FINITE_LS),
    "inf layer_scale_init": ({"layer_scale_init": float("inf")}, NON_FINITE_LS),
    "-inf layer_scale_init": ({"layer_scale_init": -float("inf")}, NON_FINITE_LS),
    # Refused with layer scale off too: NaN would not survive a JSON round trip.
    "nan layer_scale_init, layer scale off": ({"use_layer_scale": False, "layer_scale_init": float("nan")},
                                              NON_FINITE_LS),
    "inf layer_scale_init, layer scale off": ({"use_layer_scale": False, "layer_scale_init": float("inf")},
                                              NON_FINITE_LS),
    "-inf layer_scale_init, layer scale off": ({"use_layer_scale": False, "layer_scale_init": -float("inf")},
                                               NON_FINITE_LS),
    # Finite but above 1: large enough values overflow the f32 forward.
    "layer_scale_init above 1": ({"layer_scale_init": 1.5}, ABOVE_ONE_LS),
    "layer_scale_init 1e9": ({"layer_scale_init": 1e9}, ABOVE_ONE_LS),
    "layer_scale_init above 1, layer scale off": ({"use_layer_scale": False, "layer_scale_init": 10.0},
                                                  ABOVE_ONE_LS),
    # A batch-1 f32 input numpy cannot size.
    "input_size 10**9": ({"input_size": 10**9}, r"config\.custom\.input_size: a batch-1 f32 input .* bytes"),
    "input_size 10**19": ({"input_size": 10**19}, r"config\.custom\.input_size: a batch-1 f32 input .* bytes"),
}


@pytest.mark.parametrize("case", MALFORMED_CUSTOM)
def test_malformed_config_json_names_the_field(case, tmp_path, capsys):
    override, path = MALFORMED_CUSTOM[case]
    obj = {"custom": {**TINY_CUSTOM, **override}}
    with pytest.raises(ConfigError, match=path):
        ModelConfig.from_json_dict(obj)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(obj))
    assert cli.main(["describe", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_config_json_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown fields"):
        ModelConfig.from_json_dict({"variant": "S12", "extra": 1})
    with pytest.raises(ConfigError, match="unknown fields"):
        ModelConfig.from_json_dict({"custom": {"dims": [8, 8, 8, 8], "dropout": 0.5}})
    with pytest.raises(ConfigError, match="exactly one"):
        ModelConfig.from_json_dict({})
    with pytest.raises(ConfigError, match=r"^config\.variant: expected a name, got 12$"):
        ModelConfig.from_json_dict({"variant": 12})
    with pytest.raises(ConfigError, match=r"^config\.custom: expected an object$"):
        ModelConfig.from_json_dict({"custom": [8, 8, 8, 8]})


def test_config_refuses_inputs_smaller_than_a_forward_accepts(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"^input_size: .*>= 32.*got 16"):
        build(replace(tiny_train_config(), input_size=16))
    with pytest.raises(ConfigError, match="input_size"):
        replace(tiny_train_config(), input_size=31).validate()
    replace(tiny_train_config(), input_size=32).validate()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"custom": {**TINY_CUSTOM, "input_size": 16}}))
    assert cli.main(["describe", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "input_size" in err[0], err


def test_config_validation_errors_carry_field_path():
    with pytest.raises(ConfigError, match="depths"):
        ModelConfig(depths=(0, 1, 1, 1)).validate()
    with pytest.raises(ConfigError, match="mixers\\[1\\]"):
        ModelConfig(mixers=(MixerConfig(), MixerConfig(pool_size=4), MixerConfig(), MixerConfig())).validate()
    with pytest.raises(ConfigError, match="drop_path"):
        ModelConfig(drop_path=1.0).validate()
    with pytest.raises(ConfigError, match="norm"):
        ModelConfig(norm="instance").validate()
    # Constructing an invalid config raises; no separate validate() call is needed.
    for path, fields in [
        (r"^dims:", dict(dims=(8, 8, 0, 8))),
        (r"^dims:", dict(dims=(8, 8, 8))),
        (r"^mixers: need one mixer per stage, got 3", dict(mixers=(MixerConfig(),) * 3)),
        (r"^activation: unknown 'tanh'", dict(activation="tanh")),
        (r"^norm: unknown kind 'rmsnorm', expected one of \('mln', 'ln', 'bn', 'none'\)$", dict(norm="rmsnorm")),
        (r"^layer_scale_init:", dict(layer_scale_init=0.0)),
        (r"^layer_scale_init: must be finite", dict(layer_scale_init=float("nan"))),
        (r"^layer_scale_init: must be finite", dict(layer_scale_init=float("inf"))),
        (r"^layer_scale_init: must be finite", dict(layer_scale_init=-float("inf"))),
        (r"^layer_scale_init: must be finite", dict(use_layer_scale=False, layer_scale_init=float("nan"))),
        (r"^layer_scale_init: must be finite", dict(use_layer_scale=False, layer_scale_init=float("inf"))),
        (r"^layer_scale_init: must be finite", dict(use_layer_scale=False, layer_scale_init=-float("inf"))),
        (r"^layer_scale_init: must be finite and <= 1.*got 1\.0000001$", dict(layer_scale_init=1.0000001)),
        (r"^layer_scale_init: must be finite and <= 1.*got 1e\+38$", dict(layer_scale_init=1e38)),
        (r"^layer_scale_init: must be finite and <= 1.*got 2$", dict(use_layer_scale=False, layer_scale_init=2)),
        (r"^mixers\[1\]: expected MixerConfig, got 'pooling'",
         dict(mixers=(MixerConfig(), "pooling", MixerConfig(), MixerConfig()))),
        (r"^num_classes: must be >= 1, got 0", dict(num_classes=0)),
        (r"^in_channels: must be >= 1, got 0", dict(in_channels=0)),
        (r"^input_size: .*got 16", dict(input_size=16)),
        # The types JSON is checked for are checked in Python too, by the same rule.
        (r"^input_size: expected int, got 32\.5", dict(input_size=32.5)),
        (r"^use_residual: expected bool, got 'no'", dict(use_residual="no")),
        (r"^num_classes: expected int, got 4\.0", dict(num_classes=4.0)),
        (r"^mixers\[0\]\.kind: unknown mixer 'bogus'",
         dict(mixers=(MixerConfig(kind="bogus"),) + (MixerConfig(),) * 3)),
        # numpy sizes no array of more bytes than intp holds: 876706528 is the largest side for 3 f32 channels.
        (r"^input_size: a batch-1 f32 input \[1, 3, S, S\] must fit in 9223372036854775807 bytes, got S = 876706529$",
         dict(input_size=876706529)),
        (r"^input_size: .*\[1, 1, S, S\].*got S = 1518500250$", dict(in_channels=1, input_size=1518500250)),
        (r"^input_size: .*got S = 9223372036854775808$", dict(input_size=2**63)),
        (r"^input_size: .*got S = 10000000000000000000$", dict(input_size=10**19)),
    ]:
        with pytest.raises(ConfigError, match=path):
            ModelConfig(**fields)
    ModelConfig(use_layer_scale=False, layer_scale_init=0.0)
    ModelConfig(layer_scale_init=1.0)
    ModelConfig(input_size=876706528)
    ModelConfig(in_channels=1, input_size=1518500249)


def test_forward_rejects_wrong_channel_count():
    model = build(TINY, seed=0)
    with pytest.raises(InvalidArgument, match=r"expected input \[B, 3, H, W\], got shape \(1, 4, 32, 32\)"):
        model.forward(Tensor(np.zeros((1, 4, 32, 32), dtype=np.float32)))
    with pytest.raises(InvalidArgument, match=r"expected input \[B, 3, H, W\]"):
        model.forward(Tensor(np.zeros((3, 32, 32), dtype=np.float32)))
