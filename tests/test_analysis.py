import itertools
import json
from dataclasses import replace

import pytest

from metaformer.analysis import cost_report, count_params
from metaformer.mixers import MIXER_KINDS
from metaformer.model import ModelConfig, build
from metaformer.norms import NORM_KINDS
from metaformer.tensor import InvalidArgument

# Reference tables, in millions / billions at 224^2.
# The five-variant table excludes LayerScale vectors from parameter totals
# and counts pooling MACs; the ablation table includes LayerScale and
# excludes pooling. Both conventions derive from the same report.
VARIANT_TABLE = {
    "S12": (11.9, 1.8),
    "S24": (21.4, 3.4),
    "S36": (30.8, 5.0),
    "M36": (56.1, 8.8),
    "M48": (73.4, 11.6),
}

ABLATION_TABLE = [
    # (mixer kinds, norm, params M, macs G)
    (("random_matrix",) * 4, "mln", 11.9, 3.3),
    (("pooling", "pooling", "pooling", "attention"), "ln", 14.0, 1.9),
    (("pooling", "pooling", "attention", "attention"), "ln", 16.5, 2.5),
    (("pooling", "pooling", "pooling", "spatial_fc"), "mln", 11.9, 1.8),
    (("pooling", "pooling", "spatial_fc", "spatial_fc"), "mln", 12.2, 1.9),
]

TINY = ModelConfig(dims=(16, 32, 64, 128), depths=(1, 1, 2, 1), num_classes=4,
                   input_size=32, drop_path=0.0)


@pytest.mark.parametrize("name,expected", VARIANT_TABLE.items())
def test_variant_table_parameters(name, expected):
    want_m, _ = expected
    report = cost_report(ModelConfig.variant_named(name))
    assert abs(report.table_params / 1e6 - want_m) <= 0.05, report.table_params


@pytest.mark.parametrize("name,expected", VARIANT_TABLE.items())
def test_variant_table_macs(name, expected):
    _, want_g = expected
    report = cost_report(ModelConfig.variant_named(name))
    assert abs(report.macs / 1e9 - want_g) <= 0.05, report.macs


@pytest.mark.parametrize("kinds,norm,want_m,want_g", ABLATION_TABLE)
def test_ablation_table_rows(kinds, norm, want_m, want_g):
    cfg = ModelConfig.variant_named("S12").with_mixers(kinds, norm=norm)
    report = cost_report(cfg)
    assert abs(report.trainable_params / 1e6 - want_m) <= 0.05
    assert abs(report.macs_excl_pool / 1e9 - want_g) <= 0.05


def test_random_matrix_frozen_param_total():
    cfg = ModelConfig.variant_named("S12").with_mixers(("random_matrix",) * 4)
    report = cost_report(cfg)
    # 56^2, 28^2, 14^2, 7^2 tokens across depths [2, 2, 6, 2].
    want = 2 * 3136**2 + 2 * 784**2 + 6 * 196**2 + 2 * 49**2
    assert report.frozen_params == want == 21_133_602
    assert abs(report.frozen_params / 1e6 - 21.1) <= 0.05


def test_count_params_on_built_model_matches_analytic():
    configs = [TINY.with_mixers(("pooling", "identity", "attention", "spatial_fc"))]
    for kind, norm, mlp, ls in itertools.product(MIXER_KINDS, NORM_KINDS, (True, False), (True, False)):
        configs.append(replace(TINY.with_mixers((kind,) * 4, norm=norm), use_channel_mlp=mlp, use_layer_scale=ls))
    assert len(configs) == 1 + 96
    for cfg in configs:
        model = build(cfg, seed=0)
        assert count_params(model) == count_params(cfg), cfg


def test_count_params_s12_totals():
    trainable, frozen = count_params(ModelConfig.variant_named("S12"))
    assert trainable == 11_915_176
    assert frozen == 0


def test_totals_equal_breakdown_sums():
    for cfg in (ModelConfig.variant_named("S12"), TINY,
                ModelConfig.variant_named("S12").with_mixers(("pooling",) * 2 + ("attention",) * 2, norm="ln")):
        r = cost_report(cfg)
        assert r.trainable_params == sum(s.params for s in r.per_stage)
        assert r.frozen_params == sum(s.frozen_params for s in r.per_stage)
        assert r.macs == sum(s.macs for s in r.per_stage)
        assert r.pool_macs == sum(s.pool_macs for s in r.per_stage)


def test_pooling_model_macs_scale_quadratically_with_side():
    cfg = ModelConfig.variant_named("S12")
    r224 = cost_report(cfg, 224)
    r448 = cost_report(cfg, 448)
    assert r448.backbone_macs == 4 * r224.backbone_macs
    # Head MACs are resolution independent, so grand totals differ from 4x by 3 heads.
    assert r448.macs - 4 * r224.macs == -3 * (512 * 1000)


def test_attention_matmul_term_scales_quartically_with_side():
    cfg = ModelConfig.variant_named("S12").with_mixers(
        ("pooling", "pooling", "attention", "attention"), norm="ln"
    )
    r224 = cost_report(cfg, 224)
    r448 = cost_report(cfg, 448)
    assert r448.attn_matmul_macs == 16 * r224.attn_matmul_macs


def test_param_count_independent_of_input_size_for_pooling_models():
    cfg = ModelConfig.variant_named("S12")
    assert cost_report(cfg, 224).trainable_params == cost_report(cfg, 448).trainable_params


def test_resolution_bound_report_rejects_other_sizes():
    cfg = ModelConfig.variant_named("S12").with_mixers(("random_matrix",) * 4)
    with pytest.raises(InvalidArgument, match="bind"):
        cost_report(cfg, 448)


def test_json_report_schema():
    report = cost_report(ModelConfig.variant_named("S12"))
    obj = json.loads(json.dumps(report.to_json_dict(), indent=2))
    for key in ("trainable_params", "frozen_params", "macs", "input_size", "per_stage",
                "table_params", "layer_scale_params", "pool_macs", "macs_excl_pool"):
        assert key in obj
    assert all(isinstance(obj[k], int) for k in ("trainable_params", "frozen_params", "macs", "input_size"))
    assert len(obj["per_stage"]) == 5  # four stages + head
    assert obj["per_stage"][0]["stage"] == "stage1"
    assert sum(s["params"] for s in obj["per_stage"]) == obj["trainable_params"]


def test_channel_mlp_removal_accounting():
    # Dropping the channel MLP leaves embeds + norm1/ls1 + head: ~2.5M / ~0.2G.
    from dataclasses import replace

    cfg = replace(ModelConfig.variant_named("S12"), use_channel_mlp=False)
    r = cost_report(cfg)
    assert abs(r.trainable_params / 1e6 - 2.5) <= 0.05
    assert abs(r.macs_excl_pool / 1e9 - 0.2) <= 0.05


def test_layer_scale_subtotal():
    r = cost_report(ModelConfig.variant_named("S12"))
    want = 2 * (2 * 64 + 2 * 128 + 6 * 320 + 2 * 512)
    assert r.layer_scale_params == want == 6_656
    assert r.table_params == r.trainable_params - want
