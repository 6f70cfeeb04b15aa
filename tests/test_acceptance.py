"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Parameter/MAC comparisons reproduce two reference tables that were produced
with different counting conventions (verified against both to well under one
rounding unit):

  * five-variant table: parameters exclude the trainable LayerScale vectors,
    MACs include pooling window sums (criteria 1-2, via ``table_params`` and
    ``macs``);
  * ablation table: parameters include LayerScale, MACs exclude pooling
    (criterion 3, via ``trainable_params`` and ``macs_excl_pool``).

Run with ``pytest tests/test_acceptance.py -v``.
"""

import time

import numpy as np
import pytest

from metaformer.analysis import cost_report
from metaformer.block import MetaFormerBlock, drop_path
from metaformer.checkpoint import load, save
from metaformer.gradcheck import check_parameter_group, check_tensor_gradient
from metaformer.mixers import MixerConfig
from metaformer.model import ModelConfig, build
from metaformer.tensor import (
    Tensor,
    avg_pool2d_excl,
    conv2d,
    gelu,
    log_softmax_lastdim,
    matmul,
    narrow,
    relu,
    silu,
    softmax_lastdim,
)
from metaformer.train import pinned_run, tiny_train_config, train_loop

from oracles import naive_avg_pool_excl

PARAM_TABLE = {"S12": 11.9, "S24": 21.4, "S36": 30.8, "M36": 56.1, "M48": 73.4}
MAC_TABLE = {"S12": 1.8, "S24": 3.4, "S36": 5.0, "M36": 8.8, "M48": 11.6}

ABLATION_ROWS = [
    (("random_matrix",) * 4, "mln", 11.9, 3.3),
    (("pooling", "pooling", "pooling", "attention"), "ln", 14.0, 1.9),
    (("pooling", "pooling", "attention", "attention"), "ln", 16.5, 2.5),
    (("pooling", "pooling", "pooling", "spatial_fc"), "mln", 11.9, 1.8),
    (("pooling", "pooling", "spatial_fc", "spatial_fc"), "mln", 12.2, 1.9),
]


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    # Let the per-criterion lines through pytest's capture so they always show.
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    line = f"ACCEPTANCE {number:2d} {status}: {description}{suffix}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_01_variant_parameter_table():
    start = time.perf_counter()
    devs = {}
    for name, want in PARAM_TABLE.items():
        got = cost_report(ModelConfig.variant_named(name)).table_params / 1e6
        devs[name] = abs(got - want)
    elapsed = time.perf_counter() - start
    ok = all(d <= 0.05 for d in devs.values()) and elapsed < 1.0
    report(1, "five-variant parameter totals within 0.05M", ok,
           f"max dev {max(devs.values()):.4f}M, {elapsed * 1e3:.0f}ms")


def test_criterion_02_variant_mac_table():
    devs = {}
    for name, want in MAC_TABLE.items():
        got = cost_report(ModelConfig.variant_named(name), 224).macs / 1e9
        devs[name] = abs(got - want)
    ok = all(d <= 0.05 for d in devs.values())
    report(2, "five-variant MAC totals at 224^2 within 0.05G", ok,
           f"max dev {max(devs.values()):.4f}G")


def test_criterion_03_ablation_accounting():
    s12 = ModelConfig.variant_named("S12")
    frozen = cost_report(s12.with_mixers(("random_matrix",) * 4)).frozen_params / 1e6
    ok = abs(frozen - 21.1) <= 0.05
    max_p = max_m = 0.0
    for kinds, norm, want_p, want_m in ABLATION_ROWS:
        r = cost_report(s12.with_mixers(kinds, norm=norm))
        max_p = max(max_p, abs(r.trainable_params / 1e6 - want_p))
        max_m = max(max_m, abs(r.macs_excl_pool / 1e9 - want_m))
    ok = ok and max_p <= 0.05 and max_m <= 0.05
    report(3, "ablation-table frozen/hybrid params and MACs within one rounding unit", ok,
           f"frozen {frozen:.2f}M, max param dev {max_p:.4f}M, max MAC dev {max_m:.4f}G")


# --------------------------------------------------------------- criterion 4

_OPS = {
    "conv2d": lambda x, aux: conv2d(x, aux["w"], aux["b"], stride=(2, 1), padding=(1, 1)),
    "conv2d_grouped": lambda x, aux: conv2d(x, aux["wg"], None, padding=(1, 1), groups=2),
    "avg_pool": lambda x, aux: avg_pool2d_excl(x, 3),
    "softmax": lambda x, aux: softmax_lastdim(x.reshape(2, 4, 36)),
    "log_softmax": lambda x, aux: log_softmax_lastdim(x.reshape(2, 4, 36)),
    "gelu": lambda x, aux: gelu(x),
    "silu": lambda x, aux: silu(x),
    "relu": lambda x, aux: relu(x),
    "matmul": lambda x, aux: matmul(x.reshape(2, 24, 6), aux["m"]),
    "narrow": lambda x, aux: narrow(x, 1, 1, 2),
    "mean": lambda x, aux: x.mean(axis=(2, 3), keepdims=True),
    "arith": lambda x, aux: (x * x + x) / (x * x + Tensor(np.full((1,), 2.0))),
    "swapaxes": lambda x, aux: x.swapaxes(1, 3).reshape(2, 4, 6, 6) * x,
}

_BLOCK_COMBOS = [
    ("pooling", "mln", "gelu"), ("pooling", "ln", "relu"), ("pooling", "bn", "silu"),
    ("identity", "ln", "gelu"), ("identity", "none", "silu"),
    ("random_matrix", "mln", "silu"), ("random_matrix", "bn", "gelu"),
    ("depthwise_conv", "bn", "gelu"), ("depthwise_conv", "mln", "relu"),
    ("attention", "ln", "gelu"), ("attention", "mln", "silu"),
    ("spatial_fc", "none", "relu"), ("spatial_fc", "ln", "silu"),
]


def _op_suite_max_error() -> float:
    worst = 0.0
    for name, op in _OPS.items():
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            xdata = rng.standard_normal((2, 4, 6, 6))
            if name == "relu":
                xdata = xdata + 0.2 * np.sign(xdata)
            x = Tensor(xdata, dtype="f64", requires_grad=True)
            aux = {
                "w": Tensor(0.5 * rng.standard_normal((5, 4, 3, 3)), dtype="f64"),
                "b": Tensor(rng.standard_normal(5), dtype="f64"),
                "wg": Tensor(0.5 * rng.standard_normal((4, 2, 3, 3)), dtype="f64"),
                "m": Tensor(rng.standard_normal((6, 5)), dtype="f64"),
            }
            def loss():
                out = op(x, aux)
                return (out * Tensor(np.random.default_rng(7).standard_normal(out.shape))).sum()

            coords = [tuple(rng.integers(0, s) for s in x.shape) for _ in range(6)]
            worst = max(worst, check_tensor_gradient(loss, x, coords=coords))
    return worst


def _block_suite_max_error() -> float:
    worst = 0.0
    for kind, norm, act in _BLOCK_COMBOS:
        cfg = ModelConfig(
            dims=(8,) * 4, mixers=(MixerConfig(kind=kind, heads=2 if kind == "attention" else None),) * 4,
            norm=norm, activation=act, layer_scale_init=0.1,
        )
        block = MetaFormerBlock(cfg, 0, 0.0, np.random.default_rng(5), n_tokens=36, dtype="f64")
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 8, 6, 6)), dtype="f64", requires_grad=True)
        proj = Tensor(rng.standard_normal((2, 8, 6, 6)), dtype="f64")
        mode = "train" if norm == "bn" else "eval"

        def loss():
            return (block(x, mode=mode) * proj).sum()

        coords = [tuple(rng.integers(0, s) for s in x.shape) for _ in range(5)]
        worst = max(worst, check_tensor_gradient(loss, x, coords=coords))
        for _, p in block.named_parameters("b"):
            pcoords = [tuple(rng.integers(0, s) for s in p.shape) for _ in range(3)]
            worst = max(worst, check_tensor_gradient(loss, p, coords=pcoords))
    return worst


def _full_model_max_error() -> float:
    micro = ModelConfig(dims=(8, 16, 32, 64), depths=(1, 1, 2, 1), num_classes=4,
                        input_size=32, drop_path=0.0, layer_scale_init=0.1)
    model = build(micro, seed=0, dtype="f64")
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((2, 3, 32, 32)), dtype="f64")
    proj = Tensor(rng.standard_normal((2, 4)), dtype="f64")

    def loss():
        return (model.forward(x, mode="eval") * proj).sum()

    errors = check_parameter_group(loss, dict(model.named_parameters()),
                                   max_coords_per_tensor=3, seed=0)
    return max(errors.values())


def test_criterion_04_gradient_suite():
    start = time.perf_counter()
    worst = max(_op_suite_max_error(), _block_suite_max_error(), _full_model_max_error())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 300
    report(4, "finite-difference gradient suite (ops, 13 block combos, full model) under 1e-4", ok,
           f"max rel err {worst:.2e}, {elapsed:.0f}s")


def test_criterion_05_pooling_invariants():
    rng = np.random.default_rng(0)
    ok = True
    worst = 0.0
    for trial in range(200):
        shape = (1, int(rng.integers(1, 4)), int(rng.integers(3, 8)), int(rng.integers(3, 8)))
        x = rng.standard_normal(shape)
        k = int(rng.choice([3, 5]))
        got = avg_pool2d_excl(Tensor(x, dtype="f64"), k).data
        worst = max(worst, float(np.abs(got - naive_avg_pool_excl(x, k)).max()))
    ok = ok and worst <= 1e-6
    const = avg_pool2d_excl(Tensor(np.full((1, 2, 5, 5), 3.5), dtype="f64"), 3).data
    ok = ok and np.abs(const - 3.5).max() <= 1e-6
    x = rng.standard_normal((1, 2, 6, 6))
    k1 = avg_pool2d_excl(Tensor(x, dtype="f64"), 1).data
    ok = ok and np.array_equal(k1, x)
    y = rng.standard_normal((1, 2, 6, 6))
    lin_lhs = avg_pool2d_excl(Tensor(2.5 * x - 0.5 * y, dtype="f64"), 3).data
    lin_rhs = 2.5 * avg_pool2d_excl(Tensor(x, dtype="f64"), 3).data - 0.5 * avg_pool2d_excl(Tensor(y, dtype="f64"), 3).data
    ok = ok and np.abs(lin_lhs - lin_rhs).max() <= 1e-6
    report(5, "pooling invariants (constant-zero, K=1, linearity, 200x brute-force) at 1e-6", ok,
           f"max oracle dev {worst:.2e}")


def test_criterion_06_normalization_oracles():
    from metaformer.norms import BatchNorm, ChannelLayerNorm, ModifiedLayerNorm

    from oracles import naive_batch_norm_train, naive_layer_norm_channel, naive_mln

    rng = np.random.default_rng(1)
    mln = ModifiedLayerNorm(3, dtype="f64")
    ln = ChannelLayerNorm(3, dtype="f64")
    bn = BatchNorm(3, dtype="f64")
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal((2, 3, 4, 4)) * rng.uniform(0.5, 4.0) + rng.uniform(-3, 3)
        worst = max(worst, float(np.abs(
            mln(Tensor(x, dtype="f64")).data - naive_mln(x, mln.gamma.data, mln.beta.data, mln.eps)).max()))
        worst = max(worst, float(np.abs(
            ln(Tensor(x, dtype="f64")).data
            - naive_layer_norm_channel(x, ln.gamma.data, ln.beta.data, ln.eps)).max()))
        worst = max(worst, float(np.abs(
            bn(Tensor(x, dtype="f64"), mode="train").data
            - naive_batch_norm_train(x, bn.gamma.data, bn.beta.data, bn.eps)).max()))
    ok = worst <= 1e-10
    report(6, "MLN/LN/BN match brute-force statistics on 100 random inputs at 1e-10", ok,
           f"max dev {worst:.2e}")


def test_criterion_07_complexity_scaling():
    pool_cfg = ModelConfig.variant_named("S12")
    r224 = cost_report(pool_cfg, 224)
    r448 = cost_report(pool_cfg, 448)
    pooling_scales = r448.backbone_macs == 4 * r224.backbone_macs
    attn_cfg = pool_cfg.with_mixers(("pooling", "pooling", "attention", "attention"), norm="ln")
    a224 = cost_report(attn_cfg, 224)
    a448 = cost_report(attn_cfg, 448)
    attn_scales = a448.attn_matmul_macs == 16 * a224.attn_matmul_macs
    ok = pooling_scales and attn_scales
    report(7, "backbone MACs scale exactly 4x; attention matmul term exactly 16x at 448^2", ok,
           f"pool 4x={pooling_scales}, attn 16x={attn_scales}")


def test_criterion_08_determinism_and_persistence(tmp_path):
    tiny = tiny_train_config()
    a = build(tiny, seed=11)
    b = build(tiny, seed=11)
    builds_equal = all(
        np.array_equal(ta.data, tb.data)
        for (_, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters())
    )
    r1 = train_loop(tiny, steps=3, batch_size=8, seed=4, lr_peak=1e-3)
    r2 = train_loop(tiny, steps=3, batch_size=8, seed=4, lr_peak=1e-3)
    p1, p2 = str(tmp_path / "r1.ckpt"), str(tmp_path / "r2.ckpt")
    save(r1.model, p1)
    save(r2.model, p2)
    runs_equal = open(p1, "rb").read() == open(p2, "rb").read()
    x = Tensor(np.random.default_rng(0).random((2, 3, 32, 32)).astype(np.float32))
    restored = load(p1)
    roundtrip_equal = np.array_equal(r1.model.forward(x).data, restored.forward(x).data)
    p3 = str(tmp_path / "r3.ckpt")
    save(restored, p3)
    resave_equal = open(p1, "rb").read() == open(p3, "rb").read()
    ok = builds_equal and runs_equal and roundtrip_equal and resave_equal
    report(8, "same-seed builds/runs bitwise equal; roundtrip forward bitwise; re-save byte-identical", ok,
           f"build={builds_equal} run={runs_equal} fwd={roundtrip_equal} resave={resave_equal}")


def test_criterion_09_toy_training_regression():
    # The pinned run, train.pinned_run, at seed 0. It trains with no label
    # smoothing: smoothing's loss floor at 4 classes, ln(4*0.925...)-ish
    # ~0.349, sits above 0.25 * ln(4) ~ 0.347, so the bound is only reachable
    # with smoothing off. Reference outcome: loss ratio 0.063, accuracy 0.969.
    start = time.perf_counter()
    result = pinned_run()
    elapsed = time.perf_counter() - start
    first = result.metrics[0]["loss"]
    last = result.metrics[-1]["loss"]
    acc = result.metrics[-1]["train_acc"]
    ok = last < 0.25 * first and acc >= 0.90 and elapsed < 600
    report(9, "pinned 300-step run: final loss < 0.25x initial, accuracy >= 90%", ok,
           f"ratio {last / first:.3f}, acc {acc:.3f}, {elapsed:.0f}s")


def test_criterion_10_drop_path_expectation():
    n = 10_000
    x = Tensor(np.ones((n, 1, 1, 1)), dtype="f64")
    out = drop_path(x, 0.5, "train", np.random.default_rng(123)).data
    eval_value = drop_path(x, 0.5, "eval", None).data.mean()
    stderr = 1.0 / np.sqrt(n)  # per-sample variance is exactly 1 at p=0.5
    dev = abs(out.mean() - eval_value)
    ok = dev < 3 * stderr
    report(10, "drop-path Monte Carlo mean within 3 standard errors of eval value", ok,
           f"dev {dev:.4f} vs limit {3 * stderr:.4f}")
