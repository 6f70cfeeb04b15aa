import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metaformer.gradcheck import check_tensor_gradient
from metaformer.mixers import MixerConfig
from metaformer.model import ModelConfig, build
from metaformer.tensor import InvalidArgument, Tensor
from metaformer.train import (
    AdamW,
    cosine_lr,
    default_peak_lr,
    label_smoothing_ce,
    synth_batch,
    synth_sample,
    tiny_train_config,
    train_loop,
)

MICRO = ModelConfig(dims=(8, 8, 16, 16), depths=(1, 1, 1, 1), num_classes=4,
                    input_size=32, drop_path=0.0)


def make_param(values, seed=0):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True, dtype="f64")


# ------------------------------------------------------------------- adamw

def test_adamw_zero_grad_zero_wd_is_noop():
    p = make_param([1.0, -2.0, 3.0])
    opt = AdamW([("p", p)], weight_decay=0.0)
    p.grad = np.zeros(3)
    before = p.data.copy()
    opt.step(lr=0.1)
    np.testing.assert_array_equal(p.data, before)


def test_adamw_first_step_closed_form():
    p = make_param([1.0, 1.0])
    g = np.array([0.5, -2.0])
    opt = AdamW([("p", p)], weight_decay=0.0, eps=1e-8)
    p.grad = g.copy()
    opt.step(lr=0.01)
    want = np.array([1.0, 1.0]) - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, want, rtol=1e-9)


def test_adamw_lr_zero_is_noop():
    p = make_param([1.0, -1.0])
    opt = AdamW([("p", p)])
    p.grad = np.array([3.0, 4.0])
    before = p.data.copy()
    opt.step(lr=0.0)
    np.testing.assert_array_equal(p.data, before)


def test_adamw_weight_decay_shrinks_monotonically():
    p = make_param([2.0, -2.0])
    opt = AdamW([("p", p)], weight_decay=0.1)
    prev = np.abs(p.data).copy()
    for _ in range(5):
        p.grad = np.zeros(2)
        opt.step(lr=0.5)
        cur = np.abs(p.data)
        assert (cur < prev).all()
        prev = cur.copy()
    assert (np.sign(p.data) == [1, -1]).all()


def test_adamw_rejects_shape_mismatch():
    p = make_param([1.0, 2.0])
    opt = AdamW([("p", p)])
    p.grad = np.zeros(3)
    with pytest.raises(InvalidArgument, match="shape"):
        opt.step(lr=0.1)


def test_default_peak_lr_relation():
    assert default_peak_lr(1024) == pytest.approx(1e-3)
    assert default_peak_lr(32) == pytest.approx(3.125e-5)


# --------------------------------------------------------------- cosine lr

def test_cosine_lr_hits_peak_at_warmup_end():
    assert cosine_lr(10, 10, 110, 2.0) == 2.0


def test_cosine_lr_half_way():
    assert cosine_lr(60, 10, 110, 1.0) == pytest.approx(0.5)


def test_cosine_lr_boundary_values():
    assert cosine_lr(0, 10, 100, 1.0) == 0.0
    assert cosine_lr(100, 10, 100, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_cosine_lr_continuous_and_monotone_after_warmup():
    peak, warmup, total = 1.0, 7, 200
    values = [cosine_lr(s, warmup, total, peak) for s in range(total + 1)]
    assert abs(values[warmup] - peak) < 1e-12
    # Continuity across the boundary.
    assert values[warmup] - values[warmup - 1] < peak / warmup + 1e-9
    after = values[warmup:]
    assert all(a >= b - 1e-15 for a, b in zip(after, after[1:]))


@given(
    warmup=st.integers(1, 50),
    total=st.integers(51, 500),
    step=st.integers(0, 500),
    peak=st.floats(1e-6, 10.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_cosine_lr_always_within_envelope(warmup, total, step, peak):
    assume(step <= total)
    lr = cosine_lr(step, warmup, total, peak)
    assert 0.0 <= lr <= peak + 1e-12


def test_cosine_lr_rejects_out_of_range():
    with pytest.raises(InvalidArgument):
        cosine_lr(-1, 10, 100, 1.0)
    with pytest.raises(InvalidArgument):
        cosine_lr(101, 10, 100, 1.0)
    with pytest.raises(InvalidArgument):
        cosine_lr(5, 100, 100, 1.0)


# --------------------------------------------------------- label smoothing

def test_label_smoothing_zero_is_standard_ce():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((4, 5))
    targets = np.array([0, 2, 4, 1])
    loss = label_smoothing_ce(Tensor(logits, dtype="f64"), targets, smoothing=0.0)
    log_probs = logits - np.log(np.exp(logits - logits.max(1, keepdims=True)).sum(1, keepdims=True)) - logits.max(1, keepdims=True)
    want = -log_probs[np.arange(4), targets].mean()
    assert float(loss.data.reshape(())) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("smoothing", [0.0, 0.1, 0.5])
def test_uniform_logits_loss_is_log_n_classes(smoothing):
    logits = Tensor(np.zeros((3, 7)), dtype="f64")
    loss = label_smoothing_ce(logits, np.array([0, 3, 6]), smoothing=smoothing)
    assert float(loss.data.reshape(())) == pytest.approx(math.log(7), rel=1e-12)


def test_smoothed_loss_bounded_below_by_target_entropy():
    # -sum q log p is minimized at p = q, where it equals H(q) > 0.
    n, eps = 4, 0.1
    q = np.full(n, eps / n)
    q[0] += 1 - eps
    floor = -(q * np.log(q)).sum()
    sharp = np.zeros((1, n))
    sharp[0, 0] = 50.0  # heavily favors the target class
    loss = label_smoothing_ce(Tensor(sharp, dtype="f64"), np.array([0]), smoothing=eps)
    value = float(loss.data.reshape(()))
    assert value >= floor - 1e-12
    assert floor > 0.34


def test_label_smoothing_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.standard_normal((5, 4)), dtype="f64", requires_grad=True)
    targets = np.array([0, 1, 2, 3, 1])

    def loss():
        return label_smoothing_ce(logits, targets, smoothing=0.1)

    assert check_tensor_gradient(loss, logits) < 1e-4


def test_label_smoothing_rejects_bad_targets():
    logits = Tensor(np.zeros((2, 3)), dtype="f64")
    with pytest.raises(InvalidArgument, match="out of range"):
        label_smoothing_ce(logits, np.array([0, 3]))
    with pytest.raises(InvalidArgument, match="smoothing"):
        label_smoothing_ce(logits, np.array([0, 1]), smoothing=1.0)


# ------------------------------------------------------------ synthetic data

def test_synth_sample_is_pure_function_of_seed_and_index():
    a_img, a_label = synth_sample(3, 17)
    b_img, b_label = synth_sample(3, 17)
    assert a_label == b_label
    assert np.array_equal(a_img, b_img)
    c_img, _ = synth_sample(4, 17)
    assert not np.array_equal(a_img, c_img)


def test_synth_samples_are_valid_images():
    for index in range(8):
        img, label = synth_sample(0, index)
        assert img.shape == (3, 32, 32)
        assert img.dtype == np.float32
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert label == index % 4


def test_synth_batch_is_class_balanced():
    _, labels = synth_batch(0, 0, 64)
    counts = np.bincount(labels, minlength=4)
    assert (counts == 16).all()


# ------------------------------------------------------------------- loop

def test_train_loop_zero_steps_returns_initialization():
    result = train_loop(MICRO, steps=0, batch_size=4, seed=9)
    fresh = build(MICRO, seed=9)
    for (name, a), (_, b) in zip(result.model.named_parameters(), fresh.named_parameters()):
        assert np.array_equal(a.data, b.data), name
    assert result.metrics == []


def test_train_loop_same_seed_bitwise_identical():
    r1 = train_loop(MICRO, steps=3, batch_size=4, seed=5, lr_peak=1e-3)
    r2 = train_loop(MICRO, steps=3, batch_size=4, seed=5, lr_peak=1e-3)
    for (name, a), (_, b) in zip(r1.model.named_parameters(), r2.model.named_parameters()):
        assert np.array_equal(a.data, b.data), name
    assert r1.metrics == r2.metrics


def test_train_loop_emits_metric_records(tmp_path):
    path = str(tmp_path / "metrics.ndjson")
    result = train_loop(MICRO, steps=2, batch_size=4, seed=0, lr_peak=1e-3, metrics_path=path)
    assert len(result.metrics) == 2
    for rec in result.metrics:
        assert set(rec) == {"step", "lr", "loss", "train_acc"}
    import json

    lines = [json.loads(line) for line in open(path)]
    assert lines == result.metrics


def test_frozen_random_matrix_unchanged_by_training():
    cfg = ModelConfig(dims=(8, 8, 16, 16), depths=(1, 1, 1, 1), num_classes=4, input_size=32,
                      mixers=tuple(MixerConfig(kind="random_matrix") for _ in range(4)))
    before = build(cfg, seed=2)
    frozen_before = [t.data.copy() for _, t in before.frozen_parameters()]
    result = train_loop(cfg, steps=3, batch_size=4, seed=2, lr_peak=1e-2)
    frozen_after = [t.data for _, t in result.model.frozen_parameters()]
    for a, b in zip(frozen_before, frozen_after):
        assert np.array_equal(a, b)


def test_train_loop_reduces_loss_on_short_run():
    result = train_loop(tiny_train_config(), steps=25, batch_size=16, seed=0,
                        lr_peak=3e-3, label_smoothing=0.0)
    first, last = result.metrics[0]["loss"], result.metrics[-1]["loss"]
    assert last < first


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_loop_stops_at_first_non_finite_loss(tmp_path, monkeypatch):
    updates = []
    real_step = AdamW.step
    monkeypatch.setattr(AdamW, "step", lambda self, lr: (updates.append(lr), real_step(self, lr)))
    path = str(tmp_path / "metrics.ndjson")
    with pytest.raises(FloatingPointError, match=r"loss is (nan|-?inf) at step \d+") as info:
        train_loop(MICRO, steps=6, batch_size=4, seed=0, lr_peak=1e30, metrics_path=path)
    # The steps before the named one ran in full; it stopped before its update and wrote no record.
    step = int(re.search(r"at step (\d+)", str(info.value)).group(1))
    assert 0 < step < 6
    assert len(updates) == step
    assert [json.loads(line)["step"] for line in open(path)] == list(range(step))
