import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metaformer import train
from metaformer.checkpoint import load, save
from metaformer.gradcheck import check_tensor_gradient
from metaformer.mixers import MixerConfig
from metaformer.model import ModelConfig, build
from metaformer.tensor import InvalidArgument, Tensor, _make
from metaformer.train import (
    AdamW,
    cosine_lr,
    default_peak_lr,
    label_smoothing_ce,
    synth_batch,
    tiny_train_config,
    train_loop,
)

from oracles import loop_adamw_step, loop_synth_sample

MICRO = ModelConfig(dims=(8, 8, 16, 16), depths=(1, 1, 1, 1), num_classes=4,
                    input_size=32, drop_path=0.0)


def make_param(values, seed=0):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True, dtype="f64")


# ------------------------------------------------------------------- adamw

def test_adamw_zero_grad_zero_wd_is_noop(monkeypatch):
    monkeypatch.setattr(train, "ADAMW_WEIGHT_DECAY", 0.0)
    p = make_param([1.0, -2.0, 3.0])
    opt = AdamW([("p", p)])
    p.grad = np.zeros(3)
    before = p.data.copy()
    opt.step(lr=0.1)
    np.testing.assert_array_equal(p.data, before)


def test_adamw_first_step_closed_form(monkeypatch):
    monkeypatch.setattr(train, "ADAMW_WEIGHT_DECAY", 0.0)
    p = make_param([1.0, 1.0])
    g = np.array([0.5, -2.0])
    opt = AdamW([("p", p)])
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
    opt = AdamW([("p", p)])
    prev = np.abs(p.data).copy()
    for _ in range(5):
        p.grad = np.zeros(2)
        opt.step(lr=0.5)
        cur = np.abs(p.data)
        assert (cur < prev).all()
        prev = cur.copy()
    assert (np.sign(p.data) == [1, -1]).all()


@pytest.mark.parametrize("held,message", [
    (np.zeros(3, dtype=np.float32),
     r"adamw: parameter p: held grad float32 \(3,\) does not match the tensor's float32 \(2,\)"),
    ([0.0, 0.0], r"adamw: parameter p: held grad is a list, not a numpy array"),
    (np.zeros(2), r"adamw: parameter p: held grad float64 \(2,\) does not match the tensor's float32 \(2,\)"),
    (np.zeros(2, dtype=np.complex64),
     r"adamw: parameter p: held grad complex64 \(2,\) does not match the tensor's float32 \(2,\)"),
], ids=["shape (3,)", "list", "f64", "complex64"])
def test_adamw_refuses_an_assigned_grad_of_another_shape_or_type(held, message):
    p = Tensor(np.array([1.0, 2.0]), dtype="f32", requires_grad=True)
    opt = AdamW([("p", p)])
    p.grad = held
    with pytest.raises(InvalidArgument, match=message):
        opt.step(lr=0.1)
    assert p.data.tolist() == [1.0, 2.0] and opt.t == 0


def test_a_refused_adamw_step_changes_no_arena_row_and_not_t():
    first, second = make_param([1.0, 2.0]), make_param([3.0, -4.0, 5.0])
    opt = AdamW([("first", first), ("second", second)])
    first.grad, second.grad = np.array([0.5, -1.0]), np.array([2.0, 0.0, -3.0])
    opt.step(lr=0.1)
    before = [row.tobytes() for row in (opt.p, opt.g, opt.m, opt.v)]
    first.grad, second.grad = np.array([7.0, 8.0]), [0.0, 0.0, 0.0]
    with pytest.raises(InvalidArgument, match=r"adamw: parameter second: held grad is a list"):
        opt.step(lr=0.1)
    assert opt.t == 1
    assert [row.tobytes() for row in (opt.p, opt.g, opt.m, opt.v)] == before
    second.grad = np.zeros(3)
    opt.step(lr=0.1)
    assert opt.t == 2 and opt.g.tolist() == [7.0, 8.0, 0.0, 0.0, 0.0]


def arena_case(dtype):
    """MICRO's parameters plus three: one reached twice per graph, one off the loss path, one the caller fills."""
    model = build(MICRO, seed=3, dtype=dtype)
    rng = np.random.default_rng(3)
    extras = [(name, Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype))
              for name, shape in (("twice", (3, 4)), ("off_path", (2, 2)), ("assigned", (5,)))]
    return model, list(model.named_parameters()) + extras


def arena_backward(model, params, step, dtype):
    """Fill the gradients of step ``step``; ``assigned`` gets its gradient from the caller."""
    named = dict(params)
    images, labels = synth_batch(0, 4 * step, 4)
    rng = np.random.default_rng(step)
    twice = named["twice"]
    loss = (label_smoothing_ce(model.forward(Tensor(images, dtype=dtype), mode="train"), labels)
            + (twice * twice * Tensor(rng.standard_normal((3, 4)), dtype=dtype)).sum())
    loss.backward()
    named["assigned"].grad = rng.standard_normal(5).astype(named["assigned"].dtype)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_adamw_arena_step_is_bit_identical_to_the_per_tensor_loop(dtype):
    model, params = arena_case(dtype)
    ref_model, ref_params = arena_case(dtype)
    opt = AdamW(params)
    m, v = {}, {}
    for step in range(5):
        opt.zero_grad()
        for _, p in ref_params:
            p.zero_grad()
        arena_backward(model, params, step, dtype)
        arena_backward(ref_model, ref_params, step, dtype)
        assert dict(params)["off_path"].grad is None
        lr = 1e-2 / (step + 1)
        opt.step(lr)
        loop_adamw_step(ref_params, m, v, step + 1, lr, train.ADAMW_WEIGHT_DECAY)
        for (name, p), (_, ref) in zip(params, ref_params):
            assert p.data.dtype == ref.data.dtype and p.data.tobytes() == ref.data.tobytes(), (step, name)
        for arena, moments in ((opt.m, m), (opt.v, v)):
            assert arena.tobytes() == np.concatenate([moments[name].ravel() for name, _ in ref_params]).tobytes()


def test_adamw_packs_every_parameter_into_its_arena_in_order():
    model = build(MICRO, seed=1)
    before = [(name, p.data.copy()) for name, p in model.named_parameters()]
    opt = AdamW(list(model.named_parameters()))
    assert opt.p.size == sum(a.size for _, a in before)
    start = 0
    for (name, p), (_, old) in zip(model.named_parameters(), before):
        assert np.shares_memory(p.data, opt.p), name
        assert p.data.shape == old.shape and np.array_equal(p.data, old), name
        assert np.array_equal(opt.p[start:start + old.size], old.ravel()), name
        start += old.size
    images, labels = synth_batch(0, 0, 4)
    label_smoothing_ce(model.forward(Tensor(images), mode="train"), labels).backward()
    assert all(np.shares_memory(p.grad, opt.g) for _, p in model.named_parameters())


def test_a_wrong_shape_leaf_gradient_is_refused():
    p = make_param([1.0, 2.0])
    AdamW([("p", p)])
    bad = _make(np.array(0.0), (p,), lambda g: (np.ones(1),))  # an op whose backward returns a wrong shape
    with pytest.raises(InvalidArgument, match=r"gradient shape \(1,\) != parameter shape \(2,\)"):
        bad.backward()


def test_a_first_gradient_of_negative_zero_keeps_its_sign_bit():
    p = make_param([1.0, 1.0])
    AdamW([("p", p)])
    (p * Tensor(np.array([-0.0, 0.0]), dtype="f64")).sum().backward()
    assert np.signbit(p.grad).tolist() == [True, False]


def test_adamw_refuses_a_duplicate_tensor_and_mixed_dtypes_and_takes_no_parameters():
    p = make_param([1.0])
    with pytest.raises(InvalidArgument, match="listed twice"):
        AdamW([("a", p), ("b", p)])
    with pytest.raises(InvalidArgument, match="mix dtypes"):
        AdamW([("a", p), ("b", Tensor(np.ones(2), requires_grad=True, dtype="f32"))])
    empty = AdamW([])
    empty.zero_grad()
    empty.step(0.1)


def test_save_load_save_is_byte_identical_after_adamw_steps(tmp_path):
    model = build(MICRO, seed=4)
    opt = AdamW(list(model.named_parameters()))
    for step in range(3):
        images, labels = synth_batch(4, 4 * step, 4)
        opt.zero_grad()
        label_smoothing_ce(model.forward(Tensor(images), mode="train"), labels).backward()
        opt.step(1e-2)
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    save(model, str(first))
    save(load(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


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
    with pytest.raises(InvalidArgument, match=r"targets shape \(2, 1\) != \(2,\)"):
        label_smoothing_ce(logits, np.array([[0], [1]]))
    with pytest.raises(InvalidArgument, match=r"label_smoothing_ce: targets must be integers, got float64"):
        label_smoothing_ce(logits, np.array([0.0, 1.0]))
    with pytest.raises(InvalidArgument,
                       match=r"label_smoothing_ce: logits must be 2-D \[B, classes\], got shape \(3,\)"):
        label_smoothing_ce(Tensor(np.zeros(3), dtype="f64"), np.array([0]))
    with pytest.raises(InvalidArgument, match=r"label_smoothing_ce: the batch is empty, logits shape \(0, 4\)"):
        label_smoothing_ce(Tensor(np.zeros((0, 4)), dtype="f64"), np.zeros(0, dtype=np.int64))


# ------------------------------------------------------------ synthetic data

def test_synth_batch_is_pure_function_of_seed_and_index():
    a_img, a_label = synth_batch(3, 17, 1)
    b_img, b_label = synth_batch(3, 17, 1)
    assert a_label == b_label
    assert np.array_equal(a_img, b_img)
    c_img, _ = synth_batch(4, 17, 1)
    assert not np.array_equal(a_img, c_img)


def test_synth_batch_images_are_valid():
    for index in range(8):
        (img,), (label,) = synth_batch(0, index, 1)
        assert img.shape == (3, 32, 32)
        assert img.dtype == np.float32
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert label == index % 4


@pytest.mark.parametrize("seed,start,batch,size", [
    (0, 0, 32, 32), (1, 5, 7, 32), (3, 1000, 64, 64), (7, 3, 1, 32), (2, 17, 9, 48), (11, 2, 5, 33),
])
def test_synth_batch_is_bit_identical_to_stacked_samples(seed, start, batch, size):
    images, labels = synth_batch(seed, start, batch, size)
    samples = [loop_synth_sample(seed, start + i, size) for i in range(batch)]
    assert images.dtype == np.float32 and labels.dtype == np.int64
    assert images.tobytes() == np.stack([img for img, _ in samples]).tobytes()
    assert labels.tolist() == [label for _, label in samples]
    if batch >= 4:
        assert set(labels.tolist()) == {0, 1, 2, 3}


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


def test_train_loop_of_one_step_runs_at_peak_lr_and_longer_runs_keep_their_warmup():
    assert [m["lr"] for m in train_loop(MICRO, steps=1, batch_size=4, lr_peak=1e-3).metrics] == [1e-3]
    assert [m["lr"] for m in train_loop(MICRO, steps=2, batch_size=4, lr_peak=1e-3).metrics] == [0.0, 1e-3]


@pytest.mark.parametrize("kwargs,message", [
    (dict(batch_size=0), "batch_size must be >= 1"),
    (dict(batch_size=-3), "batch_size must be >= 1"),
    (dict(lr_peak=math.nan), "lr_peak must be finite"),
    (dict(lr_peak=-math.inf), "lr_peak must be finite"),
    (dict(seed=-1), "seed must be >= 0"),
    (dict(label_smoothing=1.5), r"smoothing must lie in \[0, 1\)"),
    (dict(label_smoothing=math.nan), r"smoothing must lie in \[0, 1\)"),
    (dict(config=replace(MICRO, in_channels=1)), "the dataset has 3 channels, but the config has in_channels 1"),
    (dict(config=replace(MICRO, in_channels=4)), "the dataset has 3 channels, but the config has in_channels 4"),
    (dict(steps=-1), "steps must be >= 0, got -1"),
])
def test_train_loop_refuses_out_of_range_values_before_writing_metrics(tmp_path, kwargs, message):
    path = tmp_path / "metrics.ndjson"
    with pytest.raises(InvalidArgument, match=message):
        train_loop(**{"config": MICRO, "steps": 2, "batch_size": 4, "metrics_path": str(path), **kwargs})
    assert not path.exists()


def test_train_loop_drops_each_steps_graph_before_the_next_step(monkeypatch):
    graphs = []
    real_ce, real_batch = train.label_smoothing_ce, train.synth_batch

    def ce(logits, labels, smoothing):
        # Tensor has no weakref slot; the arrays of the nodes under the logits die with the graph.
        graphs.extend(weakref.ref(p.data) for p in logits._parents if p._backward_fn is not None)
        return real_ce(logits, labels, smoothing)

    def batch(*args):
        assert all(ref() is None for ref in graphs), "an earlier step's graph is still alive"
        return real_batch(*args)

    monkeypatch.setattr(train, "label_smoothing_ce", ce)
    monkeypatch.setattr(train, "synth_batch", batch)
    train_loop(MICRO, steps=3, batch_size=4, lr_peak=1e-3)
    assert len(graphs) == 6  # the head's matmul and bias reshape, per step


def test_a_training_step_with_its_loss_and_logits_still_bound_keeps_no_graph():
    model = build(tiny_train_config(), seed=0)
    optimizer = AdamW(list(model.named_parameters()))
    images, labels = synth_batch(0, 0, 32)
    tracemalloc.start()
    try:
        logits = model.forward(Tensor(images), mode="train")
        loss = label_smoothing_ce(logits, labels, 0.1)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step(1e-3)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert logits.shape == (32, 4) and math.isfinite(float(loss.data))
    assert held < 2**20, f"{held / 2**20:.2f} MiB still held after the step"


# The pattern of train_loop's steps, in a fresh process: minor page faults per step after three warm-up steps.
STEP_FAULTS = """
import json, resource
from metaformer.init import child_rng
from metaformer.model import build
from metaformer.tensor import Tensor
from metaformer.train import AdamW, label_smoothing_ce, synth_batch, tiny_train_config
config = tiny_train_config()
model = build(config, 0)
optimizer = AdamW(list(model.named_parameters()))
rng = child_rng(0, 1)
faults = []
for step in range(8):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    images, labels = synth_batch(0, step * 32, 32, config.input_size)
    logits = model.forward(Tensor(images), mode="train", rng=rng)
    loss = label_smoothing_ce(logits, labels, 0.1)
    optimizer.zero_grad()
    loss.backward()
    optimizer.step(1e-3)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults[3:]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc thresholds that AdamW sets are glibc's")
def test_training_steps_reuse_the_heap_instead_of_faulting_it_back_in():
    src = str(Path(train.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", STEP_FAULTS], env=env, check=True, capture_output=True, text=True)
    faults = json.loads(out.stdout)
    assert statistics.median(faults) < 256, faults


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
