"""Desk-scale supervised training on a seeded synthetic shape dataset.

AdamW with decoupled weight decay, linear warmup into a cosine schedule,
label-smoothing cross-entropy. AdamW keeps the parameters, their gradients
and its two moments in one flat arena each, so a step is a fixed sequence of
whole-arena numpy calls rather than one pass per tensor; its results are the
bits of the per-tensor update. Building an AdamW also raises glibc's malloc
thresholds once per process (``tensor._keep_freed_heap``, which
``checkpoint.load`` calls too), so the memory that a step's graph frees stays
in the heap for the next step instead of going back to the OS and being
faulted in again. The dataset draws one of four patterns (filled disk,
filled square, horizontal stripes, vertical stripes) with seeded jitter and
noise; sample generation is a pure function of (seed, index), so runs are
bitwise reproducible.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .init import child_rng
from .model import Model, ModelConfig, build
from .tensor import InvalidArgument, Tensor, _check_grad, _keep_freed_heap, log_softmax_lastdim

N_CLASSES = 4
N_CHANNELS = 3  # synth_batch draws RGB images
CLASS_NAMES = ("disk", "square", "h_stripes", "v_stripes")

# Table-derived settings: peak lr scales as batch_size/1024 * 1e-3, warmup
# spans 1/60 of training (5 of 300 epochs).
ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8
ADAMW_WEIGHT_DECAY = 0.05
# Elements per pass of AdamW's update: one block of each arena row and of both scratch rows stay in cache.
ADAMW_BLOCK = 16384


def default_peak_lr(batch_size: int) -> float:
    return batch_size / 1024 * 1e-3


def tiny_train_config() -> ModelConfig:
    """The pinned desk-scale config: 4 stages at dims 16/32/64/128 on 32^2 input.

    LayerScale starts at 1.0 here; the production-style 1e-5 init leaves the
    blocks nearly inert for the first few hundred steps, which is exactly the
    regime a 300-step run lives in.
    """
    return ModelConfig(
        dims=(16, 32, 64, 128),
        depths=(1, 1, 2, 1),
        num_classes=N_CLASSES,
        input_size=32,
        drop_path=0.0,
        layer_scale_init=1.0,
    )


def pinned_run(seed: int = 0, metrics_path: Optional[str] = None) -> TrainResult:
    """The pinned desk-scale run: ``tiny_train_config()``, 300 steps, batch 32, peak lr 3e-3, no label smoothing.

    Criterion 9 of the acceptance gate judges it at seed 0.
    """
    return train_loop(tiny_train_config(), steps=300, batch_size=32, seed=seed, lr_peak=3e-3,
                      label_smoothing=0.0, metrics_path=metrics_path)


class AdamW:
    """Decoupled-weight-decay Adam over a model's optimizer-visible parameters.

    Its betas, eps and weight decay are the constants ``ADAMW_BETAS``, ``ADAMW_EPS``
    and ``ADAMW_WEIGHT_DECAY`` (0.05, the paper's setting); ``step`` reads them each time it runs.
    The constructor packs the parameters, in the order given, into one flat
    arena per role: values ``p``, gradients ``g``, first moments ``m`` and
    second moments ``v``, rows of one ``[4, n]`` array over a single anonymous
    memory mapping, so its pages go back to the OS once the optimizer and its
    parameters are dropped (a model kept after training keeps the whole
    mapping, four times its parameter bytes). Each parameter's ``data`` becomes a view of its
    slice of ``p``, and its slice of ``g`` is the buffer its ``grad`` lands in during
    ``Tensor.backward``. A ``grad`` the caller assigns instead must pass ``tensor._check_grad``,
    and ``step`` checks every one before it writes, so a refused step changes no row and not ``t``.
    ``step`` then updates the whole arena in blocks of ``ADAMW_BLOCK`` elements, with each element's
    operations in the same order as a per-tensor update, so the results are the same bits. Packing a
    parameter into a second optimizer moves it to that optimizer's arena.
    The first ``AdamW`` built in a process sets glibc's malloc mmap and trim
    thresholds to 32 and 64 MiB, for the whole process
    (``tensor._keep_freed_heap``), so the memory that each step's graph frees
    is reused by the next step. A process that loaded a checkpoint has them
    set already.
    """

    def __init__(self, params: List[Tuple[str, Tensor]]):
        _keep_freed_heap()
        self.params = params
        self.t = 0
        seen = set()
        for name, p in params:
            if id(p) in seen:
                raise InvalidArgument(f"adamw: parameter {name} is listed twice")
            seen.add(id(p))
        dtypes = sorted({p.dtype.name for _, p in params})
        if len(dtypes) > 1:
            raise InvalidArgument(f"adamw: parameters mix dtypes {dtypes}")
        dtype = np.dtype(dtypes[0] if dtypes else np.float32)
        n = sum(p.data.size for _, p in params)
        block = min(n, ADAMW_BLOCK)
        size = 4 * n + 2 * block
        # An mmap, not a heap array: an np.zeros arena read 3.6-4.1 MiB more train-tiny peak RSS.
        # mmap refuses a length of 0; frombuffer's count keeps an empty arena empty.
        flat = np.frombuffer(mmap.mmap(-1, max(1, size * dtype.itemsize)), dtype=dtype, count=size)
        self.p, self.g, self.m, self.v = flat[:4 * n].reshape(4, n)
        self._scratch = flat[4 * n:].reshape(2, block)
        start = 0
        for _, p in params:
            end = start + p.data.size
            view = self.p[start:end].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            p._grad_out = self.g[start:end].reshape(view.shape)
            start = end

    def step(self, lr: float) -> None:
        """One update from the gradients currently stored on the parameters; an absent one counts as zeros."""
        assigned = [(name, p) for name, p in self.params if p.grad is not p._grad_out]
        for name, p in assigned:
            _check_grad(p, f"adamw: parameter {name}")
        for _, p in assigned:
            np.copyto(p._grad_out, p.grad_array())
        self.t += 1
        b1, b2 = ADAMW_BETAS
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        decay = lr * ADAMW_WEIGHT_DECAY
        s1, s2 = self._scratch
        for start in range(0, self.p.size, ADAMW_BLOCK):
            end = min(start + ADAMW_BLOCK, self.p.size)
            p, g, m, v = self.p[start:end], self.g[start:end], self.m[start:end], self.v[start:end]
            a, b = s1[:end - start], s2[:end - start]
            # m = b1*m + (1-b1)*g
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=a)
            np.add(m, a, out=m)
            # v = b2*v + ((1-b2)*g)*g
            np.multiply(v, b2, out=v)
            np.multiply(g, 1.0 - b2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            # p = (p - (lr*wd)*p) - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
            np.multiply(p, decay, out=a)
            np.subtract(p, a, out=a)
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            np.add(b, ADAMW_EPS, out=b)
            np.divide(m, bc1, out=p)
            np.multiply(p, lr, out=p)
            np.divide(p, b, out=p)
            np.subtract(a, p, out=p)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()


def cosine_lr(step: int, warmup_steps: int, total_steps: int, lr_peak: float) -> float:
    """Linear warmup from 0 to ``lr_peak``, then cosine decay to 0."""
    if warmup_steps >= total_steps:
        raise InvalidArgument(f"cosine_lr: warmup {warmup_steps} must be < total {total_steps}")
    if step < 0 or step > total_steps:
        raise InvalidArgument(f"cosine_lr: step {step} outside [0, {total_steps}]")
    if step < warmup_steps:
        return lr_peak * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return lr_peak * 0.5 * (1.0 + math.cos(math.pi * progress))


def _check_smoothing(smoothing: float, caller: str) -> None:
    if not 0.0 <= smoothing < 1.0:
        raise InvalidArgument(f"{caller}: smoothing must lie in [0, 1), got {smoothing}")


def label_smoothing_ce(logits: Tensor, targets: np.ndarray, smoothing: float = 0.1) -> Tensor:
    """Mean cross-entropy against (1-eps)*onehot + eps/num_classes targets."""
    _check_smoothing(smoothing, "label_smoothing_ce")
    if logits.ndim != 2:
        raise InvalidArgument(f"label_smoothing_ce: logits must be 2-D [B, classes], got shape {logits.shape}")
    B, n_classes = logits.shape
    targets = np.asarray(targets)
    if not np.issubdtype(targets.dtype, np.integer):
        raise InvalidArgument(f"label_smoothing_ce: targets must be integers, got {targets.dtype.name}")
    if targets.shape != (B,):
        raise InvalidArgument(f"label_smoothing_ce: targets shape {targets.shape} != ({B},)")
    if B == 0:
        raise InvalidArgument(f"label_smoothing_ce: the batch is empty, logits shape {logits.shape}")
    if targets.min() < 0 or targets.max() >= n_classes:
        raise InvalidArgument(
            f"label_smoothing_ce: target out of range [0, {n_classes}): {int(targets.min())}..{int(targets.max())}"
        )
    q = np.full((B, n_classes), smoothing / n_classes, dtype=logits.dtype.type)
    q[np.arange(B), targets] += 1.0 - smoothing
    log_probs = log_softmax_lastdim(logits)
    return -(log_probs * Tensor(q)).sum(axis=1).mean()


# ------------------------------------------------------------------ synthetic data

def synth_batch(seed: int, start_index: int, batch_size: int, size: int = 32) -> Tuple[np.ndarray, np.ndarray]:
    """Samples ``start_index`` onward: [batch, 3, size, size] f32 images in [0, 1] and int64 class ids.

    Sample ``i`` has class ``i % 4`` and is a pure function of (seed, i): it
    draws from its own stream (``child_rng(seed, 2, i)``) its background and
    foreground colours, its shape (disk or square centre and size, or stripe
    period and phase) and its N(0, 0.02) noise, so a sample does not depend on
    the batch it is drawn in. The masks, the fill, the noise add, the clip and
    the cast run once for the batch.
    """
    labels = np.arange(start_index, start_index + batch_size) % N_CLASSES
    bg, fg, geo = (np.empty((batch_size, 3)) for _ in range(3))  # geo: (cy, cx, radius) or (period, phase, -)
    noise = np.empty((batch_size, 3, size, size))
    for i, label in enumerate(labels):
        rng = child_rng(seed, 2, start_index + i)  # stream 2: data; 0 is model init, 1 is drop-path
        bg[i] = rng.uniform(0.0, 0.25, size=3)
        fg[i] = rng.uniform(0.65, 1.0, size=3)
        if label == 0:
            geo[i, :2] = rng.uniform(size * 0.35, size * 0.65, size=2)
            geo[i, 2] = rng.uniform(size * 0.18, size * 0.32)
        elif label == 1:
            geo[i, :2] = rng.uniform(size * 0.35, size * 0.65, size=2)
            geo[i, 2] = rng.uniform(size * 0.16, size * 0.28)
        else:
            period = int(rng.integers(6, 11))
            geo[i, :2] = period, int(rng.integers(0, period))
        rng.standard_normal(out=noise[i])
    noise *= 0.02  # rng.normal(0.0, 0.02) draws the same stream and returns 0.0 + 0.02 * z
    yy, xx = np.mgrid[0:size, 0:size]
    mask = np.empty((batch_size, size, size), dtype=bool)
    for label in range(N_CLASSES):
        pick = labels == label
        a, b, r = (geo[pick, j].reshape(-1, 1, 1) for j in range(3))
        if label == 0:
            mask[pick] = (yy - a) ** 2 + (xx - b) ** 2 <= r * r
        elif label == 1:
            mask[pick] = (np.abs(yy - a) <= r) & (np.abs(xx - b) <= r)
        else:
            period, phase = a.astype(np.int64), b.astype(np.int64)
            mask[pick] = (((yy if label == 2 else xx) + phase) % period) < period // 2
    img = np.where(mask[:, None], fg[:, :, None, None], bg[:, :, None, None])
    img += noise
    return np.clip(img, 0.0, 1.0, out=img).astype(np.float32), labels.astype(np.int64)


# ------------------------------------------------------------------ train loop

@dataclass
class TrainResult:
    model: Model
    metrics: List[Dict[str, float]]


def train_loop(
    config: ModelConfig,
    steps: int,
    batch_size: int = 32,
    seed: int = 0,
    lr_peak: Optional[float] = None,
    label_smoothing: float = 0.1,
    metrics_path: Optional[str] = None,
) -> TrainResult:
    """Train ``config`` on the synthetic dataset; deterministic given ``seed``.

    Raises ``FloatingPointError`` at the first non-finite loss, before its step's update.
    A run that stops before its first metrics record removes the metrics file it opened.
    """
    if config.num_classes < N_CLASSES:
        raise InvalidArgument(
            f"train_loop: the dataset has {N_CLASSES} classes, but the config has num_classes {config.num_classes}")
    if config.in_channels != N_CHANNELS:
        raise InvalidArgument(
            f"train_loop: the dataset has {N_CHANNELS} channels, but the config has in_channels {config.in_channels}")
    if steps < 0:
        raise InvalidArgument(f"train_loop: steps must be >= 0, got {steps}")
    if batch_size < 1:
        raise InvalidArgument(f"train_loop: batch_size must be >= 1, got {batch_size}")
    # synth_batch's f64 [batch, 3, size, size] noise; numpy cannot size an array of more bytes than intp holds.
    max_batch = np.iinfo(np.intp).max // (N_CHANNELS * config.input_size**2 * 8)
    if batch_size > max_batch:
        raise InvalidArgument(
            f"train_loop: batch_size must be <= {max_batch} at input_size {config.input_size}, got {batch_size}")
    if lr_peak is None:
        lr_peak = default_peak_lr(batch_size)
    if not math.isfinite(lr_peak):
        raise InvalidArgument(f"train_loop: lr_peak must be finite, got {lr_peak}")
    _check_smoothing(label_smoothing, "train_loop")
    model = build(config, seed)
    optimizer = AdamW(list(model.named_parameters()))
    drop_rng = child_rng(seed, 1)
    warmup = max(1, steps // 60) if steps > 1 else 0  # a one-step run has no room to warm up
    metrics: List[Dict[str, float]] = []
    out = open(metrics_path, "w") if metrics_path else None
    try:
        for step in range(steps):
            images, labels = synth_batch(seed, step * batch_size, batch_size, config.input_size)
            logits = model.forward(Tensor(images), mode="train", rng=drop_rng)
            loss = label_smoothing_ce(logits, labels, label_smoothing)
            loss_value = float(loss.data.reshape(()))
            if not math.isfinite(loss_value):
                raise FloatingPointError(f"train_loop: loss is {loss_value} at step {step}; stopping before the update")
            optimizer.zero_grad()
            loss.backward()
            lr = cosine_lr(step, warmup, steps, lr_peak)
            optimizer.step(lr)
            acc = float((logits.data.argmax(axis=1) == labels).mean())
            record = {"step": step, "lr": lr, "loss": loss_value, "train_acc": acc}
            metrics.append(record)
            if out is not None:
                out.write(json.dumps(record) + "\n")
    finally:
        if out is not None:
            out.close()
            if steps and not metrics:  # stopped before its first record
                os.remove(metrics_path)
    return TrainResult(model=model, metrics=metrics)
