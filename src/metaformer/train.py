"""Desk-scale supervised training on a seeded synthetic shape dataset.

AdamW with decoupled weight decay, linear warmup into a cosine schedule,
label-smoothing cross-entropy. The dataset draws one of four patterns
(filled disk, filled square, horizontal stripes, vertical stripes) with
seeded jitter and noise; sample generation is a pure function of
(seed, index), so runs are bitwise reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .init import child_rng
from .model import Model, ModelConfig, build
from .tensor import InvalidArgument, Tensor, log_softmax_lastdim

N_CLASSES = 4
CLASS_NAMES = ("disk", "square", "h_stripes", "v_stripes")

# Table-derived defaults: peak lr scales as batch_size/1024 * 1e-3, warmup
# spans 1/60 of training (5 of 300 epochs).
DEFAULT_BETAS = (0.9, 0.999)
DEFAULT_EPS = 1e-8
DEFAULT_WEIGHT_DECAY = 0.05


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


class AdamW:
    """Decoupled-weight-decay Adam over a model's optimizer-visible parameters."""

    def __init__(
        self,
        params: List[Tuple[str, Tensor]],
        betas: Tuple[float, float] = DEFAULT_BETAS,
        eps: float = DEFAULT_EPS,
        weight_decay: float = DEFAULT_WEIGHT_DECAY,
    ):
        self.params = params
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params}
        self.v = {name: np.zeros_like(p.data) for name, p in params}

    def step(self, lr: float) -> None:
        """One update from the gradients currently stored on the parameters."""
        self.t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params:
            g = p.grad_array()
            if g.shape != p.data.shape:
                raise InvalidArgument(f"adamw: gradient shape {g.shape} != parameter shape {p.data.shape} for {name}")
            m = self.m[name]
            v = self.v[name]
            m[...] = b1 * m + (1.0 - b1) * g
            v[...] = b2 * v + (1.0 - b2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data[...] = p.data - lr * self.weight_decay * p.data - lr * m_hat / (np.sqrt(v_hat) + self.eps)

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


def label_smoothing_ce(logits: Tensor, targets: np.ndarray, smoothing: float = 0.1) -> Tensor:
    """Mean cross-entropy against (1-eps)*onehot + eps/num_classes targets."""
    if not 0.0 <= smoothing < 1.0:
        raise InvalidArgument(f"label_smoothing_ce: smoothing must lie in [0, 1), got {smoothing}")
    B, n_classes = logits.shape
    targets = np.asarray(targets)
    if targets.shape != (B,):
        raise InvalidArgument(f"label_smoothing_ce: targets shape {targets.shape} != ({B},)")
    if targets.min() < 0 or targets.max() >= n_classes:
        raise InvalidArgument(
            f"label_smoothing_ce: target out of range [0, {n_classes}): {int(targets.min())}..{int(targets.max())}"
        )
    q = np.full((B, n_classes), smoothing / n_classes, dtype=logits.dtype.type)
    q[np.arange(B), targets] += 1.0 - smoothing
    log_probs = log_softmax_lastdim(logits)
    return -(log_probs * Tensor(q)).sum(axis=1).mean()


# ------------------------------------------------------------------ synthetic data

def synth_sample(seed: int, index: int, size: int = 32) -> Tuple[np.ndarray, int]:
    """One [3, size, size] image in [0, 1] and its class id; pure in (seed, index)."""
    label = index % N_CLASSES
    rng = child_rng(seed, 2, index)  # stream 2: data; 0 is model init, 1 is drop-path
    bg = rng.uniform(0.0, 0.25, size=3)
    fg = rng.uniform(0.65, 1.0, size=3)
    img = np.broadcast_to(bg.reshape(3, 1, 1), (3, size, size)).copy()
    yy, xx = np.mgrid[0:size, 0:size]
    if label == 0:
        cy, cx = rng.uniform(size * 0.35, size * 0.65, size=2)
        r = rng.uniform(size * 0.18, size * 0.32)
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    elif label == 1:
        cy, cx = rng.uniform(size * 0.35, size * 0.65, size=2)
        half = rng.uniform(size * 0.16, size * 0.28)
        mask = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
    elif label == 2:
        period = int(rng.integers(6, 11))
        phase = int(rng.integers(0, period))
        mask = ((yy + phase) % period) < period // 2
    else:
        period = int(rng.integers(6, 11))
        phase = int(rng.integers(0, period))
        mask = ((xx + phase) % period) < period // 2
    img[:, mask] = fg.reshape(3, 1)
    img += rng.normal(0.0, 0.02, size=img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32), label


def synth_batch(seed: int, start_index: int, batch_size: int, size: int = 32) -> Tuple[np.ndarray, np.ndarray]:
    images = np.empty((batch_size, 3, size, size), dtype=np.float32)
    labels = np.empty(batch_size, dtype=np.int64)
    for i in range(batch_size):
        images[i], labels[i] = synth_sample(seed, start_index + i, size)
    return images, labels


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
    weight_decay: float = DEFAULT_WEIGHT_DECAY,
    label_smoothing: float = 0.1,
    metrics_path: Optional[str] = None,
) -> TrainResult:
    """Train ``config`` on the synthetic dataset; deterministic given ``seed``.

    Raises ``FloatingPointError`` at the first non-finite loss, before its step's update.
    """
    if steps < 0:
        raise InvalidArgument(f"train_loop: steps must be >= 0, got {steps}")
    if lr_peak is None:
        lr_peak = default_peak_lr(batch_size)
    model = build(config, seed)
    optimizer = AdamW(list(model.named_parameters()), weight_decay=weight_decay)
    drop_rng = child_rng(seed, 1)
    warmup = max(1, steps // 60) if steps > 0 else 0
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
    return TrainResult(model=model, metrics=metrics)
