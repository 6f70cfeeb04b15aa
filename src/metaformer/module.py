"""State walk shared by every layer that holds parameters or buffers.

A ``Module`` names its state after its attributes, in the order ``__init__``
assigned them. Each leaf's class is fixed when it is constructed: a
``Tensor`` built with ``requires_grad`` is trainable (``Tensor.trainable``),
one built without it is frozen, a bare ``ndarray`` is a buffer. Child
modules, and lists of them, are walked into. ``requires_grad`` itself only
says whether a forward records a graph; ``requires_grad_`` switches it on
the trainable leaves and never touches a frozen one. ``is_training`` is
the one reading of a forward's ``mode`` that every layer shares.
"""

from __future__ import annotations

from typing import Iterator, Tuple, Union

import numpy as np

from .tensor import InvalidArgument, Tensor

Leaf = Union[Tensor, np.ndarray]


def is_training(mode: str) -> bool:
    """True for a forward in ``mode="train"``, False for ``"eval"``; every layer reads ``mode`` through this."""
    if mode not in ("train", "eval"):
        raise InvalidArgument(f"mode must be 'train' or 'eval', got {mode!r}")
    return mode == "train"


def _segment(attr: str) -> str:
    """Checkpoint path segment of an attribute: fc1_weight -> fc1.weight."""
    layer, _, leaf = attr.rpartition("_")
    return f"{layer}.{leaf}" if layer and leaf in ("weight", "bias") else attr


def _walk(value, path: str) -> Iterator[Tuple[str, Leaf]]:
    if isinstance(value, Module):
        yield from value.named_state(path)
    elif isinstance(value, (Tensor, np.ndarray)):
        yield path, value
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _walk(item, f"{path}.block{i}")


class Module:
    """Base of every stateful layer; subclasses only assign attributes."""

    def named_state(self, prefix: str = "") -> Iterator[Tuple[str, Leaf]]:
        """Every persistent leaf below this module as (path, leaf), in declaration order."""
        for attr, value in vars(self).items():
            yield from _walk(value, f"{prefix}.{_segment(attr)}" if prefix else _segment(attr))

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Optimizer-visible tensors."""
        return ((n, v) for n, v in self.named_state(prefix) if isinstance(v, Tensor) and v.trainable)

    def frozen_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Persisted tensors the optimizer never touches (e.g. random-matrix weights)."""
        return ((n, v) for n, v in self.named_state(prefix) if isinstance(v, Tensor) and not v.trainable)

    def requires_grad_(self, flag: bool):
        """Record a graph through every trainable leaf (True) or through none (False); returns self."""
        for _, t in self.named_parameters():
            t.requires_grad = bool(flag)
        return self

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Persisted arrays outside the autodiff graph (e.g. running statistics)."""
        return ((n, v) for n, v in self.named_state(prefix) if isinstance(v, np.ndarray))
