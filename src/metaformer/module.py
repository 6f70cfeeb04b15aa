"""State walk shared by every layer that holds parameters or buffers.

A ``Module`` names its state after its attributes, in the order ``__init__``
assigned them. Each leaf is classified once: a ``Tensor`` with
``requires_grad`` is trainable, a ``Tensor`` without it is frozen, a bare
``ndarray`` is a buffer. Child modules, and lists of them, are walked into.
"""

from __future__ import annotations

from typing import Iterator, Tuple, Union

import numpy as np

from .tensor import Tensor

Leaf = Union[Tensor, np.ndarray]


def _segment(attr: str) -> str:
    """Checkpoint path segment of an attribute: fc1_weight -> fc1.weight, final_norm -> norm."""
    if attr == "final_norm":
        return "norm"
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
        return ((n, v) for n, v in self.named_state(prefix) if isinstance(v, Tensor) and v.requires_grad)

    def frozen_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Persisted tensors the optimizer never touches (e.g. random-matrix weights)."""
        return ((n, v) for n, v in self.named_state(prefix) if isinstance(v, Tensor) and not v.requires_grad)

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Persisted arrays outside the autodiff graph (e.g. running statistics)."""
        return ((n, v) for n, v in self.named_state(prefix) if isinstance(v, np.ndarray))
