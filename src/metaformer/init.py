"""Parameter initialization helpers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import InvalidArgument

TRUNC_STD = 0.02
TRUNC_BOUND = 2.0  # in standard deviations


def trunc_normal(rng: Optional[np.random.Generator], shape) -> np.ndarray:
    """Normal draws rejected outside +/- 2 sigma, then scaled to std 0.02 (``TRUNC_BOUND``, ``TRUNC_STD``).

    Out-of-bound values are redrawn in index order until none is left, so the
    result is a pure function of the stream. With ``rng`` None nothing is
    drawn: the result is f32 zeros of ``shape``, for a model whose values come
    from elsewhere (a checkpoint); f32 is the only dtype containers hold, so
    an f32 ``Tensor`` takes the array without a copy.
    """
    if rng is None:
        return np.zeros(shape, np.float32)
    out = rng.standard_normal(shape)
    flat = out.reshape(-1)
    redraw = np.flatnonzero(np.abs(flat) > TRUNC_BOUND)
    while redraw.size:
        flat[redraw] = rng.standard_normal(redraw.size)
        redraw = redraw[np.abs(flat[redraw]) > TRUNC_BOUND]
    out *= TRUNC_STD
    return out


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent stream derived from (seed, key); pure function of its arguments. ``seed`` must be >= 0."""
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key))))
