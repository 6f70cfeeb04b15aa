"""Parameter initialization helpers."""

from __future__ import annotations

from typing import Optional

import numpy as np


def trunc_normal(rng: Optional[np.random.Generator], shape, std: float = 0.02, bound: float = 2.0) -> np.ndarray:
    """Normal draws rejected outside +/- ``bound`` sigma, then scaled by ``std``.

    Out-of-bound values are redrawn in index order until none is left, so the
    result is a pure function of the stream. With ``rng`` None nothing is
    drawn: the result is f64 zeros of ``shape``, for a model whose values come
    from elsewhere (a checkpoint).
    """
    if rng is None:
        return np.zeros(shape)
    out = rng.standard_normal(shape)
    flat = out.reshape(-1)
    redraw = np.flatnonzero(np.abs(flat) > bound)
    while redraw.size:
        flat[redraw] = rng.standard_normal(redraw.size)
        redraw = redraw[np.abs(flat[redraw]) > bound]
    out *= std
    return out


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent stream derived from (seed, key); pure function of its arguments."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key))))
