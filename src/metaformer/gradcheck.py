"""Central finite-difference verification of recorded gradients.

All checks run in f64. The numeric gradient of an element x is the central
difference (loss(x + h) - loss(x - h)) / 2h with h = ``STEP`` = 1e-5. The
relative error of an element pair (analytic a, numeric n) is
|a - n| / max(|a|, |n|, 1e-2); the floor keeps near-zero gradient
coordinates from amplifying finite-difference noise into spurious failures
while still bounding their absolute error by tol * 1e-2.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor

STEP = 1e-5
_REL_FLOOR = 1e-2


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def numeric_gradient(
    loss_fn: Callable[[], float],
    array: np.ndarray,
    coords: Optional[Iterable[Tuple[int, ...]]] = None,
) -> Dict[Tuple[int, ...], float]:
    """Central differences of ``loss_fn`` w.r.t. entries of ``array`` (mutated in place, restored)."""
    if coords is None:
        coords = list(np.ndindex(array.shape))
    grads: Dict[Tuple[int, ...], float] = {}
    for idx in coords:
        orig = array[idx]
        array[idx] = orig + STEP
        lo_hi = loss_fn()
        array[idx] = orig - STEP
        lo_lo = loss_fn()
        array[idx] = orig
        grads[idx] = (lo_hi - lo_lo) / (2.0 * STEP)
    return grads


def check_tensor_gradient(
    loss_fn: Callable[[], Tensor],
    leaf: Tensor,
    coords: Optional[Sequence[Tuple[int, ...]]] = None,
    graph_free: Iterable[Tensor] = (),
) -> float:
    """Max relative error between recorded and finite-difference gradients of one leaf.

    ``loss_fn`` must rebuild the scalar loss from current leaf values on
    every call; the analytic gradient is taken from a single backward pass.
    The tensors in ``graph_free`` have ``requires_grad`` switched off during
    the finite-difference forwards, which then need not record a graph, and
    restored afterwards.
    """
    if leaf.data.dtype != np.float64:
        raise ValueError("gradient checks require f64 leaves")
    leaf.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic_full = leaf.grad_array()
    saved = [(t, t.requires_grad) for t in graph_free]
    try:
        for t, _ in saved:
            t.requires_grad = False
        numeric = numeric_gradient(lambda: float(loss_fn().data.reshape(())), leaf.data, coords)
    finally:
        for t, flag in saved:
            t.requires_grad = flag
    idxs = list(numeric.keys())
    analytic = np.array([analytic_full[i] for i in idxs])
    approx = np.array([numeric[i] for i in idxs])
    return relative_error(analytic, approx)


def sample_coords(shape: tuple, max_coords: int, rng: np.random.Generator) -> list:
    """Deterministic subset of coordinates for large tensors."""
    total = int(np.prod(shape)) if shape else 1
    if total <= max_coords:
        return list(np.ndindex(shape))
    flat = rng.choice(total, size=max_coords, replace=False)
    flat.sort()
    return [tuple(int(v) for v in np.unravel_index(f, shape)) for f in flat]


def check_parameter_group(
    loss_fn: Callable[[], Tensor],
    params: Dict[str, Tensor],
    max_coords_per_tensor: int = 16,
    seed: int = 0,
) -> Dict[str, float]:
    """Per-parameter max relative error for a model-sized loss.

    Coordinates are subsampled per tensor (seeded, deterministic) so the cost
    stays proportional to the number of tensors rather than of scalars. The
    finite-difference forwards run with every tensor of ``params`` out of the
    graph, which makes them cheaper and leaves their values unchanged.
    """
    rng = np.random.default_rng(seed)
    report: Dict[str, float] = {}
    for name, p in params.items():
        coords = sample_coords(p.shape, max_coords_per_tensor, rng)
        report[name] = check_tensor_gradient(loss_fn, p, coords=coords, graph_free=params.values())
    return report
