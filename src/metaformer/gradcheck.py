"""Central finite-difference verification of recorded gradients.

All checks run in f64. The numeric gradient of an element x is the central
difference (loss(x + h) - loss(x - h)) / 2h with h = ``STEP`` = 1e-5. The
relative error of an element pair (analytic a, numeric n) is
|a - n| / max(|a|, |n|, 1e-2); the floor keeps near-zero gradient
coordinates from amplifying finite-difference noise into spurious failures
while still bounding their absolute error by tol * 1e-2.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .tensor import InvalidArgument, Tensor

STEP = 1e-5
_REL_FLOOR = 1e-2


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def numeric_gradient(loss_fn: Callable[[], float], array: np.ndarray, coords: Sequence[Tuple[int, ...]]) -> np.ndarray:
    """Central differences of ``loss_fn`` w.r.t. entries of ``array`` (mutated in place, restored), in coords order."""
    grads = np.empty(len(coords))
    for k, idx in enumerate(coords):
        orig = array[idx]
        array[idx] = orig + STEP
        lo_hi = loss_fn()
        array[idx] = orig - STEP
        lo_lo = loss_fn()
        array[idx] = orig
        grads[k] = (lo_hi - lo_lo) / (2.0 * STEP)
    return grads


def _check_leaves(loss_fn: Callable[[], Tensor], leaves: Sequence[tuple]) -> list:
    """Max relative error of each (leaf, coords) pair; ``None`` coords mean every element.

    One recorded forward and one backward give every leaf's analytic gradient.
    The finite-difference forwards run with the leaves' ``requires_grad`` off,
    restored afterwards also when ``loss_fn`` raises.
    """
    if any(leaf.data.dtype != np.float64 for leaf, _ in leaves):
        raise InvalidArgument("gradient checks require f64 leaves")
    leaves = [(leaf, list(np.ndindex(leaf.shape)) if coords is None else coords) for leaf, coords in leaves]
    for leaf, _ in leaves:
        leaf.zero_grad()
    loss_fn().backward()
    analytic = []
    for leaf, coords in leaves:
        grad = leaf.grad_array()
        analytic.append(np.array([grad[i] for i in coords]))
    flags = [leaf.requires_grad for leaf, _ in leaves]
    try:
        for leaf, _ in leaves:
            leaf.requires_grad = False
        return [relative_error(a, numeric_gradient(lambda: float(loss_fn().data.reshape(())), leaf.data, coords))
                for a, (leaf, coords) in zip(analytic, leaves)]
    finally:
        for (leaf, _), flag in zip(leaves, flags):
            leaf.requires_grad = flag


def check_tensor_gradient(
    loss_fn: Callable[[], Tensor],
    leaf: Tensor,
    coords: Optional[Sequence[Tuple[int, ...]]] = None,
) -> float:
    """Max relative error between recorded and finite-difference gradients of one leaf.

    ``loss_fn`` must rebuild the scalar loss from current leaf values on
    every call; the analytic gradient is taken from a single backward pass.
    """
    return _check_leaves(loss_fn, [(leaf, coords)])[0]


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
    stays proportional to the number of tensors rather than of scalars. One
    backward gives every tensor's analytic gradient.
    """
    rng = np.random.default_rng(seed)
    leaves = [(p, sample_coords(p.shape, max_coords_per_tensor, rng)) for p in params.values()]
    return dict(zip(params, _check_leaves(loss_fn, leaves)))
