"""Fuzz of the ops of ``metaformer.tensor``: each call gives a result of its documented shape and dtype, or is refused.

Each case draws small shapes (empty ones and 0-D included), both dtypes,
inputs that record a graph or not, and arguments of the right and the
wrong kind: integer, float, bool, None and string axes and geometry
values, ``keepdims`` values, non-``Tensor`` operands and per-channel
vectors, and values that overflow f32. The property is the op contract:
a call returns a tensor of the shape numpy's own op (or the op's formula)
gives and of its input's dtype, or raises ``InvalidArgument`` whose
message starts with the op's name. Any other exception fails the case.
Values are not checked here; the oracles in ``tests/oracles.py`` and the
gradient checks do that.

This covers every op ``metaformer`` exports from ``tensor.py``. The fixed
moments of ``affine_norm`` (BatchNorm eval) are not drawn.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaformer.tensor import (
    ACTIVATIONS,
    InvalidArgument,
    Tensor,
    add,
    affine_norm,
    avg_pool2d_excl,
    conv2d,
    conv_out_size,
    div,
    log_softmax_lastdim,
    matmul,
    mul,
    narrow,
    reshape,
    residual_add,
    softmax_lastdim,
    sqrt,
    sub,
    swapaxes,
    tensor_mean,
    tensor_sum,
)


def mostly(right, *wrong):
    """``right`` in about three draws of four, else one of ``wrong``."""
    return st.sampled_from((True, True, True, False)).flatmap(lambda ok: right if ok else st.one_of(*wrong))


DTYPE = st.sampled_from(("f32", "f64"))
SHAPE = mostly(st.lists(st.integers(1, 3), min_size=1, max_size=4), st.lists(st.integers(0, 3), max_size=4)).map(tuple)
IMAGE = st.tuples(st.integers(0, 2), st.integers(1, 4), st.integers(0, 5), st.integers(0, 5))
# Integers in and out of range, and values that are not integers.
INDEX = st.one_of(st.integers(-4, 4), st.sampled_from((np.int64(1), np.int32(-1), 1.0, 0.5, True, False, None, "1")))
AXIS = mostly(st.integers(-3, 3), INDEX, st.lists(INDEX, max_size=3).map(tuple), st.just([0, 1]))
KEEPDIMS = st.sampled_from((False, True, np.bool_(True), None, "x", 0, 1, 1.0))


def pairs(low: int):
    """Stride (``low`` 1) or padding (``low`` 0) values, mostly a valid pair."""
    return mostly(st.tuples(st.integers(low, 2), st.integers(low, 2)), st.tuples(INDEX, INDEX),
                  st.lists(st.integers(-1, 3), max_size=3), INDEX)


def make(shape, dtype, requires_grad, seed=0) -> Tensor:
    t = Tensor(np.random.default_rng(seed).standard_normal(shape), dtype=dtype)
    t.requires_grad = requires_grad
    return t


def tensors(shape=SHAPE, dtype=DTYPE):
    return st.builds(make, shape, dtype, st.booleans(), st.integers(0, 3))


def dtype_of(t: Tensor) -> str:
    return "f32" if t.dtype == np.float32 else "f64"


def near(shape: tuple):
    """Shapes that mostly broadcast to ``shape``: itself, with some sizes 1, without its first axis, or any."""
    ones = st.lists(st.booleans(), min_size=len(shape), max_size=len(shape)).map(
        lambda keep: tuple(n if k else 1 for n, k in zip(shape, keep)))
    return st.one_of(st.just(shape), ones, ones.map(lambda s: s[1:]), SHAPE)


def like(shape, t: Tensor):
    """What may stand where a tensor of ``t``'s dtype is expected: tensors of either dtype, arrays or scalars."""
    return mostly(tensors(shape, st.just(dtype_of(t))), tensors(shape), shape.map(np.ones),
                  shape.map(lambda s: np.ones(s, np.float32)),
                  st.sampled_from((1.0, 2, 1e300, np.float64(1e300), np.array([1e300, 1.0]), None, "x", [1, 2])))


def per_channel(t: Tensor, axis: int):
    """Vectors that are mostly one value per entry of ``t``'s ``axis``."""
    return like(mostly(st.just(t.shape[axis:axis + 1]), SHAPE), t)


def zeros(t) -> np.ndarray:
    """An array of ``t``'s shape, ``t`` a tensor or anything numpy takes."""
    return np.zeros(t.shape) if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64)


def then(first, rest):
    """Argument tuples: a drawn ``first`` followed by what ``rest(first)`` draws."""
    return first.flatmap(lambda a: st.tuples(st.just(a), *rest(a)))


def binary(op):
    return (then(tensors(), lambda a: (like(near(a.shape), a),)), op,
            lambda a, b: np.broadcast_shapes(a.shape, zeros(b).shape))


@st.composite
def conv_args(draw) -> tuple:
    """(x, weight, bias, stride, padding, groups), with a weight that mostly fits x and groups."""
    x = draw(tensors(mostly(IMAGE, SHAPE)))
    cin = x.shape[1] if x.ndim > 1 else 1
    groups = draw(mostly(st.sampled_from([g for g in (1, 2, 4) if cin % g == 0]), st.integers(-1, 4), INDEX))
    fits = isinstance(groups, int) and groups > 0
    w = draw(tensors(st.tuples(st.integers(1, 4).map(lambda c: c * groups if fits else c),
                               st.just(cin // groups) if fits else st.integers(0, 4),
                               mostly(st.integers(1, 3), st.just(0)), mostly(st.integers(1, 3), st.just(0))),
                     st.just(dtype_of(x))))
    return x, w, draw(st.one_of(st.none(), per_channel(w, 0))), draw(pairs(1)), draw(pairs(0)), groups


def conv_shape(x, w, bias, stride, padding, groups):
    B, _, H, W = x.shape
    return (B, w.shape[0], conv_out_size(H, w.shape[2], stride[0], padding[0]),
            conv_out_size(W, w.shape[3], stride[1], padding[1]))


def narrow_shape(a, axis, start, length):
    shape = list(a.shape)
    shape[axis] = length
    return tuple(shape)


def residual_rest(h: Tensor) -> tuple:
    mask = st.one_of(st.none(), near(h.shape).map(np.ones), near(h.shape).map(lambda s: np.ones(s, np.float32)),
                     st.sampled_from((0.5, np.float32(2.0), "x")))
    return st.one_of(st.none(), tensors(near(h.shape))), st.one_of(st.none(), per_channel(h, 1)), mask


# name: (strategy of the argument tuple, the op, the documented shape of its result from those arguments)
OPS = {
    "Tensor": (st.tuples(st.one_of(SHAPE.map(np.ones), st.just([[1], [1, 2]]), tensors(),
                                   st.sampled_from((1.0, 2, True, 1e300, None, "x", [1, 2], 1 + 2j))),
                         st.sampled_from((None, "f32", "f64", "f16", np.float32))),
               lambda data, dtype: Tensor(data, dtype=dtype), lambda data, dtype: zeros(data).shape),
    "add": binary(add),
    "sub": binary(sub),
    "mul": binary(mul),
    "div": binary(div),
    "sqrt": (st.tuples(tensors()), sqrt, lambda a: a.shape),
    "matmul": (then(tensors(), lambda a: (like(st.one_of(st.just(a.shape[-1:] + (2,)), near(a.shape), SHAPE), a),)),
               matmul, lambda a, b: np.matmul(zeros(a), zeros(b)).shape),
    "reshape": (st.tuples(tensors(), st.one_of(st.lists(INDEX, max_size=4).map(tuple), st.lists(INDEX, max_size=4))),
                lambda a, shape: reshape(a, *shape) if isinstance(shape, tuple) else reshape(a, shape),
                lambda a, shape: zeros(a).reshape(shape).shape),
    "swapaxes": (st.tuples(tensors(), AXIS, AXIS), swapaxes, lambda a, i, j: np.swapaxes(zeros(a), i, j).shape),
    "narrow": (st.tuples(tensors(), AXIS, mostly(st.integers(0, 2), INDEX), mostly(st.integers(1, 2), INDEX)),
               narrow, narrow_shape),
    "tensor_sum": (st.tuples(tensors(), st.one_of(st.none(), AXIS), KEEPDIMS), tensor_sum,
                   lambda a, axis, keepdims: zeros(a).sum(axis=axis, keepdims=keepdims).shape),
    "tensor_mean": (st.tuples(tensors(), st.one_of(st.none(), AXIS), KEEPDIMS), tensor_mean,
                    lambda a, axis, keepdims: zeros(a).sum(axis=axis, keepdims=keepdims).shape),
    **{name: (st.tuples(tensors(), st.booleans()), fn, lambda a, inplace: a.shape) for name, fn in ACTIVATIONS.items()},
    "softmax_lastdim": (st.tuples(tensors()), softmax_lastdim, lambda a: a.shape),
    "log_softmax_lastdim": (st.tuples(tensors()), log_softmax_lastdim, lambda a: a.shape),
    "affine_norm": (then(tensors(), lambda x: (per_channel(x, 1), per_channel(x, 1), st.one_of(st.none(), AXIS),
                                                st.just(1e-5))),
                    lambda *args: affine_norm(*args)[0], lambda x, gamma, beta, axes, eps: x.shape),
    "residual_add": (then(tensors(), residual_rest).map(lambda a: (a[1], a[0], a[2], a[3])), residual_add,
                     lambda x, h, scale, mask: h.shape),
    "conv2d": (conv_args(), conv2d, conv_shape),
    "avg_pool2d_excl": (st.tuples(tensors(mostly(IMAGE, SHAPE)), mostly(st.sampled_from((1, 3, 5)), INDEX)),
                        avg_pool2d_excl, lambda x, k: x.shape),
}


@pytest.mark.parametrize("name", OPS)
@settings(derandomize=True, max_examples=50, deadline=None)
@given(data=st.data())
def test_each_op_gives_its_documented_result_or_refuses_by_name(name, data):
    strategy, op, shape_of = OPS[name]
    args = data.draw(strategy)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)  # NaN from a mean over nothing, a sqrt of a negative, ...
        try:
            got = op(*args)
        except InvalidArgument as e:
            assert str(e).startswith(f"{name}: "), (args, e)
            return
    first = next((a for a in args if isinstance(a, Tensor)), None)
    assert isinstance(got, Tensor), (args, got)
    assert got.shape == shape_of(*args), (args, got)
    assert got.dtype in (np.float32, np.float64) if first is None else got.dtype == first.dtype, (args, got)
