import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaformer import tensor as tensor_module
from metaformer.gradcheck import check_tensor_gradient
from metaformer.tensor import (
    _ERF_BLOCK,
    _INV_SQRT2,
    _box_sum,
    _erf_block,
    InvalidArgument,
    Tensor,
    affine_norm,
    avg_pool2d_excl,
    conv2d,
    gelu,
    log_softmax_lastdim,
    matmul,
    narrow,
    relu,
    residual_add,
    silu,
    softmax_lastdim,
)

from oracles import loop_box_sum, naive_avg_pool_excl, naive_avg_pool_zeropad, naive_conv2d, naive_softmax_rows


DTYPE_NP = {"f32": np.float32, "f64": np.float64}
TOL = {"f32": dict(rtol=1e-5, atol=1e-5), "f64": dict(rtol=1e-12, atol=1e-12)}


def rnd(shape, seed=0, dtype="f64"):
    return Tensor(np.random.default_rng(seed).standard_normal(shape), dtype=dtype)


# ------------------------------------------------------------------- conv2d

def test_conv2d_identity_kernel():
    x = rnd((1, 2, 2, 2), seed=1)
    w = np.zeros((2, 2, 1, 1))
    w[0, 0, 0, 0] = 1.0
    w[1, 1, 0, 0] = 1.0
    out = conv2d(x, Tensor(w))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_all_ones_sums_input():
    x = Tensor(np.arange(1, 10, dtype=np.float64).reshape(1, 1, 3, 3))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w)
    assert out.shape == (1, 1, 1, 1)
    assert out.data.reshape(()) == 45.0


def test_conv2d_depthwise_delta_kernel_is_identity():
    x = rnd((1, 2, 4, 4), seed=2)
    w = np.zeros((2, 1, 3, 3))
    w[:, 0, 1, 1] = 1.0
    out = conv2d(x, Tensor(w), padding=(1, 1), groups=2)
    np.testing.assert_allclose(out.data, x.data, rtol=0, atol=0)


NAIVE_CONV_NAMED = {
    "depthwise": dict(batch=2, cout=4, stride=(2, 1), padding=(1, 1), groups=4, dtype="f64"),
    "f32_batch3": dict(batch=3, cout=6, stride=(2, 2), padding=(1, 1), groups=1, dtype="f32"),
}


@pytest.mark.parametrize("case", [*range(5), *NAIVE_CONV_NAMED])
def test_conv2d_matches_naive_oracle(case):
    # Integer cases are seeds that draw stride, padding and groups at random.
    rng = np.random.default_rng(case if isinstance(case, int) else 50)
    if isinstance(case, int):
        spec = dict(batch=2, cout=6, stride=(int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                    padding=(int(rng.integers(0, 3)), int(rng.integers(0, 3))),
                    groups=int(rng.choice([1, 2])), dtype="f64")
    else:
        spec = NAIVE_CONV_NAMED[case]
    dt, kw = DTYPE_NP[spec["dtype"]], dict(stride=spec["stride"], padding=spec["padding"], groups=spec["groups"])
    x = rng.standard_normal((spec["batch"], 4, 6, 7)).astype(dt)
    w = rng.standard_normal((spec["cout"], 4 // spec["groups"], 3, 3)).astype(dt)
    b = rng.standard_normal(spec["cout"]).astype(dt)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), **kw)
    assert got.dtype == x.dtype
    np.testing.assert_allclose(got.data, naive_conv2d(x, w, b, **kw), **TOL[spec["dtype"]])


def test_conv2d_shape_errors_name_dimension():
    x = rnd((1, 4, 5, 5))
    with pytest.raises(InvalidArgument, match="groups"):
        conv2d(x, rnd((6, 2, 3, 3)), groups=3)
    with pytest.raises(InvalidArgument, match="channels"):
        conv2d(x, rnd((6, 3, 3, 3)))
    with pytest.raises(InvalidArgument, match="bias"):
        conv2d(x, rnd((6, 4, 3, 3)), bias=rnd((5,)))
    with pytest.raises(InvalidArgument, match="degenerate"):
        conv2d(x, rnd((6, 4, 7, 7)))


def test_conv2d_linearity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 2, 5, 5))
    y = rng.standard_normal((1, 2, 5, 5))
    w = Tensor(rng.standard_normal((3, 2, 3, 3)))
    a, b = 1.7, -0.4
    combined = conv2d(Tensor(a * x + b * y), w, padding=(1, 1))
    separate = a * conv2d(Tensor(x), w, padding=(1, 1)).data + b * conv2d(Tensor(y), w, padding=(1, 1)).data
    np.testing.assert_allclose(combined.data, separate, rtol=1e-6)


CONV_1X1_CASES = {
    # matmul path: 1x1, stride 1, no padding, one group
    "matmul": dict(),
    # every other 1x1 shape stays on the general path
    "strided": dict(stride=(2, 1)),
    "padded": dict(padding=(1, 0)),
    "grouped": dict(groups=2),
}


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("with_bias", [False, True])
@pytest.mark.parametrize("case", sorted(CONV_1X1_CASES))
def test_conv2d_1x1_matches_naive_oracle(case, with_bias, dtype):
    kw = CONV_1X1_CASES[case]
    rng = np.random.default_rng(21)
    groups = kw.get("groups", 1)
    x = rng.standard_normal((3, 4, 5, 6)).astype(DTYPE_NP[dtype])
    w = rng.standard_normal((6, 4 // groups, 1, 1)).astype(DTYPE_NP[dtype])
    b = rng.standard_normal(6).astype(DTYPE_NP[dtype]) if with_bias else None
    got = conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b), **kw)
    want = naive_conv2d(x, w, b, **kw)
    assert got.dtype == x.dtype
    np.testing.assert_allclose(got.data, want, **TOL[dtype])


CONV_GRAD_CASES = {
    # name: (input shape, weight shape, conv2d keyword arguments)
    "1x1": ((3, 4, 5, 6), (6, 4, 1, 1), dict()),
    "3x3_s2_p1": ((3, 4, 5, 6), (6, 4, 3, 3), dict(stride=(2, 2), padding=(1, 1))),
    "7x7_s4_p2": ((2, 3, 9, 10), (6, 3, 7, 7), dict(stride=(4, 4), padding=(2, 2))),
    "groups2": ((3, 4, 5, 6), (6, 2, 3, 3), dict(padding=(1, 1), groups=2)),
    "depthwise_s1": ((3, 4, 5, 6), (4, 1, 3, 3), dict(padding=(1, 1), groups=4)),
    "depthwise_s2": ((3, 4, 5, 6), (4, 1, 3, 3), dict(stride=(2, 2), padding=(1, 1), groups=4)),
}


@pytest.mark.parametrize("case", CONV_GRAD_CASES)
def test_conv2d_weight_and_bias_gradients_match_finite_differences(case):
    x_shape, w_shape, kw = CONV_GRAD_CASES[case]
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        x = Tensor(rng.standard_normal(x_shape), dtype="f64", requires_grad=True)
        w = Tensor(rng.standard_normal(w_shape), dtype="f64", requires_grad=True)
        b = Tensor(rng.standard_normal(w_shape[0]), dtype="f64", requires_grad=True)
        proj = Tensor(rng.standard_normal(conv2d(x, w, b, **kw).shape), dtype="f64")

        def loss():
            return (conv2d(x, w, b, **kw) * proj).sum()

        for t in (x, w, b):
            coords = [tuple(rng.integers(0, s) for s in t.shape) for _ in range(8)]
            assert check_tensor_gradient(loss, t, coords=coords) < 1e-4, f"seed {seed} shape {t.shape}"


@pytest.mark.parametrize("kw,recording,forward_calls,backward_calls", [
    (dict(), False, 0, None),
    (dict(), True, 0, 1),
    (dict(stride=(2, 2), padding=(1, 1)), False, 1, None),
    (dict(stride=(2, 2), padding=(1, 1)), True, 1, 1),
])
def test_conv2d_builds_columns_only_where_it_reads_them(monkeypatch, kw, recording, forward_calls, backward_calls):
    # A window view is built inside each _im2col call and nowhere else.
    calls, views = [], []
    im2col, window_view = tensor_module._im2col, tensor_module.sliding_window_view

    def counted_im2col(*args):
        calls.append(1)
        return im2col(*args)

    def counted_view(*args, **kwargs):
        views.append(1)
        return window_view(*args, **kwargs)

    monkeypatch.setattr(tensor_module, "_im2col", counted_im2col)
    monkeypatch.setattr(tensor_module, "sliding_window_view", counted_view)
    k = 1 if not kw else 3
    x = rnd((2, 4, 6, 6), seed=1)
    w = Tensor(np.random.default_rng(2).standard_normal((5, 4, k, k)), requires_grad=recording)
    y = conv2d(x, w, **kw)
    assert len(calls) == len(views) == forward_calls
    if recording:
        y.sum().backward()
        assert len(calls) == len(views) == forward_calls + backward_calls
        assert w.grad is not None


def test_a_padded_conv2d_that_records_a_graph_keeps_no_padded_copy():
    # The backward re-pads x, so after the forward the graph holds the output and small objects,
    # not the padded input. The copy (here 34x34 of the 32x32 grid, 1.13x x) would more than double
    # what the forward leaves alive.
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 16, 32, 32)), requires_grad=True)
    w = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
    padded_bytes = 2 * 16 * 34 * 34 * 8
    tracemalloc.start()
    try:
        y = conv2d(x, w, padding=(1, 1))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < y.data.nbytes + padded_bytes // 4, (kept, y.data.nbytes, padded_bytes)
    y.sum().backward()  # the re-pad's gradients are checked by the finite-difference tests above
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


# ------------------------------------------------------------- avg pooling

def test_avg_pool_constant_input_stays_constant():
    x = Tensor(np.full((1, 2, 5, 5), 3.25))
    out = avg_pool2d_excl(x, 3)
    np.testing.assert_allclose(out.data, 3.25, rtol=0, atol=1e-15)


def test_avg_pool_border_divisors():
    x = Tensor(np.arange(1, 10, dtype=np.float64).reshape(1, 1, 3, 3))
    out = avg_pool2d_excl(x, 3).data[0, 0]
    assert out[1, 1] == 5.0
    assert out[0, 0] == pytest.approx((1 + 2 + 4 + 5) / 4)
    assert out[0, 1] == pytest.approx((1 + 2 + 3 + 4 + 5 + 6) / 6)


def test_avg_pool_k1_is_identity():
    x = rnd((2, 3, 4, 4), seed=5)
    np.testing.assert_array_equal(avg_pool2d_excl(x, 1).data, x.data)


OP_REFUSALS = {
    "unknown dtype": (lambda: Tensor([1.0], dtype="f16"), r"unsupported dtype 'f16', expected 'f32' or 'f64'"),
    "matmul 1-D": (lambda: matmul(rnd((3,)), rnd((3, 2))), r"matmul: operands must be at least 2-D, got 1-D and 2-D"),
    "narrow past the end": (lambda: narrow(rnd((2, 3)), 1, 2, 2),
                            r"narrow: slice \[2, 4\) out of range for axis 1 of size 3"),
    "conv2d 3-D input": (lambda: conv2d(rnd((4, 5, 5)), rnd((6, 4, 3, 3))), r"conv2d: input must be 4-D"),
    "conv2d 3-D weight": (lambda: conv2d(rnd((1, 4, 5, 5)), rnd((6, 4, 3))), r"conv2d: weight must be 4-D"),
    "conv2d zero kernel": (lambda: conv2d(rnd((1, 4, 5, 5)), rnd((6, 4, 0, 3))),
                           r"conv2d: kernel dims must be >= 1, got \(0, 3\)"),
    "conv2d cout % groups": (lambda: conv2d(rnd((1, 4, 5, 5)), rnd((5, 2, 3, 3)), groups=2),
                             r"conv2d: output channels 5 not divisible by groups 2"),
    "conv2d stride 0": (lambda: conv2d(rnd((1, 4, 5, 5)), rnd((6, 4, 3, 3)), stride=(0, 1)),
                        r"conv2d: stride must be >= 1, got \(0, 1\)"),
    "conv2d negative padding": (lambda: conv2d(rnd((1, 4, 5, 5)), rnd((6, 4, 3, 3)), padding=(-1, 0)),
                                r"conv2d: padding must be >= 0, got \(-1, 0\)"),
    "conv2d f64 bias": (lambda: conv2d(rnd((1, 4, 5, 5), dtype="f32"), rnd((6, 4, 3, 3), dtype="f32"), rnd((6,))),
                        r"conv2d: bias dtype float64 does not match input dtype float32"),
    "avg_pool2d_excl 3-D input": (lambda: avg_pool2d_excl(rnd((2, 5, 5)), 3), r"avg_pool2d_excl: input must be 4-D"),
    "conv2d float stride": (lambda: conv2d(rnd((1, 4, 5, 5)), rnd((6, 4, 3, 3)), stride=(1.5, 1)),
                            r"conv2d: stride must be a pair of integers, got \(1\.5, 1\)"),
    "conv2d bool stride": (lambda: conv2d(rnd((1, 4, 5, 5)), rnd((6, 4, 3, 3)), stride=(True, 1)),
                           r"conv2d: stride must be a pair of integers, got \(True, 1\)"),
    "conv2d 1-tuple stride": (lambda: conv2d(rnd((1, 4, 5, 5)), rnd((6, 4, 3, 3)), stride=(1,)),
                              r"conv2d: stride must be a pair of integers, got \(1,\)"),
    "conv2d float padding": (lambda: conv2d(rnd((1, 4, 5, 5)), rnd((6, 4, 3, 3)), padding=(0.5, 0)),
                             r"conv2d: padding must be a pair of integers, got \(0\.5, 0\)"),
    "conv2d int padding": (lambda: conv2d(rnd((1, 4, 5, 5)), rnd((6, 4, 3, 3)), padding=3),
                           r"conv2d: padding must be a pair of integers, got 3"),
    "conv2d float groups": (lambda: conv2d(rnd((1, 4, 5, 5)), rnd((6, 4, 3, 3)), groups=1.0),
                            r"conv2d: groups must be an integer, got 1\.0"),
    "avg_pool2d_excl float k": (lambda: avg_pool2d_excl(rnd((1, 2, 5, 5)), 3.0),
                                r"avg_pool2d_excl: pool size must be a positive odd integer, got 3\.0"),
    "avg_pool2d_excl bool k": (lambda: avg_pool2d_excl(rnd((1, 2, 5, 5)), True),
                               r"avg_pool2d_excl: pool size must be a positive odd integer, got True"),
    "narrow float start": (lambda: narrow(rnd((2, 3)), 1, 0.5, 1),
                           r"narrow: axis, start and length must be integers, got 1, 0\.5, 1"),
    "narrow axis past ndim": (lambda: narrow(rnd((2, 3)), 9, 0, 1), r"narrow: axis 9 out of range for a 2-D input"),
    "residual_add broadcast x": (lambda: residual_add(rnd((1, 2, 3, 3)), rnd((2, 2, 3, 3))),
                                 r"residual_add: x shape \(1, 2, 3, 3\) does not match h shape \(2, 2, 3, 3\)"),
    "residual_add scale length": (lambda: residual_add(None, rnd((1, 2, 3, 3)), rnd((3,))),
                                  r"residual_add: scale shape \(3,\) is not \(C,\) for h of shape \(1, 2, 3, 3\)"),
    "affine_norm f64 beta": (lambda: affine_norm(rnd((1, 2, 3, 3), dtype="f32"), rnd((2,), dtype="f32"), rnd((2,)),
                                                 1, 1e-5),
                             r"affine_norm: dtype mismatch float32 vs float64"),
    "affine_norm gamma length": (lambda: affine_norm(rnd((1, 2, 3, 3)), rnd((3,)), rnd((3,)), 1, 1e-5),
                                 r"affine_norm: gamma \(3,\) and beta \(3,\) must be \(C,\) "
                                 r"for x of shape \(1, 2, 3, 3\)"),
    "affine_norm 2-D beta": (lambda: affine_norm(rnd((1, 2, 3, 3)), rnd((2,)), rnd((2, 1)), 1, 1e-5),
                             r"affine_norm: gamma \(2,\) and beta \(2, 1\) must be \(C,\)"),
    "residual_add mask": (lambda: residual_add(None, rnd((2, 2, 3, 3)), mask=np.ones((3, 1, 1, 1))),
                          r"residual_add: mask shape \(3, 1, 1, 1\) does not broadcast to h shape \(2, 2, 3, 3\)"),
    "residual_add mask of more dims": (lambda: residual_add(None, rnd((2, 3)), mask=np.ones((1, 2, 3))),
                                       r"residual_add: mask shape \(1, 2, 3\) does not broadcast to h shape \(2, 3\)"),
    "affine_norm axis past ndim": (lambda: affine_norm(rnd((1, 2, 3, 3)), rnd((2,)), rnd((2,)), (1, 4), 1e-5),
                                   r"affine_norm: axes \(1, 4\) out of range for a 4-D input"),
    "affine_norm axis below -ndim": (lambda: affine_norm(rnd((1, 2, 3, 3)), rnd((2,)), rnd((2,)), -5, 1e-5),
                                     r"affine_norm: axes -5 out of range for a 4-D input"),
    "f64 data overflowing f32": (lambda: Tensor([1.0, 1e300], dtype="f32"),
                                 r"^Tensor: float64 value 1e\+300 overflows float32 to infinity$"),
    "complex data": (lambda: Tensor(np.array([1 + 2j])), r"^Tensor: data must be real numbers, got complex128 data$"),
    "complex data to f32": (lambda: Tensor([1 + 2j], dtype="f32"),
                            r"^Tensor: data must be real numbers, got complex128 data$"),
    "string data": (lambda: Tensor(["a"]), r"^Tensor: data must be real numbers, got str32 data$"),
    "add shapes": (lambda: rnd((2, 3)) + rnd((4,)), r"^add: shapes \(2, 3\) and \(4,\) do not broadcast$"),
    "sub shapes": (lambda: rnd((2, 3)) - rnd((3, 1)), r"^sub: shapes \(2, 3\) and \(3, 1\) do not broadcast$"),
    "mul shapes": (lambda: rnd((2, 3)) * np.ones((2, 2)), r"^mul: shapes \(2, 3\) and \(2, 2\) do not broadcast$"),
    "div shapes": (lambda: rnd((1, 2, 3)) / rnd((4, 1, 2)),
                   r"^div: shapes \(1, 2, 3\) and \(4, 1, 2\) do not broadcast$"),
    "matmul inner dims": (lambda: matmul(rnd((2, 3)), rnd((4, 5))),
                          r"^matmul: inner dimensions of \(2, 3\) and \(4, 5\) differ$"),
    "matmul batch dims": (lambda: matmul(rnd((2, 3, 4)), rnd((3, 4, 5))),
                          r"^matmul: batch dimensions of \(2, 3, 4\) and \(3, 4, 5\) do not broadcast$"),
    "reshape element count": (lambda: rnd((2, 3)).reshape(4, 2),
                              r"^reshape: cannot reshape \(2, 3\) \(6 elements\) to \(4, 2\)$"),
    "swapaxes axis past ndim": (lambda: rnd((2, 3)).swapaxes(0, 2),
                                r"^swapaxes: 0 and 2 must be integer axes of a 2-D input$"),
    "sum axis past ndim": (lambda: rnd((2, 3)).sum(axis=2),
                           r"^tensor_sum: axis 2 must be an integer axis, or a tuple of them, of a 2-D input$"),
    "mean axis below -ndim": (lambda: rnd((2, 3)).mean(axis=(0, -3)),
                              r"^tensor_mean: axis \(0, -3\) must be an integer axis, or a tuple of them, "
                              r"of a 2-D input$"),
    "reshape float entry": (lambda: rnd((2, 3)).reshape(2.5, 2), r"^reshape: shape \(2\.5, 2\) must be integers$"),
    "sum axis twice": (lambda: rnd((2, 3)).sum(axis=(0, 0)),
                       r"^tensor_sum: axis \(0, 0\) names an axis of a 2-D input twice$"),
    "mean axis twice": (lambda: rnd((2, 3)).mean(axis=(1, -1)),
                        r"^tensor_mean: axis \(1, -1\) names an axis of a 2-D input twice$"),
}


@pytest.mark.parametrize("case", OP_REFUSALS)
def test_op_refusals_name_the_bad_argument(case):
    call, message = OP_REFUSALS[case]
    with pytest.raises(InvalidArgument, match=message):
        call()


def test_narrowing_keeps_non_finite_values_and_a_same_dtype_tensor_takes_its_array():
    with np.errstate(all="raise"):  # no warning either
        got = Tensor(np.array([np.inf, -np.inf, np.nan, 1e-300, 3e38]), dtype="f32").data
    assert got.dtype == np.float32
    assert got[0] == np.inf and got[1] == -np.inf and np.isnan(got[2]) and got[3] == 0.0 and got[4] == np.float32(3e38)
    x = np.ones((2, 3), np.float32)
    assert Tensor(x[1:], dtype="f32").data.base is x


def test_integer_and_bool_data_become_f64():
    for data, values in ((np.arange(3), [0.0, 1.0, 2.0]), ([True, False], [1.0, 0.0])):
        t = Tensor(data)
        assert t.dtype == np.float64 and t.data.tolist() == values


def test_reshape_takes_a_shape_as_integers_or_as_one_tuple_or_list():
    x = rnd((2, 3), seed=4)
    x.requires_grad = True
    want = x.reshape(3, 2).data
    for shape in ((3, 2), [3, 2], (np.int64(3), -1)):
        y = x.reshape(shape)
        assert y.data.tobytes() == want.tobytes() and y.shape == (3, 2)
        y.sum().backward()
    assert x.grad.shape == (2, 3)


def test_conv2d_takes_numpy_integer_geometry():
    x, w = rnd((1, 4, 5, 5), seed=1), rnd((6, 4, 3, 3), seed=2)
    got = conv2d(x, w, stride=(np.int64(2), 1), padding=(1, np.int64(1)), groups=np.int64(1))
    np.testing.assert_array_equal(got.data, conv2d(x, w, stride=(2, 1), padding=(1, 1)).data)


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("hw", [(1, 1), (1, 6), (2, 5), (5, 1), (7, 2), (2, 2), (9, 8)])
def test_box_sum_is_bit_identical_to_the_copy_then_add_loop(p, hw):
    rng = np.random.default_rng(11)
    for dtype in (np.float32, np.float64):
        a = (rng.standard_normal((2, 3) + hw) * 100).astype(dtype)
        before = a.copy()
        got = _box_sum(a, p)
        assert got.dtype == dtype and got.flags.c_contiguous
        assert got.tobytes() == loop_box_sum(a, p).tobytes()
        assert a.tobytes() == before.tobytes()


def test_avg_pool_rejects_even_or_nonpositive_k():
    x = rnd((1, 1, 3, 3))
    for k in (0, 2, 4, -1):
        with pytest.raises(InvalidArgument):
            avg_pool2d_excl(x, k)


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("seed", range(4))
def test_avg_pool_matches_naive_oracle(k, seed):
    x = np.random.default_rng(seed).standard_normal((2, 2, 5, 6))
    got = avg_pool2d_excl(Tensor(x), k)
    np.testing.assert_allclose(got.data, naive_avg_pool_excl(x, k), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("shape", [(2, 3, 7, 6), (1, 2, 2, 3), (1, 1, 1, 1)])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_avg_pool_all_sizes_match_naive_oracle(k, shape, dtype):
    # Includes windows wider than the whole grid, where every cell averages its full row/column span.
    x = np.random.default_rng(k).standard_normal(shape).astype(DTYPE_NP[dtype])
    got = avg_pool2d_excl(Tensor(x), k)
    assert got.dtype == x.dtype
    np.testing.assert_allclose(got.data, naive_avg_pool_excl(x, k), **TOL[dtype])


def test_avg_pool_interior_equals_zeropad_k2_divisor():
    x = np.random.default_rng(7).standard_normal((1, 2, 8, 8))
    k = 3
    ours = avg_pool2d_excl(Tensor(x), k).data
    zp = naive_avg_pool_zeropad(x, k)
    np.testing.assert_allclose(ours[:, :, 1:-1, 1:-1], zp[:, :, 1:-1, 1:-1], rtol=1e-12)


@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    seed=st.integers(0, 100),
)
@settings(max_examples=30, deadline=None)
def test_avg_pool_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 1, 5, 5))
    y = rng.standard_normal((1, 1, 5, 5))
    combined = avg_pool2d_excl(Tensor(a * x + b * y), 3).data
    separate = a * avg_pool2d_excl(Tensor(x), 3).data + b * avg_pool2d_excl(Tensor(y), 3).data
    np.testing.assert_allclose(combined, separate, rtol=1e-6, atol=1e-9)


# ------------------------------------------------------------------- gelu

def erf_f32(x):
    # The rational over the whole array: the block size is a cache choice, not a bound on correctness.
    t = x.copy()
    _erf_block(t, *(np.empty_like(t) for _ in range(3)))
    return t


def _ulp_distance(a, b):
    # Same-sign float32 values: ulps are the distance between their bit patterns.
    return np.abs(a.view(np.int32).astype(np.int64) - b.view(np.int32).astype(np.int64))


def test_f32_erf_within_8_ulp_of_rounded_f64_erf():
    from scipy.special import erf

    dense = np.linspace(-8, 8, 2_000_001, dtype=np.float32)
    tails = np.logspace(-30, 30, 20_001).astype(np.float32)
    x = np.concatenate([dense, tails, -tails])
    x = x[np.abs(x) >= 1e-30]
    want = erf(x.astype(np.float64)).astype(np.float32)
    got = erf_f32(x)
    assert got.dtype == np.float32
    assert _ulp_distance(got, want).max() <= 8


def test_f32_erf_special_values():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=np.float32)
    got = erf_f32(x)
    assert got[0] == 0 and not np.signbit(got[0])
    assert got[1] == 0 and np.signbit(got[1])
    assert got[2] == 1.0 and got[3] == -1.0
    assert np.isnan(got[4])
    # Odd symmetry holds bit for bit.
    y = np.random.default_rng(3).standard_normal(1000).astype(np.float32) * 3
    np.testing.assert_array_equal(erf_f32(-y), -erf_f32(y))


def test_f64_gelu_matches_scipy_bit_for_bit():
    from scipy.special import erf

    x = np.random.default_rng(4).standard_normal((2, 3, 9, 9)) * 4
    want = x * (0.5 * (1.0 + erf(x * _INV_SQRT2)))
    np.testing.assert_array_equal(gelu(Tensor(x, dtype="f64")).data, want)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_gelu_folds_the_cdf_into_the_erf_loop_bit_for_bit(dtype):
    # Sizes below, at and across the erf block, plus specials: the folded scale, +1 and x0.5
    # must give the bits of applying them as whole-array passes around erf.
    from scipy.special import erf

    whole_erf = erf_f32 if dtype == "f32" else erf
    rng = np.random.default_rng(6)
    for n in (1, 7, 32768, 70001):
        x = (rng.standard_normal(n) * 4).astype(DTYPE_NP[dtype])
        x[: min(n, 5)] = np.array([0.0, -0.0, np.inf, -np.inf, 40.0])[: min(n, 5)]
        cdf = whole_erf(x * _INV_SQRT2)
        cdf += 1.0
        cdf *= 0.5
        for requires_grad in (False, True):
            with np.errstate(invalid="ignore"):  # gelu(-inf) = -inf * 0
                got = gelu(Tensor(x, requires_grad=requires_grad)).data
                assert got.tobytes() == (x * cdf).tobytes(), (n, requires_grad)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_graph_free_gelu_keeps_no_full_size_cdf(dtype):
    import scipy.special  # noqa: F401 - the first f64 gelu imports it, and tracemalloc must not count that

    x = np.random.default_rng(8).standard_normal(8 * _ERF_BLOCK + 5).astype(DTYPE_NP[dtype])
    peaks = {}
    for requires_grad in (False, True):
        a = Tensor(x, requires_grad=requires_grad)
        tracemalloc.start()
        try:
            y = gelu(a)
            peaks[requires_grad] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del y
    scratch = 4 * _ERF_BLOCK * x.itemsize  # one CDF block and, in f32, the rational's three
    assert peaks[False] < x.nbytes + scratch + 16 * 1024, peaks
    assert peaks[True] >= 2 * x.nbytes, peaks  # the backward needs the CDF


@pytest.mark.parametrize("act", [gelu, relu, silu])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_inplace_activation_writes_the_default_bits_over_its_input(act, dtype):
    # Sizes below and across the erf block; the in-place GELU reads each block before it writes it.
    for n in (7, 3 * _ERF_BLOCK + 5):
        x = (np.random.default_rng(9).standard_normal((1, n)) * 4).astype(DTYPE_NP[dtype])
        want = act(Tensor(x.copy())).data
        a = Tensor(x.copy())
        got = act(a, inplace=True)
        assert not got.requires_grad and np.shares_memory(got.data, a.data)
        assert got.data.tobytes() == want.tobytes()


@pytest.mark.parametrize("act", [gelu, relu, silu])
def test_inplace_activation_is_refused_on_an_input_that_records_a_graph(act):
    a = rnd((2, 3), seed=3)
    a.requires_grad = True
    before = a.data.copy()
    with pytest.raises(InvalidArgument, match=f"^{act.__name__}: inplace=True on an input that records a graph$"):
        act(a, inplace=True)
    assert a.data.tobytes() == before.tobytes()


def test_f32_gelu_error_is_bounded_by_the_erf_error():
    # An 8-ulp erf error (ulp <= 2**-24 below 1) moves 0.5 * x * (1 + erf) by at most 2**-22 * |x|;
    # the bound doubles that to cover rounding x / sqrt(2) and 1 + erf, plus the product's rounding.
    x = np.random.default_rng(5).standard_normal((2, 3, 9, 9)).astype(np.float32) * 4
    got = gelu(Tensor(x))
    assert got.dtype == np.float32
    want = gelu(Tensor(x.astype(np.float64))).data
    bound = 4 * 2.0**-23 * np.abs(x) + 2.0**-24 * np.abs(want)
    assert np.all(np.abs(got.data - want) <= bound)


def test_import_does_not_load_scipy_special():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, metaformer, metaformer.cli; print('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------- softmax

def test_softmax_symmetry_and_shift_invariance():
    np.testing.assert_allclose(softmax_lastdim(Tensor([0.0, 0.0])).data, [0.5, 0.5])
    big = softmax_lastdim(Tensor([1000.0, 1000.0])).data
    assert np.isfinite(big).all()
    np.testing.assert_allclose(big, [0.5, 0.5])


def test_softmax_closed_form():
    out = softmax_lastdim(Tensor([np.log(1.0), np.log(3.0)]))
    np.testing.assert_allclose(out.data, [0.25, 0.75], rtol=1e-12)


def test_softmax_rows_sum_to_one():
    x = np.random.default_rng(11).standard_normal((3, 4, 7))
    out = softmax_lastdim(Tensor(x)).data
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
    np.testing.assert_allclose(out, naive_softmax_rows(x), rtol=1e-12)


@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 9),
    scale=st.floats(0.01, 100.0, allow_nan=False),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_softmax_rows_always_stochastic(rows, cols, scale, seed):
    x = scale * np.random.default_rng(seed).standard_normal((rows, cols))
    out = softmax_lastdim(Tensor(x)).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)


def test_softmax_propagates_nan():
    out = softmax_lastdim(Tensor([np.nan, 0.0]))
    assert np.isnan(out.data).any()


# --------------------------------------------------------------- backward

def test_backward_sum_gives_ones():
    x = rnd((3, 4), seed=13)
    x.requires_grad = True
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_square_gives_2x():
    x = rnd((2, 5), seed=14)
    x.requires_grad = True
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)


def test_backward_rejects_nonscalar_loss():
    x = rnd((2, 2))
    x.requires_grad = True
    with pytest.raises(InvalidArgument, match="scalar"):
        (x * x).backward()


def test_backward_from_a_root_that_records_no_graph_raises():
    # Nothing requires grad, so there is no graph: a silent return would train nothing.
    x = rnd((2, 2), seed=17)
    with pytest.raises(InvalidArgument, match=r"requires_grad_\(True\)"):
        (x * x).sum().backward()
    assert x.grad is None


def test_a_second_backward_over_a_consumed_graph_raises_and_adds_nothing():
    x = Tensor(np.array([1.5, -3.0]), dtype="f64", requires_grad=True)
    loss = (x * 2.0).sum()
    loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])
    with pytest.raises(InvalidArgument, match="consumed by an earlier backward"):
        loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    # The same on a deeper graph: the leaves keep the first pass's bits.
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((2, 4, 8, 8)), dtype="f32", requires_grad=True)
    w = Tensor(rng.standard_normal((4, 4, 3, 3)), dtype="f32", requires_grad=True)
    loss = (avg_pool2d_excl(gelu(conv2d(x, w, padding=(1, 1))), 3) * 0.5).sum()
    loss.backward()
    once = x.grad.copy(), w.grad.copy()
    with pytest.raises(InvalidArgument, match="consumed by an earlier backward"):
        loss.backward()
    np.testing.assert_array_equal(x.grad, once[0])
    np.testing.assert_array_equal(w.grad, once[1])


def test_a_second_loss_through_a_consumed_subgraph_raises():
    x = Tensor(np.array([0.5, -1.0, 2.0]), dtype="f64", requires_grad=True)
    h = gelu(x * x)
    a = h.sum()
    b = (h * h).sum()
    a.backward()
    first = x.grad.copy()
    with pytest.raises(InvalidArgument, match=r"node of shape \(3,\) was consumed"):
        b.backward()
    np.testing.assert_array_equal(x.grad, first)


def test_a_scalar_leaf_used_as_its_own_loss_accumulates_on_each_call():
    x = Tensor(np.array([2.0]), dtype="f64", requires_grad=True)
    x.backward()
    x.backward()
    np.testing.assert_array_equal(x.grad, [2.0])


def test_backward_releases_intermediate_gradients_and_keeps_leaf_ones():
    x = rnd((3, 4), seed=18)
    x.requires_grad = True
    h = gelu(x * x)
    loss = h.sum()
    loss.backward()
    assert h.grad is None and loss.grad is None
    assert x.grad is not None


def test_backward_off_path_leaf_gets_zero_gradient():
    x = rnd((2, 2), seed=15)
    y = rnd((2, 2), seed=16)
    x.requires_grad = True
    y.requires_grad = True
    x.sum().backward()
    np.testing.assert_array_equal(y.grad_array(), np.zeros((2, 2)))


def test_a_wrong_shape_gradient_is_refused_for_a_tensor_no_optimizer_packed():
    p = Tensor(np.array([1.0, 2.0]), dtype="f64", requires_grad=True)
    bad = tensor_module._make(np.array(0.0), (p,), lambda g: (np.ones(1),))  # a backward of the wrong shape
    with pytest.raises(InvalidArgument, match=r"gradient shape \(1,\) != parameter shape \(2,\)"):
        bad.backward()
    assert p.grad is None


def read_only(array):
    array.flags.writeable = False
    return array


@pytest.mark.parametrize("held,message", [
    (np.zeros(2, dtype=np.int64), r"held grad int64 \(2,\) does not match the tensor's float32 \(2,\)"),
    (np.zeros((1, 2), dtype=np.float32), r"held grad float32 \(1, 2\) does not match the tensor's float32 \(2,\)"),
    ([0.0, 0.0], r"held grad is a list, not a numpy array"),
    (read_only(np.zeros(2, dtype=np.float32)), r"backward: held grad float32 \(2,\) is read-only"),
], ids=["int64", "shape (1, 2)", "list", "read-only"])
def test_a_held_grad_of_another_dtype_or_shape_is_refused_naming_both(held, message):
    x = Tensor(np.array([1.0, 2.0]), dtype="f32", requires_grad=True)
    x.grad = held
    with pytest.raises(InvalidArgument, match=message):
        (x * x).sum().backward()
    assert x.grad is held and not np.any(held)


def test_a_refused_backward_changes_nothing_and_a_retry_gives_a_fresh_runs_gradients():
    def graph():
        a = Tensor(np.array([1.5, -2.0]), dtype="f64", requires_grad=True)
        b = Tensor(np.array([0.5, 3.0]), dtype="f64", requires_grad=True)
        h = a * b  # mul lands a's product before b's
        return a, b, h, (h * h).sum()

    a, b, h, loss = graph()
    held_a = np.array([10.0, 20.0])
    a.grad, b.grad = held_a, [0.0, 0.0]
    with pytest.raises(InvalidArgument, match=r"backward: held grad is a list, not a numpy array"):
        loss.backward()
    assert a.grad is held_a and held_a.tolist() == [10.0, 20.0]
    assert b.grad == [0.0, 0.0] and h.grad is None and loss.grad is None
    a.grad = b.grad = None
    loss.backward()  # no node was spent by the refused call
    fresh_a, fresh_b, _, fresh_loss = graph()
    fresh_loss.backward()
    assert a.grad.tobytes() == fresh_a.grad.tobytes() and b.grad.tobytes() == fresh_b.grad.tobytes()


def test_a_leaf_keeps_one_grad_array_and_later_backwards_add_into_it():
    x = Tensor(np.array([1.5, -3.0]), dtype="f64", requires_grad=True)
    (x * 2.0).sum().backward()
    g0 = x.grad
    (x * x).sum().backward()  # a new graph, no zero_grad in between
    assert x.grad is g0
    np.testing.assert_array_equal(g0, [2.0 + 3.0, 2.0 - 6.0])
    x.zero_grad()
    (x * 2.0).sum().backward()
    assert x.grad is not g0


def test_backward_composite_matches_finite_differences():
    # Composite of the module's ops on a [2, 4, 8, 8] input, many seeds.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 4, 8, 8)), dtype="f64", requires_grad=True)
        w = Tensor(0.4 * rng.standard_normal((4, 4, 3, 3)), dtype="f64", requires_grad=True)
        proj = Tensor(rng.standard_normal((2, 4, 8, 8)), dtype="f64")

        def loss():
            h = conv2d(x, w, padding=(1, 1))
            h = avg_pool2d_excl(gelu(h), 3)
            return (h * proj).sum()

        coords = [tuple(rng.integers(0, s) for s in (2, 4, 8, 8)) for _ in range(10)]
        assert check_tensor_gradient(loss, x, coords=coords) < 1e-4
        wcoords = [tuple(rng.integers(0, s) for s in (4, 4, 3, 3)) for _ in range(10)]
        assert check_tensor_gradient(loss, w, coords=wcoords) < 1e-4


OPS_UNDER_GRADCHECK = {
    "conv2d": lambda x, aux: conv2d(x, aux["w"], aux["b"], stride=(2, 1), padding=(1, 1)),
    "conv2d_grouped": lambda x, aux: conv2d(x, aux["wg"], None, padding=(1, 1), groups=2),
    "conv2d_1x1": lambda x, aux: conv2d(x, aux["w1"], aux["b"]),
    "avg_pool": lambda x, aux: avg_pool2d_excl(x, 3),
    "avg_pool_k5": lambda x, aux: avg_pool2d_excl(x, 5),
    "softmax": lambda x, aux: softmax_lastdim(x.reshape(2, 4, 36)),
    "log_softmax": lambda x, aux: log_softmax_lastdim(x.reshape(2, 4, 36)),
    "gelu": lambda x, aux: gelu(x),
    "silu": lambda x, aux: silu(x),
    "relu": lambda x, aux: relu(x),
    "matmul": lambda x, aux: matmul(x.reshape(2, 24, 6), aux["m"]),
    "narrow": lambda x, aux: narrow(x, 1, 1, 2),
    "mean": lambda x, aux: x.mean(axis=(2, 3), keepdims=True),
    "add_mul_div": lambda x, aux: (x * x + x) / (x * x + Tensor(np.full((1,), 2.0))),
    "swapaxes": lambda x, aux: x.swapaxes(1, 3) * aux["p"],
    "add_broadcast": lambda x, aux: x + aux["c"],
    "sub_broadcast": lambda x, aux: aux["c3"] - x,
    "mul_broadcast": lambda x, aux: x * aux["c"],
    "div_broadcast": lambda x, aux: x / aux["d3"],
    "affine_norm_mln": lambda x, aux: affine_norm(x, aux["gamma"], aux["beta"], (1, 2, 3), 1e-5)[0],
    "affine_norm_ln": lambda x, aux: affine_norm(x, aux["gamma"], aux["beta"], 1, 1e-5)[0],
    "affine_norm_bn_train": lambda x, aux: affine_norm(x, aux["gamma"], aux["beta"], (0, 2, 3), 1e-5)[0],
    "affine_norm_bn_eval": lambda x, aux: affine_norm(x, aux["gamma"], aux["beta"], (0, 2, 3), 1e-5, _BN_MOMENTS)[0],
    "residual_add": lambda x, aux: residual_add(x, gelu(x), aux["gamma"], _DROP_MASK),
    "residual_add_no_scale": lambda x, aux: residual_add(x, x * x),
}

# Fixed operands of the fused frame ops and the per-channel operands of the
# broadcasting ops ([1, C, 1, 1] and [C, 1, 1] against x's [B, C, H, W]),
# drawn apart from ``rng`` so that the coordinates every other op is checked
# at stay as they were.
_BN_MOMENTS = (np.full((1, 4, 1, 1), 0.3), np.full((1, 4, 1, 1), 1.7))
_DROP_MASK = np.array([0.0, 2.5]).reshape(2, 1, 1, 1)


def _own_operands():
    frame, channel = np.random.default_rng(11), np.random.default_rng(12)
    return {
        "gamma": Tensor(1.0 + 0.3 * frame.standard_normal(4), dtype="f64", requires_grad=True),
        "beta": Tensor(0.3 * frame.standard_normal(4), dtype="f64", requires_grad=True),
        "c": Tensor(channel.standard_normal((1, 4, 1, 1)), dtype="f64", requires_grad=True),
        "c3": Tensor(channel.standard_normal((4, 1, 1)), dtype="f64", requires_grad=True),
        "d3": Tensor(1.0 + channel.random((4, 1, 1)), dtype="f64", requires_grad=True),
    }


def _aux(rng):
    return {
        "w": Tensor(0.5 * rng.standard_normal((5, 4, 3, 3)), dtype="f64", requires_grad=True),
        "b": Tensor(rng.standard_normal(5), dtype="f64", requires_grad=True),
        "wg": Tensor(0.5 * rng.standard_normal((4, 2, 3, 3)), dtype="f64", requires_grad=True),
        "w1": Tensor(rng.standard_normal((5, 4, 1, 1)), dtype="f64", requires_grad=True),
        "m": Tensor(rng.standard_normal((6, 5)), dtype="f64", requires_grad=True),
        "p": Tensor(rng.standard_normal((2, 6, 6, 4)), dtype="f64"),
    }


@pytest.mark.parametrize("name", sorted(OPS_UNDER_GRADCHECK))
def test_per_op_gradients_match_finite_differences(name):
    op = OPS_UNDER_GRADCHECK[name]
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        xdata = rng.standard_normal((2, 4, 6, 6))
        if name == "relu":
            xdata = xdata + 0.2 * np.sign(xdata)  # keep clear of the kink
        x = Tensor(xdata, dtype="f64", requires_grad=True)
        aux = {**_aux(rng), **_own_operands()}

        def loss():
            out = op(x, aux)
            r = Tensor(np.random.default_rng(7).standard_normal(out.shape))
            return (out * r).sum()

        coords = [tuple(rng.integers(0, s) for s in x.shape) for _ in range(8)]
        assert check_tensor_gradient(loss, x, coords=coords) < 1e-4, f"{name} seed {seed}"
        # The backward above gave a gradient to exactly the aux leaves the op differentiates.
        for key, leaf in aux.items():
            if leaf.grad is not None:
                leaf_coords = [tuple(rng.integers(0, s) for s in leaf.shape) for _ in range(8)]
                assert check_tensor_gradient(loss, leaf, coords=leaf_coords) < 1e-4, f"{name} seed {seed} {key}"


def test_backward_visits_shared_nodes_once():
    # Diamond: h feeds two consumers; double-visiting h would double dL/dx.
    x = Tensor(np.array([3.0]), dtype="f64", requires_grad=True)
    h = x * 2.0
    (h * h + h).sum().backward()
    # d/dx (4x^2 + 2x) = 8x + 2 = 26 at x=3.
    np.testing.assert_allclose(x.grad, [26.0])


def test_forward_backward_bit_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((2, 4, 8, 8)), dtype="f64", requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4, 3, 3)), dtype="f64", requires_grad=True)
        out = avg_pool2d_excl(gelu(conv2d(x, w, padding=(1, 1))), 3)
        out.sum().backward()
        return out.data.copy(), x.grad.copy(), w.grad.copy()

    a = run()
    b = run()
    for left, right in zip(a, b):
        assert np.array_equal(left, right)


def test_dtype_mismatch_rejected():
    with pytest.raises(InvalidArgument, match="dtype"):
        rnd((2, 2), dtype="f32") + rnd((2, 2), dtype="f64")
