import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaformer.gradcheck import check_tensor_gradient
from metaformer.tensor import (
    _INV_SQRT2,
    _erf_f32,
    InvalidArgument,
    Tensor,
    avg_pool2d_excl,
    conv2d,
    gelu,
    log_softmax_lastdim,
    matmul,
    narrow,
    relu,
    silu,
    softmax_lastdim,
)

from oracles import naive_avg_pool_excl, naive_avg_pool_zeropad, naive_conv2d, naive_softmax_rows


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
    got = _erf_f32(x)
    assert got.dtype == np.float32
    assert _ulp_distance(got, want).max() <= 8


def test_f32_erf_special_values():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=np.float32)
    got = _erf_f32(x)
    assert got[0] == 0 and not np.signbit(got[0])
    assert got[1] == 0 and np.signbit(got[1])
    assert got[2] == 1.0 and got[3] == -1.0
    assert np.isnan(got[4])
    # Odd symmetry holds bit for bit.
    y = np.random.default_rng(3).standard_normal(1000).astype(np.float32) * 3
    np.testing.assert_array_equal(_erf_f32(-y), -_erf_f32(y))


def test_f64_gelu_matches_scipy_bit_for_bit():
    from scipy.special import erf

    x = np.random.default_rng(4).standard_normal((2, 3, 9, 9)) * 4
    want = x * (0.5 * (1.0 + erf(x * _INV_SQRT2)))
    np.testing.assert_array_equal(gelu(Tensor(x, dtype="f64")).data, want)


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


def test_backward_off_path_leaf_gets_zero_gradient():
    x = rnd((2, 2), seed=15)
    y = rnd((2, 2), seed=16)
    x.requires_grad = True
    y.requires_grad = True
    x.sum().backward()
    np.testing.assert_array_equal(y.grad_array(), np.zeros((2, 2)))


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
        aux = _aux(rng)

        def loss():
            out = op(x, aux)
            r = Tensor(np.random.default_rng(7).standard_normal(out.shape))
            return (out * r).sum()

        coords = [tuple(rng.integers(0, s) for s in x.shape) for _ in range(8)]
        assert check_tensor_gradient(loss, x, coords=coords) < 1e-4, f"{name} seed {seed}"


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
