"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (f32 or f64, channel-first [B, C, H, W] for images).
Every operation records the backward closure needed to propagate vector-
Jacobian products through a dynamically built DAG; ``Tensor.backward`` walks
the recorded graph once, in reverse topological order.

Kernel choices: k x k pooling is a separable box sum (k-1 row-shifted adds,
then k-1 column-shifted adds); conv2d is im2col into K-major columns
[groups, Cin/groups*Kh*Kw, B*Hout*Wout] plus one GEMM per group, where a 1x1
stride-1 unpadded ungrouped input is its own column matrix; f32 GELU
evaluates erf as a rational approximation in f32, while f64 GELU keeps
scipy's erf, imported only when first used.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class InvalidArgument(ValueError):
    """An operation received arguments that violate its contract."""


DTYPES = {"f32": np.float32, "f64": np.float64}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# f32 erf(t) = t * P(t^2) / Q(t^2) on |t| <= _ERF_CLAMP, coefficients highest
# degree first. Fitted near-minimax in relative error (1.9e-8 in exact
# arithmetic; at most 6 ulp from the rounded exact value once evaluated in
# f32). Past the clamp erf rounds to +-1 in f32, and so does P/Q at the clamp.
_ERF_CLAMP = 3.92
_ERF_P = (2.0500866e-06, 0.0002848836, 0.0037656429, 0.052748803, 0.19040704, 1.1283791)
_ERF_Q = (3.8091755e-05, 0.0011625424, 0.014969269, 0.11410935, 0.50207657, 1.0)
_ERF_BLOCK = 32768


def _as_dtype(dtype) -> np.dtype:
    if isinstance(dtype, str):
        if dtype not in DTYPES:
            raise InvalidArgument(f"unsupported dtype {dtype!r}, expected 'f32' or 'f64'")
        return np.dtype(DTYPES[dtype])
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise InvalidArgument(f"unsupported dtype {dt}, expected float32 or float64")
    return dt


class Tensor:
    """N-dimensional array participating in the autodiff graph.

    ``requires_grad`` marks leaves that should accumulate gradients; results
    of operations require grad iff any input does. ``grad`` is allocated
    during ``backward`` and has the same shape/dtype as ``data``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is not None:
            arr = np.asarray(data, dtype=_as_dtype(dtype))
        else:
            arr = np.asarray(data)
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward_fn = None

    # ------------------------------------------------------------- basics
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def grad_array(self) -> np.ndarray:
        """Gradient buffer, materializing zeros for leaves off the loss path."""
        if self.grad is None:
            return np.zeros_like(self.data)
        return self.grad

    # ----------------------------------------------------------- backward
    def backward(self) -> None:
        """Accumulate gradients of this scalar into all requires_grad leaves."""
        if self.data.size != 1:
            raise InvalidArgument(f"backward: loss must be scalar, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # ----------------------------------------------------------- operators
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_wrap(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_wrap(other, self.dtype), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def swapaxes(self, a: int, b: int):
        return swapaxes(self, a, b)

    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)


def _toposort(root: Tensor) -> list:
    # Iterative DFS postorder; graphs of deep models overflow recursion limits.
    order: list = []
    visited: set = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad = t.grad + g


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Graph node for ``data``; ``backward(g)`` runs only if a parent requires grad."""
    node = Tensor.__new__(Tensor)
    node.data = data
    node.grad = None
    needs = any(p.requires_grad for p in parents)
    node.requires_grad = needs
    node._parents = tuple(parents) if needs else ()
    node._backward_fn = backward if needs else None
    return node


def _wrap(x: Union[Tensor, float, int, np.ndarray], dtype: np.dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _check_same_dtype(a: Tensor, b: Tensor, op: str) -> None:
    if a.dtype != b.dtype:
        raise InvalidArgument(f"{op}: dtype mismatch {a.dtype.name} vs {b.dtype.name}")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ------------------------------------------------------------------ arithmetic

def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    _check_same_dtype(a, b, "add")

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    _check_same_dtype(a, b, "sub")

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    _check_same_dtype(a, b, "mul")

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), backward)


def div(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    _check_same_dtype(a, b, "div")

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(a.data / b.data, (a, b), backward)


def sqrt(a: Tensor) -> Tensor:
    root = np.sqrt(a.data)

    def backward(g):
        _accum(a, g * (0.5 / root))

    return _make(root, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise InvalidArgument(f"matmul: operands must be at least 2-D, got {a.ndim}-D and {b.ndim}-D")

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accum(a, _unbroadcast(ga, a.shape))
        _accum(b, _unbroadcast(gb, b.shape))

    return _make(np.matmul(a.data, b.data), (a, b), backward)


# ------------------------------------------------------------------ shape ops

def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old = a.shape

    def backward(g):
        _accum(a, g.reshape(old))

    return _make(a.data.reshape(shape), (a,), backward)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def backward(g):
        _accum(a, np.swapaxes(g, ax1, ax2))

    return _make(np.swapaxes(a.data, ax1, ax2).copy(), (a,), backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` elements along ``axis``."""
    n = a.shape[axis]
    if start < 0 or length < 1 or start + length > n:
        raise InvalidArgument(f"narrow: slice [{start}, {start + length}) out of range for axis {axis} of size {n}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def backward(g):
        full = np.zeros_like(a.data)
        full[index] = g
        _accum(a, full)

    return _make(a.data[index].copy(), (a,), backward)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)

    def backward(g):
        _accum(a, _expand_reduced(g, a.shape, axes, keepdims))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]

    def backward(g):
        _accum(a, _expand_reduced(g, a.shape, axes, keepdims) / count)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


def _norm_axes(axis, ndim: int) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def _expand_reduced(g: np.ndarray, shape: tuple, axes: tuple, keepdims: bool) -> np.ndarray:
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


# ------------------------------------------------------------------ activations

def relu(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, g * (a.data > 0))

    return _make(np.maximum(a.data, 0.0), (a,), backward)


def _horner(z: np.ndarray, coeffs: tuple, acc: np.ndarray) -> None:
    np.multiply(z, coeffs[0], out=acc)
    for c in coeffs[1:-1]:
        acc += c
        acc *= z
    acc += coeffs[-1]


def _erf_f32(x: np.ndarray) -> np.ndarray:
    """erf of a float32 array in float32; odd, and exact at 0 and +-inf.

    Evaluated in place over blocks of ``_ERF_BLOCK`` elements, so that the
    ~20 passes of the rational run in cache rather than in memory.
    """
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    z, num, den = (np.empty(min(_ERF_BLOCK, flat.size), np.float32) for _ in range(3))
    for start in range(0, flat.size, _ERF_BLOCK):
        t = out[start : start + _ERF_BLOCK]
        n = t.size
        np.clip(flat[start : start + _ERF_BLOCK], -_ERF_CLAMP, _ERF_CLAMP, out=t)
        np.multiply(t, t, out=z[:n])
        _horner(z[:n], _ERF_P, num[:n])
        _horner(z[:n], _ERF_Q, den[:n])
        num[:n] *= t
        np.divide(num[:n], den[:n], out=t)
    return out.reshape(x.shape)


def _erf(x: np.ndarray) -> np.ndarray:
    if x.dtype == np.float32:
        return _erf_f32(x)
    from scipy.special import erf  # f64 only, so importing this module does not load scipy

    return erf(x)


def gelu(a: Tensor) -> Tensor:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = a.data
    cdf = _erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5

    def backward(g):
        d = x * x
        d *= -0.5
        np.exp(d, out=d)
        d *= _INV_SQRT2PI
        d *= x
        d += cdf
        d *= g
        _accum(a, d)

    return _make(x * cdf, (a,), backward)


def silu(a: Tensor) -> Tensor:
    x = a.data
    sig = 1.0 / (1.0 + np.exp(-x))

    def backward(g):
        _accum(a, g * (sig * (1.0 + x * (1.0 - sig))))

    return _make(x * sig, (a,), backward)


ACTIVATIONS = {"gelu": gelu, "relu": relu, "silu": silu}


def softmax_lastdim(a: Tensor) -> Tensor:
    """Row-stochastic softmax over the last axis, stabilized by max-subtraction."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(a, y * (g - dot))

    return _make(y, (a,), backward)


def log_softmax_lastdim(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    soft = np.exp(shifted - lse)

    def backward(g):
        _accum(a, g - soft * g.sum(axis=-1, keepdims=True))

    return _make(shifted - lse, (a,), backward)


# ------------------------------------------------------------------ conv / pool

def conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride=(1, 1),
    padding=(0, 0),
    groups: int = 1,
) -> Tensor:
    """2-D cross-correlation with zero padding and grouped channels.

    ``x`` is [B, Cin, H, W]; ``weight`` is [Cout, Cin/groups, Kh, Kw];
    output is [B, Cout, Hout, Wout] with Hout = (H + 2*ph - Kh)//sh + 1.
    """
    if x.ndim != 4:
        raise InvalidArgument(f"conv2d: input must be 4-D [B,C,H,W], got shape {x.shape}")
    if weight.ndim != 4:
        raise InvalidArgument(f"conv2d: weight must be 4-D [Cout,Cin/groups,Kh,Kw], got shape {weight.shape}")
    _check_same_dtype(x, weight, "conv2d")
    B, cin, H, W = x.shape
    cout, cin_g, kh, kw = weight.shape
    if kh < 1 or kw < 1:
        raise InvalidArgument(f"conv2d: kernel dims must be >= 1, got ({kh}, {kw})")
    if groups < 1 or cin % groups != 0:
        raise InvalidArgument(f"conv2d: input channels {cin} not divisible by groups {groups}")
    if cout % groups != 0:
        raise InvalidArgument(f"conv2d: output channels {cout} not divisible by groups {groups}")
    if cin // groups != cin_g:
        raise InvalidArgument(
            f"conv2d: weight expects {cin_g} input channels per group, input has {cin // groups}"
        )
    if bias is not None and bias.shape != (cout,):
        raise InvalidArgument(f"conv2d: bias shape {bias.shape} does not match output channels {cout}")
    sh, sw = stride
    ph, pw = padding
    hout = conv_out_size(H, kh, sh, ph)
    wout = conv_out_size(W, kw, sw, pw)
    if hout < 1 or wout < 1:
        raise InvalidArgument(
            f"conv2d: output spatial size ({hout}, {wout}) is degenerate for input ({H}, {W}), "
            f"kernel ({kh}, {kw}), stride ({sh}, {sw}), padding ({ph}, {pw})"
        )

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x.data
    # Backward rebuilds the columns from this view: holding the column copy would grow the graph.
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    w_g = weight.data.reshape(groups, cout // groups, cin_g * kh * kw)
    # 1x1, stride 1, unpadded, ungrouped: x is its own column matrix, so W @ x[b] per sample.
    direct = (kh, kw, sh, sw, ph, pw, groups) == (1, 1, 1, 1, 0, 0, 1)
    if direct:
        y = np.matmul(w_g[0], x.data.reshape(B, cin, H * W))
    else:
        y = np.matmul(w_g, _im2col(win, groups)).reshape(cout, B, hout, wout).transpose(1, 0, 2, 3)
    y = np.ascontiguousarray(y.reshape(B, cout, hout, wout))
    if bias is not None:
        y += bias.data.reshape(1, cout, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        g_g = g.transpose(1, 0, 2, 3).reshape(groups, cout // groups, B * hout * wout)
        if weight.requires_grad:
            _accum(weight, np.matmul(g_g, _im2col(win, groups).swapaxes(1, 2)).reshape(weight.shape))
        if x.requires_grad and direct:
            _accum(x, np.matmul(w_g[0].T, g.reshape(B, cout, H * W)).reshape(x.shape))
        elif x.requires_grad:
            gcols = np.matmul(w_g.swapaxes(1, 2), g_g).reshape(cin, kh, kw, B, hout, wout)
            gp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    gp[:, :, i : i + sh * hout : sh, j : j + sw * wout : sw] += gcols[:, i, j].transpose(1, 0, 2, 3)
            _accum(x, gp[:, :, ph : ph + H, pw : pw + W])
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 2, 3)))

    return _make(y, parents, backward)


def _im2col(win: np.ndarray, groups: int) -> np.ndarray:
    """Window view [B, Cin, Hout, Wout, Kh, Kw] as K-major columns [groups, Cin/groups*Kh*Kw, B*Hout*Wout]."""
    B, cin, hout, wout, kh, kw = win.shape
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(groups, cin // groups * kh * kw, B * hout * wout)


def avg_pool2d_excl(x: Tensor, k: int) -> Tensor:
    """Shape-preserving k x k average pooling, stride 1, padding k//2.

    Border windows divide by the number of in-bounds cells rather than k*k,
    so a constant input stays constant all the way to the edges.
    """
    if x.ndim != 4:
        raise InvalidArgument(f"avg_pool2d_excl: input must be 4-D [B,C,H,W], got shape {x.shape}")
    if k < 1 or k % 2 == 0:
        raise InvalidArgument(f"avg_pool2d_excl: pool size must be a positive odd integer, got {k}")
    _, _, H, W = x.shape
    p = k // 2
    count = _valid_count(H, W, k, x.dtype)
    y = _box_sum(x.data, p)
    y /= count

    def backward(g):
        # The zero-padded box sum is self-adjoint.
        _accum(x, _box_sum(g / count, p))

    return _make(y, (x,), backward)


def _box_sum(a: np.ndarray, p: int) -> np.ndarray:
    """Sum over the in-bounds part of each centered (2p+1) x (2p+1) window of [B, C, H, W]."""
    rows = a.copy()
    for d in range(1, p + 1):
        rows[:, :, d:] += a[:, :, :-d]
        rows[:, :, :-d] += a[:, :, d:]
    out = rows.copy()
    for d in range(1, p + 1):
        out[:, :, :, d:] += rows[:, :, :, :-d]
        out[:, :, :, :-d] += rows[:, :, :, d:]
    return out


def _valid_count(H: int, W: int, k: int, dtype) -> np.ndarray:
    """Per-position count of in-bounds cells under a centered k x k window."""
    p = k // 2

    def axis_count(n: int) -> np.ndarray:
        i = np.arange(n)
        return np.minimum(i + p, n - 1) - np.maximum(i - p, 0) + 1

    return np.outer(axis_count(H), axis_count(W)).astype(dtype)
