"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (f32 or f64, channel-first [B, C, H, W] for images).
Every operation records its parents and a backward closure that maps the
gradient of its output to one vector-Jacobian product per parent, in the
order of the parents. ``Tensor.backward`` walks the recorded graph once, in
reverse topological order, and is the one place that adds those products
into the parents' gradients: it sums a product over the axes its parent was
broadcast along, casts it to the parent's dtype and skips parents that
record no graph. Every tensor's first product is copied into its ``grad``
buffer and later ones are added into it in place, so a parent listed twice
gets its two products added in list order.
The walk consumes the graph: each node drops its closure and its parents
before its closure runs, so the activations a closure holds are freed once
its products have reached the parents, and a second ``backward`` that
reaches a spent node raises. Leaves are never spent.

Kernel choices: k x k pooling is a separable box sum (k-1 row-shifted adds,
then k-1 column-shifted adds); conv2d is im2col into K-major columns
[groups, Cin/groups*Kh*Kw, B*Hout*Wout] plus one GEMM per group, where a 1x1
stride-1 unpadded ungrouped input is its own column matrix; f32 GELU
evaluates its normal CDF, erf included, as a rational approximation in f32,
while f64 GELU keeps scipy's erf, imported only when first used.

The MetaFormer frame records one node per step: ``affine_norm`` is a whole
normalization (moments, normalize, per-channel affine) and ``residual_add``
a whole residual branch (LayerScale, drop-path mask, residual add). Each
runs the same numpy operations, in the same order, as the chain of
elementary ops it replaces, forward and backward, so its results are
bit-identical to that chain's; it keeps only its output and the small
moments, and recomputes the centred input in its backward.
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


def _as_dtype(dtype: str) -> np.dtype:
    if dtype not in DTYPES:
        raise InvalidArgument(f"unsupported dtype {dtype!r}, expected 'f32' or 'f64'")
    return np.dtype(DTYPES[dtype])


class Tensor:
    """N-dimensional array participating in the autodiff graph.

    ``requires_grad`` means "record a graph": it marks leaves that accumulate
    gradients, and results of operations require grad iff any input does.
    ``trainable`` is fixed when the leaf is constructed, from its initial
    ``requires_grad``, and says whether a layer's leaf is a parameter or a
    frozen tensor; results of operations are never trainable. Turning
    ``requires_grad`` off on a parameter stops recording without changing
    what it is. ``grad`` has the shape/dtype of ``data``; only leaves keep theirs after
    ``backward``. It is one array from the first product that lands to the next ``zero_grad``:
    the first product is copied into a new array or, for a parameter packed by ``train.AdamW``,
    its arena slice, and later products and ``backward`` calls add into it in place, so copy it
    to keep it. A held ``grad`` must pass ``_check_grad``; ``backward`` and ``AdamW.step`` check
    every one before they write, so a call they refuse changes nothing.
    """

    # _grad_out stays: copying p.grad into the arena in AdamW.step instead raised train-tiny peak RSS 0.5-1 MiB.
    __slots__ = ("data", "requires_grad", "trainable", "grad", "_parents", "_backward_fn", "_grad_out")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if arr.dtype.kind not in "biuf":
            raise InvalidArgument(f"Tensor: data must be real numbers, got {arr.dtype.name} data")
        if dtype is not None:
            arr = arr.astype(_as_dtype(dtype), copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = self.trainable = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: Optional[tuple] = ()  # None once a backward has consumed this node
        self._backward_fn = None
        self._grad_out: Optional[np.ndarray] = None  # this leaf's slice of an optimizer's gradient arena

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
        """Accumulate gradients of this scalar into all requires_grad leaves.

        Consumes the graph, as PyTorch's default ``retain_graph=False`` does:
        each intermediate node drops its closure, its parents and its
        gradient as the walk reaches it, so its activations go once its
        gradient has been passed on. A later ``backward`` through a spent
        node raises ``InvalidArgument`` before any gradient is added;
        run the forward again instead. A leaf used as its own loss is not
        spent, and accumulates on each call.
        """
        if self.data.size != 1:
            raise InvalidArgument(f"backward: loss must be scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise InvalidArgument(
                "backward: the loss records no graph (no input requires grad); "
                "call requires_grad_(True) on the model to train it"
            )
        order = _toposort(self)
        _accum(self, np.ones_like(self.data))
        while order:
            node = order.pop()
            fn, parents, g = node._backward_fn, node._parents, node.grad
            if fn is None:
                continue  # a leaf, or a result that records no graph
            node._backward_fn, node._parents, node.grad = None, None, None
            if g is not None:
                for parent, pg in zip(parents, fn(g)):
                    _accum(parent, pg)

    # ----------------------------------------------------------- operators
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

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
        if node._parents is None:
            raise InvalidArgument(
                f"backward: the graph through a node of shape {node.shape} was consumed by an earlier "
                "backward(); run the forward again"
            )
        if node.requires_grad:
            _check_grad(node, "backward")
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _check_grad(t: Tensor, where: str) -> None:
    """The one rule for a held or assigned ``grad``: none, or a writable numpy array of ``t``'s shape and dtype."""
    if (g := t.grad) is None:
        return
    if not isinstance(g, np.ndarray):
        raise InvalidArgument(f"{where}: held grad is a {type(g).__name__}, not a numpy array")
    if g.shape != t.data.shape or g.dtype != t.data.dtype:
        raise InvalidArgument(f"{where}: held grad {g.dtype.name} {g.shape} does not match the "
                              f"tensor's {t.data.dtype.name} {t.data.shape}")
    if not g.flags.writeable:
        raise InvalidArgument(f"{where}: held grad {g.dtype.name} {g.shape} is read-only")


def _accum(t: Tensor, g: Optional[np.ndarray]) -> None:
    if g is None or not t.requires_grad:
        return
    if g.shape != t.data.shape:
        g = _unbroadcast(g, t.data.shape)
        if g.shape != t.data.shape:  # copyto and add would broadcast it silently
            raise InvalidArgument(f"backward: gradient shape {g.shape} != parameter shape {t.data.shape}")
    if t.grad is None:  # a copy, not an add into zeros: 0.0 + (-0.0) would lose the sign of a zero gradient
        t.grad = np.empty_like(g, dtype=t.data.dtype) if t._grad_out is None else t._grad_out
        np.copyto(t.grad, g, casting="unsafe")
    else:
        np.add(t.grad, g, out=t.grad)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Graph node for ``data``; ``backward(g)`` runs only if a parent requires grad.

    ``backward(g)`` returns one gradient per entry of ``parents``, in order,
    or ``None`` for an entry that gets none; a gradient may have the
    broadcast shape of the op rather than its parent's. A tensor may be
    listed twice, and its two gradients are added in list order.
    """
    node = Tensor.__new__(Tensor)
    node.data = data
    node.grad = None
    needs = any(p.requires_grad for p in parents)
    node.requires_grad = needs
    node.trainable = False
    node._grad_out = None
    node._parents = tuple(parents) if needs else ()
    node._backward_fn = backward if needs else None
    return node


def _wrap(x: Union[Tensor, float, int, np.ndarray], dtype: np.dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _is_index(value) -> bool:
    """A geometry argument of an op: a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    _check_same_dtype(a, b, "sub")
    return _make(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    _check_same_dtype(a, b, "mul")
    return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def div(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    _check_same_dtype(a, b, "div")
    return _make(a.data / b.data, (a, b), lambda g: (g / b.data, -g * a.data / (b.data * b.data)))


def sqrt(a: Tensor) -> Tensor:
    root = np.sqrt(a.data)
    return _make(root, (a,), lambda g: (g * (0.5 / root),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise InvalidArgument(f"matmul: operands must be at least 2-D, got {a.ndim}-D and {b.ndim}-D")

    def backward(g):
        return np.matmul(g, np.swapaxes(b.data, -1, -2)), np.matmul(np.swapaxes(a.data, -1, -2), g)

    return _make(np.matmul(a.data, b.data), (a, b), backward)


# ------------------------------------------------------------------ shape ops

def reshape(a: Tensor, *shape) -> Tensor:
    old = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    return _make(np.swapaxes(a.data, ax1, ax2).copy(), (a,), lambda g: (np.swapaxes(g, ax1, ax2),))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` elements along ``axis``."""
    if not all(map(_is_index, (axis, start, length))):
        raise InvalidArgument(f"narrow: axis, start and length must be integers, got {axis!r}, {start!r}, {length!r}")
    if not -a.ndim <= axis < a.ndim:
        raise InvalidArgument(f"narrow: axis {axis} out of range for a {a.ndim}-D input")
    n = a.shape[axis]
    if start < 0 or length < 1 or start + length > n:
        raise InvalidArgument(f"narrow: slice [{start}, {start + length}) out of range for axis {axis} of size {n}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def backward(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _make(a.data[index].copy(), (a,), backward)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                 lambda g: (_expand_reduced(g, a.shape, axes, keepdims),))


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,),
                 lambda g: (_expand_reduced(g, a.shape, axes, keepdims) / count,))


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
    return _make(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0),))


def _horner(z: np.ndarray, coeffs: tuple, acc: np.ndarray) -> None:
    np.multiply(z, coeffs[0], out=acc)
    for c in coeffs[1:-1]:
        acc += c
        acc *= z
    acc += coeffs[-1]


def _erf_f32(x: np.ndarray, normal_cdf: bool = False) -> np.ndarray:
    """erf of a float32 array in float32; odd, and exact at 0 and +-inf.

    With ``normal_cdf`` the result is the normal CDF 0.5 * (1 + erf(x / sqrt(2)))
    instead, its scale and shift applied in the same blocks. Evaluated in place
    over blocks of ``_ERF_BLOCK`` elements, so that the ~20 passes of the
    rational run in cache rather than in memory.
    """
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    z, num, den = (np.empty(min(_ERF_BLOCK, flat.size), np.float32) for _ in range(3))
    for start in range(0, flat.size, _ERF_BLOCK):
        t = out[start : start + _ERF_BLOCK]
        n = t.size
        src = flat[start : start + _ERF_BLOCK]
        if normal_cdf:
            src = np.multiply(src, _INV_SQRT2, out=t)
        np.clip(src, -_ERF_CLAMP, _ERF_CLAMP, out=t)
        np.multiply(t, t, out=z[:n])
        _horner(z[:n], _ERF_P, num[:n])
        _horner(z[:n], _ERF_Q, den[:n])
        num[:n] *= t
        np.divide(num[:n], den[:n], out=t)
        if normal_cdf:
            t += 1.0
            t *= 0.5
    return out.reshape(x.shape)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """0.5 * (1 + erf(x / sqrt(2)))."""
    if x.dtype == np.float32:
        return _erf_f32(x, normal_cdf=True)
    from scipy.special import erf  # f64 only, so importing this module does not load scipy

    cdf = erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu(a: Tensor) -> Tensor:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = a.data
    cdf = _normal_cdf(x)

    def backward(g):
        d = x * x
        d *= -0.5
        np.exp(d, out=d)
        d *= _INV_SQRT2PI
        d *= x
        d += cdf
        d *= g
        return (d,)

    return _make(x * cdf, (a,), backward)


def silu(a: Tensor) -> Tensor:
    x = a.data
    sig = 1.0 / (1.0 + np.exp(-x))
    return _make(x * sig, (a,), lambda g: (g * (sig * (1.0 + x * (1.0 - sig))),))


ACTIVATIONS = {"gelu": gelu, "relu": relu, "silu": silu}


def softmax_lastdim(a: Tensor) -> Tensor:
    """Row-stochastic softmax over the last axis, stabilized by max-subtraction."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _make(y, (a,), backward)


def log_softmax_lastdim(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    soft = np.exp(shifted - lse)
    return _make(shifted - lse, (a,), lambda g: (g - soft * g.sum(axis=-1, keepdims=True),))


# ------------------------------------------------------------------ MetaFormer frame

def _channel_shape(channels: int, ndim: int) -> tuple:
    return (1, channels) + (1,) * (ndim - 2)


def affine_norm(x: Tensor, gamma: Tensor, beta: Tensor, axes, eps: float, moments=None) -> tuple:
    """(gamma * (x - mu) / sqrt(var + eps) + beta, mu, var) as one node.

    gamma and beta are per channel (axis 1); mu and the biased variance var
    are taken over ``axes`` with kept dims. ``moments=(mu, var)`` supplies
    fixed moments instead (BatchNorm eval), which the gradient treats as
    constants. Forward and backward run the numpy operations of the chain
    mean, sub, mul, mean, add, sqrt, div, mul, add in that chain's order.
    The node's parents are (x, gamma, beta, x) with batch moments, x's
    second entry taking the term through the mean after the one through
    the centring, as the chain adds them; with fixed moments they are
    (x, gamma, beta).
    """
    _check_same_dtype(x, gamma, "affine_norm")
    _check_same_dtype(x, beta, "affine_norm")
    if x.ndim < 2 or gamma.shape != (x.shape[1],) or beta.shape != gamma.shape:
        raise InvalidArgument(f"affine_norm: gamma {gamma.shape} and beta {beta.shape} must be (C,) "
                              f"for x of shape {x.shape}")
    xd = x.data
    affine = _channel_shape(gamma.shape[0], xd.ndim)
    g_r, b_r = gamma.data.reshape(affine), beta.data.reshape(affine)
    if moments is None:
        mu = xd.mean(axis=axes, keepdims=True)
        d = xd - mu
        var = (d * d).mean(axis=axes, keepdims=True)
    else:
        mu, var = (m.copy() for m in moments)  # the backward must not see later buffer updates
        d = xd - mu
    root = np.sqrt(var + np.asarray(eps, xd.dtype))
    d /= root
    d *= g_r
    d += b_r
    count = xd.size // mu.size  # elements per moment
    parents = (x, gamma, beta) if moments is not None else (x, gamma, beta, x)

    def backward(g):
        centred = xd - mu
        g_gamma = _unbroadcast(g * (centred / root), affine).reshape(gamma.shape)
        g_beta = _unbroadcast(g, affine).reshape(beta.shape)
        g_centred = g_mean = None
        if x.requires_grad:
            g_xhat = g * g_r
            g_centred = g_xhat / root
            if moments is None:
                g_root = -g_xhat
                g_root *= centred
                g_root /= root * root
                g_var = _unbroadcast(g_root, root.shape) * (0.5 / root)
                g_sq = np.broadcast_to(g_var, xd.shape) / count
                g_sq *= centred
                g_centred += g_sq  # d feeds d * d twice
                g_centred += g_sq
                g_mean = np.broadcast_to(_unbroadcast(-g_centred, mu.shape), xd.shape) / count
        return (g_centred, g_gamma, g_beta, g_mean)[: len(parents)]

    return _make(d, parents, backward), mu, var


def residual_add(x: Optional[Tensor], h: Tensor, scale: Optional[Tensor] = None,
                 mask: Optional[np.ndarray] = None) -> Tensor:
    """x + (h * scale) * mask as one node with parents (x, h, scale), less the ``None`` ones; x has h's shape.

    ``scale`` is per channel (axis 1, LayerScale) and ``mask`` a constant
    array broadcast against h (drop path); a ``None`` term is left out, and
    with all three ``None`` the result is ``h`` itself. Forward and backward
    run the numpy operations of the chain mul, mul, add in that chain's order.
    """
    if x is None and scale is None and mask is None:
        return h
    if x is not None:
        _check_same_dtype(x, h, "residual_add")
        if x.shape != h.shape:
            raise InvalidArgument(f"residual_add: x shape {x.shape} does not match h shape {h.shape}")
    out = h.data
    if scale is not None:
        _check_same_dtype(h, scale, "residual_add")
        if h.ndim < 2 or scale.shape != (h.shape[1],):
            raise InvalidArgument(f"residual_add: scale shape {scale.shape} is not (C,) for h of shape {h.shape}")
        s_r = scale.data.reshape(_channel_shape(scale.shape[0], h.ndim))
        out = out * s_r
    if mask is not None:
        out = np.multiply(out, mask, out=None if out is h.data else out)
    if x is not None:
        out = np.add(x.data, out, out=None if out is h.data else out)

    def backward(g):
        g_x = () if x is None else (g,)
        if mask is not None:
            g = g * mask
        if scale is None:
            return g_x + (g,)
        return g_x + (g * s_r, _unbroadcast(g * h.data, s_r.shape).reshape(scale.shape))

    return _make(out, tuple(t for t in (x, h, scale) if t is not None), backward)


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
    for name, pair in (("stride", stride), ("padding", padding)):
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(map(_is_index, pair))):
            raise InvalidArgument(f"conv2d: {name} must be a pair of integers, got {pair!r}")
    if not _is_index(groups):
        raise InvalidArgument(f"conv2d: groups must be an integer, got {groups!r}")
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
    if bias is not None and bias.dtype != x.dtype:
        raise InvalidArgument(f"conv2d: bias dtype {bias.dtype.name} does not match input dtype {x.dtype.name}")
    sh, sw = stride
    ph, pw = padding
    if sh < 1 or sw < 1:
        raise InvalidArgument(f"conv2d: stride must be >= 1, got ({sh}, {sw})")
    if ph < 0 or pw < 0:
        raise InvalidArgument(f"conv2d: padding must be >= 0, got ({ph}, {pw})")
    hout = conv_out_size(H, kh, sh, ph)
    wout = conv_out_size(W, kw, sw, pw)
    if hout < 1 or wout < 1:
        raise InvalidArgument(
            f"conv2d: output spatial size ({hout}, {wout}) is degenerate for input ({H}, {W}), "
            f"kernel ({kh}, {kw}), stride ({sh}, {sw}), padding ({ph}, {pw})"
        )

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x.data
    w_g = weight.data.reshape(groups, cout // groups, cin_g * kh * kw)
    # 1x1, stride 1, unpadded, ungrouped: x is its own column matrix, so W @ x[b] per sample.
    # Kept beside im2col: without it train-tiny ran slower and infer-s12-b8 peaked 2.9 MiB higher.
    direct = (kh, kw, sh, sw, ph, pw, groups) == (1, 1, 1, 1, 0, 0, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)
    if direct:
        y = np.matmul(w_g[0], x.data.reshape(B, cin, H * W))
    else:
        y = np.matmul(w_g, _im2col(xp, kh, kw, sh, sw, groups)).reshape(cout, B, hout, wout).transpose(1, 0, 2, 3)
    y = np.ascontiguousarray(y.reshape(B, cout, hout, wout))
    if bias is not None:
        y += bias.data.reshape(1, cout, 1, 1)

    def backward(g):
        g_g = g.transpose(1, 0, 2, 3).reshape(groups, cout // groups, B * hout * wout)
        g_x = g_w = None
        if weight.requires_grad:  # columns rebuilt from xp: holding the forward's copy would grow the graph
            g_w = np.matmul(g_g, _im2col(xp, kh, kw, sh, sw, groups).swapaxes(1, 2)).reshape(weight.shape)
        if x.requires_grad and direct:
            g_x = np.matmul(w_g[0].T, g.reshape(B, cout, H * W)).reshape(x.shape)
        elif x.requires_grad:
            gcols = np.matmul(w_g.swapaxes(1, 2), g_g).reshape(cin, kh, kw, B, hout, wout)
            gp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    gp[:, :, i : i + sh * hout : sh, j : j + sw * wout : sw] += gcols[:, i, j].transpose(1, 0, 2, 3)
            g_x = gp[:, :, ph : ph + H, pw : pw + W]
        return (g_x, g_w) if bias is None else (g_x, g_w, g.sum(axis=(0, 2, 3)))

    return _make(y, parents, backward)


def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int, groups: int) -> np.ndarray:
    """Padded input [B, Cin, Hp, Wp] as K-major columns [groups, Cin/groups*Kh*Kw, B*Hout*Wout]."""
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    B, cin, hout, wout = win.shape[:4]
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(groups, cin // groups * kh * kw, B * hout * wout)


def avg_pool2d_excl(x: Tensor, k: int) -> Tensor:
    """Shape-preserving k x k average pooling, stride 1, padding k//2.

    Border windows divide by the number of in-bounds cells rather than k*k,
    so a constant input stays constant all the way to the edges.
    """
    if x.ndim != 4:
        raise InvalidArgument(f"avg_pool2d_excl: input must be 4-D [B,C,H,W], got shape {x.shape}")
    if not _is_index(k) or k < 1 or k % 2 == 0:
        raise InvalidArgument(f"avg_pool2d_excl: pool size must be a positive odd integer, got {k!r}")
    _, _, H, W = x.shape
    p = k // 2
    count = _valid_count(H, W, k, x.dtype)
    y = _box_sum(x.data, p)
    y /= count

    def backward(g):
        # The zero-padded box sum is self-adjoint.
        return (_box_sum(g / count, p),)

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
