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
stride-1 unpadded ungrouped input is its own column matrix; a padded input's
zero-padded copy is made inside ``_im2col`` and dies there, and a backward
pads ``x`` again rather than keep it. GELU evaluates its normal CDF one
cache-sized block at a time and multiplies each block by x while it is in
cache, keeping a full-size CDF only for a backward. An f32 block's erf is a
rational approximation in f32, an f64 block's is scipy's, imported only when
first used. The activations can write over their input (``inplace=True``)
when it records no graph.

The MetaFormer frame records one node per step: ``affine_norm`` is a whole
normalization (moments, normalize, per-channel affine) and ``residual_add``
a whole residual branch (LayerScale, drop-path mask, residual add). Each
runs the same numpy operations, in the same order, as the chain of
elementary ops it replaces, forward and backward, so its results are
bit-identical to that chain's; it keeps only its output and the small
moments, and recomputes the centred input in its backward.
"""

from __future__ import annotations

import ctypes
import functools
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


def _narrow(arr: np.ndarray, target: np.dtype) -> np.ndarray:
    """``arr`` cast to the narrower float dtype ``target``; a finite value that would become infinite is refused.

    Infinities and NaNs keep their values, and values too small for ``target`` round to its subnormals or zero.
    """
    try:
        with np.errstate(over="raise", under="ignore"):
            return arr.astype(target)
    except FloatingPointError:
        with np.errstate(over="ignore", under="ignore"):
            first = arr[np.isinf(arr.astype(target)) & np.isfinite(arr)].flat[0]
        raise InvalidArgument(f"Tensor: {arr.dtype.name} value {float(first)!r} overflows {target.name} "
                              "to infinity") from None


# glibc mallopt parameters and the values ``_keep_freed_heap`` sets: the largest mmap
# threshold glibc allows on 64-bit, and the trim threshold its dynamic rule
# (twice the mmap threshold) would reach there.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))


@functools.cache
def _keep_freed_heap() -> None:
    """Once per process: keep the memory that one step or forward frees in the heap for the next one.

    By default glibc returns the freed top of the heap to the OS (trim) and
    serves large arrays by fresh mmaps, so each training step or served
    forward faults the memory of the last one back in. ``train.AdamW`` and
    ``checkpoint.load`` call this. Both thresholds are set, because setting
    one turns off glibc's dynamic adjustment of the other. Where libc has no
    ``mallopt`` (macOS, for one) nothing is done.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOC_SETTINGS:
        mallopt(param, value)


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
            target = _as_dtype(dtype)
            if arr.dtype.kind == "f" and arr.dtype.itemsize > target.itemsize:
                arr = _narrow(arr, target)
            else:
                arr = arr.astype(target, copy=False)
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


def _broadcasts(a: tuple, b: tuple) -> bool:
    if a == b:  # the common case, without the cost of np.broadcast_shapes
        return True
    try:
        np.broadcast_shapes(a, b)
    except ValueError:
        return False
    return True


def _operand(a: Tensor, b, op: str) -> Tensor:
    """``b`` of a binary elementwise op as a tensor of ``a``'s dtype whose shape broadcasts with ``a``'s."""
    b = _wrap(b, a.dtype)
    _check_same_dtype(a, b, op)
    if not _broadcasts(a.shape, b.shape):
        raise InvalidArgument(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")
    return b


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
    b = _operand(a, b, "add")
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b) -> Tensor:
    b = _operand(a, b, "sub")
    return _make(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b) -> Tensor:
    b = _operand(a, b, "mul")
    return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def div(a: Tensor, b) -> Tensor:
    b = _operand(a, b, "div")
    return _make(a.data / b.data, (a, b), lambda g: (g / b.data, -g * a.data / (b.data * b.data)))


def sqrt(a: Tensor) -> Tensor:
    root = np.sqrt(a.data)
    return _make(root, (a,), lambda g: (g * (0.5 / root),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise InvalidArgument(f"matmul: operands must be at least 2-D, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[-1] != b.shape[-2]:
        raise InvalidArgument(f"matmul: inner dimensions of {a.shape} and {b.shape} differ")
    if not _broadcasts(a.shape[:-2], b.shape[:-2]):
        raise InvalidArgument(f"matmul: batch dimensions of {a.shape} and {b.shape} do not broadcast")

    def backward(g):
        return np.matmul(g, np.swapaxes(b.data, -1, -2)), np.matmul(np.swapaxes(a.data, -1, -2), g)

    return _make(np.matmul(a.data, b.data), (a, b), backward)


# ------------------------------------------------------------------ shape ops

def reshape(a: Tensor, *shape) -> Tensor:
    """``a`` in ``shape``, given as integers or, as numpy takes it, as one tuple or list of them."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    if not all(map(_is_index, shape)):
        raise InvalidArgument(f"reshape: shape {shape!r} must be integers")
    old = a.shape
    try:
        data = a.data.reshape(shape)
    except ValueError:  # another element count, or more than one -1 or another negative entry
        raise InvalidArgument(f"reshape: cannot reshape {old} ({a.data.size} elements) to {shape}") from None
    return _make(data, (a,), lambda g: (g.reshape(old),))


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    if not all(_is_index(ax) and -a.ndim <= ax < a.ndim for ax in (ax1, ax2)):
        raise InvalidArgument(f"swapaxes: {ax1!r} and {ax2!r} must be integer axes of a {a.ndim}-D input")
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
    axes = _norm_axes(axis, a.ndim, "tensor_sum")
    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                 lambda g: (_expand_reduced(g, a.shape, axes, keepdims),))


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim, "tensor_mean")
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,),
                 lambda g: (_expand_reduced(g, a.shape, axes, keepdims) / count,))


def _norm_axes(axis, ndim: int, op: str) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    axes = axis if isinstance(axis, tuple) else (axis,)
    if not all(_is_index(ax) and -ndim <= ax < ndim for ax in axes):
        raise InvalidArgument(f"{op}: axis {axis!r} must be an integer axis, or a tuple of them, of a {ndim}-D input")
    axes = tuple(ax % ndim for ax in axes)
    if len(set(axes)) != len(axes):
        raise InvalidArgument(f"{op}: axis {axis!r} names an axis of a {ndim}-D input twice")
    return axes


def _expand_reduced(g: np.ndarray, shape: tuple, axes: tuple, keepdims: bool) -> np.ndarray:
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


# ------------------------------------------------------------------ activations

def _inplace_out(a: Tensor, inplace: bool, op: str) -> Optional[np.ndarray]:
    """The ``out`` of an activation: ``a``'s array when ``inplace``, else None.

    ``inplace=True`` writes the result over ``a``'s array, with the same
    values as a new one. Pass it only for an array made in the same call; it
    is refused on an input that records a graph, whose backward reads it.
    """
    if not inplace:
        return None
    if a.requires_grad:
        raise InvalidArgument(f"{op}: inplace=True on an input that records a graph")
    return a.data


def relu(a: Tensor, inplace: bool = False) -> Tensor:
    """max(x, 0); ``inplace`` as in ``_inplace_out``."""
    y = np.maximum(a.data, 0.0, out=_inplace_out(a, inplace, "relu"))
    return _make(y, (a,), lambda g: (g * (a.data > 0),))


def _horner(z: np.ndarray, coeffs: tuple, acc: np.ndarray) -> None:
    np.multiply(z, coeffs[0], out=acc)
    for c in coeffs[1:-1]:
        acc += c
        acc *= z
    acc += coeffs[-1]


def _erf_block(t: np.ndarray, z: np.ndarray, num: np.ndarray, den: np.ndarray) -> None:
    """``t`` = erf(``t``) in place for float32 ``t``; odd, and exact at 0 and +-inf.

    ``z``, ``num`` and ``den`` are scratch of at least ``t.size`` elements.
    Any size gives the same values; ``_gelu`` passes blocks of at most
    ``_ERF_BLOCK`` elements so that the ~20 passes of the rational run in
    cache rather than in memory.
    """
    n = t.size
    z, num, den = z[:n], num[:n], den[:n]
    np.clip(t, -_ERF_CLAMP, _ERF_CLAMP, out=t)
    np.multiply(t, t, out=z)
    _horner(z, _ERF_P, num)
    _horner(z, _ERF_Q, den)
    num *= t
    np.divide(num, den, out=t)


def _gelu(x: np.ndarray, keep_cdf: bool, out: Optional[np.ndarray] = None) -> tuple:
    """(x * cdf, cdf if ``keep_cdf`` else None), cdf = 0.5 * (1 + erf(x / sqrt(2))) in x's dtype.

    One loop over blocks of ``_ERF_BLOCK`` elements: each block's CDF is
    multiplied by x while it is still in cache. It goes into a full-size
    array only when ``keep_cdf``; otherwise one block is reused. A float32
    block's erf is the rational of ``_erf_block``, a float64 block's scipy's.
    ``out`` is None or ``x`` itself, whose every block is then overwritten
    with its product after its CDF has been taken from it.
    """
    flat = x.reshape(-1)
    size = min(_ERF_BLOCK, flat.size)
    y = np.empty_like(flat) if out is None else out.reshape(-1)
    cdf = np.empty_like(flat) if keep_cdf else None
    block = None if keep_cdf else np.empty(size, x.dtype)
    if x.dtype == np.float32:
        scratch = tuple(np.empty(size, np.float32) for _ in range(3))
        erf = lambda t: _erf_block(t, *scratch)
    else:
        from scipy.special import erf as scipy_erf  # on first use, so importing this module does not load scipy

        erf = lambda t: scipy_erf(t, out=t)
    for start in range(0, flat.size, _ERF_BLOCK):
        src = flat[start : start + _ERF_BLOCK]
        t = cdf[start : start + _ERF_BLOCK] if keep_cdf else block[: src.size]
        np.multiply(src, _INV_SQRT2, out=t)
        erf(t)
        t += 1.0
        t *= 0.5
        np.multiply(src, t, out=y[start : start + _ERF_BLOCK])
    return y.reshape(x.shape), None if cdf is None else cdf.reshape(x.shape)


def gelu(a: Tensor, inplace: bool = False) -> Tensor:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2))).

    The normal CDF is kept for the backward only when ``a`` records a graph.
    ``inplace=True`` writes each block's product over its block of ``a``
    after taking that block's CDF (see ``_inplace_out``).
    """
    x = a.data
    y, cdf = _gelu(x, a.requires_grad, _inplace_out(a, inplace, "gelu"))

    def backward(g):
        d = x * x
        d *= -0.5
        np.exp(d, out=d)
        d *= _INV_SQRT2PI
        d *= x
        d += cdf
        d *= g
        return (d,)

    return _make(y, (a,), backward)


def silu(a: Tensor, inplace: bool = False) -> Tensor:
    """x * sigmoid(x); ``inplace`` as in ``_inplace_out``, writing the product over x after sigmoid(x) is made."""
    x = a.data
    sig = 1.0 / (1.0 + np.exp(-x))
    y = np.multiply(x, sig, out=_inplace_out(a, inplace, "silu"))
    return _make(y, (a,), lambda g: (g * (sig * (1.0 + x * (1.0 - sig))),))


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
    if not all(_is_index(ax) and -x.ndim <= ax < x.ndim for ax in (axes if isinstance(axes, tuple) else (axes,))):
        raise InvalidArgument(f"affine_norm: axes {axes!r} out of range for a {x.ndim}-D input")
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
        m_shape = np.shape(mask)
        if len(m_shape) > h.ndim or any(m not in (1, n) for m, n in zip(m_shape[::-1], h.shape[::-1])):
            raise InvalidArgument(f"residual_add: mask shape {m_shape} does not broadcast to h shape {h.shape}")
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

    w_g = weight.data.reshape(groups, cout // groups, cin_g * kh * kw)
    # 1x1, stride 1, unpadded, ungrouped: x is its own column matrix, so W @ x[b] per sample.
    # Kept beside im2col: without it train-tiny ran slower and infer-s12-b8 peaked 2.9 MiB higher.
    direct = (kh, kw, sh, sw, ph, pw, groups) == (1, 1, 1, 1, 0, 0, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)
    if direct:
        y = np.matmul(w_g[0], x.data.reshape(B, cin, H * W))
    else:
        y = np.matmul(w_g, _im2col(x.data, kh, kw, sh, sw, ph, pw, groups))
        y = y.reshape(cout, B, hout, wout).transpose(1, 0, 2, 3)
    y = np.ascontiguousarray(y.reshape(B, cout, hout, wout))
    if bias is not None:
        y += bias.data.reshape(1, cout, 1, 1)

    def backward(g):
        g_g = g.transpose(1, 0, 2, 3).reshape(groups, cout // groups, B * hout * wout)
        g_x = g_w = None
        if weight.requires_grad:  # columns rebuilt from x: holding the forward's would grow the graph
            cols = _im2col(x.data, kh, kw, sh, sw, ph, pw, groups)
            g_w = np.matmul(g_g, cols.swapaxes(1, 2)).reshape(weight.shape)
        if x.requires_grad and direct:
            g_x = np.matmul(w_g[0].T, g.reshape(B, cout, H * W)).reshape(x.shape)
        elif x.requires_grad:
            gcols = np.matmul(w_g.swapaxes(1, 2), g_g).reshape(cin, kh, kw, B, hout, wout)
            gp = np.zeros((B, cin, H + 2 * ph, W + 2 * pw), x.dtype)
            for i in range(kh):
                for j in range(kw):
                    gp[:, :, i : i + sh * hout : sh, j : j + sw * wout : sw] += gcols[:, i, j].transpose(1, 0, 2, 3)
            g_x = gp[:, :, ph : ph + H, pw : pw + W]
        return (g_x, g_w) if bias is None else (g_x, g_w, g.sum(axis=(0, 2, 3)))

    return _make(y, parents, backward)


def _im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int, ph: int, pw: int, groups: int) -> np.ndarray:
    """Input [B, Cin, H, W], zero-padded by (ph, pw), as K-major columns [groups, Cin/groups*Kh*Kw, B*Hout*Wout].

    The padded copy is zeros plus one slice copy: ``np.pad``'s values
    without its per-call overhead. It is made here so that it dies when this
    call returns, before the caller's GEMM output exists, unless the columns
    are a view of it (a 1x1 kernel on one sample).
    """
    if ph or pw:
        B, cin, H, W = x.shape
        xp = np.zeros((B, cin, H + 2 * ph, W + 2 * pw), x.dtype)
        xp[:, :, ph : ph + H, pw : pw + W] = x
        x = xp
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
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
    return _line_sum(_line_sum(a, p, 2), p, 3)


def _line_sum(a: np.ndarray, p: int, axis: int) -> np.ndarray:
    """A new array: each cell of ``a`` plus its in-bounds neighbours up to ``p`` away along ``axis``.

    The first shift adds into the new array; each later shift d then adds the
    cells d before and the cells d after, in place.
    """
    if p == 0:
        return a.copy()

    def cut(lo=None, hi=None) -> tuple:
        return (slice(None),) * axis + (slice(lo, hi),)

    out = np.empty(a.shape, a.dtype)
    out[cut(hi=1)] = a[cut(hi=1)]
    np.add(a[cut(1)], a[cut(hi=-1)], out=out[cut(1)])
    out[cut(hi=-1)] += a[cut(1)]
    for d in range(2, p + 1):
        out[cut(d)] += a[cut(hi=-d)]
        out[cut(hi=-d)] += a[cut(d)]
    return out


def _valid_count(H: int, W: int, k: int, dtype) -> np.ndarray:
    """Per-position count of in-bounds cells under a centered k x k window."""
    p = k // 2

    def axis_count(n: int) -> np.ndarray:
        i = np.arange(n)
        return np.minimum(i + p, n - 1) - np.maximum(i - p, 0) + 1

    return np.outer(axis_count(H), axis_count(W)).astype(dtype)
