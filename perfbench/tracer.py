"""Per-layer spans taken from outside the library.

``Tracer.install`` replaces the public functions and methods of the
``metaformer`` modules with timing wrappers; ``Tracer.remove`` puts every
original back. Nothing under ``src/`` is edited: the wrappers are swapped
into the module globals, the ``ACTIVATIONS`` table and the class attributes
through which the library and the benchmark reach them.

Each wrapper records a span (name, duration, time of its child spans by
name) on a stack of open frames, so a layer's self time is its duration
minus the children it names. Spans are kept in memory and folded into one
row of totals per timed operation (a training step or a request) when the
operation ends; spans outside an operation (build, load, save) are kept as
set-up rows.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# Tensor ops whose forward time and call count are reported. The operators
# (``a + b``, ``x.mean()``) reach these through the globals of tensor.py.
OPS = (
    "conv2d", "avg_pool2d_excl", "gelu", "matmul", "add", "sub", "mul", "div",
    "tensor_mean", "tensor_sum", "sqrt", "reshape", "swapaxes", "narrow",
    "softmax_lastdim", "log_softmax_lastdim",
)


def _conv_macs(args, out) -> float:
    _, cin_g, kh, kw = args[1].shape
    return float(out.data.size * cin_g * kh * kw)


def _matmul_macs(args, out) -> float:
    return float(out.data.size * args[0].shape[-1])


def _io_bytes(args, out) -> float:
    return float(args[0].data.nbytes + out.data.nbytes)


# Computed from shapes, not read from hardware counters.
_WORK = {"conv2d": _conv_macs, "matmul": _matmul_macs,
         "avg_pool2d_excl": _io_bytes, "gelu": _io_bytes}


class Tracer:
    """Swaps timing wrappers into the library and folds their spans into rows."""

    def __init__(self, mf):
        self.mf = mf
        self._patches: List[tuple] = []  # (owner, key, original, is_dict)
        self._stack: List[dict] = []  # open spans: {child span name: seconds}
        self._row: Optional[Dict[str, float]] = None
        self.rows: List[Dict[str, float]] = []
        self.setup_spans: List[tuple] = []  # (name, seconds, {child name: seconds})
        self.stage = 0

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        mf = self.mf
        tensor = mf.tensor
        for op in OPS:
            self._swap_function(getattr(tensor, op), self._op_wrapper(op, getattr(tensor, op)))
        self._swap_function(tensor._make, self._node_counter(tensor._make))
        for fn, name in (
            (mf.model.build, "model.build"),
            (mf.init.trunc_normal, "init.trunc_normal"),
            (mf.checkpoint.load, "checkpoint.load"),
            (mf.checkpoint.save, "checkpoint.save"),
            (mf.train.synth_batch, "train.data"),
            (mf.train.label_smoothing_ce, "train.loss"),
        ):
            self._swap_function(fn, self._span_wrapper(name, fn))
        for cls, attr, name in (
            (tensor.Tensor, "backward", "tensor.backward"),
            (mf.model.Model, "forward", "model.forward"),
            (mf.model.PatchEmbed, "__call__", "model.embed"),
            (mf.block.MetaFormerBlock, "__call__", "block"),
            (mf.block.ChannelMlp, "__call__", "block.mlp"),
            (mf.norms.ModifiedLayerNorm, "__call__", "norms.mln"),
            (mf.mixers.PoolingMixer, "__call__", "mixers.pooling"),
            (mf.train.AdamW, "step", "train.optimizer"),
            (mf.train.AdamW, "zero_grad", "train.optimizer"),
        ):
            orig = cls.__dict__[attr]
            wrapper = self._span_wrapper(name, orig)
            # Model.__call__ is the same function object as Model.forward.
            for key, value in list(vars(cls).items()):
                if value is orig:
                    self._patch(cls, key, orig, wrapper, is_dict=False)

    def remove(self) -> None:
        for owner, key, orig, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = orig
            else:
                setattr(owner, key, orig)

    def leftover_wrappers(self) -> List[str]:
        """Patched places that do not hold their original object (empty after ``remove``)."""
        return [f"{getattr(owner, '__name__', 'table')}.{key}"
                for owner, key, orig, is_dict in self._patches
                if (owner[key] if is_dict else vars(owner)[key]) is not orig]

    def _patch(self, owner, key, orig, wrapper, is_dict: bool) -> None:
        if is_dict:
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig, is_dict))

    def _swap_function(self, orig: Callable, wrapper: Callable) -> None:
        """Replace ``orig`` wherever a metaformer module or module-level table holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "metaformer" and not mod_name.startswith("metaformer."):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is orig:
                    self._patch(mod, key, orig, wrapper, is_dict=False)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is orig:
                            self._patch(value, k, orig, wrapper, is_dict=True)

    # ------------------------------------------------------------ wrappers
    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if name == "model.forward":
                self.stage = 0
            elif name == "model.embed":
                self.stage += 1
            children = defaultdict(float)
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][name] += dur
                self._record(name, dur, children)

        wrapper.__wrapped__ = fn
        return wrapper

    def _op_wrapper(self, op: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        work = _WORK.get(op)

        def wrapper(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            dur = clock() - start
            row = self._row
            if row is not None:
                row[f"tensor.{op}.calls"] += 1
                row[f"tensor.{op}.fwd_s"] += dur
                if work is not None:
                    row[f"tensor.{op}.work"] += work(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _node_counter(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out.requires_grad and self._row is not None:
                self._row["tensor.nodes"] += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, name: str, dur: float, children: Dict[str, float]) -> None:
        row = self._row
        if row is None:
            self.setup_spans.append((name, dur, dict(children)))
            return
        row[f"{name}.calls"] += 1
        row[f"{name}.s"] += dur
        if name == "block":
            row[f"model.stage{self.stage}.s"] += dur
            row["block.self_s"] += dur - sum(children.values())
        elif name == "model.embed":
            row[f"model.embed{self.stage}.s"] += dur
        elif name == "model.forward":
            row["model.head.s"] += dur - children["model.embed"] - children["block"]

    # ------------------------------------------------------------ operations
    def begin_op(self) -> None:
        self._row = defaultdict(float)

    def end_op(self) -> None:
        self.rows.append(self._row)
        self._row = None

    def median(self, key: str) -> float:
        """Median over timed operations of one row entry (0 where never recorded)."""
        return statistics.median(row.get(key, 0.0) for row in self.rows) if self.rows else 0.0

    def total(self, key: str) -> float:
        return sum(row.get(key, 0.0) for row in self.rows)

    def setup_median(self, name: str, child: Optional[str] = None) -> float:
        """Median duration of a set-up span, or of the named child inside it."""
        values = [children.get(child, 0.0) if child else dur
                  for span, dur, children in self.setup_spans if span == name]
        return statistics.median(values) if values else 0.0
