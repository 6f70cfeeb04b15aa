"""Command-line surface: model description, gradient checking, toy training, inference.

Exit codes: 0 success, 1 validation error (flags, config, shape/resolution
mismatches), 2 runtime error (I/O failures, corrupt files, a non-finite
training loss, checkpoint or inference output, an allocation that fails).
Each refusal is one ``error:`` line. Results go to stdout, diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from .analysis import cost_report, count_params
from .checkpoint import (
    CheckpointCorruptionError,
    CheckpointFormatError,
    load,
    load_tensors,
    save,
    tensor_shapes,
)
from .gradcheck import check_parameter_group
from .model import VARIANTS, ConfigError, ModelConfig, build, stage_grids
from .tensor import InvalidArgument, Tensor, softmax_lastdim
from .train import train_loop

GRADCHECK_PARAM_LIMIT = 200_000
# numpy's ValueError for an array of more bytes or elements than intp holds, where a smaller one raises MemoryError.
_NUMPY_SIZE_REFUSALS = ("array is too big", "Maximum allowed dimension exceeded")


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on bad flags instead of the default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config(config_path: Optional[str], variant: Optional[str]) -> ModelConfig:
    if variant is not None:
        return ModelConfig.variant_named(variant)
    try:
        with open(config_path) as f:
            obj = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {config_path!r}: {e}") from e
    except (json.JSONDecodeError, UnicodeDecodeError) as e:  # a binary file is not text, so not JSON either
        raise ConfigError(f"config {config_path!r} is not valid JSON: {e}") from e
    return ModelConfig.from_json_dict(obj)


def _fmt_m(count: int) -> str:
    return f"{count / 1e6:.1f}M"


def _fmt_g(count: int) -> str:
    return f"{count / 1e9:.1f}G"


def cmd_describe(args) -> int:
    config = _load_config(args.config, args.variant)
    report = cost_report(config, args.input_size)
    grids = stage_grids(report.input_size)
    if args.format == "json":
        out = report.to_json_dict()
        out["stage_grids"] = grids
        print(json.dumps(out, indent=2))
        return 0
    name = config.variant or "custom"
    print(f"model {name} @ {report.input_size}x{report.input_size}")
    print(f"{'stage':<8}{'grid':<10}{'params':>14}{'macs':>16}")
    for s, grid in zip(report.per_stage[:4], grids):
        print(f"{s.name:<8}{f'{grid}x{grid}':<10}{s.params:>14,}{s.macs:>16,}")
    head = report.per_stage[4]
    print(f"{'head':<8}{'':<10}{head.params:>14,}{head.macs:>16,}")
    print(f"params (reference-table convention, LayerScale excluded): {_fmt_m(report.table_params)}")
    print(f"params (all optimizer-visible):                           {_fmt_m(report.trainable_params)}")
    if report.frozen_params:
        print(f"params (frozen):                                          {_fmt_m(report.frozen_params)}")
    print(f"macs (fvcore-style, pooling counted):                     {_fmt_g(report.macs)}")
    print(f"macs (pooling excluded):                                  {_fmt_g(report.macs_excl_pool)}")
    return 0


def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise InvalidArgument(f"--tolerance must be finite and > 0, got {args.tolerance}")
    config = _load_config(args.config, None)
    total = sum(count_params(config))
    if total > GRADCHECK_PARAM_LIMIT:
        raise InvalidArgument(
            f"gradcheck refuses configs over {GRADCHECK_PARAM_LIMIT:,} parameters (this one has {total:,}); "
            "finite differences in f64 would be impractically slow. Shrink dims/depths for checking."
        )
    model = build(config, seed=args.seed, dtype="f64")
    rng = np.random.default_rng(args.seed)
    size = config.input_size
    x = Tensor(rng.standard_normal((2, config.in_channels, size, size)), dtype="f64")
    proj = Tensor(rng.standard_normal((2, config.num_classes)), dtype="f64")

    def loss():
        return (model.forward(x, mode="eval") * proj).sum()

    params = dict(model.named_parameters())
    errors = check_parameter_group(loss, params, max_coords_per_tensor=8, seed=args.seed)
    worst = 0.0
    failed = []
    for name, err in errors.items():
        passed = err < args.tolerance
        print(f"{'pass' if passed else 'FAIL'}  {err:.3e}  {name}")
        worst = max(worst, err)
        if not passed:
            failed.append(name)
    print(f"max relative error {worst:.3e} over {len(errors)} parameter groups (tolerance {args.tolerance:g})")
    return 0 if not failed else 2


def cmd_train_toy(args) -> int:
    config = _load_config(args.config, None)
    metrics_path = args.metrics or (args.out + ".metrics.ndjson")
    # Refused before training: save would fail only after the whole run.
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FileNotFoundError(f"--out: directory {os.path.dirname(args.out)!r} does not exist")
    if os.path.isdir(args.out):
        raise IsADirectoryError(f"--out: {args.out!r} is a directory, not a checkpoint path")
    # A non-finite loss stops training with one error line, not numpy's warnings about it.
    with np.errstate(all="ignore"):
        result = train_loop(
            config,
            steps=args.steps,
            batch_size=args.batch_size,
            seed=args.seed,
            lr_peak=args.lr,
            metrics_path=metrics_path,
        )
    save(result.model, args.out)
    last = result.metrics[-1] if result.metrics else None
    summary = {
        "steps": args.steps,
        "checkpoint": args.out,
        "metrics": metrics_path,
        "final_loss": None if last is None else last["loss"],
        "final_train_acc": None if last is None else last["train_acc"],
    }
    print(json.dumps(summary))
    return 0


def cmd_infer(args) -> int:
    if args.topk < 1:
        raise InvalidArgument(f"--topk must be >= 1, got {args.topk}")
    model = load(args.ckpt)
    shapes = tensor_shapes(args.input)  # checked before any payload byte is read
    if set(shapes) != {"input"}:
        raise InvalidArgument(
            f"input container must hold exactly one tensor named 'input', found {sorted(shapes)[:3]} of {len(shapes)}"
        )
    if len(shapes["input"]) != 4 or shapes["input"][0] != 1:
        raise InvalidArgument(f"input tensor must have shape [1, C, H, W], got {list(shapes['input'])}")
    image = load_tensors(args.input)["input"]
    bad = np.flatnonzero(~np.isfinite(image))
    if bad.size:
        raise InvalidArgument(
            f"input tensor has {bad.size} non-finite values (first {image.flat[bad[0]]} at flat index {bad[0]})"
        )
    # A finite input can still overflow f32 inside the model; that is refused below, not warned about.
    with np.errstate(all="ignore"):
        logits = model.forward(Tensor(np.ascontiguousarray(image, dtype=np.float32)), mode="eval")
        probs = softmax_lastdim(logits).data[0]
    bad = np.flatnonzero(~np.isfinite(probs))
    if bad.size:
        raise FloatingPointError(
            f"infer: {bad.size} of {probs.size} class probabilities are non-finite "
            f"(first {probs[bad[0]]} for class {bad[0]}); the input overflows the model"
        )
    k = min(args.topk, probs.size)
    top = np.argsort(-probs, kind="stable")[:k]
    print(json.dumps([{"class": int(i), "probability": float(probs[i])} for i in top], allow_nan=False))
    return 0


def make_parser() -> _Parser:
    parser = _Parser(prog="metaformer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="parameter/MAC report for a config")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--config", help="path to a JSON model config")
    g.add_argument("--variant", help=f"named variant ({', '.join(VARIANTS)})")
    p.add_argument("--input-size", type=int, default=None, help="input side (default: the config's input_size)")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("gradcheck", help="finite-difference check of a small config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="train a tiny config on the synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=None,
                   help="peak learning rate (default: batch_size/1024 * 1e-3)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--metrics", default=None, help="NDJSON metrics path (default: <out>.metrics.ndjson)")
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("infer", help="top-k class probabilities for a tensor container input")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--topk", type=int, default=5)
    p.set_defaults(fn=cmd_infer)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InvalidArgument) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (CheckpointFormatError, CheckpointCorruptionError, FloatingPointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (MemoryError, ValueError) as e:  # an allocation sized by a flag or a config that the host cannot back
        if isinstance(e, ValueError) and not str(e).startswith(_NUMPY_SIZE_REFUSALS):
            raise
        print(f"error: out of memory: {e}" if str(e) else "error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
