"""Command-line surface: model description, gradient checking, toy training, inference.

Exit codes: 0 success, 1 validation error (flags, config, shape/resolution
mismatches), 2 runtime error (I/O failures, corrupt files, a non-finite
training loss). Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from .analysis import cost_report
from .checkpoint import (
    CheckpointCorruptionError,
    CheckpointFormatError,
    load,
    load_tensors,
    save,
)
from .gradcheck import check_parameter_group
from .model import ConfigError, ModelConfig, build, stage_grids
from .tensor import InvalidArgument, Tensor, softmax_lastdim
from .train import default_peak_lr, train_loop

GRADCHECK_PARAM_LIMIT = 200_000


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on bad flags instead of the default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config(config_path: Optional[str], variant: Optional[str]) -> ModelConfig:
    if (config_path is None) == (variant is None):
        raise ConfigError("exactly one of --config or --variant is required")
    if variant is not None:
        return ModelConfig.variant_named(variant)
    try:
        with open(config_path) as f:
            obj = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {config_path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {config_path!r} is not valid JSON: {e}") from e
    return ModelConfig.from_json_dict(obj)


def _fmt_m(count: int) -> str:
    return f"{count / 1e6:.1f}M"


def _fmt_g(count: int) -> str:
    return f"{count / 1e9:.1f}G"


def cmd_describe(args) -> int:
    config = _load_config(args.config, args.variant)
    report = cost_report(config, args.input_size)
    if args.format == "json":
        out = report.to_json_dict()
        out["stage_grids"] = stage_grids(args.input_size)
        print(json.dumps(out, indent=2))
        return 0
    grids = stage_grids(args.input_size)
    name = config.variant or "custom"
    print(f"model {name} @ {args.input_size}x{args.input_size}")
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
    config = _load_config(args.config, None)
    report = cost_report(config)
    total = report.trainable_params + report.frozen_params
    if total > GRADCHECK_PARAM_LIMIT:
        print(
            f"gradcheck refuses configs over {GRADCHECK_PARAM_LIMIT:,} parameters "
            f"(this one has {total:,}); finite differences in f64 would be impractically slow. "
            f"Shrink dims/depths for checking.",
            file=sys.stderr,
        )
        return 1
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
        status = "pass" if err < args.tolerance else "FAIL"
        print(f"{status}  {err:.3e}  {name}")
        worst = max(worst, err)
        if err >= args.tolerance:
            failed.append(name)
    print(f"max relative error {worst:.3e} over {len(errors)} parameter groups (tolerance {args.tolerance:g})")
    return 0 if not failed else 2


def cmd_train_toy(args) -> int:
    config = _load_config(args.config, None)
    lr = args.lr if args.lr is not None else default_peak_lr(args.batch_size)
    metrics_path = args.metrics or (args.out + ".metrics.ndjson")
    # A non-finite loss stops training with one error line, not numpy's warnings about it.
    with np.errstate(all="ignore"):
        result = train_loop(
            config,
            steps=args.steps,
            batch_size=args.batch_size,
            seed=args.seed,
            lr_peak=lr,
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
    model = load(args.ckpt)
    tensors = load_tensors(args.input)
    if set(tensors) != {"input"}:
        raise InvalidArgument(
            f"input container must hold exactly one tensor named 'input', found {sorted(tensors)}"
        )
    image = tensors["input"]
    if image.ndim != 4 or image.shape[0] != 1:
        raise InvalidArgument(f"input tensor must have shape [1, C, H, W], got {list(image.shape)}")
    bad = np.flatnonzero(~np.isfinite(image))
    if bad.size:
        raise InvalidArgument(
            f"input tensor has {bad.size} non-finite values (first {image.flat[bad[0]]} at flat index {bad[0]})"
        )
    logits = model.forward(Tensor(np.ascontiguousarray(image, dtype=np.float32)), mode="eval")
    probs = softmax_lastdim(logits).data[0]
    k = min(args.topk, probs.size)
    top = np.argsort(-probs, kind="stable")[:k]
    print(json.dumps([{"class": int(i), "probability": float(probs[i])} for i in top]))
    return 0


def make_parser() -> _Parser:
    parser = _Parser(prog="metaformer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="parameter/MAC report for a config")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--config", help="path to a JSON model config")
    g.add_argument("--variant", help="named variant (S12, S24, S36, M36, M48)")
    p.add_argument("--input-size", type=int, default=224)
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


if __name__ == "__main__":
    sys.exit(main())
