#!/usr/bin/env python3
"""Run the pinned desk-scale training experiment end to end.

Trains the pinned recipe of ``train.pinned_run`` at seed 0 on the synthetic
shape dataset, writes a checkpoint plus NDJSON metrics, then reloads the
checkpoint and classifies one held-out sample. Takes a couple of minutes on
a laptop. The run is pinned; only the output path is a flag:

    PYTHONPATH=src python scripts/train_tiny.py --out tiny.ckpt
"""

import argparse
import json

from metaformer.checkpoint import load, save, save_tensors
from metaformer.tensor import Tensor, softmax_lastdim
from metaformer.train import CLASS_NAMES, pinned_run, synth_batch

SEED = 0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="tiny.ckpt")
    args = ap.parse_args()

    metrics_path = args.out + ".metrics.ndjson"
    result = pinned_run(SEED, metrics_path)
    save(result.model, args.out)
    first, last = result.metrics[0], result.metrics[-1]
    print(json.dumps({
        "initial_loss": first["loss"],
        "final_loss": last["loss"],
        "loss_ratio": last["loss"] / first["loss"],
        "final_train_acc": last["train_acc"],
        "checkpoint": args.out,
        "metrics": metrics_path,
    }, indent=2))

    # Quick round trip: classify a fresh sample with the reloaded checkpoint.
    images, labels = synth_batch(SEED + 1, 0, 1, result.model.config.input_size)
    save_tensors(args.out + ".sample", {"input": images})
    model = load(args.out)
    probs = softmax_lastdim(model.forward(Tensor(images))).data[0]
    print(f"held-out sample: true={CLASS_NAMES[labels[0]]} "
          f"predicted={CLASS_NAMES[int(probs.argmax())]} (p={probs.max():.2f})")


if __name__ == "__main__":
    main()
