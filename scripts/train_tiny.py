#!/usr/bin/env python3
"""Run the pinned desk-scale training experiment end to end.

Trains the tiny pooling config for 300 steps at batch 32, seed 0 and peak
lr 3e-3 on the synthetic shape dataset, writes a checkpoint plus NDJSON
metrics, then reloads the checkpoint and classifies one held-out sample.
Takes a couple of minutes on a laptop. The run is pinned; only the output
path is a flag:

    PYTHONPATH=src python scripts/train_tiny.py --out tiny.ckpt
"""

import argparse
import json

from metaformer.checkpoint import load, save, save_tensors
from metaformer.tensor import Tensor, softmax_lastdim
from metaformer.train import CLASS_NAMES, synth_batch, tiny_train_config, train_loop

STEPS, BATCH_SIZE, SEED, LR_PEAK = 300, 32, 0, 3e-3


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="tiny.ckpt")
    args = ap.parse_args()

    config = tiny_train_config()
    metrics_path = args.out + ".metrics.ndjson"
    result = train_loop(config, steps=STEPS, batch_size=BATCH_SIZE, seed=SEED,
                        lr_peak=LR_PEAK, label_smoothing=0.0, metrics_path=metrics_path)
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
    images, labels = synth_batch(SEED + 1, 0, 1, config.input_size)
    save_tensors(args.out + ".sample", {"input": images})
    model = load(args.out)
    probs = softmax_lastdim(model.forward(Tensor(images))).data[0]
    print(f"held-out sample: true={CLASS_NAMES[labels[0]]} "
          f"predicted={CLASS_NAMES[int(probs.argmax())]} (p={probs.max():.2f})")


if __name__ == "__main__":
    main()
