"""Writes an infer workload's inputs from the seed, before the timed process starts.

The S12 container is built with ``build(S12, seed)`` and written with
``checkpoint.save``; the request pool is REQUEST_POOL images drawn uniform in
[0, 1) from the same seed and written as one tensor container.
"""

import argparse
import os

import numpy as np

from metaformer import ModelConfig, build, save, save_tensors

REQUEST_POOL = 16
IMAGE_SIZE = 224


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    save(build(ModelConfig.variant_named("S12"), seed=args.seed), os.path.join(args.workdir, "s12.ckpt"))
    pool = np.random.default_rng(args.seed).random((REQUEST_POOL, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    save_tensors(os.path.join(args.workdir, "requests.mft"), {"input": pool})


if __name__ == "__main__":
    main()
