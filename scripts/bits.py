#!/usr/bin/env python3
"""Print sha256 digests of the training and serving bits.

Four lines, one digest each:

- the step losses of a 60-step tiny training run;
- the final parameters of that run, by name, in container order;
- the logits of a saved-then-loaded S12 at batch 1 and at batch 8 (224²).

Run it on two checkouts and compare the output to see in one command
whether a change moved any of these bits:

    PYTHONPATH=src python scripts/bits.py > after.txt
    (cd ../parent && PYTHONPATH=src python scripts/bits.py) | diff - after.txt

The bits depend on the numpy/BLAS build and its thread count, so compare
runs made on the same machine with the same settings. That is also why
this is a tool and not a test.
"""

import hashlib
import os
import tempfile

import numpy as np

from metaformer import ModelConfig, build
from metaformer.checkpoint import load, save
from metaformer.tensor import Tensor
from metaformer.train import tiny_train_config, train_loop

SEED = 0
TRAIN_STEPS = 60
S12_BATCHES = (1, 8)


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def main() -> None:
    result = train_loop(tiny_train_config(), steps=TRAIN_STEPS, seed=SEED)
    losses = np.array([m["loss"] for m in result.metrics], dtype=np.float64)
    print(f"train-tiny {TRAIN_STEPS}-step losses  {digest([losses.tobytes()])}")
    state = result.model.state_arrays()
    params = (chunk for name, (arr, _) in state.items() for chunk in (name.encode(), arr.tobytes()))
    print(f"train-tiny final parameters  {digest(params)}")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s12.ckpt")
        save(build(ModelConfig.variant_named("S12"), seed=SEED), path)
        model = load(path)
    images = np.random.default_rng(SEED).random((max(S12_BATCHES), 3, 224, 224), dtype=np.float32)
    for batch in S12_BATCHES:
        logits = model.forward(Tensor(images[:batch]), mode="eval").data
        print(f"S12 loaded, batch {batch} logits  {digest([logits.tobytes()])}")


if __name__ == "__main__":
    main()
