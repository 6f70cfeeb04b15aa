#!/usr/bin/env python3
"""Print sha256 digests of the training and serving bits.

Eight lines, one digest each:

- the step losses of a 60-step tiny training run;
- the final parameters of that run, by name, in container order;
- the logits of a saved-then-loaded S12 at batch 1 and at batch 8 (224²);
- the parameter gradients of one train-mode backward, drop path on, over
  tiny configs that together use every mixer, norm and activation, in f32
  and in f64, so the backward of every op a model records is covered;
- the eval logits of the same configs in f64 with ``requires_grad_(False)``,
  so the graph-free f64 forward (in-place activations, GELU without a
  full-size CDF) is covered too;
- the graph-free eval logits of those configs widened to 128 stage-1
  channels at 64², in f32 and in f64, whose stage-1 blocks stream one
  sample at a time (``block.STREAM_MIN_VALUES``); the 32² lines above
  fall below that threshold.

Run it on two checkouts and compare the output to see in one command
whether a change moved any of these bits:

    PYTHONPATH=src python scripts/bits.py > after.txt
    (cd ../parent && PYTHONPATH=src python scripts/bits.py) | diff - after.txt

The bits depend on the numpy/BLAS build and its thread count. The script
runs BLAS on one thread whatever the caller's environment says, so compare
runs made on the same machine. That is also why this is a tool and not a
test.
"""

import hashlib
import os
import tempfile
from dataclasses import replace

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):  # read when numpy loads BLAS
    os.environ[_var] = "1"

import numpy as np

from metaformer import ModelConfig, build
from metaformer.checkpoint import load, save
from metaformer.mixers import MIXER_KINDS, MixerConfig
from metaformer.norms import NORM_KINDS
from metaformer.tensor import ACTIVATIONS, Tensor
from metaformer.train import label_smoothing_ce, tiny_train_config, train_loop

SEED = 0
TRAIN_STEPS = 60
S12_BATCHES = (1, 8)
HYBRID_BATCH = 4
STREAM_DIMS, STREAM_SIZE, STREAM_BATCH = (128, 16, 16, 16), 64, 3


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def hybrid_configs() -> list:
    """One tiny 32² config per norm; together they use every mixer and activation, with drop path on."""
    activations = tuple(ACTIVATIONS)
    return [
        ModelConfig(
            dims=(8, 16, 16, 16), depths=(1, 1, 1, 1), num_classes=4, input_size=32,
            mixers=tuple(MixerConfig(kind=MIXER_KINDS[(4 * i + s) % len(MIXER_KINDS)]) for s in range(4)),
            norm=norm, activation=activations[i % len(activations)], drop_path=0.3,
        )
        for i, norm in enumerate(NORM_KINDS)
    ]


def hybrid_gradients(dtype: str) -> str:
    images = np.random.default_rng(SEED).random((HYBRID_BATCH, 3, 32, 32))
    chunks = []
    for config in hybrid_configs():
        model = build(config, seed=SEED, dtype=dtype)
        logits = model.forward(Tensor(images, dtype=dtype), mode="train", rng=np.random.default_rng(SEED))
        label_smoothing_ce(logits, np.arange(HYBRID_BATCH) % config.num_classes).backward()
        chunks += [chunk for name, p in model.named_parameters() for chunk in (name.encode(), p.grad_array().tobytes())]
    return digest(chunks)


def graph_free_logits(configs, dtypes, batch: int, size: int) -> str:
    images = np.random.default_rng(SEED).random((batch, 3, size, size))
    chunks = []
    for dtype in dtypes:
        for config in configs:
            model = build(config, seed=SEED, dtype=dtype).requires_grad_(False)
            chunks.append(model.forward(Tensor(images, dtype=dtype), mode="eval").data.tobytes())
    return digest(chunks)


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
    for dtype in ("f32", "f64"):
        print(f"hybrid configs, {dtype} train-backward parameter gradients  {hybrid_gradients(dtype)}")
    f64_logits = graph_free_logits(hybrid_configs(), ("f64",), HYBRID_BATCH, 32)
    print(f"hybrid configs, f64 graph-free eval logits  {f64_logits}")
    wide = [replace(config, dims=STREAM_DIMS, input_size=STREAM_SIZE) for config in hybrid_configs()]
    streamed = graph_free_logits(wide, ("f32", "f64"), STREAM_BATCH, STREAM_SIZE)
    print(f"wide hybrid configs, f32 and f64 streamed graph-free eval logits  {streamed}")


if __name__ == "__main__":
    main()
