"""The benchmark's tracer still finds every hook it wraps in the library.

``perfbench/tracer.py`` swaps timing wrappers into module globals and into
``cls.__dict__`` of a fixed list of classes. A refactor that moves one of
those ``__call__`` methods into a base class, or that stops routing ops
through the ``tensor._make`` global, silently drops a per-layer metric. The
node count of one tiny training step is pinned, so that a refactor which
splits a fused norm or residual branch back into elementary ops fails here.
"""

import sys
from pathlib import Path

import metaformer as mf

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402

SPANS = ("model.embed", "block", "block.mlp", "norms.mln", "mixers.pooling", "tensor.backward",
         "train.data", "train.loss", "train.optimizer")


def test_tracer_sees_every_span_of_a_train_step_and_removes_cleanly():
    config = mf.train.tiny_train_config()
    model = mf.model.build(config, seed=0)
    optimizer = mf.train.AdamW(list(model.named_parameters()))
    tracer = Tracer(mf)
    tracer.install()
    try:
        tracer.begin_op()
        images, labels = mf.train.synth_batch(0, 0, 4, config.input_size)
        logits = model.forward(mf.tensor.Tensor(images), mode="train", rng=mf.init.child_rng(0, 1))
        loss = mf.train.label_smoothing_ce(logits, labels, 0.0)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step(1e-3)
        tracer.end_op()
    finally:
        tracer.remove()
    row = tracer.rows[0]
    assert [span for span in SPANS if not row.get(f"{span}.calls")] == []
    # One node per norm and per residual branch: 60 where the separate elementary ops made 190.
    assert row["tensor.nodes"] == 60
    assert tracer.leftover_wrappers() == []
