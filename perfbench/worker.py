"""The timed process: drives metaformer in-process on one workload.

Started by ``run.py`` in a fresh interpreter after the inputs are written,
so ``peak_rss_mib`` is this process's own ``ru_maxrss``. Prints ``#`` info
lines (environment, sample counts, failures) and, last, one JSON result.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it runs the workload untraced for half the time, then
traced for the other half, and reports the per-layer metrics with the
tracing overhead as the difference between the two halves.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc

from tracer import OPS, Tracer

clock = time.perf_counter

# train-tiny: the pinned criterion-9 setup, cut into seeded episodes. Each
# episode is one short training run with its own warmup+cosine schedule.
TRAIN_BATCH = 32
TRAIN_LR = 3e-3
EPISODE_STEPS = 50
# loss_final is the mean step loss of the first LOSS_EPISODES episodes. One
# episode's final-step loss varies ~17% (quartile spread) between seeds; this
# mean varies ~4%.
LOSS_EPISODES = 8

INFER_BATCH = {"infer-s12": 1, "infer-s12-b8": 8}
# Fewest timed requests in an untraced run, so that infer-s12 always has ten
# samples beyond its p90. infer-s12-b8 would need 100 batches; it reports the
# median instead.
MIN_REQUESTS = {"infer-s12": 100, "infer-s12-b8": 0}
# latency_ms_p90 and throughput_per_s are medians over WINDOWS equal consecutive
# windows of the run. A slow spell of the shared host that covers a few windows
# sways a whole-run p90 or mean (infer-s12's whole-run p90 spread 30-40% between
# runs of the same code); the median over windows keeps each window's slow ops
# but not the run's worst windows.
WINDOWS = 10
LOADS = 3  # set-up repetitions on the infer workloads; setup_s takes the median
PROB_SUM_TOL = 1e-4  # |sum(p) - 1| per row, f32 softmax over 1000 classes
# Row 0 of a batch-8 request against the batch-1 forward of the same image:
# BLAS may block the two shapes differently, so bit equality is not expected.
ROW_RTOL = 1e-4
ROW_ATOL = 1e-7


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(reason)


# ---------------------------------------------------------------- train-tiny

def train_phase(mf, seed: int, deadline: float, min_episodes: int, ckpt: str, tally: Tally,
                tracer: Tracer = None):
    """Training episodes until ``deadline`` and at least ``min_episodes``.

    Returns (step latencies, set-up times, per-episode step losses, last model).
    """
    config = mf.train.tiny_train_config()
    warmup = max(1, EPISODE_STEPS // 60)
    latencies, setups, episodes = [], [], []
    model = None
    e = 0
    while e < min_episodes or clock() < deadline:
        episode_seed = seed * 1000 + e
        model = None  # free the previous episode's model before building the next
        start = clock()
        model = mf.model.build(config, episode_seed)
        optimizer = mf.train.AdamW(list(model.named_parameters()))
        setups.append(clock() - start)
        drop_rng = mf.init.child_rng(episode_seed, 1)
        losses = []
        for step in range(EPISODE_STEPS):
            tally.attempted += 1
            value = math.nan
            if tracer:
                tracer.begin_op()
            start = clock()
            try:
                images, labels = mf.train.synth_batch(episode_seed, step * TRAIN_BATCH, TRAIN_BATCH,
                                                      config.input_size)
                logits = model.forward(mf.tensor.Tensor(images), mode="train", rng=drop_rng)
                loss = mf.train.label_smoothing_ce(logits, labels, 0.0)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step(mf.train.cosine_lr(step, warmup, EPISODE_STEPS, TRAIN_LR))
                value = float(loss.data.reshape(()))
            except Exception as exc:  # a failing step is a failed op, not a crash
                tally.fail(f"episode {e} step {step}: {type(exc).__name__}: {exc}")
            else:
                if not math.isfinite(value):
                    tally.fail(f"episode {e} step {step}: non-finite loss {value}")
            finally:
                latencies.append(clock() - start)
                if tracer:
                    tracer.end_op()
            losses.append(value)
        if not losses[-1] < losses[0]:
            tally.fail(f"episode {e}: final loss {losses[-1]} not below first-step loss {losses[0]}")
        mf.checkpoint.save(model, ckpt)
        episodes.append(losses)
        e += 1
    return latencies, setups, episodes, model


def run_train(mf, np, args, import_s: float, tally: Tally) -> dict:
    ckpt = os.path.join(args.workdir, "episode.ckpt")
    if not args.trace:
        lat, setups, episodes, _ = train_phase(mf, args.seed, clock() + args.seconds, LOSS_EPISODES, ckpt, tally)
        loss_final = statistics.fmean(statistics.fmean(ep) for ep in episodes[:LOSS_EPISODES])
        return end_to_end(lat, TRAIN_BATCH, import_s + statistics.median(setups), loss_final)

    half = args.seconds / 2
    lat_u, _, episodes_u, _ = train_phase(mf, args.seed, clock() + half, 1, ckpt, tally)
    tracer = Tracer(mf)
    tracer.install()
    try:
        lat_t, _, episodes_t, model = train_phase(mf, args.seed, clock() + half, 1, ckpt, tally, tracer)
    finally:
        tracer.remove()
    check_removed(tracer, tally)
    if episodes_u[0] != episodes_t[0]:
        tally.fail("traced episode 0 losses differ from the untraced run")
    images, _ = mf.train.synth_batch(args.seed * 1000, 0, TRAIN_BATCH, model.config.input_size)
    retained = retained_mib(lambda: model.forward(mf.tensor.Tensor(images), mode="train",
                                                  rng=mf.init.child_rng(0, 1)))
    return per_layer(mf, tracer, model.config, TRAIN_BATCH, lat_u, lat_t, retained, ckpt)


# ---------------------------------------------------------------- infer

class Server:
    """Serves requests from the seeded pool and checks every output."""

    def __init__(self, mf, np, pool, batch: int, tally: Tally):
        self.mf, self.np = mf, np
        self.pool = pool
        self.batch = batch
        self.slices = len(pool) // batch
        self.first = {}  # pool slice -> probabilities of its first request
        self.tally = tally

    def request(self, model, i: int, tracer: Tracer = None) -> float:
        """Serve request ``i`` (forward + softmax); returns its latency in seconds."""
        mf = self.mf
        s = i % self.slices
        x = self.pool[s * self.batch:(s + 1) * self.batch]
        self.tally.attempted += 1
        probs = None
        if tracer:
            tracer.begin_op()
        start = clock()
        try:
            probs = mf.tensor.softmax_lastdim(model.forward(mf.tensor.Tensor(x), mode="eval")).data
        except Exception as exc:
            self.tally.fail(f"request {i}: {type(exc).__name__}: {exc}")
        finally:
            latency = clock() - start
            if tracer:
                tracer.end_op()
        if probs is not None:
            self.check(i, s, probs)
        return latency

    def check(self, i: int, s: int, probs) -> None:
        np = self.np
        first = self.first.setdefault(s, probs.copy())
        if probs.shape[0] != self.batch or not np.all(np.isfinite(probs)):
            self.tally.fail(f"request {i}: shape {probs.shape} or non-finite probabilities")
        elif np.max(np.abs(probs.sum(axis=1, dtype=np.float64) - 1.0)) > PROB_SUM_TOL:
            self.tally.fail(f"request {i}: probabilities do not sum to 1 within {PROB_SUM_TOL}")
        elif not np.array_equal(first, probs):
            self.tally.fail(f"request {i}: repeat of pool slice {s} is not bit-identical")

    def serve(self, model, deadline: float, min_requests: int = 0, tracer: Tracer = None) -> list:
        """Closed loop, one client: requests until ``deadline``, ``min_requests`` and one pass over the pool."""
        latencies = []
        i = 0
        while i < max(self.slices, min_requests) or clock() < deadline:
            latencies.append(self.request(model, i, tracer))
            i += 1
        return latencies

    def top1_nll(self) -> float:
        """Mean -log p(top-1) over the pool: the served outputs' own cross-entropy."""
        np = self.np
        return float(np.mean([-np.log(p.max(axis=1).astype(np.float64)) for p in self.first.values()]))


def load_model(mf, ckpt: str):
    """LOADS fresh loads of the container; returns (model, load times)."""
    times = []
    model = None
    for _ in range(LOADS):
        model = None
        gc.collect()
        start = clock()
        model = mf.checkpoint.load(ckpt)
        times.append(clock() - start)
    return model, times


def run_infer(mf, np, args, import_s: float, tally: Tally) -> dict:
    ckpt = os.path.join(args.workdir, "s12.ckpt")
    pool = mf.checkpoint.load_tensors(os.path.join(args.workdir, "requests.mft"))["input"]
    batch = INFER_BATCH[args.workload]
    server = Server(mf, np, pool, batch, tally)
    model, load_times = load_model(mf, ckpt)
    server.request(model, 0)  # warm-up, untimed; its output is the reference for slice 0
    if batch > 1:
        single = mf.tensor.softmax_lastdim(model.forward(mf.tensor.Tensor(pool[:1]), mode="eval")).data
        tally.attempted += 1
        if not np.allclose(server.first.get(0, single)[0], single[0], rtol=ROW_RTOL, atol=ROW_ATOL):
            tally.fail(f"row 0 of the first batch differs from its batch-1 forward beyond "
                       f"rtol {ROW_RTOL}, atol {ROW_ATOL}")
    if not args.trace:
        lat = server.serve(model, clock() + args.seconds, MIN_REQUESTS[args.workload])
        return end_to_end(lat, batch, import_s + statistics.median(load_times), server.top1_nll())

    half = args.seconds / 2
    lat_u = server.serve(model, clock() + half)
    tracer = Tracer(mf)
    tracer.install()
    try:
        model, _ = load_model(mf, ckpt)
        lat_t = server.serve(model, clock() + half, tracer=tracer)
    finally:
        tracer.remove()
    check_removed(tracer, tally)
    retained = retained_mib(lambda: model.forward(mf.tensor.Tensor(pool[:batch]), mode="eval"))
    return per_layer(mf, tracer, model.config, batch, lat_u, lat_t, retained, ckpt)


# ---------------------------------------------------------------- metrics

def check_removed(tracer: Tracer, tally: Tally) -> None:
    left = tracer.leftover_wrappers()
    if left:
        tally.fail(f"tracing wrappers left installed: {left[:3]}")


def retained_mib(forward) -> float:
    """tracemalloc bytes still held after ``forward`` returns, while its output is alive."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = forward()
        held = tracemalloc.get_traced_memory()[0] - base
        del out
    finally:
        tracemalloc.stop()
    return held / 2**20


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def windows(latencies) -> list:
    """The run cut into WINDOWS equal consecutive windows (fewer if it has fewer ops)."""
    k = min(WINDOWS, len(latencies))
    edges = [round(i * len(latencies) / k) for i in range(k + 1)]
    return [latencies[a:b] for a, b in zip(edges, edges[1:])]


def end_to_end(latencies, batch: int, setup_s: float, loss_final: float) -> dict:
    n = len(latencies)
    p50 = statistics.median(latencies)
    beyond = sum(1 for v in latencies if v > percentile(latencies, 90))
    if beyond < 10:
        # Too few samples for a p90: report the median in its place, and say so.
        print(f"# samples {n}; {beyond} beyond p90, fewer than 10: latency_ms_p90 reports the median")
        p90 = p50
    else:
        print(f"# samples {n}; {beyond} beyond p90; latency_ms_p90 is the median of {WINDOWS} window p90s")
        p90 = statistics.median(percentile(w, 90) for w in windows(latencies))
    throughput = statistics.median(batch * len(w) / sum(w) for w in windows(latencies))
    return {
        "setup_s": (setup_s, "s"),
        "latency_ms_p50": (1e3 * p50, "ms"),
        "latency_ms_p90": (1e3 * p90, "ms"),
        "throughput_per_s": (throughput, "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "loss_final": (loss_final, "nats"),
    }


def per_layer(mf, tracer: Tracer, config, batch: int, lat_u, lat_t, retained: float, ckpt: str) -> dict:
    def ms(key: str) -> float:
        return 1e3 * tracer.median(key)

    out = {}
    for op in OPS:
        out[f"tensor.{op}.calls"] = (tracer.median(f"tensor.{op}.calls"), "count")
        out[f"tensor.{op}.fwd_ms"] = (ms(f"tensor.{op}.fwd_s"), "ms")
    out["tensor.nodes"] = (tracer.median("tensor.nodes"), "count")

    def rate(op: str) -> float:
        seconds = tracer.total(f"tensor.{op}.fwd_s")
        return tracer.total(f"tensor.{op}.work") / seconds / 1e9 if seconds else 0.0

    out["tensor.conv2d.gmac_per_s"] = (rate("conv2d"), "GMAC/s")
    out["tensor.matmul.gmac_per_s"] = (rate("matmul"), "GMAC/s")
    out["tensor.avg_pool2d_excl.gb_per_s"] = (rate("avg_pool2d_excl"), "GB/s")
    out["tensor.gelu.gb_per_s"] = (rate("gelu"), "GB/s")
    out["tensor.backward_ms"] = (ms("tensor.backward.s"), "ms")
    out["tensor.retained_mib"] = (retained, "MiB")

    out["norms.mln.calls"] = (tracer.median("norms.mln.calls"), "count")
    out["norms.mln.fwd_ms"] = (ms("norms.mln.s"), "ms")
    out["mixers.pooling.fwd_ms"] = (ms("mixers.pooling.s"), "ms")
    out["block.mlp.fwd_ms"] = (ms("block.mlp.s"), "ms")
    out["block.self_ms"] = (ms("block.self_s"), "ms")

    stage_macs = mf.analysis.cost_report(config).per_stage
    for s in range(1, 5):
        out[f"model.embed{s}.fwd_ms"] = (ms(f"model.embed{s}.s"), "ms")
        out[f"model.stage{s}.fwd_ms"] = (ms(f"model.stage{s}.s"), "ms")
        # cost_report's stage MACs include the stage's patch embedding.
        seconds = tracer.total(f"model.embed{s}.s") + tracer.total(f"model.stage{s}.s")
        macs = stage_macs[s - 1].macs * batch * len(tracer.rows)
        out[f"model.stage{s}.gmac_per_s"] = (macs / seconds / 1e9 if seconds else 0.0, "GMAC/s")
    out["model.head.fwd_ms"] = (ms("model.head.s"), "ms")
    out["model.build_s"] = (tracer.setup_median("model.build"), "s")

    out["init.trunc_normal_s"] = (tracer.setup_median("model.build", "init.trunc_normal"), "s")
    loads = [(dur, children.get("model.build", 0.0)) for name, dur, children in tracer.setup_spans
             if name == "checkpoint.load"]
    out["checkpoint.load_s"] = (statistics.median(d for d, _ in loads) if loads else 0.0, "s")
    out["checkpoint.load_build_s"] = (statistics.median(b for _, b in loads) if loads else 0.0, "s")
    out["checkpoint.read_s"] = (statistics.median(d - b for d, b in loads) if loads else 0.0, "s")
    out["checkpoint.bytes"] = (os.path.getsize(ckpt), "bytes")
    out["checkpoint.save_ms"] = (1e3 * tracer.setup_median("checkpoint.save"), "ms")

    out["train.data_ms"] = (ms("train.data.s"), "ms")
    # Model.forward also runs on the infer workloads; only a training step counts here.
    out["train.forward_ms"] = (ms("model.forward.s") if tracer.median("train.data.calls") else 0.0, "ms")
    out["train.loss_ms"] = (ms("train.loss.s"), "ms")
    out["train.backward_ms"] = (ms("tensor.backward.s"), "ms")
    out["train.optimizer_ms"] = (ms("train.optimizer.s"), "ms")

    untraced, traced = 1e3 * statistics.median(lat_u), 1e3 * statistics.median(lat_t)
    out["trace.untraced_latency_ms_p50"] = (untraced, "ms")
    out["trace.traced_latency_ms_p50"] = (traced, "ms")
    out["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    print(f"# traced {len(lat_t)} ops beside {len(lat_u)} untraced; counts are per op, times are "
          f"per-op medians; rates are computed from shapes, not hardware counters")
    return out


# ---------------------------------------------------------------- main

def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("train-tiny", *INFER_BATCH))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True, help="directory that must hold the metaformer package")
    args = ap.parse_args()

    start = clock()
    import metaformer as mf  # set-up time starts before this import
    import metaformer.analysis  # noqa: F401
    import numpy as np

    import_s = clock() - start
    here = os.path.dirname(os.path.abspath(mf.__file__))
    if here != os.path.join(os.path.abspath(args.src), "metaformer"):
        print(f"error: imported metaformer from {here}, not from {args.src}", file=sys.stderr)
        return 2

    print("# env " + json.dumps(environment(np), sort_keys=True))
    tally = Tally()
    run = run_train if args.workload == "train-tiny" else run_infer
    metrics = run(mf, np, args, import_s, tally)
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            tally.fail(f"metric {name} is {value}; reported as 0")
            metrics[name] = (0.0, metrics[name][1])
    for note in tally.notes:
        print(f"# failed: {note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
