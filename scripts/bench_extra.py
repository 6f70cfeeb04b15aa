#!/usr/bin/env python3
"""Time six workloads that perfbench does not run, each in fresh processes with one BLAS thread.

- ``checkpoint.load`` of M48: one process builds M48 and saves it to a
  temporary directory, then a fresh process times ``LOADS`` loads of that
  file and reports their median and minimum and its own peak RSS;
- ``import metaformer`` alone, once in each of ``IMPORTS`` fresh processes;
- the Tier-1 suite's wall time, in one fresh process;
- criterion 9's pinned training run (``train.pinned_run()``), in one
  fresh process: its wall seconds, last/first step loss ratio, last-batch
  accuracy, and from ``getrusage`` the process's peak RSS and its minor
  page faults per step over the run;
- S12 serving at batch 8: one process builds S12 and saves it, then a
  fresh process loads it (a model that records no graph) and runs
  ``S12_FORWARDS`` eval forwards on one batch of 8 random 224² images. It
  reports the process's peak RSS after the load and after the forwards, so
  the forward's own memory is the difference, the median forward time, and
  from ``getrusage`` the minor page faults per forward after the first
  (the first grows the heap; the later ones reuse it);
- ``metaformer gradcheck`` on the CLI tests' tiny config
  (``tests/test_cli.py``'s ``TINY_JSON``), seed 0: ``cli.main`` timed once
  in each of ``GRADCHECKS`` fresh processes, with its exit code and the
  summary line it prints.

It takes no options and measures the checkout it lives in. Each measurement
prints one JSON line:

    python scripts/bench_extra.py

It exits 1, after printing every line, when a measurement failed: the
Tier-1 run reports a failed test or a non-zero exit, or a ``metaformer
gradcheck`` run exits non-zero. The pinned run's loss ratio does not gate:
criterion 9's 300-step trajectory is chaotic across seeds.

To compare two commits, copy this file into a checkout of each and run the
copies in turn, alternating which side goes first.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LOADS = 5
IMPORTS = 5
S12_FORWARDS = 3
GRADCHECKS = 5
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    "PYTHONDONTWRITEBYTECODE": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

SAVE_VARIANT = """
import sys
from metaformer import ModelConfig, build
from metaformer.checkpoint import save
save(build(ModelConfig.variant_named(sys.argv[2]), seed=0), sys.argv[1])
"""
TIME_LOADS = """
import json, resource, sys, time
from metaformer.checkpoint import load
seconds = []
for _ in range(int(sys.argv[2])):
    start = time.perf_counter()
    load(sys.argv[1])
    seconds.append(time.perf_counter() - start)
print(json.dumps({"seconds": seconds, "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""
TIME_IMPORT = """
import time
start = time.perf_counter()
import metaformer
print(time.perf_counter() - start)
"""
SERVE_S12_B8 = """
import json, resource, sys, time
import numpy as np
from metaformer.checkpoint import load
from metaformer.tensor import Tensor
model = load(sys.argv[1])
load_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
images = Tensor(np.random.default_rng(0).random((8, 3, 224, 224), dtype=np.float32))
seconds, faults = [], []
for _ in range(int(sys.argv[2])):
    start = time.perf_counter()
    model.forward(images, mode="eval")
    seconds.append(time.perf_counter() - start)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
print(json.dumps({"seconds": seconds, "load_kib": load_kib,
                  "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "minflt_per_forward": (faults[-1] - faults[0]) / (len(faults) - 1)}))
"""
PINNED_RUN = """
import json, resource, time
from metaformer.train import pinned_run
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
metrics = pinned_run().metrics
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"wall_s": wall, "ratio": metrics[-1]["loss"] / metrics[0]["loss"], "acc": metrics[-1]["train_acc"],
                  "peak_rss_kib": usage.ru_maxrss, "minflt_per_step": (usage.ru_minflt - faults) / len(metrics)}))
"""

TIME_GRADCHECK = """
import contextlib, io, json, os, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from test_cli import TINY_JSON
from metaformer import cli
with tempfile.TemporaryDirectory() as tmp:
    config = os.path.join(tmp, "tiny.json")
    with open(config, "w") as f:
        json.dump(TINY_JSON, f)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["gradcheck", "--config", config, "--seed", "0"])
    seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds, "exit_code": code, "summary": out.getvalue().splitlines()[-1]}))
"""


def python(code: str, *args: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=ENV, check=True, stdout=subprocess.PIPE, text=True)
    return proc.stdout


def ms(seconds) -> dict:
    return {"median_ms": round(1e3 * statistics.median(seconds), 2), "min_ms": round(1e3 * min(seconds), 2)}


def m48_load() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m48.ckpt")
        python(SAVE_VARIANT, path, "M48")
        result = json.loads(python(TIME_LOADS, path, str(LOADS)))
        size = os.path.getsize(path)
    return {"measurement": "checkpoint.load M48", "loads": LOADS, **ms(result["seconds"]),
            "peak_rss_mib": round(result["peak_rss_kib"] / 1024, 1), "bytes": size}


def import_time() -> dict:
    seconds = [float(python(TIME_IMPORT)) for _ in range(IMPORTS)]
    return {"measurement": "import metaformer", "processes": IMPORTS, **ms(seconds)}


def tier1() -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"measurement": "tier1", "wall_s": round(wall, 1), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0), "exit_code": proc.returncode}


def pinned_run() -> dict:
    result = json.loads(python(PINNED_RUN))
    return {"measurement": "criterion 9 pinned 300-step run", "wall_s": round(result["wall_s"], 2),
            "loss_ratio": round(result["ratio"], 4), "train_acc": result["acc"],
            "peak_rss_mib": round(result["peak_rss_kib"] / 1024, 1),
            "minflt_per_step": round(result["minflt_per_step"], 1)}


def s12_b8_serving() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s12.ckpt")
        python(SAVE_VARIANT, path, "S12")
        result = json.loads(python(SERVE_S12_B8, path, str(S12_FORWARDS)))
    return {"measurement": "S12 batch-8 graph-free serving", "forwards": S12_FORWARDS, **ms(result["seconds"]),
            "peak_rss_after_load_mib": round(result["load_kib"] / 1024, 1),
            "peak_rss_mib": round(result["peak_rss_kib"] / 1024, 1),
            "minflt_per_forward": round(result["minflt_per_forward"], 1)}


def gradcheck_tiny() -> dict:
    runs = [json.loads(python(TIME_GRADCHECK, str(ROOT / "tests"))) for _ in range(GRADCHECKS)]
    return {"measurement": "gradcheck tiny config seed 0", "processes": GRADCHECKS,
            **ms([r["seconds"] for r in runs]), "exit_codes": sorted({r["exit_code"] for r in runs}),
            "summary": runs[0]["summary"]}


def failed(result: dict) -> bool:
    return result.get("failed", 0) > 0 or result.get("exit_code", 0) != 0 or any(result.get("exit_codes", ()))


def main() -> int:
    code = 0
    for measure in (m48_load, import_time, tier1, pinned_run, s12_b8_serving, gradcheck_tiny):
        result = measure()
        print(json.dumps(result), flush=True)
        if failed(result):
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
