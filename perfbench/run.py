"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Writes the workload's inputs from the seed
in one process (``inputs.py``), then times the workload in a fresh process
(``worker.py``) that imports ``metaformer`` from the checkout's ``src/``.
Prints the worker's lines; the last one is the JSON result. Exits non-zero,
without a result, when the library is missing or a process fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train-tiny", "infer-s12", "infer-s12-b8")
# One BLAS thread (at most nproc): on a shared two-core machine a second
# thread made steps slower and run-to-run times wider, not faster.
BLAS_THREADS = "1"
TIMEOUT_S = 170
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "metaformer" / "__init__.py").is_file():
        print(f"error: no metaformer package under {src}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")])),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.workload != "train-tiny":
            subprocess.run([sys.executable, str(HERE / "inputs.py"), "--seed", str(args.seed),
                            "--workdir", str(workdir)], env=env, check=True, timeout=TIMEOUT_S)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir),
             "--src", str(src)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("error: worker printed no result", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
