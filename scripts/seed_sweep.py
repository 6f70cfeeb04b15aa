#!/usr/bin/env python3
"""Run the pinned criterion-9 training recipe (``train.pinned_run``) over several seeds.

Criterion 9 of the acceptance gate judges one 300-step run at seed 0 by
its last batch, so any bit change on the training path rerolls its
outcome. This sweep shows the spread that the gate samples once: for each
seed it prints the loss ratio (last / first step), the last batch's
accuracy, whether the gate's bounds hold, the mean loss over the last 20
steps and the run's wall seconds; then the pass count and that mean over
all seeds.

    PYTHONPATH=src python scripts/seed_sweep.py --seeds 12

Compare two checkouts on the same machine: a change that keeps the pass
count and the mean within the spread between seeds did not make training
worse. Each seed takes one full pinned run (about 7-13 s on a 2-core
x86_64 host). The outcomes depend on the numpy/BLAS build, so this is a
tool and not a test.
"""

import argparse
import statistics
import time

from metaformer.train import pinned_run

# The bounds of tests/test_acceptance.py::test_criterion_09_toy_training_regression.
MAX_LOSS_RATIO, MIN_ACCURACY = 0.25, 0.90
TAIL = 20


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=12, help="number of seeds to run (default 12)")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")

    passed, tails = 0, []
    print(f"{'seed':>6} {'ratio':>7} {'acc':>6} {'pass':>5} {f'mean last {TAIL}':>13} {'wall s':>7}")
    for seed in range(args.seeds):
        start = time.perf_counter()
        result = pinned_run(seed)
        wall = time.perf_counter() - start
        losses = [m["loss"] for m in result.metrics]
        ratio, acc = losses[-1] / losses[0], result.metrics[-1]["train_acc"]
        ok = ratio < MAX_LOSS_RATIO and acc >= MIN_ACCURACY
        passed += ok
        tails.append(statistics.fmean(losses[-TAIL:]))
        print(f"{seed:>6} {ratio:>7.3f} {acc:>6.3f} {'yes' if ok else 'NO':>5} {tails[-1]:>13.4f} {wall:>7.1f}",
              flush=True)
    print(f"passed {passed}/{args.seeds}; mean loss over the last {TAIL} steps {statistics.fmean(tails):.4f}")


if __name__ == "__main__":
    main()
