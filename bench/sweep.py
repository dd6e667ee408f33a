"""Seed sweep behind the benchmark's statistical bounds.

    python3 bench/sweep.py --workload calculus --seeds 1-20
    python3 bench/sweep.py --workload sampling --seeds 1-40
    python3 bench/sweep.py --workload recovery --seeds 1-40

Runs one round of the workload per seed (for recovery, only its noisy
``recover`` commands) and prints: for calculus, the largest share of each
tolerance used; per statistical check of sampling, the largest ECF score
seen against ``reference.Z_BOUND``; per recovered parameter, the mean,
standard deviation and largest deviation from the truth against
``workloads.RECOVER_BOUNDS``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("calculus", "sampling", "recovery"), required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-40"))
    args = parser.parse_args(argv)
    sys.path[:0] = [SRC, HERE]
    import levymix
    import levymix.cli  # noqa: F401
    import reference
    import workloads

    scores = {}
    workdir = os.path.join(HERE, "_work", "sweep")
    for seed in args.seeds:
        shutil.rmtree(workdir, ignore_errors=True)
        wl = workloads.WORKLOADS[args.workload](levymix, seed, workdir)
        ops = [op for op in wl.ops if not op.name.startswith("noiseless:")]
        _, values, _, failed = workloads.run_round(ops)
        errors = wl.check(values)
        for line in failed + errors:
            print(f"seed {seed}: {line}")
        for key, value in wl.scores.items():
            scores.setdefault(key, []).append(value)
    n = len(args.seeds)
    if args.workload == "calculus":
        for key, values in scores.items():
            print(f"{key}: largest share of the tolerance used {max(values):.3g} over {n} seeds")
        return 0
    if args.workload == "sampling":
        for key, values in scores.items():
            print(f"{key}: largest ECF score {max(values):.2f} over {n} seeds, "
                  f"median {statistics.median(values):.2f} (bound {reference.Z_BOUND})")
        return 0
    for key, estimates in scores.items():
        truth = workloads.RECOVER_PAIRS[key][2]
        bounds = workloads.RECOVER_BOUNDS[key]
        for j, (t, b) in enumerate(zip(truth, bounds)):
            col = [e[j] for e in estimates]
            sd = statistics.stdev(col)
            print(f"{key} param {j}: truth {t}, mean {statistics.fmean(col):.4f}, sd {sd:.4f}, "
                  f"largest |dev| {max(abs(c - t) for c in col):.4f}, 6 sd {6 * sd:.4f}, bound {b} ({n} seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
