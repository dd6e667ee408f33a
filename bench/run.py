"""levymix benchmark: one workload, closed loop, in one process.

    python3 bench/run.py --workload calculus --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. The workload's operations run one after another in rounds
(see workloads.py): one warm-up round, then rounds until their wall times
add up to ``--seconds``. Every round's outputs must be byte-identical to
the warm-up round's, and the last round's outputs are checked against
independent references. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
round time), ``setup_s`` (median time to import ``levymix.cli`` in a fresh
process, sampled between rounds) and ``peak_rss_mib``. With ``--trace 1``
untraced rounds alternate with rounds under the tracer (spans.py), and
the metrics are the per-layer medians over the traced rounds plus the
tracing overhead against the untraced rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

# BLAS/OpenMP pools get one thread, set before numpy is first imported. On
# a shared 2-core machine a second thread waits on whichever core is slowed
# by other tenants, which made round times markedly noisier (README.md).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = 1
SETUP_CODE = "import time; t = time.perf_counter(); import levymix.cli; print(time.perf_counter() - t)"
SETUP_SAMPLES = 6


def import_seconds():
    """Seconds to import levymix.cli in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=dict(os.environ, PYTHONPATH=SRC),
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def timed_rounds(ops, seconds, run_round, between):
    """Rounds until their wall times add up to `seconds` (at least one).

    `between(spent)` runs after each round, outside the measured time.
    """
    rounds = []
    spent = 0.0
    while not rounds or spent < seconds:
        t0 = time.perf_counter()
        rounds.append(run_round(ops))
        spent += time.perf_counter() - t0
        between(spent)
    return rounds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # fraction of the full input sizes; the benchmark's own tests run tiny sizes
    parser.add_argument("--scale", type=float, default=1.0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "levymix", "cli.py")):
        print(f"error: no levymix sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)

    sys.path[:0] = [SRC, HERE]
    import levymix
    import levymix.cli  # noqa: F401  (the CLI is what the workloads drive)

    if not os.path.abspath(levymix.__file__).startswith(SRC + os.sep):
        print(f"error: levymix imported from {levymix.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](levymix, args.seed, workdir, args.scale)

    # Set-up samples are spread evenly between the rounds, so they see the
    # same spells of a shared machine's speed as the rounds do.
    setup_times = []

    def sample_between(spent):
        if len(setup_times) < 1 + (SETUP_SAMPLES - 1) * spent / args.seconds:
            setup_times.append(import_seconds())

    warm = workloads.run_round(wl.ops)
    tracer = None
    if args.trace:
        # untraced and traced rounds alternate, so the overhead compares
        # rounds that saw the same spells of machine speed
        tracer = spans.Tracer(levymix)
        untraced, traced = [], []

        def traced_round(ops):
            tracer.install()
            tracer.begin_round()
            try:
                return workloads.run_round(ops)
            finally:
                tracer.end_round()
                tracer.uninstall()

        def run_pair(ops):
            untraced.append(workloads.run_round(ops))
            traced.append(traced_round(ops))

        timed_rounds(wl.ops, args.seconds, run_pair, lambda spent: None)
        rounds = untraced + traced
    else:
        setup_times.append(import_seconds())
        rounds = timed_rounds(wl.ops, args.seconds, workloads.run_round, sample_between)
        while len(setup_times) < SETUP_SAMPLES:
            setup_times.append(import_seconds())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = []
    failed = list(warm[3])
    for k, (_, _, digests, fails) in enumerate(rounds, start=1):
        failed += fails
        for name, digest in digests.items():
            if name in warm[2] and digest != warm[2][name]:
                errors.append(f"{name}: round {k} output differs from the warm-up round's")
    try:
        errors += wl.check(rounds[-1][1])
    except Exception as exc:  # an unreadable output fails the check, not the run
        errors.append(f"checking raised {type(exc).__name__}: {exc}")
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)

    times = [r[0] for r in rounds]
    if args.trace:
        per_round = tracer.round_metrics()
        metrics = {
            name: statistics.median(m[name] for m in per_round)
            for name in spans.metric_names() if name != "trace.overhead_pct"
        }
        t_untraced = statistics.median(r[0] for r in untraced)
        t_traced = statistics.median(r[0] for r in traced)
        metrics["trace.overhead_pct"] = 100.0 * (t_traced - t_untraced) / t_untraced
        tracer.save(os.path.join(workdir, "trace.npz"))
        metrics = {k: {"value": v, "unit": spans.metric_unit(k)} for k, v in metrics.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    summary = f"{args.workload} seed {args.seed}: {len(rounds)} rounds, round times {', '.join(f'{t:.3f}' for t in times)} s"
    if setup_times:
        summary += f"; levymix.cli imports {', '.join(f'{t:.3f}' for t in setup_times)} s"
    print(summary, file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(wl.ops) * (len(rounds) + 1),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
