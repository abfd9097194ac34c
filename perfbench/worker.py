"""Run one workload in this (fresh) process and print a JSON summary.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --setup-only

``run.py`` starts this script with BLAS and OpenMP threads set to 1. The
package is imported from ``src/`` of the checkout this script sits in.
The summary is the last line of standard output.

A run takes ``round(S / reference_pass_s)`` timed passes (at least three),
a count fixed by ``--seconds`` and the workload, not by the code's speed.
Untraced, it also starts ``SETUP_SAMPLES`` fresh ``--setup-only`` processes,
one at a time and spread evenly between the passes, so that the set-up
samples see the machine at the same moments as the passes.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 3
SETUP_SAMPLES = 7
# passes stop early only if the run takes this many times --seconds, so that
# a far slower program still ends within the run's time budget
MAX_SLOWDOWN = 4.0


def import_package():
    """Import sghmc from this checkout; returns the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import sghmc
    import sghmc.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if not Path(sghmc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"sghmc was imported from {sghmc.__file__}, not from {SRC}")
    return elapsed


class Tally:
    """Operation outcomes over every pass of the run."""

    def __init__(self):
        self.attempted = {"main": 0, "robust": 0}
        self.failed = {"main": 0, "robust": 0}
        self.failures = {}
        self.first_digests = None

    def add(self, results):
        digests = {op.name: d for op, _, d in results}
        if self.first_digests is None:
            self.first_digests = digests
        for op, problems, d in results:
            if d != self.first_digests.get(op.name):
                problems = problems + ["outputs differ from the first pass"]
            group = "robust" if op.robust else "main"
            self.attempted[group] += 1
            if problems:
                self.failed[group] += 1
                self.failures.setdefault(op.name, problems[0])


def setup_sample(args):
    """set-up seconds of a fresh --setup-only process"""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", args.workdir, "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def golden_comparison(workload, digests):
    """(identical, differing keys) against golden.json; (None, []) if the
    workload has no golden digests."""
    golden_path = HERE / "golden.json"
    if not golden_path.exists():
        return None, []
    golden = json.loads(golden_path.read_text()).get(workload)
    if golden is None:
        return None, []
    want = {f"{op}/{k}": v for op, files in golden.items() for k, v in files.items()}
    got = {f"{op}/{k}": v for op, files in digests.items() for k, v in files.items()}
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    return not differ, differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_s = import_package()
    import numpy
    import scipy

    from tracing import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS, run_pass

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    t0 = time.perf_counter()
    wl.setup()
    setup_s = import_s + time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally()
    # warm-up pass: caches fill and lazy set-up finishes before timing
    tally.add(run_pass(wl, None, "warm-up")[1])

    n_passes = max(MIN_PASSES, round(args.seconds / wl.reference_pass_s))
    untraced, traced, per_pass, shares, setups = [], [], [], [], []
    tracer = Tracer() if args.trace else None
    # traced runs time a third of the passes untraced, for the overhead
    n_untraced = max(2, n_passes // 3) if tracer else n_passes
    start = time.perf_counter()

    def in_time():
        return time.perf_counter() - start < MAX_SLOWDOWN * args.seconds

    while len(untraced) < n_untraced and (len(untraced) < MIN_PASSES or in_time()):
        wall, results = run_pass(wl, None, len(untraced))
        untraced.append(wall)
        tally.add(results)
        while not tracer and len(setups) * n_passes < len(untraced) * SETUP_SAMPLES:
            setups.append(setup_sample(args))
    if tracer:
        tracer.install()
        n_traced = max(MIN_PASSES, n_passes - n_untraced)
        while len(traced) < n_traced and (len(traced) < MIN_PASSES or in_time()):
            pass_id = len(traced)
            wall, results = run_pass(wl, tracer, pass_id)
            traced.append(wall)
            tally.add(results)
            metrics, totals = tracer.pass_metrics(pass_id)
            per_pass.append(metrics)
            shares.append(totals["layer_self_s"] / totals["wall_s"])
        trace_path = Path(args.workdir).parent / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)

    identical, differ = (golden_comparison(args.workload, tally.first_digests)
                         if args.seed == DEFAULT_SEED else (None, []))
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "planned_passes": n_passes,
        "wall_s": untraced,
        "setup_s": setups,
        "nominal_replica_steps": wl.nominal_replica_steps,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "robust_ops": [op.name for op in wl.robust_ops],
        "digests": tally.first_digests,
        "outputs_identical": identical,
        "outputs_differing": differ,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        summary.update({
            "traced_wall_s": traced,
            "per_layer": {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]},
            "trace_layer_share": statistics.median(shares),
            "trace_file": str(trace_path),
        })
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
