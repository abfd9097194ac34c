"""Layered benchmark of the sghmc package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check [--seconds S]
    python3 perfbench/run.py --record-golden

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src/``. Each run starts the workload in a fresh process with
BLAS and OpenMP threads at 1. With ``--trace 0`` it prints the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones. The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The line before it is ``{"info": ...}``: the machine fingerprint, the sample
counts and quartiles, the robustness-set failures, whether the outputs match
``golden.json``, and, when traced, the tracing overhead.

``--self-check`` runs every workload briefly, traced and untraced, and checks
that every metric of BENCHMARK.json is printed with its unit and that the
layers' self times account for the traced wall time. ``--record-golden``
rewrites ``golden.json`` from the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
RUN_BUDGET_S = 170.0
# wall_s and setup_s are these quantiles of a run's samples (README.md, "Noise")
WALL_QUANTILE = 0.9
SETUP_QUANTILE = 0.75
# traced layer self times must cover at least this share of the traced wall
SELF_CHECK_SHARE = 0.95
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "replica_steps_per_s": "1/s",
                    "fail_ratio": "ratio", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(cmd, timeout):
    """Run a child to completion (killed on timeout); return its last stdout
    line parsed as JSON."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} timed out after {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def worker(workload, seed, workdir, extra, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), *extra]
    return run_child(cmd, deadline - time.monotonic())


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def quartiles(values):
    return [quantile(values, 0.25), statistics.median(values), quantile(values, 0.75)]


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    fingerprint = {"cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
                   "loadavg_1m": os.getloadavg()[0]}
    workdir = RUNS / f"{workload}-seed{seed}-{os.getpid()}"
    try:
        res = worker(workload, seed, workdir,
                     ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls, setups = res["wall_s"], res["setup_s"]
    attempted = sum(res["attempted"].values())
    failed = sum(res["failed"].values())
    robust = set(res["robust_ops"])
    info = {
        "workload": workload,
        "seed": seed,
        "machine": {**fingerprint, **res["versions"]},
        "passes": len(walls),
        "planned_passes": res["planned_passes"],
        "wall_s_quartiles": quartiles(walls),
        "wall_s_samples": walls,
        "setup_s_samples": setups,
        "robustness_failures": {k: v for k, v in res["failures"].items() if k in robust},
        "main_failures": {k: v for k, v in res["failures"].items() if k not in robust},
        "operations": {"attempted": res["attempted"], "failed": res["failed"]},
        "outputs_identical": res["outputs_identical"],
        "outputs_differing": res["outputs_differing"],
    }
    if trace:
        traced = statistics.median(res["traced_wall_s"])
        info.update({
            "traced_passes": len(res["traced_wall_s"]),
            "tracing_overhead": traced / statistics.median(walls) - 1.0,
            "traced_wall_s": traced,
            "trace_layer_share": res["trace_layer_share"],
            "trace_file": os.path.relpath(res["trace_file"], ROOT),
        })
        metrics = {k: {"value": res["per_layer"][k], "unit": unit}
                   for k, unit in PER_LAYER_UNITS.items()}
    else:
        # upper quantiles: on a shared host passes run faster in transient
        # boost phases, and the slow end tracks the sustained speed with a
        # smaller spread from run to run than the median; not the maximum, so
        # that one stray slow pass does not set the figure (README.md)
        wall = quantile(walls, WALL_QUANTILE)
        values = {
            "setup_s": quantile(setups, SETUP_QUANTILE),
            "wall_s": wall,
            "replica_steps_per_s": res["nominal_replica_steps"] / wall,
            "fail_ratio": failed / attempted,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {
        "correct": res["failed"]["main"] == 0,
        "attempted": res["attempted"]["main"],
        "failed": res["failed"]["main"],
        "metrics": metrics,
    }
    return info, result


def self_check(seconds):
    """Every workload, untraced and traced: metric names and units against
    BENCHMARK.json, correctness, and layer self times against traced wall."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", "0",
                   "--seconds", str(seconds), "--trace", str(trace)]
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=RUN_BUDGET_S + 10)
            except subprocess.TimeoutExpired:
                problems.append(f"{wl} trace={trace}: timed out")
                continue
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{wl} trace={trace}: exit {proc.returncode} "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{wl} trace={trace}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not result["correct"]:
                problems.append(f"{wl} trace={trace}: incorrect: {info['main_failures']}")
            share = info.get("trace_layer_share")
            line = f"{wl:20s} trace={trace} ok={result['correct']} metrics={len(got)}"
            if trace:
                line += f" layer_share={share:.4f} overhead={info['tracing_overhead']:+.3f}"
                if not SELF_CHECK_SHARE <= share <= 1.0 + 1e-9:
                    problems.append(f"{wl}: layer self times cover {share:.4f} of traced "
                                    f"wall_s, outside [{SELF_CHECK_SHARE}, 1]")
            print(line)
    for p in problems:
        print("FAIL", p)
    print("self-check", "passed" if not problems else "FAILED")
    return 0 if not problems else 1


def record_golden():
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DEFAULT_SEED, WORKLOADS

    golden = {}
    for name in WORKLOADS:
        workdir = RUNS / f"golden-{name}-{os.getpid()}"
        try:
            res = worker(name, DEFAULT_SEED, workdir, ["--seconds", "0", "--trace", "0"],
                         time.monotonic() + RUN_BUDGET_S)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        robust = set(res["robust_ops"])
        golden[name] = {op: d for op, d in res["digests"].items() if d and op not in robust}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'golden.json'} at seed {DEFAULT_SEED}")
    return 0


def _terminate(signum, frame):
    # raising here lets subprocess.run kill and reap the running child
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sghmc" / "__init__.py").is_file():
        print(f"error: no sghmc package under {ROOT / 'src'}; run inside a checkout",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(args.seconds)
    if args.record_golden:
        return record_golden()
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        info, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
