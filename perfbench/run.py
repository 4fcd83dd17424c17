"""Benchmark for subsat: time to a verdict end to end, self time per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload predicate-probes --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Each workload runs in a fresh process (``worker.py``): a closed loop of
passes over its fixed job list, one job at a time, for about
``--seconds``.  Set-up time is measured over several fresh processes.
Times are reported at the reference speed of ``reference.py``, which
takes out the machine's changes of speed; the unscaled times are printed
too.  With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run.  Lines before it print every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("predicate-probes", "functional-translation", "product-embedding")
# Set-up is timed in fresh processes up to READY: the measured run and
# SETUP_EXTRA setup-only processes on each side of it, so that the samples
# span the whole run rather than one moment of it.
SETUP_EXTRA = 4
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def start_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    # subsat makes no BLAS calls, but importing numpy starts one OpenBLAS
    # thread per CPU; on a small machine their start-up competes with the
    # importing thread and makes set-up time jump with the machine's load.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    return proc, start


def wait_worker(proc, start: float, deadline: float):
    """Return (seconds until READY, remaining stdout lines); kill on deadline."""
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or code != 0:
        raise BenchmarkError(f"worker exited with code {code} before finishing")
    return ready, rest.splitlines()


def verdict_percentiles(times: list) -> tuple[float, float, float]:
    """p50, tail percentile and tail value, in ms, over every job run.

    ``times`` holds each job's times, one per pass; every pass runs every
    job, so each job weighs the same whatever the number of passes.  The
    tail is the highest percentile that still has ten jobs beyond it, at
    the 11th slowest job's rank.  Each value is the mean of the pooled runs
    in a window around its rank: for p50 the runs from the 40th to the 60th
    percentile, for the tail the runs at the 10th to 12th slowest jobs'
    ranks.  A single pooled run at the rank would jump between jobs, and
    between the fast and the slow state of the machine (see reference.py),
    from one run of the benchmark to the next."""
    jobs, passes = len(times), len(times[0])
    pooled = sorted(1e3 * t for job in times for t in job)
    n = len(pooled)
    middle = pooled[int(0.4 * n):int(0.6 * n)]
    tail = pooled[(jobs - 12) * passes:(jobs - 9) * passes]
    return (statistics.fmean(middle), 100.0 * (jobs - 10.5) / jobs,
            statistics.fmean(tail))


def time_setup(workload: str, seed: int, deadline: float, setup: list, refs: list):
    for _ in range(SETUP_EXTRA):
        proc, start = start_worker(workload, seed, 0, 0, setup_only=True)
        ready, lines = wait_worker(proc, start, deadline)
        setup.append(ready)
        refs += json.loads(lines[-1])["refs"]


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float):
    # A traced run reports no setup_s, so it times only its own set-up.
    setup: list = []
    refs: list = []
    if not trace:
        time_setup(workload, seed, deadline, setup, refs)
    proc, start = start_worker(workload, seed, seconds, trace, setup_only=False)
    ready, lines = wait_worker(proc, start, deadline)
    setup.append(ready)
    if not trace:
        time_setup(workload, seed, deadline, setup, refs)
    if not lines:
        raise BenchmarkError("worker printed no result")
    raw = json.loads(lines[-1])

    # Every time below is scaled to the reference speed (see reference.py).
    k = reference.scale(refs + raw["refs"])
    wall_s = statistics.median(raw["walls"])
    setup_s = statistics.median(setup)
    p50_ms, tail_pct, tail_ms = verdict_percentiles(raw["times"])
    cli_ms = [1e3 * t for job, is_cli in zip(raw["times"], raw["cli"]) if is_cli for t in job]
    result = {
        "correct": not raw["failures"],
        "attempted": raw["attempted"],
        "failed": len(raw["failures"]),
        "end_to_end": {
            "setup_s": (k * setup_s, "s"),
            "wall_s": (k * wall_s, "s"),
            "verdict_p50_ms": (k * p50_ms, "ms"),
            "verdict_tail_ms": (k * tail_ms, "ms"),
            "peak_rss_mb": (raw["maxrss_kb"] / 1024.0, "MB"),
            "error_rate": (len(raw["failures"]) / raw["attempted"], "ratio"),
        },
        "info": {
            "jobs": len(raw["times"]),
            "passes": len(raw["walls"]),
            "verdict_tail_percentile": tail_pct,
            "speed_scale": k,
            "reference_samples": len(refs) + len(raw["refs"]),
            "unscaled_setup_s": setup_s,
            "unscaled_wall_s": wall_s,
            "unscaled_verdict_p50_ms": p50_ms,
            "unscaled_verdict_tail_ms": tail_ms,
            "cli_verdict_p50_ms": statistics.median(cli_ms) if cli_ms else math.nan,
            "nproc": raw["nproc"],
            "setup_samples_s": setup,
        },
        "failures": raw["failures"],
    }
    if trace:
        result["per_layer"] = raw["per_layer"]
        result["info"]["traced_passes"] = len(raw["traced_walls"])
        result["info"]["tracer_missing"] = raw["missing"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "subsat" / "__init__.py").is_file():
        print(f"error: no subsat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from layers import unit_of

    deadline = time.monotonic() + DEADLINE_S * (3 if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (BenchmarkError, json.JSONDecodeError, KeyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        prefix = f"{name}." if args.workload == "all" else ""
        if args.trace:
            metrics = {k: (v, unit_of(k)) for k, v in result["per_layer"].items()}
            shown = metrics
        else:
            shown = result["end_to_end"]
            metrics = {k: v for k, v in shown.items() if k != "error_rate"}
        for key, (value, unit) in shown.items():
            print(f"{name}  {key} = {value:.6g} {unit}")
        for key, value in result["info"].items():
            print(f"{name}  info {key} = {value}")
        for failure in result["failures"][:20]:
            print(f"{name}  FAILED {failure['job']}: {failure['error']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, (value, unit) in metrics.items():
            combined["metrics"][prefix + key] = {"value": value, "unit": unit}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
