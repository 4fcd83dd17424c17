"""One workload in one process: set up, run timed passes, check every answer.

Started by ``run.py``; prints ``READY`` when set-up is done (the parent
times set-up up to that line) and, unless ``--setup-only`` is given, one
JSON line with the raw measurements at the end.  Each pass runs every job
of the workload once; its answers are checked after the pass, off the
clock.  After every job, also off the clock, it times the reference
computation of ``reference.py``, so that the parent can scale the run's
times to the reference speed.  With ``--trace 1`` the first half of the
time runs untraced and the second half traced, so the difference is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Reference samples a set-up-only process takes after READY, for the speed
# of the machine around the set-up it timed.
SETUP_REFS = 25


def import_package():
    """Import subsat from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (set-up cost users pay)
    import subsat

    if Path(subsat.__file__).resolve().parent != ROOT / "src" / "subsat":
        raise ImportError(f"subsat imported from {subsat.__file__}, not from {ROOT / 'src'}")


class _Raised:
    def __init__(self, text):
        self.text = text


def run_pass(jobs, times, results, refs):
    """Run every job once; return the pass's time, the sum of its job times.

    Each job starts from a collected heap, off the clock, so that no job
    pays for garbage that the jobs before it left.  A reference sample
    follows every job, so the samples spread over the run as its work does."""
    import reference  # imported after READY, so that set-up time leaves it out

    ctx: dict = {}
    wall = 0.0
    for index, job in enumerate(jobs):
        gc.collect()
        t0 = time.perf_counter()
        try:
            results.append(job.run(ctx))
        except Exception:  # a job that raises counts as failed; keep measuring
            results.append(_Raised(traceback.format_exc(limit=3)))
        elapsed = time.perf_counter() - t0
        times[index].append(elapsed)
        wall += elapsed
        refs.append(reference.sample())
    return wall


def check_pass(jobs, results, failures):
    for job, result in zip(jobs, results):
        if isinstance(result, _Raised):
            failures.append({"job": job.name, "error": result.text.strip().splitlines()[-1]})
            continue
        try:
            problem = job.check(result)
        except Exception as exc:  # a check that cannot read the answer is a miss
            problem = f"check raised {exc!r}"
        if problem is not None:
            failures.append({"job": job.name, "error": problem})


def run_until(jobs, seconds, walls, times, failures, refs, tracer=None):
    """Run passes, at least one, while the next would end within ``seconds``
    if it took as long as the last; trace the passes but not the checks
    when a tracer is given."""
    start = time.perf_counter()
    last = 0.0
    while not walls or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        results: list = []
        if tracer is not None:
            tracer.enabled = True
        walls.append(run_pass(jobs, times, results, refs))
        if tracer is not None:
            tracer.enabled = False
        check_pass(jobs, results, failures)
        last = time.perf_counter() - began


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    from tracer import Tracer
    from layers import TARGETS, layer_metrics
    from workloads import WORKLOADS

    setup_tracer = None
    if args.trace:
        setup_tracer = Tracer()
        setup_tracer.install(TARGETS)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        for name, text in workload.files.items():
            (Path(workdir) / name).write_text(text, encoding="utf-8")
        os.chdir(workdir)
        if setup_tracer is not None:
            setup_tracer.uninstall()
        print("READY", flush=True)
        if args.setup_only:
            import reference

            print(json.dumps({"refs": [reference.sample() for _ in range(SETUP_REFS)]}))
            return 0

        jobs = workload.jobs
        times = [[] for _ in jobs]
        walls: list = []
        failures: list = []
        refs: list = []
        out = {"jobs": [j.name for j in jobs], "cli": [j.cli for j in jobs], "nproc": os.cpu_count()}
        if not args.trace:
            run_until(jobs, args.seconds, walls, times, failures, refs)
        else:
            run_until(jobs, args.seconds / 2, walls, times, failures, refs)
            tracer = Tracer()
            tracer.install(TARGETS)
            traced_walls: list = []
            traced_times = [[] for _ in jobs]
            run_until(jobs, args.seconds / 2, traced_walls, traced_times, failures, refs, tracer)
            tracer.uninstall()
            summary = tracer.summary()
            summary["passes"] = len(traced_walls)
            overhead = statistics.median(traced_walls) - statistics.median(walls)
            out["per_layer"] = layer_metrics(summary, setup_tracer.summary(), overhead)
            out["missing"] = summary["missing"]
            out["traced_walls"] = traced_walls
        out.update(walls=walls, times=times, failures=failures, refs=refs,
                   attempted=len(jobs) * (len(walls) + len(out.get("traced_walls", ()))),
                   maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        print(json.dumps(out), flush=True)
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
