"""Cost of iso-class enumeration on the numpy path, per (signature, n).

Run with ``python -m pytest bench --benchmark-only``.  Each round starts
with every memo emptied (``structures.clear_memos``), so it times the
one-point extension from size 1 up, its bit layouts and relabelling
tables included, plus building one ``Structure`` per class:

- ``binary_n4`` / ``binary_n5``: one binary predicate, 3044 and 291968
  classes (OEIS A000595);
- ``unary_binary_n4``: a unary and a binary predicate, 45960 classes;
- ``unary_n9``: one unary predicate, 10 classes (one per count of points
  in it);
- ``canonicalise_binary_n4``: ``structures._canonicalise`` of all 2**16
  labelled binary masks on 4 points, every relabelling's byte tables.

``extra_info["classes"]`` records the class count of a round.  For
``binary_n5`` it also records the cold build of the classes alone in a
fresh process (Linux): ``fresh_build_s``, and ``fresh_rss_rise_mb``, its
rise in peak resident memory over the imported package and numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subsat import corpus, structures

UNARY = structures.Signature(predicates=(("P", 1),))
UNARY_BINARY = structures.Signature(predicates=(("P", 1), ("R", 2)))
SRC = Path(__file__).resolve().parent.parent / "src"

# VmHWM, the peak resident memory of this process image: unlike
# ru_maxrss it does not carry over the peak of the process that started it.
FRESH_BUILD = """
import json, time
import numpy
from subsat import corpus, structures

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM"))

before = peak_kb()
start = time.perf_counter()
structures._iso_level(corpus.BINARY, 5)
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds, "rise_kb": peak_kb() - before}))
"""


def _count(sig, n):
    return lambda: sum(1 for _ in structures.enumerate_structures(sig, n, up_to_iso=True))


CASES = {
    "binary_n4": _count(corpus.BINARY, 4),
    "binary_n5": _count(corpus.BINARY, 5),
    "unary_binary_n4": _count(UNARY_BINARY, 4),
    "unary_n9": _count(UNARY, 9),
    "canonicalise_binary_n4": lambda: len(
        np.unique(structures._canonicalise(corpus.BINARY, 4, np.arange(2**16)))
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_iso_enumeration(benchmark, case):
    classes = benchmark.pedantic(
        CASES[case],
        setup=structures.clear_memos,
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["classes"] = classes
    if case == "binary_n5":
        # one BLAS thread: numpy's thread start-up is not the build's memory
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", FRESH_BUILD], env=env, check=True,
                             capture_output=True, text=True).stdout
        fresh = json.loads(out)
        benchmark.extra_info["fresh_build_s"] = fresh["seconds"]
        benchmark.extra_info["fresh_rss_rise_mb"] = fresh["rise_kb"] / 1024
