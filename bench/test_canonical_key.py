"""Per-call cost of ``structures.canonical_key`` on three inputs.

Run with ``python -m pytest bench --benchmark-only``.  Each round keys
every structure of its case once; the per-call cost is the round time
divided by ``extra_info["calls"]``.

- ``binary_closure``: every induced substructure of the binary-relation
  iso classes of size <= 3 (small predicate structures);
- ``unar_n5``: all 3125 labelled structures of one unary function on
  5 points (the generic enumeration path);
- ``unar_const_n4``: all 1024 labelled structures of one unary function
  and a constant on 4 points.
"""

import pytest

from subsat import corpus
from subsat.structures import (
    canonical_key,
    enumerate_structures,
    enumerate_submodels,
    induced_substructure,
)


def _binary_closure():
    return [
        induced_substructure(s, carrier)
        for n in (1, 2, 3)
        for s in enumerate_structures(corpus.BINARY, n, up_to_iso=True)
        for carrier in enumerate_submodels(s)
    ]


CASES = {
    "binary_closure": _binary_closure,
    "unar_n5": lambda: list(enumerate_structures(corpus.UNAR, 5)),
    "unar_const_n4": lambda: list(enumerate_structures(corpus.UNAR_CONST, 4)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_canonical_key(benchmark, case):
    structures = CASES[case]()
    benchmark.extra_info["calls"] = len(structures)

    def key_all():
        return [canonical_key(s) for s in structures]

    keys = benchmark.pedantic(key_all, rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info["classes"] = len(set(keys))
