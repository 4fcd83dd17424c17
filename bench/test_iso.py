"""Cost of iso-class enumeration on the numpy path, per (signature, n).

Run with ``python -m pytest bench --benchmark-only``.  Each round starts
with an empty memo of representatives, so it times the one-point
extension from size 1 up plus building one ``Structure`` per class:

- ``binary_n4`` / ``binary_n5``: one binary predicate, 3044 and 291968
  classes (OEIS A000595);
- ``unary_binary_n4``: a unary and a binary predicate, 45960 classes;
- ``unary_n9``: one unary predicate, 10 classes (one per count of points
  in it);
- ``canonical_masks_binary_n4``: ``structures._canonical_masks`` over all
  2**16 labelled binary masks on 4 points, the array the witness sieve
  spreads truth values with.

``extra_info["classes"]`` records the class count of a round.
"""

import pytest

from subsat import corpus, structures

UNARY = structures.Signature(predicates=(("P", 1),))
UNARY_BINARY = structures.Signature(predicates=(("P", 1), ("R", 2)))


def _count(sig, n):
    return lambda: sum(1 for _ in structures.enumerate_structures(sig, n, up_to_iso=True))


CASES = {
    "binary_n4": _count(corpus.BINARY, 4),
    "binary_n5": _count(corpus.BINARY, 5),
    "unary_binary_n4": _count(UNARY_BINARY, 4),
    "unary_n9": _count(UNARY, 9),
    "canonical_masks_binary_n4": lambda: len(
        set(structures._canonical_masks(corpus.BINARY, 4).tolist())
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_iso_enumeration(benchmark, case):
    classes = benchmark.pedantic(
        CASES[case],
        setup=structures._iso_level.cache_clear,
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["classes"] = classes
