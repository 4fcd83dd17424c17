"""Cost of iso-class enumeration on the generic path, per (signature, n).

Run with ``python -m pytest bench --benchmark-only``.  Each round starts
with every memo emptied (``structures.clear_memos``), so it times the
orderly walk, which visits only prefixes of index tuples that no
relabelling beats, plus building one ``Structure`` per class:

- ``unar_n5`` / ``unar_n6`` / ``unar_n7``: one unary function, 3125,
  46656 and 823,543 labelled structures, 47, 130 and 343 classes
  (OEIS A001372);
- ``unar_const_n4`` / ``unar_const_n5`` / ``unar_const_n6``: one unary
  function and a constant, 1024, 15625 and 279,936 labelled structures;
- ``mixed_n3``: a unary predicate, a unary function and a constant on
  3 points, 648 labelled structures.

``extra_info["classes"]`` records the class count of a round.
"""

import pytest

from subsat import corpus, structures

MIXED = structures.Signature(
    predicates=(("P", 1),), functions=(("F", 1),), constants=("c",)
)

CASES = {
    "unar_n5": (corpus.UNAR, 5),
    "unar_n6": (corpus.UNAR, 6),
    "unar_n7": (corpus.UNAR, 7),
    "unar_const_n4": (corpus.UNAR_CONST, 4),
    "unar_const_n5": (corpus.UNAR_CONST, 5),
    "unar_const_n6": (corpus.UNAR_CONST, 6),
    "mixed_n3": (MIXED, 3),
}


@pytest.mark.parametrize("case", list(CASES))
def test_generic_iso_enumeration(benchmark, case):
    sig, n = CASES[case]

    def count():
        return sum(1 for _ in structures.enumerate_structures(sig, n, up_to_iso=True))

    classes = benchmark.pedantic(
        count, setup=structures.clear_memos, rounds=3, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info["classes"] = classes
