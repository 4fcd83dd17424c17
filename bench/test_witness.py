"""Cost of the witness-bound search, on class columns
(``prober._column_first_counterexample``) and over the iso
representatives of a signature with functions
(``prober._generic_first_counterexample``).

Run with ``python -m pytest bench --benchmark-only``.  On class columns
each round decides the 2**25 labelled digraphs on 5 points once, from the
memoised classes and their columns, built before timing: a round is the
sentence and its small carriers evaluated on the columns, and the first
hit built.

- ``symmetric_lam1``: ``forall x. forall y. (R(x,y) -> R(y,x))`` at
  lambda = 1; it holds in every 1-point structure, so the search answers
  from the 1-point classes alone;
- ``total_out_degree_lam4``: ``forall x. exists y. R(x,y)`` at lambda = 4;
  30 carriers, and the hit is a directed 5-cycle in the second block of
  2**20 masks;
- ``proper_edge_lam1``: ``exists x. exists y. (x != y & R(x,y))`` at
  lambda = 1; no 1-point structure is a witness, and the hit is the
  least mask with a proper edge.

Over one unary function on 7 points (823,543 labelled structures, 343
classes) each round starts with every memo emptied
(``structures.clear_memos``), so it times compiling the sentence and the
orderly walk up to the hit with each class's first labelled member and
its small carriers evaluated:

- ``fixed_point_unar_n7_lam1``: ``exists x. F(x) = x`` at lambda = 1;
  every model has a fixed point, a 1-point witness, so there is no hit
  and the whole walk runs;
- ``two_cycle_unar_n7_lam1``: ``exists x. (F(F(x)) = x & F(x) != x)`` at
  lambda = 1; no 1-point structure is a witness, and the hit is the first
  class with a 2-cycle, at labelled rank 47.

``extra_info`` records the labelled masks or structures a round decides
(the verdict's ``structures_scanned``) and how many it decides per second
at the median round time.
"""

import pytest

from subsat import corpus, prober, structures
from subsat.logic import parse_formula

FORMULAS = {e.name: e.formula for e in corpus.CORPUS}

CASES = {
    "symmetric_lam1": ("symmetric", 1),
    "total_out_degree_lam4": ("total_out_degree", 4),
    "proper_edge_lam1": ("proper_edge", 1),
}

# (sentence, n, lambda, structures_scanned)
GENERIC_CASES = {
    "fixed_point_unar_n7_lam1": ("exists x. F(x) = x", 7, 1, 823_543),
    "two_cycle_unar_n7_lam1": ("exists x. (F(F(x)) = x & F(x) != x)", 7, 1, 48),
}


def record(benchmark, unit, count):
    benchmark.extra_info[unit] = count
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info[f"{unit}_per_s"] = count / benchmark.stats.stats.median


@pytest.mark.parametrize("case", list(CASES))
def test_witness_search(benchmark, case):
    name, lam = CASES[case]
    phi = FORMULAS[name]
    structures._iso_columns(corpus.BINARY, 5)
    cap = structures.DEFAULT_ENUMERATION_CAP

    def search():
        return prober._column_first_counterexample(phi, corpus.BINARY, 5, lam, cap, {})

    hit, masks = search()
    result = benchmark.pedantic(search, rounds=5, iterations=1, warmup_rounds=1)
    assert result == (hit, masks)
    record(benchmark, "masks", masks)


@pytest.mark.parametrize("case", list(GENERIC_CASES))
def test_generic_witness_search(benchmark, case):
    text, n, lam, expected = GENERIC_CASES[case]
    phi = parse_formula(text, corpus.UNAR)
    cap = structures.DEFAULT_ENUMERATION_CAP

    def search():
        return prober._generic_first_counterexample(phi, corpus.UNAR, n, lam, cap)

    result = benchmark.pedantic(
        search, setup=structures.clear_memos, rounds=5, iterations=1, warmup_rounds=0
    )
    hit, scanned = result
    assert (hit is None, scanned) == (expected == 823_543, expected)
    record(benchmark, "structures", scanned)
