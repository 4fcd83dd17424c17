"""Cost of the witness-bound search on class columns,
``prober._column_first_counterexample``.

Run with ``python -m pytest bench --benchmark-only``.  Each round decides
the 2**25 labelled digraphs on 5 points once, from the memoised classes
and their columns, built before timing: a round is the sentence and its
small carriers evaluated on the columns, and the first hit built.

- ``symmetric_lam1``: ``forall x. forall y. (R(x,y) -> R(y,x))`` at
  lambda = 1; it holds in every 1-point structure, so the search answers
  from the 1-point classes alone;
- ``total_out_degree_lam4``: ``forall x. exists y. R(x,y)`` at lambda = 4;
  30 carriers, and the hit is a directed 5-cycle in the second block of
  2**20 masks;
- ``proper_edge_lam1``: ``exists x. exists y. (x != y & R(x,y))`` at
  lambda = 1; no 1-point structure is a witness, and the hit is the
  least mask with a proper edge.

``extra_info`` records the labelled masks a round decides (the verdict's
``structures_scanned``) and the masks decided per second at the median
round time.
"""

import pytest

from subsat import corpus, prober, structures

FORMULAS = {e.name: e.formula for e in corpus.CORPUS}

CASES = {
    "symmetric_lam1": ("symmetric", 1),
    "total_out_degree_lam4": ("total_out_degree", 4),
    "proper_edge_lam1": ("proper_edge", 1),
}


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
    benchmark.extra_info["masks"] = masks
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["masks_per_s"] = masks / benchmark.stats.stats.median
