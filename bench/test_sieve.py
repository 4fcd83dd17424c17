"""Cost of the witness-bound mask sieve, ``prober._sieve_first_counterexample``.

Run with ``python -m pytest bench --benchmark-only``.  Each round decides
the 2**25 labelled digraphs on 5 points once, up to the chunk holding the
first counterexample; the witness truth tables are built before timing,
so a round is the chunked sieve plus the evaluation of its class-least
survivors.

- ``symmetric_lam1``: ``forall x. forall y. (R(x,y) -> R(y,x))`` at
  lambda = 1; every 1-point structure is a witness, so the full 1-point
  truth table settles every mask before any chunk is built;
- ``total_out_degree_lam4``: ``forall x. exists y. R(x,y)`` at lambda = 4;
  30 subsets per chunk, and the directed 5-cycles are found in the second
  chunk;
- ``proper_edge_lam1``: ``exists x. exists y. (x != y & R(x,y))`` at
  lambda = 1; no 1-point structure is a witness, so about a million
  masks of the first chunk survive, and the hit is among the first of
  them.

``extra_info`` records the masks a round decides and the masks decided
per second at the median round time.
"""

import pytest

from subsat import corpus, prober

FORMULAS = {e.name: e.formula for e in corpus.CORPUS}

CASES = {
    "symmetric_lam1": ("symmetric", 1),
    "total_out_degree_lam4": ("total_out_degree", 4),
    "proper_edge_lam1": ("proper_edge", 1),
}


@pytest.mark.parametrize("case", list(CASES))
def test_sieve(benchmark, case):
    name, lam = CASES[case]
    phi = FORMULAS[name]
    tables = {}
    hit, masks = prober._sieve_first_counterexample(phi, corpus.BINARY, 5, lam, tables)

    def sieve():
        return prober._sieve_first_counterexample(phi, corpus.BINARY, 5, lam, tables)

    result = benchmark.pedantic(sieve, rounds=5, iterations=1, warmup_rounds=1)
    assert result == (hit, masks)
    benchmark.extra_info["masks"] = masks
    benchmark.extra_info["masks_per_s"] = masks / benchmark.stats.stats.median
