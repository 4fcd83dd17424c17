"""Cost of the probes read off the induced-subclass tables:
``prober.preservation_under_extensions`` and the fragment-mode
``prober.witness_bound_search``.

Run with ``python -m pytest bench --benchmark-only``.  The digraph classes
on at most ``n`` points (2 + 10 + 104 + 3044 up to 4 points, 291968 more
at 5) and their induced-subclass tables are built by a first
call before timing, so a round is the sentences evaluated on each size's
columns and the tables read:

- ``extensions``: the submodel check of ``exists x. forall y. R(x,y)``
  is preserved under extensions; every (class, proper carrier) pair is
  decided, at n_max = 4 and 5;
- ``fragment``: the fragment-mode witness search at n_max = 5,
  lambda_max = 3, on ``forall x. exists y. R(x,y)`` (no bound: directed
  cycles) and on ``exists x. forall y. R(x,y)`` (bound 1).

``extra_info`` records the work a round decides (the report's
``pairs_checked`` or ``models_checked``) and that work per second at the
median round time.
"""

import pytest

from subsat import corpus, prober

FORMULAS = {e.name: e.formula for e in corpus.CORPUS}


@pytest.mark.parametrize("n", [4, 5])
def test_extensions(benchmark, n):
    phi = FORMULAS["dominating_point"]
    cfg = prober.ProbeConfig(corpus.BINARY, n_max=n)
    verdict = prober.preservation_under_extensions(phi, cfg)
    assert verdict.preserved

    def probe():
        return prober.preservation_under_extensions(phi, cfg)

    result = benchmark.pedantic(probe, rounds=5, iterations=1, warmup_rounds=1)
    assert result == verdict
    benchmark.extra_info["pairs"] = verdict.checked
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["pairs_per_s"] = verdict.checked / benchmark.stats.stats.median


@pytest.mark.parametrize("name", ["total_out_degree", "dominating_point"])
def test_fragment_search(benchmark, name):
    phi = FORMULAS[name]
    cfg = prober.ProbeConfig(corpus.BINARY, n_max=5, lambda_max=3, mode="fragment")
    verdict = prober.witness_bound_search(phi, cfg)

    def search():
        return prober.witness_bound_search(phi, cfg)

    result = benchmark.pedantic(search, rounds=5, iterations=1, warmup_rounds=1)
    assert result == verdict
    models = verdict.stats["models_checked"]
    benchmark.extra_info["models"] = models
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["models_per_s"] = models / benchmark.stats.stats.median
