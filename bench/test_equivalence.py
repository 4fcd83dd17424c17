"""Cost of the bit-sliced equivalence sweep, ``prober.equivalence_oracle``.

Run with ``python -m pytest bench --benchmark-only``.  Each round decides
every digraph up to isomorphism on at most ``n`` points (2 + 10 + 104 +
3044 classes up to 4 points, 291968 more at 5) for one pair of sides
that agree everywhere, so the sweep runs to its end.  The classes and
their columns are memoised before timing, so a round is the evaluation of
both sides on each size's columns:

- ``eso``: the submodel check of ``exists x. forall y. R(x,y)`` against
  its monadic existential second-order translation;
- ``existential_lam2``: the check bounded to 2 generators against the
  existential translation at lambda = 2.

``extra_info`` records the classes a round decides and the classes
decided per second at the median round time.

``test_equivalence_cold`` is ``existential_lam2`` at ``n`` = 4 with the
translation rebuilt in each round, so that building it and compiling it
are inside the timing: the translation's memo is emptied before each
round, and only it, so classes and columns stay warm.  A round walks one
closure tree (the translation, in bit-sliced mode), which ``extra_info``
records.
"""

from unittest import mock

import pytest

from subsat import corpus, logic, prober, theta

PHI = next(e.formula for e in corpus.CORPUS if e.name == "dominating_point")

PAIRS = {
    "eso": (prober.ThetaOf(PHI), theta.theta_to_eso(PHI, corpus.BINARY)),
    "existential_lam2": (
        prober.BoundedThetaOf(PHI, 2),
        theta.theta_bounded_to_existential_predicate(PHI, 2, sig=corpus.BINARY),
    ),
}


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("pair", list(PAIRS))
def test_equivalence(benchmark, pair, n):
    left, right = PAIRS[pair]
    cfg = prober.ProbeConfig(corpus.BINARY, n_max=n)
    verdict = prober.equivalence_oracle(left, right, cfg)
    assert verdict.equal

    def sweep():
        return prober.equivalence_oracle(left, right, cfg)

    result = benchmark.pedantic(sweep, rounds=5, iterations=1, warmup_rounds=1)
    assert result == verdict
    benchmark.extra_info["classes"] = verdict.checked
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["classes_per_s"] = verdict.checked / benchmark.stats.stats.median


def test_equivalence_cold(benchmark):
    left = prober.BoundedThetaOf(PHI, 2)
    cfg = prober.ProbeConfig(corpus.BINARY, n_max=4)

    def sweep():
        right = theta.theta_bounded_to_existential_predicate(PHI, 2, sig=corpus.BINARY)
        return prober.equivalence_oracle(left, right, cfg)

    verdict = sweep()
    assert verdict.equal
    walks, build = [], logic._build

    def counting(builder, f):
        walks.append(builder.sliced)
        return build(builder, f)

    rebuild = theta.theta_bounded_to_existential_predicate.cache_clear
    rebuild()
    with mock.patch.object(logic, "_build", counting):
        assert sweep() == verdict
    assert len(walks) == 1
    result = benchmark.pedantic(sweep, setup=rebuild, rounds=5, iterations=1, warmup_rounds=1)
    assert result == verdict
    benchmark.extra_info["classes"] = verdict.checked
    benchmark.extra_info["walks_per_round"] = len(walks)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["classes_per_s"] = verdict.checked / benchmark.stats.stats.median
