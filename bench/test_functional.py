"""Cost of the functional translation and of generic iso enumeration.

Run with ``python -m pytest bench --benchmark-only``.

- ``constant_reached_cold``: the corpus sentence ``exists x. F(x) = c``
  over one unary function and a constant, translated at lambda = 2,
  nu = 4, each round with empty memos, so it includes building the
  marked classes of every size;
- ``constant_reached_warm``: the same translation with the marked classes
  already built, which is what every later translation over the same
  (signature, lambda, size) pays;
- ``unar_n5_cold``: the 47 iso classes of one unary function on 5 points
  on the generic path (every labelled structure canonicalised), each
  round with an empty memo.

``extra_info`` records the disjunct and class counts of a round.
"""

import pytest

from subsat import corpus, structures, theta

CONSTANT_REACHED = next(e for e in corpus.CORPUS if e.name == "constant_reached")


def _clear_memos():
    theta._generated_classes.cache_clear()
    structures._GENERIC_ISO.clear()


def _translate():
    return theta.theta_bounded_to_existential_functional(
        CONSTANT_REACHED.formula, corpus.UNAR_CONST, 2, 4
    ).disjuncts


def _unar_n5():
    return sum(1 for _ in structures.enumerate_structures(corpus.UNAR, 5, up_to_iso=True))


CASES = {
    "constant_reached_cold": (_translate, _clear_memos, "disjuncts"),
    "constant_reached_warm": (_translate, None, "disjuncts"),
    "unar_n5_cold": (_unar_n5, _clear_memos, "classes"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_functional(benchmark, case):
    run, setup, what = CASES[case]
    if setup is None:
        run()
    result = benchmark.pedantic(run, setup=setup, rounds=5, iterations=1, warmup_rounds=0)
    benchmark.extra_info[what] = result
