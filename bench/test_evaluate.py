"""Cost per structure of compiled evaluation.

Run with ``python -m pytest bench --benchmark-only``.  The structures are
the 3160 digraphs on 1..4 points up to isomorphism, enumerated before
timing; the formulas are compiled by the warm-up round, so a round is
evaluation only.

- ``theta_semantic``: the submodel check of each of the 8 binary corpus
  sentences on every structure, each carrier evaluated in place;
- ``translation_lam3``: ``evaluate_fo`` of the existential translation of
  ``forall x. forall y. (R(x,y) -> R(y,x))`` at lambda = 3 on every
  structure.

``extra_info`` records the evaluations a round makes and the median µs
per structure checked.
"""

import pytest

from subsat import corpus, logic, structures, theta

STRUCTURES = [
    s for n in range(1, 5)
    for s in structures.enumerate_structures(corpus.BINARY, n, up_to_iso=True)
]
SENTENCES = [e.formula for e in corpus.BINARY_ONLY]
SYMMETRIC_LAM3 = theta.theta_bounded_to_existential_predicate(
    next(e.formula for e in corpus.BINARY_ONLY if e.name == "symmetric"), 3, sig=corpus.BINARY
)


def _theta_all():
    return sum(theta.theta_semantic(s, phi).truth for phi in SENTENCES for s in STRUCTURES)


def _translation():
    return sum(logic.evaluate_fo(s, SYMMETRIC_LAM3) for s in STRUCTURES)


CASES = {
    "theta_semantic": (_theta_all, len(SENTENCES) * len(STRUCTURES)),
    "translation_lam3": (_translation, len(STRUCTURES)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_evaluate(benchmark, case):
    run, checks = CASES[case]
    expected = run()
    result = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    assert result == expected
    benchmark.extra_info["structures"] = checks
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_structure"] = 1e6 * benchmark.stats.stats.median / checks
