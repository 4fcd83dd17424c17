"""Cost of the functional translation and of generic iso enumeration.

Run with ``python -m pytest bench --benchmark-only``.

- ``constant_reached_cold``: the corpus sentence ``exists x. F(x) = c``
  over one unary function and a constant, translated at lambda = 2,
  nu = 4, each round with every memo emptied (``structures.clear_memos``),
  so it includes compiling the sentence and building the marked classes
  of every size and their diagrams;
- ``constant_reached_warm``: the same translation with the marked classes
  and their diagrams already built and reused, which is what a later
  translation over the same (signature, lambda, size, variable names)
  pays when no class it needs lacks its diagram: evaluating the sentence
  on each class and picking conjunctions;
- ``constant_reached_compile``: compiling the same translation's sentence,
  its wide diagram disjunction included, each round on a copy rebuilt off
  the clock over the same diagram conjunctions (new ``Or`` and ``Exists``
  nodes), since translating again returns the sentence already compiled;
- ``constant_reached_sweep``: evaluating that translation, compiled, on the
  72 iso classes of the signature up to 4 points, as criterion 4 does, one
  compiled sentence serving every round, as every translation of the
  sentence returns it;
- ``constant_reached_sweep_cold_tree``: the same sweep, each round on such
  a copy compiled off the clock, so it includes growing the decision tree
  of its diagram disjunction, as the first sweep of a translation does;
- ``constant_reached_render``: rendering that translation's sentence,
  whose diagram conjunctions share their literals and terms as objects,
  each rendered once per call;
- ``carriers_unar_n5``: ``generated_carrier`` on every seed of at most 2
  points of the 77 iso classes of one unary function up to 5 points, 5
  times over the same structure objects, each round on structures
  enumerated afresh off the clock: the first pass fills each structure's
  carrier table with its one-point seeds by the closure loop, and every
  two-point seed, which the table does not keep, is the union of its
  points' entries;
- ``unar_n5_cold``: the 47 iso classes of one unary function on 5 points
  on the generic path (the orderly walk), each round with every memo
  emptied;
- ``all_fixed_l2_nu6_cold``: the corpus sentence ``forall x. F(x) = x``
  over one unary function, translated at lambda = 2, nu = 6, each round
  with every memo emptied, so it includes the iso classes of every size up
  to 6 and the marked classes read off them.

``extra_info`` records the disjunct and class counts of a round, and the
number of classes where the translation holds.
"""

import functools
import itertools

import pytest

from subsat import corpus, logic, structures, theta

CONSTANT_REACHED = next(e for e in corpus.CORPUS if e.name == "constant_reached")
ALL_FIXED = next(e for e in corpus.CORPUS if e.name == "all_fixed")


def _translation():
    return theta.theta_bounded_to_existential_functional(
        CONSTANT_REACHED.formula, corpus.UNAR_CONST, 2, 4
    )


def _translate():
    return _translation().disjuncts


def _rebuilt(sentence):
    """A copy of a translation's sentence with new ``Exists`` and ``Or``
    nodes over the same diagram conjunctions, so compiled afresh."""
    if isinstance(sentence, logic.Exists):
        return logic.Exists(sentence.var, _rebuilt(sentence.body))
    return logic.Or(sentence.parts)


def _fresh_translation():
    translation = _translation()
    return (_rebuilt(translation.sentence), translation.disjuncts), {}


def _compile(sentence, disjuncts):
    logic.compile_formula(sentence)
    return disjuncts


@functools.cache
def _swept():
    classes = [s for n in range(1, 5)
               for s in structures.enumerate_structures(corpus.UNAR_CONST, n, up_to_iso=True)]
    return _translation().sentence, classes


def _sweep(sentence=None):
    swept, classes = _swept()
    return sum(logic.evaluate_fo(s, swept if sentence is None else sentence) for s in classes)


def _render():
    return len(logic.render_formula(_swept()[0]))


def _cold_tree_sweep():
    sentence = _rebuilt(_translation().sentence)
    logic.compile_formula(sentence)
    return (sentence,), {}


def _fresh_seeded_unar():
    seeded = [(s, seed) for n in range(1, 6)
              for s in structures.enumerate_structures(corpus.UNAR, n, up_to_iso=True)
              for k in (1, 2) for seed in itertools.combinations(range(n), k)]
    return (seeded,), {}


def _carriers(seeded):
    return sum(len(structures.generated_carrier(s, seed)) for _ in range(5) for s, seed in seeded)


def _all_fixed():
    return theta.theta_bounded_to_existential_functional(
        ALL_FIXED.formula, corpus.UNAR, 2, 6
    ).disjuncts


def _unar_n5():
    return sum(1 for _ in structures.enumerate_structures(corpus.UNAR, 5, up_to_iso=True))


CASES = {
    "constant_reached_cold": (_translate, structures.clear_memos, "disjuncts"),
    "constant_reached_warm": (_translate, None, "disjuncts"),
    "constant_reached_compile": (_compile, _fresh_translation, "disjuncts"),
    "constant_reached_sweep": (_sweep, None, "holds"),
    "constant_reached_sweep_cold_tree": (_sweep, _cold_tree_sweep, "holds"),
    "constant_reached_render": (_render, None, "characters"),
    "carriers_unar_n5": (_carriers, _fresh_seeded_unar, "carrier_elements"),
    "unar_n5_cold": (_unar_n5, structures.clear_memos, "classes"),
    "all_fixed_l2_nu6_cold": (_all_fixed, structures.clear_memos, "disjuncts"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_functional(benchmark, case):
    run, setup, what = CASES[case]
    if setup is None:
        run()
    result = benchmark.pedantic(run, setup=setup, rounds=5, iterations=1, warmup_rounds=0)
    benchmark.extra_info[what] = result
