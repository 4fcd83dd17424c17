"""Bit-sliced sweeps against the per-structure evaluation they replace.

``prober._class_truths`` decides a sentence in every isomorphism class of
one size at once; bit i of its column is the i-th class.  Each column is
compared with the per-structure results of ``evaluate_fo``,
``evaluate_eso`` on the ESO translation, ``theta_semantic`` and
``theta_bounded_semantic``, and ``equivalence_oracle`` with a copy of the
class-by-class loop it used before, which it still uses for sides it
cannot slice.  The witness-bound search, the modal-law tables and the
well-foundedness demo's cycle oracle, which read the same columns, are
checked against the scan of every labelled structure, the per-structure
loop and the graph search; the witness-bound search over iso
representatives, which takes every other signature, against the
labelled scan too.  The induced-subclass tables are checked against
``induced_substructure`` and a lookup by canonical key, and the
extension probe and the fragment-mode search that read them against
their per-structure loops.
"""

import copy
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import canonical_key, labelled_first_counterexample

from subsat import corpus, logic, prober, structures, theta
from subsat.logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Const,
    Eq,
    EvaluationError,
    Exists,
    ExistsSet,
    Forall,
    Func,
    Iff,
    Implies,
    Not,
    Or,
    SetAtom,
    Var,
    compile_formula,
    evaluate_eso,
    evaluate_fo,
    free_variables,
    make_and,
    make_or,
    parse_formula,
)
from subsat.prober import (
    BoundedThetaOf,
    EquivalenceVerdict,
    ProbeConfig,
    ThetaOf,
    equivalence_oracle,
    preservation_under_extensions,
    sentence_checker,
    wellfoundedness_demo,
    witness_bound_search,
)
from subsat.structures import (
    CapExceededError,
    Signature,
    Structure,
    enumerate_structures,
    induced_substructure,
)
from subsat.theta import (
    modal_laws_check,
    theta_bounded_semantic,
    theta_bounded_to_existential_predicate,
    theta_semantic,
    theta_to_eso,
)

BINARY, UNARY_BINARY = corpus.BINARY, corpus.UNARY_BINARY
LOOP = parse_formula("exists x. R(x,x)", BINARY)
DOMINATING = parse_formula("exists x. forall y. R(x,y)", BINARY)


def per_class_oracle(left, right, cfg):
    """The class-by-class loop ``equivalence_oracle`` ran on every side."""
    checked = 0
    left_check, right_check = sentence_checker(left), sentence_checker(right)
    for n in range(1, cfg.n_max + 1):
        for s in enumerate_structures(cfg.signature, n, up_to_iso=True, cap=cfg.cap):
            checked += 1
            lt, rt = left_check(s), right_check(s)
            if lt != rt:
                return EquivalenceVerdict(False, s, lt, rt, checked, cfg.n_max)
    return EquivalenceVerdict(True, None, None, None, checked, cfg.n_max)


def summary(verdict):
    s = verdict.counterexample
    return (verdict.equal, None if s is None else s.key(), verdict.left_truth,
            verdict.right_truth, verdict.checked, verdict.n_max)


def outcome(oracle, left, right, cfg):
    """The verdict's summary, or the type and text of what it raised."""
    try:
        return summary(oracle(left, right, cfg))
    except (EvaluationError, ValueError) as exc:
        return type(exc), str(exc)


def assert_oracles_agree(left, right, cfg):
    assert outcome(equivalence_oracle, left, right, cfg) == outcome(
        per_class_oracle, left, right, cfg
    ), (left, right)


def assert_columns_match(phi, sig, n, classes=None):
    """Every sliced truth of phi at size n against its per-structure value,
    on every class or on the given class indices."""
    masks, columns = structures._iso_level(sig, n), structures._iso_columns(sig, n)
    everything = list(enumerate_structures(sig, n, up_to_iso=True))
    assert len(everything) == len(masks) and columns.full == (1 << len(masks)) - 1
    indices = range(len(masks)) if classes is None else classes
    eso = theta_to_eso(phi, sig)
    sides = {
        "fo": (phi, lambda s: evaluate_fo(s, phi)),
        "eso": (eso, lambda s: evaluate_eso(s, eso)),
        "theta": (ThetaOf(phi), lambda s: theta_semantic(s, phi).truth),
    }
    for bound in (1, 2, 3):
        sides[f"theta<={bound}"] = (
            BoundedThetaOf(phi, bound),
            lambda s, bound=bound: theta_bounded_semantic(s, phi, bound).truth,
        )
    for name, (item, reference) in sides.items():
        assert prober._sliceable(item, sig)
        column = prober._class_truths(item, columns, n)
        assert column >> len(masks) == 0, name
        for i in indices:
            assert bool(column >> i & 1) == reference(everything[i]), (name, n, i)


# --- random sentences -----------------------------------------------------------

VARIABLES = ("x", "y", "z")


def sentences(sig, extra_terms=()):
    """Sentences over ``sig``: random formulas, their free variables bound
    by drawn quantifiers.  Terms are variables and ``extra_terms``."""
    terms = st.sampled_from([Var(v) for v in VARIABLES] + list(extra_terms))
    leaves = [st.just(TRUE), st.just(FALSE), st.builds(Eq, terms, terms)]
    for name, arity in sig.predicates:
        leaves.append(
            st.builds(lambda args, name=name: Atom(name, tuple(args)),
                      st.lists(terms, min_size=arity, max_size=arity))
        )

    def extend(children):
        variables = st.sampled_from(VARIABLES)
        return st.one_of(
            st.builds(Not, children),
            st.builds(make_and, st.lists(children, min_size=1, max_size=3)),
            st.builds(make_or, st.lists(children, min_size=1, max_size=3)),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
            st.builds(Forall, variables, children),
            st.builds(Exists, variables, children),
        )

    def close(pair):
        body, universal = pair
        for v, forall in zip(sorted(free_variables(body)), universal):
            body = (Forall if forall else Exists)(v, body)
        return body

    bodies = st.recursive(st.one_of(*leaves), extend, max_leaves=8)
    return st.tuples(bodies, st.lists(st.booleans(), min_size=3, max_size=3)).map(close)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_sliced_truths_match_per_structure_on_random_sentences(data):
    sig = data.draw(st.sampled_from([BINARY, UNARY_BINARY]))
    phi = data.draw(sentences(sig))
    for n in (1, 2, 3):
        assert_columns_match(phi, sig, n)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_oracle_matches_per_class_loop_on_random_sentences(data):
    sig = data.draw(st.sampled_from([BINARY, UNARY_BINARY]))
    phi, psi = data.draw(sentences(sig)), data.draw(sentences(sig))
    cfg = ProbeConfig(sig, n_max=3)
    for left, right in (
        (ThetaOf(phi), theta_to_eso(phi, sig)),
        (BoundedThetaOf(phi, 2), theta_bounded_to_existential_predicate(phi, 2, sig=sig)),
        (ThetaOf(phi), phi),
        (phi, BoundedThetaOf(phi, 1)),
        (BoundedThetaOf(phi, 1), ThetaOf(psi)),
        (phi, psi),
    ):
        assert_oracles_agree(left, right, cfg)


def labelled_columns(sig, n):
    """Columns of every labelled structure of size n, built by hand."""
    family = list(enumerate_structures(sig, n))
    predicates = {
        name: {
            t: sum(1 << i for i, s in enumerate(family) if t in s.predicates[name])
            for t in itertools.product(range(n), repeat=arity)
        }
        for name, arity in sig.predicates
    }
    return family, structures.Columns(predicates, (1 << len(family)) - 1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sliced_mode_matches_holds_on_labelled_families(data):
    # the compiled sliced mode on its own, over a family that is not a set
    # of iso classes: every labelled structure of one size
    sig = data.draw(st.sampled_from([BINARY, UNARY_BINARY]))
    phi = data.draw(sentences(sig))
    eso = theta_to_eso(phi, sig)
    for n in (1, 2):
        family, columns = labelled_columns(sig, n)
        compiled = compile_formula(phi, sliced=True)
        for carrier in ((0,), tuple(range(n))):
            column = compiled.holds_sliced(columns, carrier)
            assert [bool(column >> i & 1) for i in range(len(family))] == [
                compiled.holds(s, carrier) for s in family
            ]
        column = compile_formula(eso, sliced=True).holds_eso_sliced(columns, range(n))
        assert [bool(column >> i & 1) for i in range(len(family))] == [
            evaluate_eso(s, eso) for s in family
        ]


# --- one walk per mode ----------------------------------------------------------------


def counting_walks(monkeypatch):
    """The (formula, sliced) pair of every closure-tree walk from now on."""
    walks = []
    build = logic._build

    def counting(builder, f):
        walks.append((f, builder.sliced))
        return build(builder, f)

    monkeypatch.setattr(logic, "_build", counting)
    return walks


def modes_walked(walks, f):
    return [sliced for g, sliced in walks if g is f]


def test_each_formula_is_walked_once_per_mode_it_is_evaluated_in(monkeypatch):
    # the translations are memoised: empty the memos so that they are fresh
    structures.clear_memos()
    walks = counting_walks(monkeypatch)
    # a fresh object: nothing compiled yet
    phi = parse_formula("exists x. forall y. R(x,y)", BINARY)
    eso = theta_to_eso(phi, BINARY)
    existential = theta_bounded_to_existential_predicate(phi, 3, sig=BINARY)
    for translation in (eso, existential):
        assert equivalence_oracle(ThetaOf(phi), translation, ProbeConfig(BINARY, n_max=3)).equal
    assert len(walks) == 3
    assert [modes_walked(walks, f) for f in (phi, eso, existential)] == [[True]] * 3
    # one structure: one more walk, in plain mode, and no other
    for _ in range(2):
        assert evaluate_fo(Structure(BINARY, 2, predicates={"R": {(0, 0), (0, 1)}}), existential)
    assert len(walks) == 4 and modes_walked(walks, existential) == [True, False]

    walks.clear()
    psi = parse_formula("exists x. F(x) != x", corpus.UNAR)
    translation = theta.theta_bounded_to_existential_functional(psi, corpus.UNAR, 1, 2).sentence
    for n in (1, 2, 3):
        for s in enumerate_structures(corpus.UNAR, n, up_to_iso=True):
            evaluate_fo(s, translation)
    assert len(walks) == 2
    assert modes_walked(walks, psi) == modes_walked(walks, translation) == [False]
    # the per-class loop of a functional signature walks nothing more
    equivalence_oracle(BoundedThetaOf(psi, 1), translation, ProbeConfig(corpus.UNAR, n_max=3))
    assert len(walks) == 2

    # the modal-law check reads predicate-only carrier tables off columns
    walks.clear()
    phi, psi = (parse_formula(text, BINARY) for text in ("exists x. R(x,x)", "forall x. R(x,x)"))
    modal_laws_check(phi, psi, list(enumerate_structures(BINARY, 2, up_to_iso=True)))
    assert len(walks) == 2 and modes_walked(walks, phi) == modes_walked(walks, psi) == [True]


P_F_C = Signature(predicates=(("P", 1),), functions=(("F", 1),), constants=("c",))
FUNCTION_TERMS = (Const("c"), Func("F", (Var("x"),)), Func("F", (Const("c"),)))


def facts(compiled):
    return (compiled.first_order, compiled.is_sentence, compiled.has_set_quantifier,
            compiled.eso_error, compiled.atoms, compiled.variables, compiled.set_variables)


def tarski(s, f, env):
    """Truth of ``f`` in ``s`` by recursion over the AST, set variables
    ranging over every subset: the reference for the compiled modes."""

    def value(t):
        if isinstance(t, Var):
            return env[t.name]
        if isinstance(t, Const):
            return s.constants[t.name]
        return s.functions[t.name][tuple(map(value, t.args))]

    if isinstance(f, (And, Or)):
        return (all if isinstance(f, And) else any)(tarski(s, p, env) for p in f.parts)
    if isinstance(f, (Forall, Exists)):
        over = all if isinstance(f, Forall) else any
        return over(tarski(s, f.body, {**env, f.var: e}) for e in range(s.size))
    if isinstance(f, ExistsSet):
        return any(tarski(s, f.body, {**env, f.set_var: set(c)})
                   for k in range(s.size + 1) for c in itertools.combinations(range(s.size), k))
    return {
        type(TRUE): lambda: True,
        type(FALSE): lambda: False,
        Atom: lambda: tuple(map(value, f.args)) in s.predicates[f.name],
        Eq: lambda: value(f.left) == value(f.right),
        SetAtom: lambda: value(f.arg) in env[f.set_var],
        Not: lambda: not tarski(s, f.body, env),
        Implies: lambda: not tarski(s, f.left, env) or tarski(s, f.right, env),
        Iff: lambda: tarski(s, f.left, env) == tarski(s, f.right, env),
    }[type(f)]()


def truths(compiled, sig, sliced):
    """Per size up to 3: the truths in every class, one by one or read off
    their column."""
    out = []
    for n in (1, 2, 3):
        classes = list(enumerate_structures(sig, n, up_to_iso=True))
        if sliced:
            columns = structures._structure_columns(sig, n, classes)
            run = compiled.holds_eso_sliced if compiled.has_set_quantifier else compiled.holds_sliced
            column = run(columns, range(n))
            out.append([bool(column >> i & 1) for i in range(len(classes))])
        else:
            run = compiled.holds_eso if compiled.has_set_quantifier else compiled.holds
            out.append([run(s, range(n)) for s in classes])
    return out


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_facts_and_truths_do_not_depend_on_the_first_mode(data):
    sig = data.draw(st.sampled_from([BINARY, UNARY_BINARY, P_F_C]))
    phi = data.draw(sentences(sig, FUNCTION_TERMS if sig is P_F_C else ()))
    sliceable = all(isinstance(t, Var) for t in logic._terms_of(phi))
    formulas = [phi]
    if sliceable and sig.is_predicate_only:
        formulas.append(theta_to_eso(phi, sig))
    for f in formulas:
        plain_first, sliced_first = copy.deepcopy(f), copy.deepcopy(f)
        a = compile_formula(plain_first)
        if sliceable:
            b = compile_formula(sliced_first, sliced=True)
        else:
            with pytest.raises(ValueError, match="bit-sliced evaluation needs a sentence"):
                compile_formula(sliced_first, sliced=True)
            b = compile_formula(sliced_first)
        assert a._sliced is None and b._run is None  # each walked in one mode so far
        fresh = {mode: logic._walked(copy.deepcopy(f), logic._Builder(mode))
                 for mode in (False, True)}
        assert facts(a) == facts(b) == facts(fresh[False]) == facts(fresh[True])
        expected = [[tarski(s, f, {}) for s in enumerate_structures(sig, n, up_to_iso=True)]
                    for n in (1, 2, 3)]
        for mode in (False, True) if sliceable else (False,):
            assert truths(a, sig, mode) == truths(b, sig, mode) == expected
            assert truths(fresh[mode], sig, mode) == expected
        if not sliceable:
            with pytest.raises(ValueError, match="bit-sliced evaluation needs a sentence"):
                compile_formula(plain_first, sliced=True)


# --- the corpus -------------------------------------------------------------------


@pytest.mark.parametrize("entry", corpus.PREDICATE_ONLY, ids=lambda e: e.name)
def test_sliced_truths_match_per_structure_on_the_corpus(entry):
    sig, phi = entry.signature, entry.formula
    for n in (1, 2, 3):
        assert_columns_match(phi, sig, n)
    if sig == BINARY:
        assert_columns_match(phi, sig, 4)
    else:
        # 45960 four-point classes: every 7th keeps the test quick
        assert_columns_match(phi, sig, 4, range(0, 45960, 7))


@pytest.mark.parametrize("entry", corpus.BINARY_ONLY, ids=lambda e: e.name)
def test_oracle_matches_per_class_loop_on_the_corpus(entry):
    phi = entry.formula
    cfg = ProbeConfig(BINARY, n_max=4)
    others = [e.formula for e in corpus.BINARY_ONLY]
    pairs = [
        (ThetaOf(phi), theta_to_eso(phi, BINARY)),
        (BoundedThetaOf(phi, 2), theta_bounded_to_existential_predicate(phi, 2, sig=BINARY)),
        (ThetaOf(phi), phi),
        (phi, ThetaOf(phi)),
        (BoundedThetaOf(phi, 1), ThetaOf(phi)),
    ] + [(ThetaOf(phi), psi) for psi in others]
    for left, right in pairs:
        assert_oracles_agree(left, right, cfg)


def test_equal_and_unequal_pairs_pin():
    # verdicts of the class-by-class loop: the counterexample is the first
    # class where the sides differ, and it is counted
    cfg = ProbeConfig(BINARY, n_max=4)
    assert summary(equivalence_oracle(ThetaOf(DOMINATING), LOOP, cfg)) == (
        True, None, None, None, 2 + 10 + 104 + 3044, 4
    )
    # a loop on one of two points: the loop is a dominating submodel
    assert summary(equivalence_oracle(ThetaOf(DOMINATING), DOMINATING, cfg)) == (
        False, (2, (((0, 0),),), (), ()), True, False, 4, 4
    )
    # one edge: no one-point submodel has a proper edge
    proper_edge = parse_formula("exists x. exists y. (x != y & R(x,y))", BINARY)
    assert summary(
        equivalence_oracle(BoundedThetaOf(proper_edge, 1), ThetaOf(proper_edge), cfg)
    ) == (False, (2, (((0, 1),),), (), ()), False, True, 5, 4)


def test_wellfoundedness_demo_counts_are_unchanged():
    report = wellfoundedness_demo(ProbeConfig(BINARY, n_max=4))
    assert report.passed and report.structures_checked == 2 + 10 + 104 + 3044
    cyclic = 0
    for n in range(1, 5):
        for s in enumerate_structures(BINARY, n, up_to_iso=True):
            cyclic += prober.has_directed_cycle(s, "R")
    assert report.cyclic_count == cyclic


def test_class_truths_hold_in_every_labelled_member():
    # the witness search reads each class's bit for its least labelled
    # member: spread over every labelled mask up to three points through
    # its canonical mask, each column is the per-structure truth
    for phi in [e.formula for e in corpus.BINARY_ONLY]:
        for k in (1, 2, 3):
            classes = structures._iso_level(BINARY, k)
            column = prober._class_truths(phi, structures._iso_columns(BINARY, k), k)
            truth = structures._column_bits(column, len(classes))
            canonical = structures._canonicalise(BINARY, k, np.arange(2 ** (k * k)))
            assert truth[np.searchsorted(classes, canonical)].tolist() == [
                evaluate_fo(structures._structure_from_indices(BINARY, k, (mask,)), phi)
                for mask in range(2 ** (k * k))
            ]


def test_witness_search_keeps_the_generic_path_for_what_it_cannot_slice():
    # an atom of the wrong arity is false, and raises nothing; an open
    # formula raises what the per-structure evaluation raises
    wrong_arity = Exists("x", Atom("R", (Var("x"),)))
    verdict = witness_bound_search(wrong_arity, ProbeConfig(BINARY, n_max=3, lambda_max=2))
    assert (verdict.outcome, verdict.bound, verdict.counterexamples) == (
        "WITNESS_BOUND_FOUND", 1, ()
    )
    assert verdict.stats["structures_scanned"] == 2**4 + 2**9
    with pytest.raises(EvaluationError, match="uncovered free variable x"):
        witness_bound_search(Atom("R", (Var("x"), Var("x"))), ProbeConfig(BINARY, n_max=2))


F_X = Func("F", (Var("x"),))
UNARY_TERMS = (F_X, Func("F", (Var("y"),)), Func("F", (F_X,)))
# (signature, its extra terms, largest size searched)
FUNCTION_SEARCHES = [
    (corpus.UNAR, UNARY_TERMS, 5),
    (corpus.UNAR_CONST, FUNCTION_TERMS, 5),
    (P_F_C, FUNCTION_TERMS, 4),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_representative_search_matches_the_labelled_scan(data):
    sig, terms, n_max = data.draw(st.sampled_from(FUNCTION_SEARCHES))
    phi = data.draw(sentences(sig, terms))
    lam = data.draw(st.sampled_from([1, 2]))
    n = data.draw(st.sampled_from(range(lam + 1, n_max + 1)))
    hit, scanned = prober._generic_first_counterexample(phi, sig, n, lam, 10**7)
    expected, expected_scanned = labelled_first_counterexample(phi, sig, n, lam, 10**7)
    assert hit == expected and scanned == expected_scanned
    if hit is not None:
        assert structures.render_structures(sig, {"hit": hit}) == structures.render_structures(
            sig, {"hit": expected})


def test_wellfoundedness_demo_builds_the_mismatching_classes(monkeypatch):
    # flip the submodel check of two 3-point classes: exactly those are
    # reported, built as the enumeration builds them, in class order
    class_truths = prober._class_truths
    flipped = (5, 77)

    def lying(item, columns, n):
        truth = class_truths(item, columns, n)
        return truth ^ sum(1 << i for i in flipped) if n == 3 else truth

    monkeypatch.setattr(prober, "_class_truths", lying)
    report = wellfoundedness_demo(ProbeConfig(BINARY, n_max=4))
    three_point = list(enumerate_structures(BINARY, 3, up_to_iso=True))
    assert report.mismatches == tuple(three_point[i] for i in flipped)
    assert report.structures_checked == 2 + 10 + 104 + 3044
    # with the submodel check false everywhere, the mismatches are the
    # classes the closure finds cyclic: the graph search's, class by class
    monkeypatch.setattr(prober, "_class_truths", lambda item, columns, n: 0)
    report = wellfoundedness_demo(ProbeConfig(BINARY, n_max=4))
    assert report.mismatches == tuple(
        s for n in range(1, 5) for s in enumerate_structures(BINARY, n, up_to_iso=True)
        if prober.has_directed_cycle(s, "R")
    )


def loop_modal_laws_check(phi, psi, family):
    """``modal_laws_check`` with every structure on its per-structure loop."""
    with mock.patch.object(theta, "_sliced_formula", lambda *args: False):
        return modal_laws_check(phi, psi, family)


MODAL_FAMILIES = {
    # iso classes and labelled structures, so that the columns pack
    # isomorphic copies too
    BINARY: [
        *(s for n in (1, 2, 3) for s in enumerate_structures(BINARY, n, up_to_iso=True)),
        *enumerate_structures(BINARY, 2),
    ],
    UNARY_BINARY: [
        *(s for n in (1, 2) for s in enumerate_structures(UNARY_BINARY, n, up_to_iso=True)),
        *enumerate_structures(UNARY_BINARY, 2),
    ],
}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_modal_column_tables_match_the_per_structure_loop(data):
    # shuffled lists with duplicates and mixed sizes, not iso sweeps
    sig = data.draw(st.sampled_from([BINARY, UNARY_BINARY]))
    phi, psi = data.draw(sentences(sig)), data.draw(sentences(sig))
    family = data.draw(st.lists(st.sampled_from(MODAL_FAMILIES[sig]), min_size=1, max_size=40))
    assert modal_laws_check(phi, psi, family) == loop_modal_laws_check(phi, psi, family)


def test_modal_laws_with_a_constant_take_the_loop(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a signature with a constant was packed into columns")

    monkeypatch.setattr(theta, "_structure_columns", forbidden)
    # a looped c and an unlooped point it misses: each holds on a carrier,
    # never both on one
    phi = parse_formula("forall x. R(c,x)", WITH_CONSTANT)
    psi = parse_formula("exists x. !R(x,x)", WITH_CONSTANT)
    family = [s for n in (1, 2) for s in enumerate_structures(WITH_CONSTANT, n)]
    report = modal_laws_check(phi, psi, family)
    assert report.passed
    assert report.result("v-and").strictness_witness is not None
    assert report == loop_modal_laws_check(phi, psi, family)


# --- sides that keep the class-by-class loop ---------------------------------------

X, Y = Var("x"), Var("y")
WITH_CONSTANT = Signature(predicates=(("R", 2),), constants=("c",))

FALLBACKS = {
    "constant_term": (BINARY, Exists("x", Atom("R", (Const("c"), X)))),
    "function_term": (BINARY, Exists("x", Eq(Func("F", (X,)), X))),
    "constant_signature": (WITH_CONSTANT, parse_formula("exists x. R(x,c)", WITH_CONSTANT)),
    "missing_predicate": (BINARY, Exists("x", Atom("Q", (X,)))),
    "missing_predicate_late": (BINARY, Exists("x", make_or((Atom("R", (X, X)), Atom("Q", (X,)))))),
    "wrong_arity": (BINARY, Exists("x", Atom("R", (X,)))),
    "open": (BINARY, Atom("R", (X, Y))),
    "nested_set_quantifier": (BINARY, Exists("x", ExistsSet("X", SetAtom("X", X)))),
    "free_set_variable": (BINARY, Exists("x", SetAtom("X", X))),
}


@pytest.mark.parametrize("case", list(FALLBACKS))
def test_unsliceable_sides_keep_the_per_class_loop(case):
    sig, phi = FALLBACKS[case]
    cfg = ProbeConfig(sig, n_max=3)
    sides = [phi, ThetaOf(phi), BoundedThetaOf(phi, 1), BoundedThetaOf(phi, 0)]
    for side in sides:
        assert not prober._sliceable(side, sig)
        for other in (TRUE, LOOP if sig == BINARY else TRUE, ThetaOf(TRUE)):
            assert_oracles_agree(side, other, cfg)
            assert_oracles_agree(other, side, cfg)


def test_callable_side_keeps_the_per_class_loop():
    cfg = ProbeConfig(BINARY, n_max=3)

    def has_three_points(s):
        return s.size >= 3

    def refuses_at_three(s):
        if s.size == 3:
            raise ValueError("no three-point structures")
        return False

    for side in (has_three_points, refuses_at_three):
        assert not prober._sliceable(side, BINARY)
        for other in (FALSE, ThetaOf(DOMINATING), ThetaOf(Exists("x", Forall("y", Eq(X, Y))))):
            assert_oracles_agree(side, other, cfg)
            assert_oracles_agree(other, side, cfg)


def test_sliced_mode_refuses_what_it_cannot_slice():
    for _, phi in FALLBACKS.values():
        if compile_formula(phi).atoms is None or not compile_formula(phi).is_sentence:
            with pytest.raises(ValueError, match="bit-sliced evaluation needs a sentence"):
                compile_formula(phi, sliced=True)


def test_cap_refuses_before_any_column_is_built(monkeypatch):
    built = []
    columns = prober._iso_columns

    def recording(sig, n):
        built.append(n)
        return columns(sig, n)

    monkeypatch.setattr(prober, "_iso_columns", recording)
    with pytest.raises(CapExceededError, match="2 iso candidates"):
        equivalence_oracle(ThetaOf(DOMINATING), LOOP, ProbeConfig(BINARY, n_max=6, cap=1))
    assert built == []
    # 3044 four-point classes times 2**9 choices of the fifth point's tuples
    with pytest.raises(CapExceededError, match="1558528 iso candidates"):
        equivalence_oracle(
            ThetaOf(DOMINATING), LOOP, ProbeConfig(BINARY, n_max=6, cap=1_000_000)
        )
    assert built == [1, 2, 3, 4]
    # six points take the labelled path, which refuses 2**36 structures
    built.clear()
    with pytest.raises(CapExceededError, match="68719476736 labelled structures"):
        equivalence_oracle(ThetaOf(DOMINATING), LOOP, ProbeConfig(BINARY, n_max=6))
    assert built == [1, 2, 3, 4, 5]


# --- induced-subclass tables --------------------------------------------------------

UNARY = Signature(predicates=(("P", 1),))


def assert_subclass_rows(sig, n, classes):
    """Rows of ``_subclass_table`` at size n against ``induced_substructure``
    of each given class and a lookup of the substructure's class by its
    canonical key."""
    lookup = {
        k: {canonical_key(s): i for i, s in enumerate(enumerate_structures(sig, k, up_to_iso=True))}
        for k in range(1, n)
    }
    masks = structures._iso_level(sig, n)
    for k in range(1, n):
        table = structures._subclass_table(sig, n, k)
        assert table.shape == (len(masks), math.comb(n, k))
        assert table.dtype == np.min_scalar_type(len(lookup[k]) - 1)
        for i in classes:
            s = structures._structure_from_mask(sig, n, masks[i])
            assert [
                lookup[k][canonical_key(induced_substructure(s, subset))]
                for subset in itertools.combinations(range(n), k)
            ] == table[i].tolist(), (n, k, i)


@pytest.mark.parametrize("sig, n_max", [(BINARY, 4), (UNARY_BINARY, 3), (UNARY, 7)],
                         ids=["binary", "unary_binary", "unary"])
def test_subclass_table_matches_induced_substructures(sig, n_max):
    for n in range(2, n_max + 1):
        assert_subclass_rows(sig, n, range(len(structures._iso_level(sig, n))))


def test_subclass_table_on_a_sample_of_five_point_classes():
    count = len(structures._iso_level(BINARY, 5))
    assert_subclass_rows(BINARY, 5, random.Random(5).sample(range(count), 300))


# --- extension and fragment probes on the tables ------------------------------------


def by_structure(probe, *args):
    """``probe`` on the per-structure loops: ``_sliced_formula`` is forced off."""
    with mock.patch.object(prober, "_sliced_formula", lambda *args: False):
        return probe(*args)


def extension_summary(verdict):
    return verdict.preserved, verdict.checked, verdict.target, verdict.counterexample


# the loops take 1-3 s per binary sentence at n_max = 4
@settings(max_examples=5, deadline=None)
@given(st.data())
def test_extension_probe_matches_the_loop_on_random_sentences(data):
    sig = data.draw(st.sampled_from([BINARY, UNARY_BINARY]))
    phi = data.draw(sentences(sig))
    cfg = ProbeConfig(sig, n_max=4 if sig == BINARY else 3)
    for apply_theta in (True, False):
        assert extension_summary(preservation_under_extensions(phi, cfg, apply_theta)) == (
            extension_summary(by_structure(preservation_under_extensions, phi, cfg, apply_theta))
        ), apply_theta


def fragment_summary(verdict):
    return verdict.outcome, verdict.bound, verdict.counterexamples, verdict.stats


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_fragment_search_matches_the_loop_on_random_sentences(data):
    sig = data.draw(st.sampled_from([BINARY, UNARY_BINARY]))
    phi = data.draw(sentences(sig))
    n_max = 4 if sig == BINARY else 3
    cfg = ProbeConfig(sig, n_max=n_max, lambda_max=data.draw(st.integers(1, n_max)),
                      mode="fragment")
    assert fragment_summary(witness_bound_search(phi, cfg)) == fragment_summary(
        by_structure(witness_bound_search, phi, cfg))
