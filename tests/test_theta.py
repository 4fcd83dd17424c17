import gc
import itertools
import operator
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import reference
from reference import canonical_key
from test_logic import formulas
from test_structures import KERNEL_SIGNATURES, random_structures, relabel

from subsat import corpus, logic, theta
from subsat import structures as structures_module
from subsat.corpus import CONSTS3, CORPUS, UNAR_CONST
from subsat.logic import (
    FALSE,
    TRUE,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Var,
    evaluate_eso,
    evaluate_fo,
    free_variables,
    fresh_variables,
    is_existential_sentence,
    make_and,
    make_or,
    parse_formula,
    relativized_node_count,
    render_formula,
    subformulas,
)
from subsat.structures import (
    CapExceededError,
    Signature,
    Structure,
    enumerate_structures,
    enumerate_submodels,
    generated_carrier,
    induced_substructure,
)
from subsat.theta import (
    LawResult,
    ModalLawReport,
    ThetaReport,
    atomic_diagram,
    modal_laws_check,
    theta_bounded_semantic,
    theta_bounded_to_existential_functional,
    theta_bounded_to_existential_predicate,
    theta_semantic,
    theta_to_eso,
)

BINARY = Signature(predicates=(("R", 2),))
UNAR = Signature(functions=(("F", 1),))


def digraph(n, edges):
    return Structure(BINARY, n, predicates={"R": set(edges)})


def unar(n, table):
    return Structure(UNAR, n, functions={"F": {(i,): v for i, v in table.items()}})


def c3_cycle():
    return digraph(3, [(0, 1), (1, 2), (2, 0)])


EXISTS_FORALL = parse_formula("exists x. forall y. R(x,y)", BINARY)
FORALL_EXISTS = parse_formula("forall x. exists y. R(x,y)", BINARY)
LOOP = parse_formula("exists x. R(x,x)", BINARY)
MOVED = parse_formula("exists x. F(x) != x", UNAR)


# --- theta_semantic ----------------------------------------------------------


def test_theta_semantic_loop_witness():
    report = theta_semantic(digraph(2, [(0, 0)]), EXISTS_FORALL)
    assert report.truth
    assert report.witness == frozenset({0})


def test_theta_semantic_false_is_false():
    for s in [digraph(2, [(0, 1)]), c3_cycle()]:
        report = theta_semantic(s, FALSE)
        assert not report.truth and report.witness is None
        assert report.inspected == 2**s.size - 1


def test_theta_semantic_cycle_needs_full_carrier():
    report = theta_semantic(c3_cycle(), FORALL_EXISTS)
    assert report.truth
    assert report.witness == frozenset({0, 1, 2})
    assert report.inspected == 7


def test_theta_semantic_rejects_open_formula():
    with pytest.raises(ValueError):
        theta_semantic(c3_cycle(), parse_formula("R(x,x)", BINARY))


def test_theta_witness_carrier_reverifies():
    for s in [digraph(3, [(0, 0), (1, 2)]), c3_cycle(), digraph(2, [])]:
        for phi in [EXISTS_FORALL, FORALL_EXISTS, LOOP]:
            report = theta_semantic(s, phi)
            if report.truth:
                assert evaluate_fo(induced_substructure(s, report.witness), phi)


def _closed(f, universal):
    """``f`` with its free variables bound, outermost first in name order."""
    for name, forall in zip(sorted(free_variables(f), reverse=True), universal):
        f = (Forall if forall else Exists)(name, f)
    return f


sentences = st.builds(_closed, formulas, st.lists(st.booleans(), min_size=3, max_size=3))
digraphs = st.integers(1, 3).flatmap(
    lambda n: st.builds(
        lambda edges: digraph(n, edges),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
    )
)


@settings(max_examples=300, deadline=None)
@given(sentences, digraphs)
def test_theta_in_place_matches_built_submodels(phi, s):
    # reference: every carrier built as its own structure, then evaluated
    inspected = 0
    for carrier in enumerate_submodels(s):
        inspected += 1
        if evaluate_fo(induced_substructure(s, carrier), phi):
            expected = ThetaReport(True, carrier, inspected)
            break
    else:
        expected = ThetaReport(False, None, inspected)
    assert theta_semantic(s, phi) == expected
    assert evaluate_eso(s, theta_to_eso(phi, BINARY)) == expected.truth


# --- theta_bounded_semantic --------------------------------------------------


def test_theta_bounded_unar_paper_example():
    s = unar(4, {0: 1, 1: 2, 2: 3, 3: 0})
    report = theta_bounded_semantic(s, MOVED, 1)
    assert report.truth
    assert report.witness == frozenset({0, 1, 2, 3})


def test_theta_bounded_singletons_lack_cycles():
    report = theta_bounded_semantic(c3_cycle(), FORALL_EXISTS, 1)
    assert not report.truth


def test_theta_bounded_true_with_bound_one():
    assert theta_bounded_semantic(c3_cycle(), TRUE, 1).truth


def test_theta_bounded_zero_needs_constants():
    with pytest.raises(ValueError):
        theta_bounded_semantic(c3_cycle(), TRUE, 0)
    sig = Signature(constants=("c",))
    s = Structure(sig, 2, constants={"c": 1})
    report = theta_bounded_semantic(s, parse_formula("forall x. x = c", sig), 0)
    assert report.truth and report.witness == frozenset({1})


def test_theta_bounded_implies_theta():
    for s in enumerate_structures(BINARY, 3, up_to_iso=True):
        for phi in [EXISTS_FORALL, FORALL_EXISTS, LOOP]:
            if theta_bounded_semantic(s, phi, 2).truth:
                assert theta_semantic(s, phi).truth


# --- theta_to_eso ------------------------------------------------------------


def test_theta_to_eso_shape_predicate_only():
    f = theta_to_eso(LOOP, BINARY)
    text = render_formula(f)
    assert text.startswith("existsSet X. ")
    assert "X(x0)" in text  # nonemptiness conjunct over a fresh variable


def test_theta_to_eso_includes_function_closure():
    f = theta_to_eso(MOVED, UNAR)
    text = render_formula(f)
    assert "X(F(" in text  # closure-under-F conjunct


def test_theta_to_eso_includes_constants():
    sig = Signature(functions=(("F", 1),), constants=("c",))
    f = theta_to_eso(parse_formula("F(c) != c", sig), sig)
    assert "X(c)" in render_formula(f)


@pytest.mark.parametrize(
    "phi",
    [EXISTS_FORALL, FORALL_EXISTS, LOOP, parse_formula("forall x. forall y. x = y", BINARY)],
)
def test_theta_to_eso_matches_semantics_binary(phi):
    f = theta_to_eso(phi, BINARY)
    for n in (1, 2, 3):
        for s in enumerate_structures(BINARY, n, up_to_iso=True):
            assert evaluate_eso(s, f) == theta_semantic(s, phi).truth


@pytest.mark.parametrize(
    "phi", [MOVED, parse_formula("forall x. F(x) = x", UNAR)]
)
def test_theta_to_eso_matches_semantics_unar(phi):
    f = theta_to_eso(phi, UNAR)
    for n in (1, 2, 3):
        for s in enumerate_structures(UNAR, n, up_to_iso=True):
            assert evaluate_eso(s, f) == theta_semantic(s, phi).truth


def test_theta_to_eso_paper_worked_case():
    f = theta_to_eso(EXISTS_FORALL, BINARY)
    assert evaluate_eso(digraph(2, [(0, 0)]), f)


# --- predicate-case existential translation ---------------------------------


def test_predicate_translation_paper_examples():
    f = theta_bounded_to_existential_predicate(EXISTS_FORALL, 1)
    assert render_formula(f) == "exists x0. R(x0,x0)"
    g = theta_bounded_to_existential_predicate(Not(FORALL_EXISTS), 1)
    assert render_formula(g) == "exists x0. !R(x0,x0)"
    t = theta_bounded_to_existential_predicate(TRUE, 1)
    assert render_formula(t) == "exists x0. true"


def test_predicate_translation_is_existential():
    for phi in [EXISTS_FORALL, FORALL_EXISTS, LOOP]:
        for lam in (1, 2, 3):
            f = theta_bounded_to_existential_predicate(phi, lam)
            assert is_existential_sentence(f)


def test_predicate_translation_rejects_functional():
    with pytest.raises(ValueError):
        theta_bounded_to_existential_predicate(MOVED, 1)
    with pytest.raises(ValueError):
        theta_bounded_to_existential_predicate(LOOP, 1, sig=UNAR)


def nested_quantifiers(depth: int) -> str:
    """Alternating quantifiers over a chain of edges: x0 R x1 R ... R x{depth-1}."""
    names = [f"y{i}" for i in range(depth)]
    prefix = "".join(
        f"{'forall' if i % 2 == 0 else 'exists'} {v}. " for i, v in enumerate(names)
    )
    return prefix + "(" + " | ".join(f"R({a},{b})" for a, b in zip(names, names[1:])) + ")"


def test_predicate_translation_node_count_is_predicted():
    sentences = [e.formula for e in CORPUS if e.signature_name == "binary"]
    sentences.append(parse_formula(nested_quantifiers(4), BINARY))
    for phi in sentences:
        for lam in (1, 2, 3, 4):
            f = theta_bounded_to_existential_predicate(phi, lam)
            assert sum(1 for _ in subformulas(f)) == lam + relativized_node_count(phi, lam)


def test_predicate_translation_refuses_past_cap_before_building():
    phi = parse_formula(nested_quantifiers(16), BINARY)
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="formula nodes") as info:
        theta_bounded_to_existential_predicate(phi, 4)
    assert time.perf_counter() - start < 1.0
    assert info.value.count == 4 + relativized_node_count(phi, 4)
    # a small cap refuses a small translation; at the cap it is built
    loop_nodes = 2 + relativized_node_count(LOOP, 2)
    with pytest.raises(CapExceededError):
        theta_bounded_to_existential_predicate(LOOP, 2, cap=loop_nodes - 1)
    theta_bounded_to_existential_predicate(LOOP, 2, cap=loop_nodes)


def test_predicate_translation_matches_bounded_semantics():
    sentences = [EXISTS_FORALL, FORALL_EXISTS, LOOP, Not(FORALL_EXISTS)]
    for phi in sentences:
        for lam in (1, 2):
            f = theta_bounded_to_existential_predicate(phi, lam)
            for n in (1, 2, 3):
                for s in enumerate_structures(BINARY, n, up_to_iso=True):
                    assert evaluate_fo(s, f) == theta_bounded_semantic(s, phi, lam).truth


# --- memoised predicate-signature translations -------------------------------

TRANSLATIONS = {
    "eso": lambda phi, sig, bound: theta_to_eso(phi, sig),
    "existential": lambda phi, sig, bound: theta_bounded_to_existential_predicate(
        phi, bound, sig=sig
    ),
}


@pytest.mark.parametrize("name", list(TRANSLATIONS))
def test_equal_arguments_return_one_compiled_sentence(name):
    translate = TRANSLATIONS[name]
    first = translate(EXISTS_FORALL, BINARY, 2)
    reparsed = parse_formula("exists x. forall y. R(x,y)", BINARY)
    assert reparsed is not EXISTS_FORALL
    again = translate(reparsed, Signature(predicates=(("R", 2),)), 2)
    assert again is first
    assert logic.formula_facts(again) is logic.formula_facts(first)


def test_refusals_are_raised_on_every_call():
    open_formula = parse_formula("R(x,x)", BINARY)
    for _ in range(2):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            theta_bounded_to_existential_predicate(LOOP, 0, sig=BINARY)
        for translate in TRANSLATIONS.values():
            with pytest.raises(ValueError, match="open formula"):
                translate(open_formula, BINARY, 1)
        with pytest.raises(ValueError, match="functional signature"):
            theta_bounded_to_existential_predicate(LOOP, 1, sig=UNAR)
    # the cap is part of the key: a smaller one refuses after the default built it
    loop_nodes = 2 + relativized_node_count(LOOP, 2)
    built = theta_bounded_to_existential_predicate(LOOP, 2)
    for _ in range(2):
        with pytest.raises(CapExceededError, match="formula nodes"):
            theta_bounded_to_existential_predicate(LOOP, 2, cap=loop_nodes - 1)
    assert theta_bounded_to_existential_predicate(LOOP, 2) is built


@pytest.mark.parametrize("name", list(TRANSLATIONS))
def test_clear_memos_makes_the_next_translation_anew(name):
    translate = TRANSLATIONS[name]
    before = translate(FORALL_EXISTS, BINARY, 2)
    assert translate(FORALL_EXISTS, BINARY, 2) is before
    structures_module.clear_memos()
    after = translate(FORALL_EXISTS, BINARY, 2)
    assert after is not before and after == before


@settings(max_examples=150, deadline=None)
@given(sentences, st.sampled_from([BINARY, corpus.UNARY_BINARY]), st.integers(1, 3))
def test_memoised_translations_match_fresh_ones(phi, sig, bound):
    for fn, args in (
        (theta_to_eso, (phi, sig)),
        (theta_bounded_to_existential_predicate, (phi, bound, sig)),
    ):
        fresh = fn.__wrapped__(*args)
        memoised = fn(*args)
        assert memoised == fresh
        assert render_formula(memoised) == render_formula(fresh)
        assert fn(*args) is memoised


# --- functional-case existential translation ---------------------------------


def test_functional_translation_unar_two_disjuncts():
    result = theta_bounded_to_existential_functional(MOVED, UNAR, 1, 2)
    assert result.disjuncts == 2
    assert is_existential_sentence(result.sentence)
    text = render_formula(result.sentence)
    # chain to a fixed point and the 2-cycle
    assert "F(F(x0)) = F(x0)" in text
    assert "F(F(x0)) = x0" in text
    assert "x0 != F(x0)" in text


def test_functional_translation_identity_single_disjunct():
    phi = parse_formula("forall x. F(x) = x", UNAR)
    result = theta_bounded_to_existential_functional(phi, UNAR, 1, 3)
    assert result.disjuncts == 1
    assert render_formula(result.sentence) == "exists x0. F(x0) = x0"


def test_functional_translation_false_is_empty_disjunction():
    result = theta_bounded_to_existential_functional(FALSE, UNAR, 1, 2)
    assert result.disjuncts == 0
    assert render_formula(result.sentence) == "exists x0. false"


def test_functional_translation_soundness_and_conditional_completeness():
    nu = 3
    for phi in [MOVED, parse_formula("forall x. F(x) = x", UNAR),
                parse_formula("exists x. F(F(x)) = x", UNAR)]:
        result = theta_bounded_to_existential_functional(phi, UNAR, 1, nu)
        for n in (1, 2, 3, 4):
            for s in enumerate_structures(UNAR, n, up_to_iso=True):
                translated = evaluate_fo(s, result.sentence)
                semantic = theta_bounded_semantic(s, phi, 1).truth
                if translated:
                    assert semantic  # soundness, unconditionally
                small = all(
                    len(generated_carrier(s, (e,))) <= nu for e in range(s.size)
                )
                if small:
                    assert translated == semantic


def test_functional_translation_refuses_before_building_any_size():
    # sizes 1..7 of one unary function fit the cap; 8**8 does not
    structures_module.clear_memos()
    with pytest.raises(CapExceededError) as exc:
        theta_bounded_to_existential_functional(MOVED, UNAR, 1, 8)
    assert (exc.value.count, exc.value.cap) == (16_777_216, 5_000_000)
    assert theta._generated_classes.cache_info().currsize == 0
    assert structures_module._GENERIC_ISO == {}


def test_marked_classes_reuse_the_iso_representatives(monkeypatch):
    n = 4
    structures_module.clear_memos()
    classes = list(enumerate_structures(UNAR, n, up_to_iso=True))

    def unexpected(sig, size):
        raise AssertionError("the representatives were walked again")

    built = []
    structure = theta._structure_from_indices

    def recording(sig, size, indices):
        built.append(indices)
        return structure(sig, size, indices)

    monkeypatch.setattr(structures_module, "_orbit_steps", unexpected)
    monkeypatch.setattr(theta, "_structure_from_indices", recording)
    theta._generated_classes.cache_clear()
    marked = theta._generated_classes(UNAR, 2, n)
    # one structure read per iso class, and no labelled scan
    assert built == list(structures_module._GENERIC_ISO[(UNAR, n)])
    assert len(built) == len(classes) == 19
    assert 0 < len(marked) <= len(classes)


def generated_models(sig, bound, size_cap):
    """The pairs of ``theta._generated_classes`` up to ``size_cap``, each
    structure built fresh."""
    for size in range(1, size_cap + 1):
        for indices, tuples in theta._generated_classes(sig, bound, size):
            s = structures_module._structure_from_indices(sig, size, indices)
            yield from ((s, generators) for generators in tuples)


def _uncached_translation(phi, sig, bound, size_cap):
    """The translation with a fresh diagram per generated model."""
    variables = fresh_variables(phi, bound)
    markers = [Var(v) for v in variables]
    models = [(s, g) for s, g in generated_models(sig, bound, size_cap) if evaluate_fo(s, phi)]
    disjuncts = [make_and(theta._marked_diagram(s, g, markers, {}).literals) for s, g in models]
    sentence = make_or(disjuncts)
    for v in reversed(variables):
        sentence = Exists(v, sentence)
    return sentence, len(disjuncts)


def _disjuncts(sentence):
    while isinstance(sentence, Exists):
        sentence = sentence.body
    if isinstance(sentence, Or):
        return sentence.parts
    return () if sentence == FALSE else (sentence,)


def _conjunction_ids(sig, bound, variables, size_cap):
    """The ids of every diagram conjunction the marked classes now keep for
    these variable names, each built if not yet."""
    ids = set()
    for size in range(1, size_cap + 1):
        marked = theta._generated_classes(sig, bound, size, variables)
        for i in range(len(marked.structures)):
            ids.update(map(id, marked.conjunctions(i)))
    return ids


def test_corpus_translations_render_as_trees():
    # the translations share terms, literals and conjunctions; rendering each
    # node object once gives the text of the tree
    for entry in CORPUS:
        phi, sig = entry.formula, entry.signature
        sentences = [theta_to_eso(phi, sig)]
        if sig.is_predicate_only:
            sentences += [theta_bounded_to_existential_predicate(phi, bound, sig)
                          for bound in (1, 2, 3)]
        else:
            sentences += [theta_bounded_to_existential_functional(phi, sig, bound, 4).sentence
                          for bound in (1, 2)]
        for sentence in sentences:
            assert render_formula(sentence) == reference.render_formula(sentence), entry.name


def test_clearing_the_marked_classes_releases_their_sentences():
    entries = [e for e in CORPUS if e.signature in (UNAR, UNAR_CONST)]

    def translate_all():
        return [theta_bounded_to_existential_functional(e.formula, e.signature, bound, 4).sentence
                for e in entries for bound in (1, 2)]

    # measured after the second and third translations, so that memory the
    # first one reuses from before tracing began does not count
    traced = []
    theta._generated_classes.cache_clear()
    tracemalloc.start()
    try:
        for _ in range(3):
            sentences = translate_all()
            # translating again returns the identical sentence objects
            assert all(map(operator.is_, translate_all(), sentences))
            del sentences
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
            theta._generated_classes.cache_clear()
    finally:
        tracemalloc.stop()
    # the old sentences go with the old classes: kept in a table of their
    # own, each translation after a clear added about a quarter
    assert traced[2] < 1.1 * traced[1], traced


def test_a_sweep_keeps_the_carriers_of_single_points_only():
    # every seed of a 60-cycle generates the whole universe, and with no
    # fixed point the sentence fails there: all 36,050 seeds are swept
    n = 60
    s = unar(n, {i: (i + 1) % n for i in range(n)})
    phi = parse_formula("exists x. F(x) = x", UNAR)
    gc.collect()
    tracemalloc.start()
    try:
        report = theta_bounded_semantic(s, phi, 3)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.truth and report.inspected == 1
    # one entry per point: an entry per seed, each holding the universe,
    # kept about 180 MB
    assert set(vars(s)["_carriers"]) == {(p,) for p in range(n)}
    assert kept < 1_000_000 and peak < 2_000_000, (kept, peak)


@pytest.mark.parametrize("bound", [1, 2])
def test_cached_diagrams_change_no_translation(bound):
    entries = [e for e in CORPUS if e.signature in (UNAR, UNAR_CONST)]
    results = {}
    for sig in (UNAR, UNAR_CONST):
        every = theta_bounded_to_existential_functional(TRUE, sig, bound, 4)
        reused = {id(c) for c in _disjuncts(every.sentence)}
        for entry in entries:
            if entry.signature != sig:
                continue
            result = theta_bounded_to_existential_functional(entry.formula, sig, bound, 4)
            sentence, disjuncts = _uncached_translation(entry.formula, sig, bound, 4)
            assert result.sentence == sentence
            assert result.disjuncts == disjuncts > 0
            # same variable names, so the same conjunction objects
            assert all(id(c) in reused for c in _disjuncts(result.sentence))
            results[entry.name] = result
    # translating again builds no structure and no diagram, and returns the
    # sentence already compiled; so does a sentence with the same variable
    # names and the same classes
    compiled = {name: logic.formula_facts(r.sentence) for name, r in results.items()}
    built = AssertionError("built again")
    with mock.patch.object(theta, "_marked_diagram", side_effect=built), \
            mock.patch.object(theta, "_structure_from_indices", side_effect=built):
        for entry in entries:
            sentence = results[entry.name].sentence
            for phi in (entry.formula, Not(Not(entry.formula))):
                again = theta_bounded_to_existential_functional(phi, entry.signature, bound, 4)
                assert again.sentence is sentence
                assert logic.formula_facts(again.sentence) is compiled[entry.name]
    for entry in entries:
        other = theta_bounded_to_existential_functional(entry.formula, entry.signature, 3 - bound, 4)
        assert other.sentence is not results[entry.name].sentence
    # new conjunctions after the memo is cleared, and a sentence over them
    # (the old ones live on in ``results``, so no id is reused)
    theta._generated_classes.cache_clear()
    for entry in entries:
        fresh = theta_bounded_to_existential_functional(entry.formula, entry.signature, bound, 4)
        variables = tuple(fresh_variables(entry.formula, bound))
        new = _conjunction_ids(entry.signature, bound, variables, 4)
        assert fresh.sentence == results[entry.name].sentence
        assert all(id(c) in new for c in _disjuncts(fresh.sentence))


def reference_generated_models(sig, bound, size_cap, satisfying=None):
    """Every labelled structure times every generator tuple, generation by
    closure and marked classes by the canonical key of the marked
    structure, first occurrences kept."""
    gen_names = [f"g{i}" for i in range(bound)]
    marked_sig = Signature(sig.predicates, sig.functions, sig.constants + tuple(gen_names))
    seen = set()
    for size in range(1, size_cap + 1):
        for s in enumerate_structures(sig, size):
            if satisfying is not None and not satisfying(s):
                continue
            for generators in itertools.product(range(size), repeat=bound):
                if len(generated_carrier(s, generators)) != size:
                    continue
                marked = Structure(
                    marked_sig,
                    size,
                    s.predicates,
                    s.functions,
                    dict(s.constants) | dict(zip(gen_names, generators)),
                )
                key = canonical_key(marked)
                if key not in seen:
                    seen.add(key)
                    yield s, generators


P_F = Signature(predicates=(("P", 1),), functions=(("F", 1),))
G = Signature(functions=(("G", 2),))
F_CD = Signature(functions=(("F", 1),), constants=("c", "d"))
R_F = Signature(predicates=(("R", 2),), functions=(("F", 1),))
GENERATED_MODEL_CASES = {
    "unar-l1": (UNAR, 1, 4, "exists x. F(x) != x"),
    "unar-l2": (UNAR, 2, 4, "exists x. F(F(x)) = x"),
    "unar_const-l1": (UNAR_CONST, 1, 4, "F(c) = c"),
    "unar_const-l2": (UNAR_CONST, 2, 4, "exists x. F(x) = c & x != c"),
    "P-F-l2": (P_F, 2, 3, "exists x. P(x) & !P(F(x))"),
    "G-l1": (G, 1, 3, "forall x. G(x,x) = x"),
    "F-c-d-l2": (F_CD, 2, 3, "c != d"),
    "R-F-l1": (R_F, 1, 3, "forall x. R(x,F(x))"),
    "unar-l3": (UNAR, 3, 3, "exists x. F(x) = x"),
    "consts3-l2": (CONSTS3, 2, 4, "c0 != c1"),
}


@pytest.mark.parametrize("case", list(GENERATED_MODEL_CASES))
def test_generated_models_match_the_reference(case):
    sig, bound, size_cap, text = GENERATED_MODEL_CASES[case]
    phi = parse_formula(text, sig)
    counts = []
    for satisfying in (None, lambda s: evaluate_fo(s, phi)):
        got = [(s.key(), g) for s, g in generated_models(sig, bound, size_cap)
               if satisfying is None or satisfying(s)]
        want = [
            (s.key(), g)
            for s, g in reference_generated_models(sig, bound, size_cap, satisfying)
        ]
        assert got == want
        counts.append(len(got))
    assert counts[0] > counts[1] > 0


@pytest.mark.parametrize("label", list(KERNEL_SIGNATURES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reach_key_is_invariant_under_relabelling(label, data):
    s = data.draw(random_structures(KERNEL_SIGNATURES[label], data.draw(st.integers(1, 4))))
    generators = data.draw(st.lists(st.integers(0, s.size - 1), min_size=1, max_size=2))
    perm = data.draw(st.permutations(range(s.size)))
    key = theta._reach_key(s, generators)
    assert theta._reach_key(relabel(s, perm), [perm[g] for g in generators]) == key
    assert (key is None) == (len(generated_carrier(s, generators)) < s.size)


@pytest.mark.parametrize(
    "sig,n,bound",
    [(UNAR_CONST, 3, 2), (KERNEL_SIGNATURES["mixed"], 3, 1), (G, 2, 2),
     (Signature(predicates=(("P", 1), ("R", 2)), constants=("c",)), 2, 1)],
)
def test_reach_keys_part_marked_structures_as_canonical_keys_do(sig, n, bound):
    gen_names = tuple(f"g{i}" for i in range(bound))
    marked_sig = Signature(sig.predicates, sig.functions, sig.constants + gen_names)
    pairs = set()
    for s in enumerate_structures(sig, n):
        for generators in itertools.product(range(n), repeat=bound):
            key = theta._reach_key(s, generators)
            if key is None:
                assert len(generated_carrier(s, generators)) < n
                continue
            marked = Structure(
                marked_sig, n, s.predicates, s.functions,
                dict(s.constants) | dict(zip(gen_names, generators)),
            )
            pairs.add((key, canonical_key(marked)))
    reach_keys, canonical_keys = zip(*pairs)
    assert len(set(reach_keys)) == len(set(canonical_keys)) == len(pairs)


def test_mutating_a_generated_model_leaves_later_translations_alone():
    def rendered():
        return render_formula(theta_bounded_to_existential_functional(MOVED, UNAR, 2, 3).sentence)

    before = rendered()
    for s, _ in generated_models(UNAR, 2, 3):
        table = s.functions["F"]
        for args in table:
            table[args] = 0
    assert rendered() == before


# --- modal laws ---------------------------------------------------------------


def law_corpus():
    out = []
    for n in (1, 2):
        out.extend(enumerate_structures(BINARY, n, up_to_iso=True))
    return out


def test_modal_laws_pass_on_small_corpus():
    report = modal_laws_check(EXISTS_FORALL, LOOP, law_corpus())
    assert report.passed, [r.law for r in report.results if not r.holds]


def test_modal_laws_strictness_witnesses():
    phi = EXISTS_FORALL
    psi = parse_formula("forall x. forall y. !R(x,y)", BINARY)
    structures = list(enumerate_structures(BINARY, 2, up_to_iso=True)) + list(
        enumerate_structures(BINARY, 3, up_to_iso=True)
    )
    report = modal_laws_check(phi, psi, structures)
    assert report.passed
    assert report.result("vi").strictness_witness is not None
    one_point = parse_formula("forall x. forall y. x = y", BINARY)
    report2 = modal_laws_check(one_point, psi, structures)
    assert report2.passed
    assert report2.result("vii").strictness_witness is not None
    report3 = modal_laws_check(LOOP, psi, structures)
    assert report3.passed
    assert report3.result("v-and").strictness_witness is not None


def test_modal_law_iv_vacuous_when_premise_fails():
    report = modal_laws_check(LOOP, FALSE, law_corpus())
    assert report.result("iv").holds
    assert "vacuous" in report.result("iv").note


def _reference_modal_laws_check(phi, psi, structures):
    """The nested algorithm: theta by carriers, theta-theta by building every
    submodel, and law (iv) on the corpus closed under submodels by
    ``canonical_key``, each class at its first occurrence."""

    def th(s, f):
        return theta_semantic(s, f).truth

    def th_th(s, f):
        return any(th(induced_substructure(s, c), f) for c in enumerate_submodels(s))

    def some_without(s):
        return any(not th(induced_substructure(s, c), phi) for c in enumerate_submodels(s))

    structures = list(structures)
    both, either = make_and((phi, psi)), make_or((phi, psi))
    not_phi, implication = Not(phi), Implies(phi, psi)
    results = {name: LawResult(name, True) for name in theta._LAWS}
    closure, keys = [], set()
    for s in structures:
        for carrier in enumerate_submodels(s):
            sub = induced_substructure(s, carrier)
            key = canonical_key(sub)
            if key not in keys:
                keys.add(key)
                closure.append(sub)

    def fail(name, s, message):
        if results[name].holds:
            results[name] = LawResult(name, False, note=f"{message} at {s!r}")

    for s in structures:
        if not th(s, TRUE) or th(s, FALSE):
            fail("i", s, "theta(true)/theta(false)")
        if evaluate_fo(s, phi) and not th(s, phi):
            fail("ii", s, "phi holds, theta(phi) fails")
        if th_th(s, phi) != th(s, phi):
            fail("iii", s, "theta(theta(phi)) != theta(phi)")
        if th(s, both) and not (th(s, phi) and th(s, psi)):
            fail("v-and", s, "theta(phi&psi) without theta(phi)&theta(psi)")
        if th(s, either) != (th(s, phi) or th(s, psi)):
            fail("v-or", s, "theta(phi|psi) != theta(phi)|theta(psi)")
        if results["vi"].holds:
            if not th(s, phi) and evaluate_fo(s, phi):
                fail("vi", s, "not theta(phi) but phi")
            elif not evaluate_fo(s, phi) and not th(s, not_phi):
                fail("vi", s, "not phi but not theta(!phi)")
        if some_without(s) and not th(s, not_phi):
            fail("vii", s, "theta(!theta(phi)) without theta(!phi)")
    if all(evaluate_fo(s, implication) for s in closure):
        results["iv"].note = "premise holds on corpus closure"
        for s in closure:
            if th(s, phi) and not th(s, psi):
                fail("iv", s, "phi->psi valid on closure, theta monotonicity fails")
                break
    else:
        results["iv"].note = "vacuous: phi->psi fails somewhere on the corpus closure"
    for s in structures:
        r = results["v-and"]
        if r.holds and r.strictness_witness is None:
            if th(s, phi) and th(s, psi) and not th(s, both):
                r.strictness_witness = s
        r = results["vi"]
        if r.holds and r.strictness_witness is None:
            if not evaluate_fo(s, phi) and th(s, phi):
                r.strictness_witness = s
        r = results["vii"]
        if r.holds and r.strictness_witness is None:
            if th(s, not_phi) and not some_without(s):
                r.strictness_witness = s
    return ModalLawReport([results[name] for name in theta._LAWS])


def _up_to(sig, n_max):
    return [s for n in range(1, n_max + 1) for s in enumerate_structures(sig, n, up_to_iso=True)]


def test_modal_laws_match_the_nested_reference():
    groups = {}
    for entry in CORPUS:
        groups.setdefault(entry.signature_name, []).append(entry)
    for entries in groups.values():
        corpus = _up_to(entries[0].signature, 3)
        for left, right in itertools.product(entries, repeat=2):
            expected = _reference_modal_laws_check(left.formula, right.formula, corpus)
            assert modal_laws_check(left.formula, right.formula, corpus) == expected, (
                left.name, right.name)


@settings(max_examples=60, deadline=None)
@given(sentences, sentences)
def test_modal_laws_match_the_nested_reference_on_generated_sentences(phi, psi):
    corpus = _up_to(BINARY, 2)
    assert modal_laws_check(phi, psi, corpus) == _reference_modal_laws_check(phi, psi, corpus)


class _Liar:
    """A compiled formula whose answers pass through ``lie(truth, domain)``."""

    def __init__(self, compiled, lie):
        self._compiled, self._lie = compiled, lie

    def __getattr__(self, name):
        return getattr(self._compiled, name)

    def holds(self, tables, domain, assignment=None):
        return self._lie(self._compiled.holds(tables, domain, assignment), domain)


LIE_PAIRS = {
    "loop_edgeless": ("exists x. R(x,x)", "forall x. forall y. !R(x,y)"),
    "two_points_loop": ("exists x. exists y. x != y", "exists x. R(x,x)"),
}


def _on_both(*laws):
    return dict.fromkeys(LIE_PAIRS, list(laws))


LIES = {
    # the lying sentence, the laws the reference then reports failing on
    # each pair, and the lie
    "true": lambda phi, psi: (TRUE, _on_both("i"), lambda truth, domain: len(domain) > 1),
    "and": lambda phi, psi: (make_and((phi, psi)), _on_both("v-and"), lambda truth, domain: True),
    "or": lambda phi, psi: (make_or((phi, psi)), _on_both("v-or"), lambda truth, domain: False),
    "not": lambda phi, psi: (
        Not(phi), _on_both("vi", "vii"), lambda truth, domain: truth and len(domain) > 1),
    "phi": lambda phi, psi: (
        phi, {"loop_edgeless": ["vi"], "two_points_loop": ["v-and", "v-or"]},
        lambda truth, domain: truth != (len(domain) == 2)),
    "implies": lambda phi, psi: (Implies(phi, psi), _on_both("iv"), lambda truth, domain: True),
}


@pytest.mark.parametrize("pair", list(LIE_PAIRS))
@pytest.mark.parametrize("lie", list(LIES))
def test_modal_law_counterexamples_match_the_reference(monkeypatch, lie, pair):
    # the check reads every law off phi's and psi's tables, where the laws
    # hold by construction; the reference evaluates every sentence, so
    # under a lying evaluator it reports the broken laws' counterexamples
    # and the reports part
    phi, psi = (parse_formula(text, BINARY) for text in LIE_PAIRS[pair])
    corpus = _up_to(BINARY, 3)
    report = modal_laws_check(phi, psi, corpus)
    assert report.passed
    target, failing, answer = LIES[lie](phi, psi)
    compile_ = logic._compile
    monkeypatch.setattr(
        logic, "_compile",
        lambda f: _Liar(compile_(f), answer) if f == target else compile_(f),
    )
    # fresh copies and a fresh TRUE entry, so that the reference compiles
    # the target with the lie
    phi, psi = (parse_formula(text, BINARY) for text in LIE_PAIRS[pair])
    logic._COMPILED.pop(id(TRUE), None)
    try:
        reference = _reference_modal_laws_check(phi, psi, corpus)
    finally:
        logic._COMPILED.pop(id(TRUE), None)
    assert [r.law for r in reference.results if not r.holds] == failing[pair]
    assert reference != report


def test_passing_modal_check_builds_no_submodel(monkeypatch):
    corpus = _up_to(BINARY, 3)

    def forbidden(*args):
        raise AssertionError("a passing check built a submodel")

    monkeypatch.setattr(structures_module, "induced_substructure", forbidden)
    report = modal_laws_check(EXISTS_FORALL, LOOP, corpus)
    assert report.passed and report.result("iv").note == "premise holds on corpus closure"


def test_theta_monotone_in_submodel_order():
    for s in enumerate_structures(BINARY, 3, up_to_iso=True):
        carriers = list(enumerate_submodels(s))
        for c1 in carriers:
            for c2 in carriers:
                if c1 <= c2:
                    t1 = theta_semantic(induced_substructure(s, c1), EXISTS_FORALL).truth
                    t2 = theta_semantic(induced_substructure(s, c2), EXISTS_FORALL).truth
                    if t1:
                        assert t2


# --- diagrams -----------------------------------------------------------------


def test_atomic_diagram_unar_chain():
    s = unar(2, {0: 1, 1: 1})
    diagram = atomic_diagram(s, (0,), ("g0",))
    rendered = [render_formula(lit) for lit in diagram.literals]
    assert rendered == ["F(F(g0)) = F(g0)", "g0 != F(g0)"]


def test_atomic_diagram_characterizes_up_to_marked_isomorphism():
    # two marked 2-element unars: diagrams must differ
    chain = atomic_diagram(unar(2, {0: 1, 1: 1}), (0,), ("g0",))
    cycle = atomic_diagram(unar(2, {0: 1, 1: 0}), (0,), ("g0",))
    assert chain.literals != cycle.literals
