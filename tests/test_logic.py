import gc
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsat import logic
from subsat.logic import (
    And,
    Atom,
    Const,
    Eq,
    EvaluationError,
    Exists,
    ExistsSet,
    Forall,
    FormulaSyntaxError,
    Func,
    Iff,
    Implies,
    Not,
    Or,
    SetAtom,
    Var,
    TRUE,
    FALSE,
    compile_formula,
    evaluate_eso,
    evaluate_fo,
    free_variables,
    is_existential_sentence,
    is_first_order,
    is_sentence,
    make_and,
    make_or,
    map_formula,
    parse_formula,
    parse_with_inference,
    relativize_to_set_variable,
    relativize_to_variables,
    render_formula,
    subformulas,
    substitute_constant,
    substitute_variable,
)
from subsat.corpus import CORPUS, UNAR_CONST
from subsat.structures import (
    Signature,
    Structure,
    enumerate_structures,
    induced_substructure,
)

BINARY = Signature(predicates=(("R", 2),))
UNAR = Signature(functions=(("F", 1),))


def digraph(n, edges):
    return Structure(BINARY, n, predicates={"R": set(edges)})


# --- parser -----------------------------------------------------------------


def test_parse_exists_forall():
    f = parse_formula("exists x. forall y. R(x,y)", BINARY)
    assert f == Exists("x", Forall("y", Atom("R", (Var("x"), Var("y")))))


def test_parse_function_disequality():
    f = parse_formula("exists x. !(F(x) = x)", UNAR)
    assert f == Exists("x", Not(Eq(Func("F", (Var("x"),)), Var("x"))))


def test_parse_neq_sugar():
    assert parse_formula("exists x. F(x) != x", UNAR) == parse_formula(
        "exists x. !(F(x) = x)", UNAR
    )


def test_parse_arity_mismatch():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("exists x. R(x)", BINARY)
    assert "expects 2 arguments" in str(exc.value)
    assert exc.value.line == 1


def test_parse_unknown_symbol():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("exists x. Q(x,x)", BINARY)


def test_parse_syntax_error_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("exists x. R(x,,x)", BINARY)
    assert exc.value.col > 1


def test_parse_too_deep_nesting_is_a_syntax_error():
    for text in ("!" * 3000 + "R(x,x)", "(" * 1200 + "true" + ")" * 1200):
        with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
            parse_formula(text, BINARY)
        with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
            parse_with_inference(text)


def test_parse_multi_variable_quantifier_desugars():
    assert parse_formula("forall x y. R(x,y)", BINARY) == parse_formula(
        "forall x. forall y. R(x,y)", BINARY
    )


def test_parse_chains_flatten():
    f = parse_formula("(R(x,x) & R(x,y) & R(y,y))", BINARY)
    assert isinstance(f, And) and len(f.parts) == 3
    g = parse_formula("(R(x,x) | R(x,y) | R(y,y))", BINARY)
    assert isinstance(g, Or) and len(g.parts) == 3


def test_parse_parenthesized_group_stays_nested():
    f = parse_formula("((R(x,x) & R(y,y)) & R(x,y))", BINARY)
    assert isinstance(f, And) and len(f.parts) == 2
    assert isinstance(f.parts[0], And)


def test_parse_implication_is_right_associative():
    f = parse_formula("R(x,x) -> R(y,y) -> R(x,y)", BINARY)
    assert isinstance(f, Implies) and isinstance(f.right, Implies)


def test_parse_precedence():
    f = parse_formula("R(x,x) & R(y,y) | R(x,y) -> x = y <-> true", BINARY)
    assert isinstance(f, Iff)
    assert isinstance(f.left, Implies)
    assert isinstance(f.left.left, Or)


def test_parse_exists_set():
    f = parse_formula("existsSet X. exists x. X(x)", BINARY)
    assert f == ExistsSet("X", Exists("x", SetAtom("X", Var("x"))))


def test_parse_set_variable_requires_scope():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("exists x. X(x)", BINARY)


def test_parse_constants():
    sig = Signature(functions=(("F", 1),), constants=("c",))
    f = parse_formula("F(c) = c", sig)
    assert f == Eq(Func("F", (Const("c"),)), Const("c"))


def test_parse_with_inference():
    f, sig = parse_with_inference("exists x. forall y. R(x,y)")
    assert sig == BINARY
    assert f == parse_formula("exists x. forall y. R(x,y)", BINARY)
    g, sig2 = parse_with_inference("exists x. f(x) = x & p(x)")
    assert sig2.function_arity("f") == 1
    assert sig2.predicate_arity("p") == 1


def test_parse_inference_conflicting_roles():
    with pytest.raises(FormulaSyntaxError):
        parse_with_inference("p(x) & p(x) = x")


# --- printer ----------------------------------------------------------------


def test_render_basic():
    f = parse_formula("exists x. R(x,x)", BINARY)
    assert render_formula(f) == "exists x. R(x,x)"


def test_render_flattened_conjunction():
    f = And((Atom("R", (Var("a"), Var("a"))), Atom("R", (Var("b"), Var("b"))),
             Atom("R", (Var("c"), Var("c")))))
    assert render_formula(f) == "(R(a,a) & R(b,b) & R(c,c))"


def test_render_not_equality_uses_neq():
    f = Not(Eq(Var("x"), Var("y")))
    assert render_formula(f) == "x != y"


CORPUS_TEXTS = [
    "exists x. forall y. R(x,y)",
    "forall x. exists y. R(x,y)",
    "exists x. R(x,x)",
    "!(forall x. exists y. R(x,y))",
    "forall x. forall y. (R(x,y) -> R(y,x))",
    "exists x. exists y. (x != y & R(x,y))",
    "forall x. forall y. x = y",
    "forall x. forall y. !R(x,y)",
    "(exists x. R(x,x)) <-> (exists y. R(y,y))",
    "existsSet X. ((exists x. X(x)) & (forall y. (X(y) -> R(y,y))))",
]


@pytest.mark.parametrize("text", CORPUS_TEXTS)
def test_parse_render_roundtrip_corpus(text):
    f = parse_formula(text, BINARY)
    assert parse_formula(render_formula(f), BINARY) == f


# hypothesis: round-trip on generated formulas over the binary signature

terms = st.sampled_from([Var("x"), Var("y"), Var("z")])
atoms = st.one_of(
    st.just(TRUE),
    st.just(FALSE),
    st.builds(Atom, st.just("R"), st.tuples(terms, terms)),
    st.builds(Eq, terms, terms),
)


def extend(children):
    quant_vars = st.sampled_from(["x", "y", "z"])
    return st.one_of(
        st.builds(Not, children),
        st.builds(lambda ps: make_and(ps), st.lists(children, min_size=1, max_size=3)),
        st.builds(lambda ps: make_or(ps), st.lists(children, min_size=1, max_size=3)),
        st.builds(Implies, children, children),
        st.builds(Iff, children, children),
        st.builds(Forall, quant_vars, children),
        st.builds(Exists, quant_vars, children),
    )


formulas = st.recursive(atoms, extend, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(formulas)
def test_parse_render_roundtrip_property(f):
    assert parse_formula(render_formula(f), BINARY) == f


# --- evaluation -------------------------------------------------------------


def c3_cycle():
    return digraph(3, [(0, 1), (1, 2), (2, 0)])


def test_evaluate_forall_exists_on_cycle():
    f = parse_formula("forall x. exists y. R(x,y)", BINARY)
    assert evaluate_fo(c3_cycle(), f)


def test_evaluate_exists_forall_false():
    s = digraph(2, [(0, 0)])
    f = parse_formula("exists x. forall y. R(x,y)", BINARY)
    assert not evaluate_fo(s, f)


def test_evaluate_true_everywhere():
    assert evaluate_fo(digraph(1, []), TRUE)


def test_evaluate_assignment_and_errors():
    s = c3_cycle()
    f = parse_formula("R(x,y)", BINARY)
    assert evaluate_fo(s, f, {"x": 0, "y": 1})
    assert not evaluate_fo(s, f, {"x": 0, "y": 2})
    with pytest.raises(EvaluationError):
        evaluate_fo(s, f, {"x": 0})


def test_evaluate_functions_and_constants():
    sig = Signature(functions=(("F", 1),), constants=("c",))
    s = Structure(sig, 3, functions={"F": {(0,): 1, (1,): 2, (2,): 0}}, constants={"c": 0})
    assert evaluate_fo(s, parse_formula("F(F(F(c))) = c", sig))
    assert not evaluate_fo(s, parse_formula("F(c) = c", sig))


def test_evaluation_errors_follow_the_short_circuit_order():
    s = c3_cycle()
    open_atom = parse_formula("R(x,y)", BINARY)
    assert evaluate_fo(s, Or((TRUE, open_atom)))
    assert not evaluate_fo(s, And((FALSE, open_atom)))
    with pytest.raises(EvaluationError, match="uncovered free variable y"):
        evaluate_fo(s, And((TRUE, open_atom)), {"x": 0})
    # an implication skips its conclusion after a false premise
    assert evaluate_fo(s, Implies(FALSE, open_atom), {"x": 0})
    with pytest.raises(EvaluationError, match="uncovered free variable y"):
        evaluate_fo(s, Implies(TRUE, open_atom), {"x": 0})
    # a biconditional reads both sides, left first
    for left in (FALSE, TRUE):
        with pytest.raises(EvaluationError, match="uncovered free variable y"):
            evaluate_fo(s, Iff(left, open_atom), {"x": 0})
    with pytest.raises(EvaluationError, match="uncovered free variable z"):
        evaluate_fo(s, Iff(parse_formula("R(x,z)", BINARY), open_atom), {"x": 0})
    with pytest.raises(EvaluationError, match="predicate Q uninterpreted"):
        evaluate_fo(s, Exists("x", Atom("Q", (Var("x"), Var("z")))))
    with pytest.raises(EvaluationError, match="uncovered set variable X"):
        evaluate_fo(s, SetAtom("X", Var("x")), {"x": 0})
    assert evaluate_fo(s, SetAtom("X", Var("x")), {"x": 0, "X": frozenset({0})}) is True
    with pytest.raises(EvaluationError, match="second-order quantifier"):
        evaluate_fo(s, parse_formula("existsSet X. exists x. X(x)", BINARY))
    # a bound variable shadows the assignment only inside its quantifier
    shadow = parse_formula("(exists x. R(x,x)) & !R(x,x)", BINARY)
    assert evaluate_fo(digraph(2, [(1, 1)]), shadow, {"x": 0})
    assert not evaluate_fo(digraph(2, [(1, 1)]), shadow, {"x": 1})
    unar = Signature(functions=(("F", 1),), constants=("c",))
    partial = Structure(unar, 2, functions={"F": {(0,): 1}}, constants={"c": 0})
    with pytest.raises(EvaluationError, match=r"function F not total at \(1,\)"):
        evaluate_fo(partial, parse_formula("F(F(c)) = c", unar))
    with pytest.raises(EvaluationError, match="constant c uninterpreted"):
        evaluate_fo(Structure(unar, 1, functions={"F": {(0,): 0}}), parse_formula("F(c) = c", unar))


# one sentence per connective; reports print these truths as True/False
BOOL_SENTENCES = [
    "true",
    "false",
    "!true",
    "!false",
    "exists x. x = x",
    "forall x. forall y. x != y",
    "exists x. R(x,x)",
    "forall x. R(x,x)",
    "exists x. (R(x,x) & x = x)",
    "forall x. (R(x,x) | !R(x,x))",
    "exists x. ((R(x,x) & x = x) | (!R(x,x) & R(x,x)))",  # memoised literals
    "forall x. (R(x,x) -> x = x)",
    "exists x. (R(x,x) <-> !R(x,x))",
    "existsSet X. exists x. X(x)",
    "existsSet X. forall x. (X(x) & !X(x))",
]


@pytest.mark.parametrize("text", BOOL_SENTENCES)
def test_truths_are_bools(text):
    f = parse_formula(text, BINARY)
    for s in (digraph(2, [(0, 0)]), digraph(1, [])):
        assert type(evaluate_eso(s, f)) is bool
        if is_first_order(f):
            assert type(evaluate_fo(s, f)) is bool


def test_evaluation_on_a_carrier_is_truth_in_the_submodel():
    s = digraph(4, [(0, 1), (1, 0), (2, 2), (3, 1)])
    f = parse_formula("forall x. exists y. (x != y & R(x,y))", BINARY)
    compiled = compile_formula(f)
    for k in range(1, 5):
        for combo in itertools.combinations(range(4), k):
            sub = induced_substructure(s, combo)
            assert compiled.holds(s, combo) == evaluate_fo(sub, f)


def test_compiled_form_is_kept_by_identity_while_the_formula_lives():
    f = parse_formula("exists x. R(x,x)", BINARY)
    g = parse_formula("exists x. R(x,x)", BINARY)
    assert f == g and compile_formula(f) is compile_formula(f)
    assert compile_formula(g) is not compile_formula(f)
    key = id(g)
    assert key in logic._COMPILED
    del g
    gc.collect()
    assert key not in logic._COMPILED and id(f) in logic._COMPILED


def test_compile_formula_classifies_once():
    eso = parse_formula("existsSet X. exists x. X(x)", BINARY)
    c = compile_formula(eso)
    assert c.has_set_quantifier and not c.first_order and c.is_sentence
    assert c.eso_error is None
    inner = Exists("x", ExistsSet("X", SetAtom("X", Var("x"))))
    assert compile_formula(inner).eso_error == "set quantifier not in prefix position"
    assert compile_formula(parse_formula("R(x,x)", BINARY)).eso_error == (
        "evaluate_eso expects a sentence"
    )
    with pytest.raises(EvaluationError, match="expects a sentence"):
        evaluate_eso(digraph(1, []), parse_formula("existsSet X. X(x)", BINARY))


def _old_facts(f):
    """What ``compile_formula`` recorded from four walks before its facts
    came from the builder's one."""
    body = f
    while isinstance(body, ExistsSet):
        body = body.body
    if any(isinstance(g, ExistsSet) for g in subformulas(body)):
        eso_error = "set quantifier not in prefix position"
    elif not is_sentence(f):
        eso_error = "evaluate_eso expects a sentence"
    else:
        eso_error = None
    set_quantifier = any(isinstance(g, ExistsSet) for g in subformulas(f))
    return is_first_order(f), is_sentence(f), set_quantifier, eso_error


def _facts(f):
    c = compile_formula(f)
    return c.first_order, c.is_sentence, c.has_set_quantifier, c.eso_error


def test_compile_facts_match_the_walks_on_the_corpus():
    for f in [e.formula for e in CORPUS] + [parse_formula(t, BINARY) for t in CORPUS_TEXTS]:
        assert _facts(f) == _old_facts(f), render_formula(f)


fact_terms = st.sampled_from(
    [Var("x"), Var("y"), Const("c"), Func("F", (Var("x"),)), Func("F", (Const("c"),))]
)
fact_atoms = st.one_of(
    st.just(TRUE),
    st.builds(Atom, st.just("R"), st.tuples(fact_terms, fact_terms)),
    st.builds(Eq, fact_terms, fact_terms),
    st.builds(SetAtom, st.sampled_from(["X", "Y"]), fact_terms),
)


def fact_extend(children):
    return st.one_of(
        extend(children),
        st.builds(ExistsSet, st.sampled_from(["X", "Y"]), children),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(["X", "Y"]), max_size=2),
    st.recursive(fact_atoms, fact_extend, max_leaves=10),
)
def test_compile_facts_match_the_walks(prefix, matrix):
    # set atoms bound and free, set quantifiers in and out of the prefix,
    # free variables, constants and functions
    f = matrix
    for name in reversed(prefix):
        f = ExistsSet(name, f)
    assert _facts(f) == _old_facts(f)


# --- the literal memo of wide disjunctions -------------------------------------

X, Y, C = Var("x"), Var("y"), Const("c")
FX, FFX = Func("F", (X,)), Func("F", (Func("F", (X,)),))
MEMO_TERMS = [X, Y, C, FX, Func("F", (Y,)), FFX]
memo_literals = st.builds(
    lambda left, right, negated: Not(Eq(left, right)) if negated else Eq(left, right),
    st.sampled_from(MEMO_TERMS),
    st.sampled_from(MEMO_TERMS),
    st.booleans(),
)


@st.composite
def dnf_formulas(draw):
    """Disjunctions of conjunctions drawn from a few literals, so that atoms
    recur within and across disjuncts."""
    pool = draw(st.lists(memo_literals, min_size=1, max_size=4))
    conjunct = st.lists(st.sampled_from(pool), min_size=1, max_size=4).map(make_and)
    return Or(tuple(draw(st.lists(conjunct, min_size=2, max_size=8))))


def _outcome(compiled, s, env):
    try:
        return compiled.holds(s, range(s.size), env)
    except EvaluationError as e:
        return str(e)


def _plain(f):
    """``f`` compiled without the literal memo."""
    with mock.patch.object(logic._Builder, "literal_disjunction", lambda *args: None):
        return logic._compile(f)


PARTIAL_F = Structure(UNAR_CONST, 2, functions={"F": {(0,): 1}}, constants={"c": 0})
NO_CONSTANT = Structure(UNAR_CONST, 2, functions={"F": {(0,): 1, (1,): 1}})
MEMO_STRUCTURES = [
    *(s for n in (1, 2, 3) for s in enumerate_structures(UNAR_CONST, n)), PARTIAL_F, NO_CONSTANT
]


@settings(max_examples=40, deadline=None)
@given(dnf_formulas())
def test_literal_memo_matches_the_plain_disjunction(f):
    memo, plain = compile_formula(f), _plain(f)
    atoms = {g.body if isinstance(g, Not) else g
             for part in f.parts for g in (part.parts if isinstance(part, And) else (part,))}
    occurrences = sum(len(p.parts) if isinstance(p, And) else 1 for p in f.parts)
    assert (memo._run.__name__ == "literal_disjunction") == (len(atoms) < occurrences)
    for s in MEMO_STRUCTURES:
        # every assignment, and ones that leave y uncovered
        envs = [{"x": a, "y": b} for a in range(s.size) for b in range(s.size)]
        envs += [{"x": a} for a in range(s.size)]
        for env in envs:
            assert _outcome(memo, s, env) == _outcome(plain, s, env)


def test_literal_memo_raises_where_the_walk_reaches():
    # x = c recurs; at x = 1 the second disjunct reaches F(1)
    reached = Or((And((Eq(X, C), Eq(FX, X))), And((Not(Eq(X, C)), Eq(FX, C))), Eq(X, C)))
    assert compile_formula(reached)._run.__name__ == "literal_disjunction"
    for compiled in (compile_formula(reached), _plain(reached)):
        with pytest.raises(EvaluationError, match=r"^function F not total at \(1,\)$"):
            compiled.holds(PARTIAL_F, range(2), {"x": 1})
        assert compiled.holds(PARTIAL_F, range(2), {"x": 0})
    # F(F(x)) comes after x = c: at x = 0 the first disjunct holds, at x = 1
    # the memo of x = c ends the second disjunct before it
    unreached = Or((And((Eq(X, C), Eq(C, C))), And((Eq(X, C), Eq(FFX, X)))))
    assert compile_formula(unreached).holds(PARTIAL_F, range(2), {"x": 0})
    assert not compile_formula(unreached).holds(PARTIAL_F, range(2), {"x": 1})
    # uninterpreted symbols raise at their first reach, memo or not
    late = Or((And((Eq(FX, X), Eq(X, X))), And((Eq(X, X), Eq(X, C)))))
    missing = Or((Eq(FX, X), Atom("Q", (X,)), Eq(FX, X)))
    for f, message in ((late, "constant c uninterpreted"), (missing, "predicate Q uninterpreted")):
        assert compile_formula(f)._run.__name__ == "literal_disjunction"
        assert compile_formula(f).holds(NO_CONSTANT, range(2), {"x": 1})
        for compiled in (compile_formula(f), _plain(f)):
            with pytest.raises(EvaluationError, match=f"^{message}$"):
                compiled.holds(NO_CONSTANT, range(2), {"x": 0})


def test_evaluate_eso_nonempty_subset():
    f = parse_formula("existsSet X. exists x. X(x)", BINARY)
    assert evaluate_eso(digraph(2, []), f)


def test_evaluate_eso_contradiction():
    f = parse_formula("existsSet X. ((exists x. X(x)) & (forall x. (X(x) -> !X(x))))", BINARY)
    assert not evaluate_eso(digraph(2, [(0, 1)]), f)


def test_evaluate_eso_rejects_inner_set_quantifier():
    f = Exists("x", ExistsSet("X", SetAtom("X", Var("x"))))
    with pytest.raises(EvaluationError):
        evaluate_eso(digraph(1, []), f)


def eso_oracle(s, f):
    """Independent brute force over subset tuples, by direct recursion."""
    prefix = []
    body = f
    while isinstance(body, ExistsSet):
        prefix.append(body.set_var)
        body = body.body
    subsets = [frozenset(c) for k in range(s.size + 1)
               for c in itertools.combinations(range(s.size), k)]
    for choice in itertools.product(subsets, repeat=len(prefix)):
        env = dict(zip(prefix, choice))
        if evaluate_fo(s, body, env):
            return True
    return False


def test_evaluate_eso_matches_oracle():
    f = parse_formula(
        "existsSet X. ((exists x. X(x)) & (forall y. (X(y) -> (exists z. (X(z) & R(y,z))))))",
        BINARY,
    )
    for n in (1, 2, 3):
        for bits in range(2 ** (n * n)):
            edges = [
                (i, j)
                for r, (i, j) in enumerate(itertools.product(range(n), repeat=2))
                if bits >> r & 1
            ]
            s = digraph(n, edges)
            assert evaluate_eso(s, f) == eso_oracle(s, f)


# --- relativization ---------------------------------------------------------


def test_relativize_to_set_variable_exists():
    f = parse_formula("exists x. R(x,x)", BINARY)
    assert relativize_to_set_variable(f, "X") == Exists(
        "x", And((SetAtom("X", Var("x")), Atom("R", (Var("x"), Var("x")))))
    )


def test_relativize_to_set_variable_quantifier_free_unchanged():
    f = parse_formula("R(x,y) & x = y", BINARY)
    assert relativize_to_set_variable(f, "X") == f


def test_relativize_to_set_variable_forall_exists():
    f = parse_formula("forall x. exists y. R(x,y)", BINARY)
    g = relativize_to_set_variable(f, "X")
    expected = Forall(
        "x",
        Implies(
            SetAtom("X", Var("x")),
            Exists("y", And((SetAtom("X", Var("y")), Atom("R", (Var("x"), Var("y")))))),
        ),
    )
    assert g == expected


def test_relativize_to_set_variable_rejects_occurring_name():
    f = parse_formula("existsSet X. exists x. X(x)", BINARY)
    with pytest.raises(ValueError):
        relativize_to_set_variable(f, "X")


def test_relativized_truth_equals_substructure_truth():
    # Over submodel carriers, the set-relativized formula evaluated in the
    # parent agrees with plain evaluation in the induced substructure.
    sentences = [parse_formula(t, BINARY) for t in CORPUS_TEXTS[:8]]
    strides = {1: 1, 2: 5, 3: 5, 4: 997}
    for n in (1, 2, 3, 4):
        for bits in range(0, 2 ** (n * n), strides[n]):
            edges = [
                (i, j)
                for r, (i, j) in enumerate(itertools.product(range(n), repeat=2))
                if bits >> r & 1
            ]
            s = digraph(n, edges)
            for k in range(1, n + 1):
                for combo in itertools.combinations(range(n), k):
                    carrier = frozenset(combo)
                    sub = induced_substructure(s, carrier)
                    for f in sentences:
                        rel = relativize_to_set_variable(f, "X")
                        assert evaluate_fo(s, rel, {"X": carrier}) == evaluate_fo(sub, f)


def test_substitutions_rebuild_terms_and_keep_their_errors():
    sig = Signature(predicates=(("R", 2),), functions=(("F", 1),), constants=("c",))
    f = parse_formula("(R(x,F(y)) & F(c) = x)", sig)
    assert substitute_variable(f, "x", Const("c")) == parse_formula(
        "(R(c,F(y)) & F(c) = c)", sig
    )
    assert substitute_constant(f, "c", Func("F", (Var("z"),))) == parse_formula(
        "(R(x,F(y)) & F(F(z)) = x)", sig
    )
    quantified = parse_formula("exists y. R(x,y)", sig)
    with pytest.raises(ValueError, match="substitution expects a quantifier-free formula"):
        substitute_variable(quantified, "x", Var("z"))
    assert substitute_constant(quantified, "c", Var("z")) == quantified


def test_map_formula_hooks_run_bottom_up():
    f = parse_formula("forall x. (R(x,x) -> (exists y. R(x,y)))", BINARY)
    seen = []
    assert map_formula(f, node=lambda g: seen.append(type(g).__name__) or g) == f
    assert seen == ["Atom", "Atom", "Exists", "Implies", "Forall"]
    renamed = map_formula(f, term=lambda t: Var("u") if t == Var("x") else t)
    assert render_formula(renamed) == "forall x. (R(u,u) -> (exists y. R(u,y)))"


def test_relativize_to_variables_paper_example():
    f = parse_formula("exists x. forall y. R(x,y)", BINARY)
    assert relativize_to_variables(f, ["x0"]) == Atom("R", (Var("x0"), Var("x0")))


def test_relativize_to_variables_two_by_two():
    f = parse_formula("forall x. exists y. R(x,y)", BINARY)
    g = relativize_to_variables(f, ["x0", "x1"])
    def r(a, b):
        return Atom("R", (Var(a), Var(b)))
    assert g == And((Or((r("x0", "x0"), r("x0", "x1"))), Or((r("x1", "x0"), r("x1", "x1")))))


def test_relativize_to_variables_quantifier_free_fixed():
    f = parse_formula("R(x,y)", BINARY)
    assert relativize_to_variables(f, ["x0"]) == f


def test_relativize_to_variables_rejects_functions():
    f = parse_formula("exists x. F(x) != x", UNAR)
    with pytest.raises(ValueError):
        relativize_to_variables(f, ["x0"])


def test_relativize_to_variables_rejects_stale_names():
    f = parse_formula("exists x. R(x,x)", BINARY)
    with pytest.raises(ValueError):
        relativize_to_variables(f, ["x"])


def test_relativize_to_variables_semantics():
    # evaluating the relativized formula equals evaluating on the induced
    # substructure over the assigned elements
    sentences = [
        "exists x. forall y. R(x,y)",
        "forall x. exists y. R(x,y)",
        "exists x. R(x,x)",
        "forall x. forall y. (R(x,y) -> R(y,x))",
    ]
    for text in sentences:
        f = parse_formula(text, BINARY)
        for n in (2, 3):
            for bits in range(0, 2 ** (n * n), 3):
                edges = [
                    (i, j)
                    for r, (i, j) in enumerate(itertools.product(range(n), repeat=2))
                    if bits >> r & 1
                ]
                s = digraph(n, edges)
                for values in itertools.product(range(n), repeat=2):
                    g = relativize_to_variables(f, ["u0", "u1"])
                    env = {"u0": values[0], "u1": values[1]}
                    carrier = frozenset(values)
                    sub = induced_substructure(s, carrier)
                    assert evaluate_fo(s, g, env) == evaluate_fo(sub, f)


# --- sentence classification -------------------------------------------------


def test_is_sentence_and_free_variables():
    f = parse_formula("exists x. R(x,y)", BINARY)
    assert free_variables(f) == {"y"}
    assert not is_sentence(f)
    assert is_sentence(parse_formula("exists x. R(x,x)", BINARY))


def test_is_existential_sentence():
    assert is_existential_sentence(parse_formula("exists x. exists y. R(x,y)", BINARY))
    assert not is_existential_sentence(parse_formula("exists x. forall y. R(x,y)", BINARY))
    assert not is_existential_sentence(parse_formula("R(x,x)", BINARY))


def test_make_and_or_collapse():
    a = Atom("R", (Var("x"), Var("x")))
    assert make_and([a]) == a
    assert make_or([a]) == a
    assert make_and([]) == TRUE
    assert make_or([]) == FALSE
