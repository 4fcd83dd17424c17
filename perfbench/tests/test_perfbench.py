"""Tests of the benchmark's own parts: sentence generator and tracer.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import re

import pytest

from sentences import VOCABULARY, random_sentences
from subsat import logic, prober, structures, theta
from subsat.corpus import SIGNATURES

SIGNATURE_NAMES = sorted(VOCABULARY)


@pytest.mark.parametrize("name", SIGNATURE_NAMES)
def test_same_seed_gives_byte_identical_sentences(name):
    first = random_sentences(7, name, 40)
    again = random_sentences(7, name, 40)
    assert "\n".join(first).encode() == "\n".join(again).encode()
    assert random_sentences(8, name, 40) != first


@pytest.mark.parametrize("name", SIGNATURE_NAMES)
def test_sentences_parse_and_round_trip(name):
    sig = SIGNATURES[name]
    for seed in range(5):
        for text in random_sentences(seed, name, 30):
            phi = logic.parse_formula(text, sig)
            assert logic.is_sentence(phi)
            assert logic.is_first_order(phi)
            assert logic.parse_formula(logic.render_formula(phi), sig) == phi


def _quantifier_depth(f) -> int:
    if isinstance(f, (logic.Forall, logic.Exists)):
        return 1 + _quantifier_depth(f.body)
    children = [getattr(f, a) for a in ("body", "left", "right") if hasattr(f, a)]
    children += list(getattr(f, "parts", ()))
    formulas = [c for c in children if not isinstance(c, (logic.Var, logic.Const, logic.Func))]
    return max((_quantifier_depth(c) for c in formulas), default=0)


@pytest.mark.parametrize("name", SIGNATURE_NAMES)
def test_sentences_cover_the_grammar(name):
    texts = random_sentences(3, name, 60)
    sig = SIGNATURES[name]
    for text in texts:
        assert _quantifier_depth(logic.parse_formula(text, sig)) <= 3
        assert "forall" in text and "exists" in text
    joined = " ".join(texts)
    for token in ("!=", " = ", "!", "&", "|", "->"):
        assert token in joined
    if name != "unar":
        assert re.search(r"\bR\(", joined)


# --- tracer -------------------------------------------------------------------


@pytest.fixture
def tracer():
    from tracer import Tracer
    from layers import TARGETS

    t = Tracer()
    t.install(TARGETS + [__import__("tracer").Target("subsat.logic", "no_such_function",
                                                        "logic.no_such_function")])
    yield t
    t.uninstall()


def test_tracer_wraps_every_name_and_restores(tracer):
    wrapped = logic.evaluate_fo
    assert prober.evaluate_fo is wrapped and theta.evaluate_fo is wrapped
    assert "subsat.logic.no_such_function" in tracer.missing
    tracer.uninstall()
    assert prober.evaluate_fo is logic.evaluate_fo is theta.evaluate_fo
    assert logic.evaluate_fo is not wrapped


def test_tracer_self_time_and_generator_steps(tracer):
    sig = SIGNATURES["binary"]
    s = structures.Structure(sig, 3, predicates={"R": {(0, 1), (1, 2)}})
    phi = logic.parse_formula("forall x. forall y. !R(x,y)", sig)
    report = theta.theta_semantic(s, phi)
    summary = tracer.summary()
    spans, counts, edges = summary["spans"], summary["counts"], summary["edges"]
    assert counts["theta.inspected"] == report.inspected == 1
    # one span per carrier step (plus the step that found the witness)
    assert counts["structures.enumerate_submodels.items"] == 1
    assert edges[("theta.theta_semantic", "logic.evaluate_fo")] == 1
    outer = spans["theta.theta_semantic"]
    children = sum(spans[n]["total_s"] for n in (
        "logic.evaluate_fo", "structures.induced_substructure",
        "structures.enumerate_submodels"))
    assert outer["self_s"] == pytest.approx(outer["total_s"] - children, abs=1e-9)
    assert all(v["self_s"] >= 0 for v in spans.values())
