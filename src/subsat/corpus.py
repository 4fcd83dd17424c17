"""Bundled regression corpus: named signatures and sentences for the sweeps.

The sentences cover quantifier alternations, functions, and constants;
the predicate-only subset feeds the quantifier-elimination translation,
and the worked equivalences are exact expected outcomes for the
submodel-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .logic import Formula, parse_formula
from .structures import Signature

BINARY = Signature(predicates=(("R", 2),))
UNARY_BINARY = Signature(predicates=(("P", 1), ("R", 2)))
UNAR = Signature(functions=(("F", 1),))
UNAR_CONST = Signature(functions=(("F", 1),), constants=("c",))
CONSTS3 = Signature(constants=("c0", "c1", "c2"))

SIGNATURES = {
    "binary": BINARY,
    "unary_binary": UNARY_BINARY,
    "unar": UNAR,
    "unar_const": UNAR_CONST,
    "consts3": CONSTS3,
}


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    signature_name: str
    text: str

    @property
    def signature(self) -> Signature:
        return SIGNATURES[self.signature_name]

    @cached_property
    def formula(self) -> Formula:
        """Parsed once, so that every use shares one compiled form."""
        return parse_formula(self.text, self.signature)


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("dominating_point", "binary", "exists x. forall y. R(x,y)"),
    CorpusEntry("total_out_degree", "binary", "forall x. exists y. R(x,y)"),
    CorpusEntry("has_loop", "binary", "exists x. R(x,x)"),
    CorpusEntry("some_point_stuck", "binary", "!(forall x. exists y. R(x,y))"),
    CorpusEntry("symmetric", "binary", "forall x. forall y. (R(x,y) -> R(y,x))"),
    CorpusEntry("proper_edge", "binary", "exists x. exists y. (x != y & R(x,y))"),
    CorpusEntry("one_point_world", "binary", "forall x. forall y. x = y"),
    CorpusEntry("edgeless", "binary", "forall x. forall y. !R(x,y)"),
    CorpusEntry("marked_hub", "unary_binary",
                "exists x. (P(x) & (forall y. (R(x,y) -> P(y))))"),
    CorpusEntry("moved_point", "unar", "exists x. F(x) != x"),
    CorpusEntry("all_fixed", "unar", "forall x. F(x) = x"),
    CorpusEntry("two_periodic", "unar", "exists x. F(F(x)) = x"),
    CorpusEntry("fixed_constant", "unar_const", "F(c) = c"),
    CorpusEntry("constant_reached", "unar_const", "exists x. F(x) = c"),
    CorpusEntry("constants_agree", "consts3", "c0 = c1"),
    CorpusEntry("all_named", "consts3", "forall x. (x = c0 | x = c1 | x = c2)"),
)

PREDICATE_ONLY = tuple(e for e in CORPUS if e.signature.is_predicate_only)
BINARY_ONLY = tuple(e for e in CORPUS if e.signature_name == "binary")
UNAR_ONLY = tuple(e for e in CORPUS if e.signature_name == "unar")


@dataclass(frozen=True)
class WorkedEquivalence:
    """An exact expected equivalence: the submodel check of lhs equals rhs."""

    name: str
    signature_name: str
    lhs_text: str
    rhs_text: str

    @property
    def signature(self) -> Signature:
        return SIGNATURES[self.signature_name]

    @property
    def lhs(self) -> Formula:
        return parse_formula(self.lhs_text, self.signature)

    @property
    def rhs(self) -> Formula:
        return parse_formula(self.rhs_text, self.signature)


WORKED_EQUIVALENCES: tuple[WorkedEquivalence, ...] = (
    WorkedEquivalence(
        "dominating_point_reduces_to_loop", "binary",
        "exists x. forall y. R(x,y)", "exists x. R(x,x)",
    ),
    WorkedEquivalence(
        "negated_totality_reduces_to_missing_loop", "binary",
        "!(forall x. exists y. R(x,y))", "exists x. !R(x,x)",
    ),
    WorkedEquivalence(
        "moved_point_is_its_own_check", "unar",
        "exists x. F(x) != x", "exists x. F(x) != x",
    ),
)
