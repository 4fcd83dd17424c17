"""Formula AST, parser, printer, and evaluation over finite structures.

The AST has n-ary conjunction/disjunction nodes (k >= 1) because the
syntactic translations build index-set conjunctions whose width matters;
single-element chains collapse via the smart constructors.  Monadic
second-order quantifiers are restricted to an outermost existential
prefix, evaluated by exhaustive subset enumeration.

Evaluation is compiled: ``compile_formula`` checks a formula once
(first-order or not, free variables, the shape of its set prefix) and
turns it into a tree of closures over the raw tables of a structure,
with variables in slots and quantifiers ranging over an explicit domain.
The compiled form is kept, by object identity, as long as the formula
lives, and the formula is walked once per mode it is evaluated in.
Passing a submodel carrier as the domain evaluates the formula in the
induced submodel without building it (relativization), which is how the
submodel checks in ``theta`` and ``prober`` work.  A sentence whose
terms are variables also compiles bit-sliced: it is then decided in a
whole family of structures on one universe at once, from one integer
column per predicate tuple.

Grammar (ASCII):

    formula := "forall" VAR+ "." formula | "exists" VAR+ "." formula
             | "existsSet" SETVAR "." formula | iff
    iff     := imp ("<->" imp)*
    imp     := or ("->" or)*
    or      := and ("|" and)*
    and     := neg ("&" neg)*
    neg     := "!" neg | atom
    atom    := "true" | "false" | NAME "(" term ("," term)* ")"
             | term ("="|"!=") term | SETVAR "(" term ")" | "(" formula ")"
    term    := VAR | CONST-NAME | FUNC-NAME "(" term ("," term)* ")"

VAR matches [a-z][A-Za-z0-9_]*, SETVAR matches [A-Z][A-Za-z0-9_]*.
Multi-variable quantifiers desugar to nested single-variable ones;
"&"/"|" chains flatten to n-ary nodes.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from .structures import _MEMOS, DEFAULT_ENUMERATION_CAP, Signature, Structure, check_power_cap


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class EvaluationError(ValueError):
    pass


# --- terms and formulas -----------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Func:
    name: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


Term = Union[Var, Const, Func]


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Atom:
    name: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class SetAtom:
    set_var: str
    arg: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("n-ary conjunction needs at least one part")
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True)
class Or:
    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("n-ary disjunction needs at least one part")
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class ExistsSet:
    set_var: str
    body: "Formula"


Formula = Union[
    Top, Bottom, Atom, Eq, SetAtom, Not, And, Or, Implies, Iff, Forall, Exists, ExistsSet
]

TRUE = Top()
FALSE = Bottom()


def make_and(parts) -> Formula:
    parts = tuple(parts)
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def make_or(parts) -> Formula:
    parts = tuple(parts)
    if not parts:
        return FALSE
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.body)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from subformulas(p)
    elif isinstance(f, (Implies, Iff)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (Forall, Exists, ExistsSet)):
        yield from subformulas(f.body)


def _terms_of(f: Formula) -> Iterator[Term]:
    for g in subformulas(f):
        if isinstance(g, Atom):
            yield from g.args
        elif isinstance(g, Eq):
            yield g.left
            yield g.right
        elif isinstance(g, SetAtom):
            yield g.arg


def _walk_term(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, Func):
        for a in t.args:
            yield from _walk_term(a)


def term_variables(t: Term) -> set[str]:
    return {u.name for u in _walk_term(t) if isinstance(u, Var)}


def free_variables(f: Formula) -> set[str]:
    """Free first-order variables of ``f``."""
    if isinstance(f, (Top, Bottom)):
        return set()
    if isinstance(f, (Atom, Eq, SetAtom)):
        out = set()
        for t in _terms_of(f):
            out |= term_variables(t)
        return out
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, (And, Or)):
        out = set()
        for p in f.parts:
            out |= free_variables(p)
        return out
    if isinstance(f, (Implies, Iff)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, (Forall, Exists)):
        return free_variables(f.body) - {f.var}
    if isinstance(f, ExistsSet):
        return free_variables(f.body)
    raise TypeError(f"not a formula: {f!r}")


def free_set_variables(f: Formula) -> set[str]:
    if isinstance(f, SetAtom):
        return {f.set_var}
    if isinstance(f, Not):
        return free_set_variables(f.body)
    if isinstance(f, (And, Or)):
        out = set()
        for p in f.parts:
            out |= free_set_variables(p)
        return out
    if isinstance(f, (Implies, Iff)):
        return free_set_variables(f.left) | free_set_variables(f.right)
    if isinstance(f, (Forall, Exists)):
        return free_set_variables(f.body)
    if isinstance(f, ExistsSet):
        return free_set_variables(f.body) - {f.set_var}
    return set()


def constant_names(f: Formula) -> set[str]:
    names = set()
    for g in subformulas(f):
        if isinstance(g, (Atom, Eq, SetAtom)):
            for t in _terms_of(g):
                names |= {u.name for u in _walk_term(t) if isinstance(u, Const)}
    return names


def is_sentence(f: Formula) -> bool:
    return not free_variables(f) and not free_set_variables(f)


def is_first_order(f: Formula) -> bool:
    return not any(isinstance(g, (ExistsSet, SetAtom)) for g in subformulas(f))


def is_quantifier_free(f: Formula) -> bool:
    return not any(isinstance(g, (Forall, Exists, ExistsSet)) for g in subformulas(f))


def is_existential_sentence(f: Formula) -> bool:
    """Purely existential first-order prefix over a quantifier-free matrix."""
    if not is_sentence(f):
        return False
    while isinstance(f, Exists):
        f = f.body
    return is_quantifier_free(f) and is_first_order(f)


def fresh_variables(f: Formula, count: int, prefix: str = "x") -> list[str]:
    """Deterministic machine-generated variable names not occurring in ``f``,
    free or bound (read from ``formula_facts``)."""
    taken = formula_facts(f).variables
    out = []
    i = 0
    while len(out) < count:
        name = f"{prefix}{i}"
        if name not in taken:
            out.append(name)
        i += 1
    return out


def fresh_set_variable(f: Formula, prefix: str = "X") -> str:
    taken = formula_facts(f).set_variables
    if prefix not in taken:
        return prefix
    i = 0
    while f"{prefix}{i}" in taken:
        i += 1
    return f"{prefix}{i}"


# --- parser -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<iff><->)
  | (?P<imp>->)
  | (?P<neq>!=)
  | (?P<not>!)
  | (?P<and>&)
  | (?P<or>\|)
  | (?P<eq>=)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"forall", "exists", "existsSet", "true", "false"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _InferredSymbols:
    """Symbol table built from syntactic roles when no signature is given."""

    def __init__(self):
        self.predicates: dict[str, int] = {}
        self.functions: dict[str, int] = {}
        self.constants: set[str] = set()

    def signature(self) -> Signature:
        return Signature(
            tuple(sorted(self.predicates.items())),
            tuple(sorted(self.functions.items())),
            tuple(sorted(self.constants)),
        )


class _Parser:
    def __init__(self, tokens: list[_Token], sig: Optional[Signature]):
        self.tokens = tokens
        self.pos = 0
        self.sig = sig
        self.inferred = None if sig is not None else _InferredSymbols()
        self.set_scope: list[str] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise FormulaSyntaxError(message, tok.line, tok.col)

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {kind!r}, found {tok.text!r}")
        return self.next()

    # symbol resolution ------------------------------------------------

    def predicate_arity(self, name: str) -> Optional[int]:
        if self.sig is not None:
            return self.sig.predicate_arity(name)
        return self.inferred.predicates.get(name)

    def declare_predicate(self, name: str, arity: int, tok: _Token):
        known = self.inferred.predicates.get(name)
        if known is not None and known != arity:
            self.error(f"{name} used with arities {known} and {arity}", tok)
        if name in self.inferred.functions or name in self.inferred.constants:
            self.error(f"{name} used both as predicate and as term symbol", tok)
        self.inferred.predicates[name] = arity

    def function_arity(self, name: str) -> Optional[int]:
        if self.sig is not None:
            return self.sig.function_arity(name)
        return self.inferred.functions.get(name)

    def declare_function(self, name: str, arity: int, tok: _Token):
        known = self.inferred.functions.get(name)
        if known is not None and known != arity:
            self.error(f"{name} used with arities {known} and {arity}", tok)
        if name in self.inferred.predicates or name in self.inferred.constants:
            self.error(f"{name} used in conflicting roles", tok)
        self.inferred.functions[name] = arity

    # grammar ------------------------------------------------------------

    def parse_formula(self) -> Formula:
        tok = self.peek()
        if tok.kind == "name" and tok.text in ("forall", "exists"):
            self.next()
            variables = []
            while self.peek().kind == "name" and self.peek().text not in _KEYWORDS:
                vtok = self.peek()
                if not vtok.text[0].islower():
                    break
                variables.append(self.next().text)
            if not variables:
                self.error("quantifier needs at least one variable")
            self.expect("dot")
            body = self.parse_formula()
            ctor = Forall if tok.text == "forall" else Exists
            for v in reversed(variables):
                body = ctor(v, body)
            return body
        if tok.kind == "name" and tok.text == "existsSet":
            self.next()
            vtok = self.peek()
            if vtok.kind != "name" or not vtok.text[0].isupper():
                self.error("existsSet needs an uppercase set variable")
            setvar = self.next().text
            self.expect("dot")
            self.set_scope.append(setvar)
            body = self.parse_formula()
            self.set_scope.pop()
            return ExistsSet(setvar, body)
        return self.parse_iff()

    def parse_iff(self) -> Formula:
        left = self.parse_imp()
        while self.peek().kind == "iff":
            self.next()
            right = self.parse_imp()
            left = Iff(left, right)
        return left

    def parse_imp(self) -> Formula:
        parts = [self.parse_or()]
        while self.peek().kind == "imp":
            self.next()
            parts.append(self.parse_or())
        result = parts[-1]
        for part in reversed(parts[:-1]):
            result = Implies(part, result)
        return result

    def parse_or(self) -> Formula:
        parts = [self.parse_and()]
        while self.peek().kind == "or":
            self.next()
            parts.append(self.parse_and())
        return make_or(parts)

    def parse_and(self) -> Formula:
        parts = [self.parse_neg()]
        while self.peek().kind == "and":
            self.next()
            parts.append(self.parse_neg())
        return make_and(parts)

    def parse_neg(self) -> Formula:
        if self.peek().kind == "not":
            self.next()
            return Not(self.parse_neg())
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "lpar":
            self.next()
            inner = self.parse_formula()
            self.expect("rpar")
            return inner
        if tok.kind != "name":
            self.error(f"expected an atom, found {tok.text!r}")
        if tok.text == "true":
            self.next()
            return TRUE
        if tok.text == "false":
            self.next()
            return FALSE
        if tok.text in ("forall", "exists", "existsSet"):
            self.error("quantifier not allowed here; parenthesize it")
        name = tok.text
        if name[0].isupper() and name in self.set_scope:
            name_tok = self.next()
            self.expect("lpar")
            arg = self.parse_term()
            self.expect("rpar")
            return SetAtom(name, arg)
        declared = self.predicate_arity(name)
        if declared is not None:
            name_tok = self.next()
            args = self.parse_term_args()
            if len(args) != declared:
                self.error(
                    f"{name} expects {declared} arguments, got {len(args)}", name_tok
                )
            return Atom(name, tuple(args))
        if (
            self.sig is not None
            and self.tokens[self.pos + 1].kind == "lpar"
            and self.sig.function_arity(name) is None
            and self.after_application().kind not in ("eq", "neq")
        ):
            # an undeclared name applied as a formula, not as a term
            self.error(f"unknown predicate {name}")
        if (
            self.sig is None
            and self.tokens[self.pos + 1].kind == "lpar"
            and name not in self.inferred.functions
        ):
            # inference mode: an applied undeclared name is a predicate atom
            # unless an equality sign follows the application
            name_tok = self.next()
            args = self.parse_term_args()
            if self.peek().kind in ("eq", "neq"):
                self.declare_function(name, len(args), name_tok)
                left = Func(name, tuple(args))
            else:
                self.declare_predicate(name, len(args), name_tok)
                return Atom(name, tuple(args))
        else:
            left = self.parse_term()
        nxt = self.peek()
        if nxt.kind == "eq":
            self.next()
            return Eq(left, self.parse_term())
        if nxt.kind == "neq":
            self.next()
            return Not(Eq(left, self.parse_term()))
        self.error("expected '=' or '!=' after a term")

    def after_application(self) -> _Token:
        """The token after the parenthesised arguments of the name at the
        cursor (end of input if they are not closed)."""
        depth, i = 0, self.pos + 1
        while self.tokens[i].kind != "eof":
            depth += (self.tokens[i].kind == "lpar") - (self.tokens[i].kind == "rpar")
            i += 1
            if depth == 0:
                break
        return self.tokens[i]

    def parse_term_args(self) -> list[Term]:
        self.expect("lpar")
        args = [self.parse_term()]
        while self.peek().kind == "comma":
            self.next()
            args.append(self.parse_term())
        self.expect("rpar")
        return args

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind != "name" or tok.text in _KEYWORDS:
            self.error(f"expected a term, found {tok.text!r}")
        name_tok = self.next()
        name = name_tok.text
        if self.peek().kind == "lpar":
            declared = self.function_arity(name)
            if declared is None and self.sig is not None:
                self.error(f"unknown function {name}", name_tok)
            args = self.parse_term_args()
            if declared is not None and len(args) != declared:
                self.error(
                    f"{name} expects {declared} arguments, got {len(args)}", name_tok
                )
            if self.sig is None:
                self.declare_function(name, len(args), name_tok)
            return Func(name, tuple(args))
        if self.sig is not None:
            if self.sig.has_constant(name):
                return Const(name)
            if self.sig.function_arity(name) is not None:
                self.error(f"function {name} needs arguments", name_tok)
            if self.sig.predicate_arity(name) is not None:
                self.error(f"predicate {name} cannot appear in a term", name_tok)
        if not name[0].islower():
            self.error(
                f"{name} is neither a declared constant nor a variable", name_tok
            )
        # bare lowercase names default to variables in inference mode
        return Var(name)


def _parse_all(parser: _Parser) -> Formula:
    try:
        formula = parser.parse_formula()
    except RecursionError:
        # the parser recurses once per nesting level
        parser.error("nested too deeply")
    if parser.peek().kind != "eof":
        parser.error(f"trailing input {parser.peek().text!r}")
    return formula


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse ``text`` against ``sig``; errors carry line and column."""
    return _parse_all(_Parser(_tokenize(text), sig))


def parse_with_inference(text: str) -> tuple[Formula, Signature]:
    """Parse without a signature, inferring symbols from syntactic roles.

    Bare lowercase names become variables (never constants); uppercase
    applied names become predicates unless bound by existsSet.
    """
    parser = _Parser(_tokenize(text), None)
    return _parse_all(parser), parser.inferred.signature()


# --- printer ----------------------------------------------------------------


def render_term(t: Term) -> str:
    return _renderers()[0](t)


def render_formula(f: Formula) -> str:
    """Canonical text of ``f``; parse(render(f)) is structurally equal to f.

    A call renders each node object once, however many parents share it
    (the translations intern their terms, literals and conjunctions): its
    text is kept by id for the rest of the call, and each parent decides
    whether to parenthesise it."""
    return _renderers()[1](f)


def _renderers():
    """(term, formula) renderers over one dict from node ids to texts, for
    one call: every node is reachable from the call's argument, so no id in
    it is reused while it lives."""
    texts: dict = {}

    def term(t: Term) -> str:
        if isinstance(t, (Var, Const)):
            return t.name
        text = texts.get(id(t))
        if text is None:
            text = texts[id(t)] = f"{t.name}(" + ",".join(map(term, t.args)) + ")"
        return text

    def operand(f: Formula) -> str:
        """``f``'s text as a connective's operand: a quantifier is parenthesised."""
        text = formula(f)
        return f"({text})" if isinstance(f, (Forall, Exists, ExistsSet)) else text

    def formula(f: Formula) -> str:
        text = texts.get(id(f))
        if text is not None:
            return text
        if isinstance(f, Top):
            text = "true"
        elif isinstance(f, Bottom):
            text = "false"
        elif isinstance(f, Atom):
            text = f"{f.name}(" + ",".join(map(term, f.args)) + ")"
        elif isinstance(f, SetAtom):
            text = f"{f.set_var}({term(f.arg)})"
        elif isinstance(f, Eq):
            text = f"{term(f.left)} = {term(f.right)}"
        elif isinstance(f, Not):
            if isinstance(f.body, Eq):
                text = f"{term(f.body.left)} != {term(f.body.right)}"
            elif isinstance(f.body, (Atom, SetAtom, Top, Bottom, Not)):
                text = f"!{formula(f.body)}"
            else:
                text = f"!({formula(f.body)})"
        elif isinstance(f, And):
            text = "(" + " & ".join(map(operand, f.parts)) + ")"
        elif isinstance(f, Or):
            text = "(" + " | ".join(map(operand, f.parts)) + ")"
        elif isinstance(f, Implies):
            text = f"({operand(f.left)} -> {operand(f.right)})"
        elif isinstance(f, Iff):
            text = f"({operand(f.left)} <-> {operand(f.right)})"
        elif isinstance(f, Forall):
            text = f"forall {f.var}. {formula(f.body)}"
        elif isinstance(f, Exists):
            text = f"exists {f.var}. {formula(f.body)}"
        elif isinstance(f, ExistsSet):
            text = f"existsSet {f.set_var}. {formula(f.body)}"
        else:
            raise TypeError(f"not a formula: {f!r}")
        texts[id(f)] = text
        return text

    return term, formula


# --- evaluation -------------------------------------------------------------
#
# A formula is compiled into a tree of closures, by one walk per mode it
# is evaluated in.  Every closure takes one frame list: the raw tables of
# the structure (predicates, functions, constants), the domain its
# quantifiers range over, the all-ones value, then one slot per variable.
# Each quantifier and each free variable owns a slot, so shadowing needs
# no save and restore, and both modes' walks allocate the same slots.  An
# atom on one or two bound variables, or an equation between two, reads
# their slots directly.
#
# One closure per connective serves two modes.  A truth value is a column:
# bit i is the truth in the i-th structure of a family on one universe,
# and &, | and ^ with the all-ones value stand for and, or and not.  A
# single structure is the family of one, whose all-ones value is True:
# the same closures compute its truths on bools, and stop where Tarskian
# evaluation does (a conjunction at 0, a disjunction at the all-ones
# value, an implication whose premise is 0 before its conclusion).  Only
# the atoms differ: a single structure's predicate is a set of tuples, a
# family's holds one column per tuple (the structures holding it).  A
# family's terms are variables, which take the same element in every
# structure.
#
# A wide disjunction of literals and conjunctions of literals in which atoms
# recur (the diagram disjunctions of the functional translation) reads its
# terms through a table of its distinct terms and keeps each term's value
# and each atom's truth for the rest of one call, so a term such as F(x0)
# and an atom are each evaluated at most once per assignment.  Its walk is
# the plain one, a function's table looked up before its arguments, so
# truth values, the short-circuit and the first EvaluationError raised are
# those of the plain closure.  Calls follow a decision tree over the atoms'
# truths, grown lazily from that walk along the branches calls take and
# capped in size, so that a call reads only the atoms it must and not the
# literals whose truths it already knows.  The tree is kept by the closure,
# so it lives as long as its compiled form (``_COMPILED``): a translation
# returns one sentence object per choice of diagrams, and so evaluating it
# again follows the tree grown before.  It is built for single structures
# only.


_PREDICATES, _FUNCTIONS, _CONSTANTS, _DOMAIN, _ALL, _FIRST_SLOT = range(6)

# Slot value of a free variable the assignment does not cover.
_UNSET = object()


class CompiledFormula:
    """A formula checked once and compiled for repeated evaluation.

    ``first_order``, ``is_sentence``, ``has_set_quantifier``, ``eso_error``,
    ``atoms`` (the set of (predicate, arity) pairs its atoms read, or None
    when a term is a constant or a function application), and
    ``variables`` and ``set_variables`` (the names of every first-order and
    set variable in it, free or bound) are recorded by the first walk of
    the formula, in whichever mode it was first asked for; both modes
    record the same facts.  The closures of a mode are built by that walk
    or, for the other mode, on their first use, from a weak reference to
    the formula: the compiled form does not keep it alive.

    ``holds(tables, domain)`` evaluates it with quantifiers ranging over
    ``domain``, reading the tables of the :class:`Structure` ``tables`` as
    they are.  On a submodel carrier of a structure, listed in ascending
    order, this is the truth of the formula in the induced submodel
    (relativization), without building it.

    A sentence whose terms are all variables also has a bit-sliced mode
    (``compile_formula(f, sliced=True)`` checks that it has one):
    ``holds_sliced`` and ``holds_eso_sliced`` take ``columns``
    (``structures.Columns``) in place of the tables and return the column
    of the structures where it holds.
    """

    __slots__ = (
        "first_order",
        "is_sentence",
        "has_set_quantifier",
        "eso_error",
        "atoms",
        "variables",
        "set_variables",
        "_formula",
        "_run",
        "_eso_body",
        "_eso_slots",
        "_sliced",
        "_frame",
        "_free",
    )

    def holds(self, tables, domain: Sequence[int], assignment: Optional[dict] = None) -> bool:
        frame = [tables.predicates, tables.functions, tables.constants, domain, True, *self._frame]
        if assignment:
            for name, slot in self._free:
                frame[slot] = assignment.get(name, _UNSET)
        return bool((self._run or self._closures(False)[0])(frame))

    def holds_eso(self, tables, domain: Sequence[int]) -> bool:
        """Truth of the monadic existential second-order sentence: its set
        prefix ranges over every subset of ``domain`` (check ``eso_error``
        first)."""
        frame = [tables.predicates, tables.functions, tables.constants, domain, True, *self._frame]
        body = self._eso_body or self._closures(False)[1]
        return bool(_exists_sets(frame, body, self._eso_slots))

    def holds_sliced(self, columns, domain: Sequence[int]) -> int:
        """``holds`` in every structure of ``columns`` at once, as a column."""
        frame = [columns.predicates, None, None, domain, columns.full, *self._frame]
        return (self._sliced or self._closures(True))[0](frame)

    def holds_eso_sliced(self, columns, domain: Sequence[int]) -> int:
        """``holds_eso`` in every structure of ``columns`` at once, as a column."""
        frame = [columns.predicates, None, None, domain, columns.full, *self._frame]
        return _exists_sets(frame, (self._sliced or self._closures(True))[1], self._eso_slots)

    def _closures(self, sliced: bool) -> tuple:
        """The closures (run, ESO body) of one mode, built on their first use
        by a second walk, which allocates the first walk's slots."""
        f = self._formula()
        if f is None:
            raise ReferenceError("the formula was freed before this mode was first used")
        run, eso_body, _ = _build(_Builder(sliced), f)
        if sliced:
            self._sliced = (run, eso_body)
        else:
            self._run, self._eso_body = run, eso_body
        return run, eso_body


def _exists_sets(frame: list, body, slots: tuple):
    """Disjunction of ``body`` over every choice of subsets of the domain
    for the set slots, stopping once it is all ones.  Refuses with
    :class:`CapExceededError` past ``DEFAULT_ENUMERATION_CAP`` choices,
    before making any."""
    if not slots:
        return body(frame)
    bits = len(frame[_DOMAIN]) * len(slots)
    check_power_cap(bits, DEFAULT_ENUMERATION_CAP, "set choices", lambda: 2**bits)
    domain, choices = tuple(frame[_DOMAIN]), 2**bits
    # choice c gives slot j the subset whose mask is the j-th n-bit digit
    # of c from the top: itertools.product order over masks counted in
    # binary, one frozenset alive per slot
    n, width = len(domain), (1 << len(domain)) - 1
    shifts = [n * j for j in reversed(range(len(slots)))]
    found, full = False, frame[_ALL]
    for choice in range(choices):
        for slot, shift in zip(slots, shifts):
            mask = choice >> shift & width
            frame[slot] = frozenset(e for i, e in enumerate(domain) if mask >> i & 1)
        found |= body(frame)
        if found == full:
            break
    return found


_COMPILED: dict[int, CompiledFormula] = {}
_MEMOS.append(_COMPILED.clear)


def compile_formula(f: Formula, sliced: bool = False) -> CompiledFormula:
    """The compiled form of ``f``, to be evaluated on single structures, or
    with ``sliced`` on families on one universe: ``formula_facts(f,
    sliced)``, refused with ValueError when ``sliced`` and ``f`` is not a
    sentence whose terms are variables."""
    compiled = formula_facts(f, sliced)
    if sliced and (compiled.atoms is None or not compiled.is_sentence):
        raise ValueError("bit-sliced evaluation needs a sentence whose terms are variables")
    return compiled


def formula_facts(f: Formula, sliced: bool = False) -> CompiledFormula:
    """The compiled form of ``f``, built on first use and kept while ``f``
    lives, read for its facts or evaluated.

    Kept by object identity: hashing the AST by value would cost about as
    much as an evaluation, so reuse the formula object to reuse the work.
    The predicate-signature translations in ``theta`` key by their input's
    value instead: the input is small while the output grows with the
    bound, and they return one output object per input, so translating
    equal input again reaches the form compiled here without hashing the
    output.  A formula not compiled yet is walked once, in bit-sliced mode
    with ``sliced`` and in plain mode otherwise: pass the mode the caller
    goes on to evaluate it in, and no walk is wasted.  Unlike
    ``compile_formula`` it does not refuse a formula that has no
    bit-sliced mode.
    """
    hit = _COMPILED.get(id(f))
    if hit is not None and hit._formula() is f:
        return hit
    compiled = _COMPILED[id(f)] = _walked(f, _Builder(sliced=True)) if sliced else _compile(f)
    return compiled


def _compile(f: Formula) -> CompiledFormula:
    """The first walk of a formula first asked for in plain mode."""
    return _walked(f, _Builder())


def _walked(f: Formula, builder: "_Builder") -> CompiledFormula:
    """``f`` with its facts and the closures of the builder's mode, from one
    walk; the other mode's closures are built on first use."""
    compiled = CompiledFormula()
    key = id(f)
    # the dict's own pop: at shutdown a formula may die after the global is gone
    compiled._formula = weakref.ref(f, lambda _, pop=_COMPILED.pop: pop(key, None))
    run, eso_body, compiled._eso_slots = _build(builder, f)
    compiled._run = compiled._eso_body = compiled._sliced = None
    if builder.sliced:
        compiled._sliced = (run, eso_body)
    else:
        compiled._run, compiled._eso_body = run, eso_body
    prefix = bool(compiled._eso_slots)
    compiled.first_order = not prefix and not builder.second_order
    compiled.is_sentence = not builder.free and not builder.free_sets
    compiled.has_set_quantifier = prefix or builder.nested_set_quantifier
    if builder.nested_set_quantifier:
        compiled.eso_error = "set quantifier not in prefix position"
    elif not compiled.is_sentence:
        compiled.eso_error = "evaluate_eso expects a sentence"
    else:
        compiled.eso_error = None
    compiled.atoms = frozenset(builder.atoms) if builder.variable_terms else None
    compiled.variables = frozenset(builder.quantified.union(builder.free))
    compiled.set_variables = frozenset(builder.quantified_sets.union(builder.free_sets))
    compiled._free = tuple(builder.free.items()) + tuple(builder.free_sets.items())
    frame = [None] * (builder.slots - _FIRST_SLOT)
    for _, slot in compiled._free:
        frame[slot - _FIRST_SLOT] = _UNSET
    compiled._frame = tuple(frame)
    return compiled


def _build(builder: "_Builder", f: Formula):
    """The closure of ``f``, and of its matrix under its set prefix with the
    prefix's slots (``f`` itself and no slots without a prefix), in one
    walk that records the facts of ``f`` on the builder.  Both modes
    allocate the same slots, so they share one frame layout."""
    set_scope = {}
    matrix = f
    while isinstance(matrix, ExistsSet):
        set_scope[matrix.set_var] = builder.new_slot()
        builder.quantified_sets.add(matrix.set_var)
        matrix = matrix.body
    body = builder.formula(matrix, {}, set_scope)
    if not set_scope:
        return body, body, ()
    return _second_order, body, tuple(set_scope.values())


def _second_order(fr):
    raise EvaluationError("second-order quantifier in first-order evaluation")


def _is_literal(f: Formula) -> bool:
    return isinstance(f, (Atom, Eq)) or (isinstance(f, Not) and isinstance(f.body, (Atom, Eq)))


def _bound_slots(terms: tuple, scope: dict) -> Optional[list]:
    """The slots of ``terms`` when each is a bound variable, else None."""
    slots = [scope.get(t.name) if isinstance(t, Var) else None for t in terms]
    return None if None in slots else slots


def _missing(message: str):
    raise EvaluationError(message) from None


def _term_reader(position: int, closure, name: Optional[str], args: tuple, readers: list):
    """Reader of a literal disjunction's term table: ``reader(fr, values)``
    stores the term's value at ``values[position]`` and returns it, reading
    each argument from ``values`` or, on its first read, through its own
    reader.  A function's table is looked up first, so errors are those of
    the plain term closure, which reads a variable or constant (``name``
    None)."""
    if name is None:

        def leaf(fr, values):
            value = values[position] = closure(fr)
            return value

        return leaf
    if len(args) == 1:
        (j,) = args
        read = readers[j]

        def unary(fr, values):
            try:
                table = fr[_FUNCTIONS][name]
            except KeyError:
                _missing(f"function {name} uninterpreted")
            argument = values[j]
            if argument is None:
                argument = read(fr, values)
            try:
                value = values[position] = table[argument,]
            except KeyError:
                _missing(f"function {name} not total at {(argument,)}")
            return value

        return unary
    parts = tuple((j, readers[j]) for j in args)

    def application(fr, values):
        try:
            table = fr[_FUNCTIONS][name]
        except KeyError:
            _missing(f"function {name} uninterpreted")
        arguments = []
        for j, read in parts:
            value = values[j]
            arguments.append(read(fr, values) if value is None else value)
        arguments = tuple(arguments)
        try:
            value = values[position] = table[arguments]
        except KeyError:
            _missing(f"function {name} not total at {arguments}")
        return value

    return application


def _atom_reader(key: tuple, readers: list):
    """Truth of a literal disjunction's atom, ``(None, left, right)`` for an
    equation and ``(predicate, *arguments)`` otherwise, over term positions,
    read as ``_term_reader`` reads arguments; a predicate is looked up
    before its arguments are read."""
    name, *args = key
    parts = tuple((j, readers[j]) for j in args)
    if name is None:
        (a, read_a), (b, read_b) = parts

        def equation(fr, values):
            left = values[a]
            if left is None:
                left = read_a(fr, values)
            right = values[b]
            if right is None:
                right = read_b(fr, values)
            return left == right

        return equation

    def atom(fr, values):
        try:
            rel = fr[_PREDICATES][name]
        except KeyError:
            _missing(f"predicate {name} uninterpreted")
        arguments = []
        for j, read in parts:
            value = values[j]
            arguments.append(read(fr, values) if value is None else value)
        return tuple(arguments) in rel

    return atom


def _tree_budget(occurrences: int) -> int:
    """The most nodes the decision tree of a literal disjunction with
    ``occurrences`` literal occurrences stores: a fixed bound on its memory."""
    return 4 * occurrences


def _resume(shape: tuple, truths: list, k: int, j: int):
    """Where the plain walk of a literal disjunction whose disjuncts have the
    literal codes ``shape``, resumed at literal ``j`` of disjunct ``k`` over
    the truths read so far (per literal code, None if unread), goes next: a
    new node at the first unread atom it reaches, or else the truth it ends
    with."""
    for k in range(k, len(shape)):
        literals = shape[k]
        for code in literals[j:] if j else literals:
            truth = truths[code]
            if truth is None:
                # an earlier literal of this atom would have read it
                return [code & -2, k, literals.index(code), None, None]
            if not truth:  # so is the disjunct
                break
        else:
            return True
        j = 0
    return False


class _Builder:
    """Closure construction for one formula: slot allocation and the cases.

    Closures capture names and slots only, never AST nodes, so the memo of
    compiled forms does not keep formulas alive.  Terms and literals that
    recur under the same variable slots (diagram disjunctions repeat most
    of theirs) share one closure.  Error cases and the order of evaluation
    (left to right, short-circuiting) are those of Tarskian evaluation
    over the AST.  Each connective has one closure, on columns, which
    serves a single structure and a family alike (see the notes above
    ``CompiledFormula``); ``sliced`` only chooses the atom closures, set
    membership or column lookup, and keeps ``literal_disjunction``, which
    memoises term values and atom truths per call, to single structures.
    A builder makes one walk, in one mode; it visits every node once, set
    quantifiers' bodies too, and records the facts ``CompiledFormula``
    keeps, the same in either mode: the free variables and set variables,
    the names its quantifiers bind, whether a set atom or quantifier
    occurs and whether one occurs outside the prefix, the atoms' symbols
    and whether every term is a variable.
    """

    def __init__(self, sliced: bool = False):
        self.sliced = sliced
        self.slots = _FIRST_SLOT
        self.free: dict[str, int] = {}
        self.free_sets: dict[str, int] = {}
        self.quantified: set[str] = set()  # variables quantifiers bind
        self.quantified_sets: set[str] = set()
        self.shared: dict = {}
        self.atoms: set[tuple[str, int]] = set()
        self.variable_terms = True
        self.second_order = False
        self.nested_set_quantifier = False

    def new_slot(self) -> int:
        self.slots += 1
        return self.slots - 1

    def share(self, build, node, scope: dict, *rest):
        key = (node, tuple(scope.items()))
        hit = self.shared.get(key)
        if hit is None:
            hit = self.shared[key] = build(node, scope, *rest)
        return hit

    def term(self, t: Term, scope: dict):
        return self.share(self._term, t, scope)

    def _term(self, t: Term, scope: dict):
        if isinstance(t, Var):
            slot = scope.get(t.name)
            if slot is not None:
                return lambda fr: fr[slot]
            name = t.name
            if name not in self.free:
                self.free[name] = self.new_slot()
            slot = self.free[name]

            def free_var(fr):
                value = fr[slot]
                if value is _UNSET:
                    raise EvaluationError(f"uncovered free variable {name}")
                return value

            return free_var
        self.variable_terms = False
        name = t.name
        if isinstance(t, Const):

            def const(fr):
                try:
                    return fr[_CONSTANTS][name]
                except KeyError:
                    _missing(f"constant {name} uninterpreted")

            return const
        if len(t.args) == 1:
            arg = self.term(t.args[0], scope)

            def unary(fr):
                try:
                    table = fr[_FUNCTIONS][name]
                except KeyError:
                    _missing(f"function {name} uninterpreted")
                args = (arg(fr),)
                try:
                    return table[args]
                except KeyError:
                    _missing(f"function {name} not total at {args}")

            return unary
        parts = tuple(self.term(a, scope) for a in t.args)

        def func(fr):
            try:
                table = fr[_FUNCTIONS][name]
            except KeyError:
                _missing(f"function {name} uninterpreted")
            args = tuple([p(fr) for p in parts])
            try:
                return table[args]
            except KeyError:
                _missing(f"function {name} not total at {args}")

        return func

    def formula(self, f: Formula, scope: dict, set_scope: dict):
        if _is_literal(f):
            return self.share(self._formula, f, scope, set_scope)
        return self._formula(f, scope, set_scope)

    def _formula(self, f: Formula, scope: dict, set_scope: dict):
        if isinstance(f, Top):
            return lambda fr: fr[_ALL]
        if isinstance(f, Bottom):
            return lambda fr: False  # also the empty column
        if isinstance(f, Atom):
            return self.atom(f, scope)
        if isinstance(f, Eq):
            slots = _bound_slots((f.left, f.right), scope)
            if slots is not None:
                a, b = slots
                return lambda fr: fr[_ALL] if fr[a] == fr[b] else False
            left, right = self.term(f.left, scope), self.term(f.right, scope)
            return lambda fr: fr[_ALL] if left(fr) == right(fr) else False
        if isinstance(f, SetAtom):
            return self.set_atom(f, scope, set_scope)
        if isinstance(f, Not):
            body = self.formula(f.body, scope, set_scope)
            return lambda fr: fr[_ALL] ^ body(fr)
        if isinstance(f, Or) and not self.sliced:
            memo = self.literal_disjunction(f, scope, set_scope)
            if memo is not None:
                return memo
        if isinstance(f, (And, Or)):
            parts = tuple(self.formula(p, scope, set_scope) for p in f.parts)
            if isinstance(f, And):

                def conjunction(fr):
                    acc = fr[_ALL]
                    for p in parts:
                        acc &= p(fr)
                        if not acc:
                            break
                    return acc

                return conjunction

            def disjunction(fr):
                acc, full = False, fr[_ALL]
                for p in parts:
                    acc |= p(fr)
                    if acc == full:
                        break
                return acc

            return disjunction
        if isinstance(f, Implies):
            left = self.formula(f.left, scope, set_scope)
            right = self.formula(f.right, scope, set_scope)

            def implication(fr):
                premise = left(fr)
                return fr[_ALL] ^ premise | right(fr) if premise else fr[_ALL]

            return implication
        if isinstance(f, Iff):
            left = self.formula(f.left, scope, set_scope)
            right = self.formula(f.right, scope, set_scope)
            return lambda fr: fr[_ALL] ^ left(fr) ^ right(fr)
        if isinstance(f, (Forall, Exists)):
            self.quantified.add(f.var)
            slot = self.new_slot()
            body = self.formula(f.body, {**scope, f.var: slot}, set_scope)
            if isinstance(f, Exists):

                def exists(fr):
                    acc, full = False, fr[_ALL]
                    for e in fr[_DOMAIN]:
                        fr[slot] = e
                        acc |= body(fr)
                        if acc == full:
                            break
                    return acc

                return exists

            def forall(fr):
                acc = fr[_ALL]
                for e in fr[_DOMAIN]:
                    fr[slot] = e
                    acc &= body(fr)
                    if not acc:
                        break
                return acc

            return forall
        if isinstance(f, ExistsSet):
            # walked for the facts only: it fails when reached
            self.second_order = self.nested_set_quantifier = True
            self.quantified_sets.add(f.set_var)
            self.formula(f.body, scope, {**set_scope, f.set_var: self.new_slot()})
            return _second_order
        raise TypeError(f"not a formula: {f!r}")

    def literal_disjunction(self, f: Or, scope: dict, set_scope: dict):
        """A disjunction of literals and conjunctions of literals in which an
        atom recurs, read through a table of its distinct terms, subterms
        before the terms that contain them (None for any other disjunction).
        One call keeps each term's value and each atom's truth once it is
        first read.  The walk is the plain one, left to right and
        short-circuiting, and so is each term's: a function's table is
        looked up before its arguments are read.  Only repeats read the
        memo, so every atom and term is evaluated where the plain closure
        first reaches it.  Terms are told apart by their shared closures,
        and a node object seen before is not looked up again, so equal
        nodes that are one object (the interned diagrams) cost one lookup.

        Calls follow a decision tree, built lazily from the plain walk and
        kept across calls.  A node ``[code, k, j, if_false, if_true]`` holds
        the atom the walk reads next, given the truths on the path to the
        node, by the code of its unnegated literal, and where the walk reads
        it, at literal ``j`` of disjunct ``k``; a child is a node, the
        walk's truth, or None until a call first takes that branch, and
        that call resumes the walk at ``(k, j)`` over its own truths to make
        it.  So a call reads exactly the atoms the plain walk reads, in its
        order, and skips re-reading the literals it already knows.  The tree
        stores at most ``_tree_budget`` nodes; once that is spent, calls
        still resume the walk but store nothing.  The tree lives with this
        closure, so as long as the formula object: a translation returns one
        sentence object per choice of diagrams, whose tree then serves every
        translation that makes that choice."""
        groups = [p.parts if isinstance(p, And) else (p,) for p in f.parts]
        # each node object once: the interned diagrams repeat theirs
        distinct = {id(g): g for group in groups for g in group}
        if not all(map(_is_literal, distinct.values())):
            return None
        terms: dict = {}  # term closure -> position in the table
        table = []  # per position: (closure, function name or None, argument positions)
        by_node: dict = {}  # id of a term or literal seen -> its position or code
        atoms: dict = {}  # (predicate or None for =, *argument positions) -> position

        def term(t):
            position = by_node.get(id(t))
            if position is None:
                closure = self.term(t, scope)
                position = terms.get(closure)
                if position is None:
                    args = tuple(map(term, t.args)) if isinstance(t, Func) else ()
                    position = terms[closure] = len(table)
                    table.append((closure, t.name if args else None, args))
                by_node[id(t)] = position
            return position

        disjuncts = []
        for group in groups:
            literals = []
            for g in group:
                code = by_node.get(id(g))
                if code is None:
                    atom = g.body if isinstance(g, Not) else g
                    if isinstance(atom, Eq):
                        key = (None, term(atom.left), term(atom.right))
                    else:
                        self.atoms.add((atom.name, len(atom.args)))
                        key = (atom.name, *map(term, atom.args))
                    # a literal's code: 2i for atom i, 2i + 1 for its negation
                    code = 2 * atoms.setdefault(key, len(atoms)) + (atom is not g)
                    by_node[id(g)] = code
                literals.append(code)
            disjuncts.append(tuple(literals))
        occurrences = sum(map(len, disjuncts))
        if len(atoms) == occurrences:
            return None
        readers = []
        for position, (closure, name, args) in enumerate(table):
            readers.append(_term_reader(position, closure, name, args, readers))
        truth_of = tuple(_atom_reader(key, readers) for key in atoms)
        width, count = 2 * len(atoms), len(table)
        shape = tuple(disjuncts)
        # a node without atom that resumes the walk at its start: its
        # if_false is the first node
        root = [None, 0, 0, None, None]
        budget = _tree_budget(occurrences)

        def literal_disjunction(fr):
            nonlocal budget
            truths, values = [None] * width, [None] * count
            node, truth = root, False
            while True:
                child = node[4] if truth else node[3]
                if child is None:
                    child = _resume(shape, truths, node[1], node[2])
                    if budget > 0:
                        node[4 if truth else 3] = child
                        if child.__class__ is list:
                            budget -= 1
                if child.__class__ is not list:
                    return child
                node = child
                code = node[0]
                truth = truths[code] = truth_of[code >> 1](fr, values)
                truths[code + 1] = not truth

        return literal_disjunction

    def atom(self, f: Atom, scope: dict):
        name = f.name
        self.atoms.add((name, len(f.args)))
        slots = _bound_slots(f.args, scope)
        if slots is not None and len(slots) in (1, 2):
            # bound variables only: reading them cannot fail, so the
            # predicate may be looked up after the tuple is built
            return self.slot_atom(name, *slots)
        parts = tuple(self.term(a, scope) for a in f.args)
        if self.sliced:

            def column(fr):
                try:
                    return fr[_PREDICATES][name][tuple([p(fr) for p in parts])]
                except KeyError:
                    _missing(f"predicate {name} uninterpreted")

            return column

        def atom(fr):
            try:
                rel = fr[_PREDICATES][name]
            except KeyError:
                _missing(f"predicate {name} uninterpreted")
            return tuple([p(fr) for p in parts]) in rel

        return atom

    def slot_atom(self, name: str, a: int, b: Optional[int] = None):
        """The atom of predicate ``name`` on the variables in slots ``a``
        (and ``b``): membership of the tuple, or its column."""
        if b is None:
            if self.sliced:

                def unary_column(fr):
                    try:
                        return fr[_PREDICATES][name][fr[a],]
                    except KeyError:
                        _missing(f"predicate {name} uninterpreted")

                return unary_column

            def unary(fr):
                try:
                    return (fr[a],) in fr[_PREDICATES][name]
                except KeyError:
                    _missing(f"predicate {name} uninterpreted")

            return unary
        if self.sliced:

            def binary_column(fr):
                try:
                    return fr[_PREDICATES][name][fr[a], fr[b]]
                except KeyError:
                    _missing(f"predicate {name} uninterpreted")

            return binary_column

        def binary(fr):
            try:
                return (fr[a], fr[b]) in fr[_PREDICATES][name]
            except KeyError:
                _missing(f"predicate {name} uninterpreted")

        return binary

    def set_atom(self, f: SetAtom, scope: dict, set_scope: dict):
        arg = self.term(f.arg, scope)
        slot = set_scope.get(f.set_var)
        self.second_order = True
        if slot is not None:
            return lambda fr: fr[_ALL] if arg(fr) in fr[slot] else False
        name = f.set_var
        if name not in self.free_sets:
            self.free_sets[name] = self.new_slot()
        slot = self.free_sets[name]

        # single structures only: a family is decided for sentences
        def free_set(fr):
            members = fr[slot]
            if members is _UNSET:
                raise EvaluationError(f"uncovered set variable {name}")
            return arg(fr) in members

        return free_set


def evaluate_fo(s: Structure, f: Formula, assignment: Optional[dict] = None) -> bool:
    """Tarskian truth of a first-order formula; quantifiers range over the universe.

    The assignment must cover all free (first-order and set) variables.
    """
    return compile_formula(f).holds(s, range(s.size), assignment)


def evaluate_eso(s: Structure, f: Formula) -> bool:
    """Truth of a monadic existential second-order sentence.

    Strips the outermost existsSet prefix and searches subsets exhaustively;
    set quantifiers anywhere else are rejected.
    """
    compiled = compile_formula(f)
    if compiled.eso_error is not None:
        raise EvaluationError(compiled.eso_error)
    return compiled.holds_eso(s, range(s.size))


# --- rebuilding and relativization --------------------------------------------


def map_formula(f: Formula, node: Callable[[Formula], Formula]) -> Formula:
    """Rebuild ``f`` bottom-up: every formula node, once its parts are
    rebuilt, is replaced by ``node(g)``.  Atoms are kept as they are."""

    def rec(g: Formula) -> Formula:
        if isinstance(g, (Top, Bottom, Atom, Eq, SetAtom)):
            out = g
        elif isinstance(g, Not):
            out = Not(rec(g.body))
        elif isinstance(g, (And, Or)):
            out = type(g)(tuple(rec(p) for p in g.parts))
        elif isinstance(g, (Implies, Iff)):
            out = type(g)(rec(g.left), rec(g.right))
        elif isinstance(g, (Forall, Exists)):
            out = type(g)(g.var, rec(g.body))
        elif isinstance(g, ExistsSet):
            out = ExistsSet(g.set_var, rec(g.body))
        else:
            raise TypeError(f"not a formula: {g!r}")
        return node(out)

    return rec(f)


def relativize_to_set_variable(f: Formula, set_var: str) -> Formula:
    """Bound every quantifier of ``f`` to the monadic set variable.

    exists y. b  becomes  exists y. (X(y) & b');
    forall y. b  becomes  forall y. (X(y) -> b').
    """
    facts = formula_facts(f)
    if not facts.first_order:  # so no set variable occurs in f
        raise ValueError("relativization applies to first-order formulas")

    def bound(g: Formula) -> Formula:
        if isinstance(g, Exists):
            return Exists(g.var, And((SetAtom(set_var, Var(g.var)), g.body)))
        if isinstance(g, Forall):
            return Forall(g.var, Implies(SetAtom(set_var, Var(g.var)), g.body))
        return g

    return map_formula(f, node=bound)


def relativized_node_count(f: Formula, width: int) -> int:
    """Node count of ``relativize_to_variables(f, variables)`` for ``width``
    variables, computed without building it: each quantifier becomes a
    ``width``-fold disjunction or conjunction of its relativized body."""
    if isinstance(f, Not):
        return 1 + relativized_node_count(f.body, width)
    if isinstance(f, (And, Or)):
        return 1 + sum(relativized_node_count(p, width) for p in f.parts)
    if isinstance(f, (Implies, Iff)):
        return 1 + relativized_node_count(f.left, width) + relativized_node_count(f.right, width)
    if isinstance(f, (Exists, Forall)):
        body = relativized_node_count(f.body, width)
        return body if width == 1 else 1 + width * body
    return 1


def relativize_to_variables(f: Formula, variables: list[str]) -> Formula:
    """Quantifier elimination by relativizing to a finite list of variables.

    exists y. b becomes the disjunction of b[y:=v] over the given
    variables, forall the conjunction.  The substitutions are carried down
    in one pass, an inner quantifier shadowing an outer one on the same
    variable, so each output node is built once.  Requires a predicate-only
    formula (terms are bare variables) and fresh variables; witnesses may
    repeat, so no distinctness constraints are introduced.
    """
    variables = list(variables)
    if not variables:
        raise ValueError("need at least one relativization variable")
    facts = formula_facts(f)
    if not facts.first_order:
        raise ValueError("relativization applies to first-order formulas")
    if facts.atoms is None:  # a term is a constant or a function application
        raise ValueError("functional signature: use the diagram-based translation instead")
    for v in variables:
        if v in facts.variables:
            raise ValueError(f"relativization variable {v} occurs in the formula")
    if len(set(variables)) != len(variables):
        raise ValueError("relativization variables must be distinct")

    values = [Var(v) for v in variables]

    def rec(g: Formula, env: dict) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.name, tuple(env.get(a.name, a) for a in g.args))
        if isinstance(g, Eq):
            return Eq(env.get(g.left.name, g.left), env.get(g.right.name, g.right))
        if isinstance(g, Not):
            return Not(rec(g.body, env))
        if isinstance(g, (And, Or)):
            return type(g)(tuple(rec(p, env) for p in g.parts))
        if isinstance(g, (Implies, Iff)):
            return type(g)(rec(g.left, env), rec(g.right, env))
        if isinstance(g, (Exists, Forall)):
            join = make_or if isinstance(g, Exists) else make_and
            return join(rec(g.body, {**env, g.var: value}) for value in values)
        return g

    return rec(f, {})
