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
lives.  Passing a submodel carrier as the domain evaluates the formula in
the induced submodel without building it (relativization), which is how
the submodel checks in ``theta`` and ``prober`` work.  A sentence whose
terms are variables also compiles bit-sliced: it is then decided in a
whole family of structures on one universe at once, from one integer
column per predicate tuple.  ``map_formula`` is the one bottom-up rebuild
behind the relativizations and substitutions.

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

import functools
import itertools
import re
import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from .structures import DEFAULT_ENUMERATION_CAP, CapExceededError, Signature, Structure


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


def all_variable_names(f: Formula) -> set[str]:
    """Every first-order variable occurring in ``f``, free or bound."""
    names = set()
    for g in subformulas(f):
        if isinstance(g, (Forall, Exists)):
            names.add(g.var)
        elif isinstance(g, (Atom, Eq, SetAtom)):
            for t in _terms_of(g):
                names |= term_variables(t)
    return names


def set_variable_names(f: Formula) -> set[str]:
    names = set()
    for g in subformulas(f):
        if isinstance(g, SetAtom):
            names.add(g.set_var)
        elif isinstance(g, ExistsSet):
            names.add(g.set_var)
    return names


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
    """Deterministic machine-generated variable names not occurring in ``f``."""
    taken = all_variable_names(f)
    out = []
    i = 0
    while len(out) < count:
        name = f"{prefix}{i}"
        if name not in taken:
            out.append(name)
        i += 1
    return out


def fresh_set_variable(f: Formula, prefix: str = "X") -> str:
    taken = set_variable_names(f)
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
    if isinstance(t, (Var, Const)):
        return t.name
    return f"{t.name}(" + ",".join(render_term(a) for a in t.args) + ")"


def _render_operand(f: Formula) -> str:
    text = render_formula(f)
    if isinstance(f, (Forall, Exists, ExistsSet)):
        return f"({text})"
    return text


def render_formula(f: Formula) -> str:
    """Canonical text of ``f``; parse(render(f)) is structurally equal to f."""
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Atom):
        return f"{f.name}(" + ",".join(render_term(a) for a in f.args) + ")"
    if isinstance(f, SetAtom):
        return f"{f.set_var}({render_term(f.arg)})"
    if isinstance(f, Eq):
        return f"{render_term(f.left)} = {render_term(f.right)}"
    if isinstance(f, Not):
        if isinstance(f.body, Eq):
            return f"{render_term(f.body.left)} != {render_term(f.body.right)}"
        body = render_formula(f.body)
        if isinstance(f.body, (Atom, SetAtom, Top, Bottom, Not)):
            return f"!{body}"
        return f"!({body})"
    if isinstance(f, And):
        return "(" + " & ".join(_render_operand(p) for p in f.parts) + ")"
    if isinstance(f, Or):
        return "(" + " | ".join(_render_operand(p) for p in f.parts) + ")"
    if isinstance(f, Implies):
        return f"({_render_operand(f.left)} -> {_render_operand(f.right)})"
    if isinstance(f, Iff):
        return f"({_render_operand(f.left)} <-> {_render_operand(f.right)})"
    if isinstance(f, Forall):
        return f"forall {f.var}. {render_formula(f.body)}"
    if isinstance(f, Exists):
        return f"exists {f.var}. {render_formula(f.body)}"
    if isinstance(f, ExistsSet):
        return f"existsSet {f.set_var}. {render_formula(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


# --- evaluation -------------------------------------------------------------
#
# A formula is compiled once into a tree of closures.  Every closure takes
# one frame list: the raw tables of the structure (predicates, functions,
# constants), the domain its quantifiers range over, the all-ones value,
# then one slot per variable.  Each quantifier and each free variable owns
# a slot, so shadowing needs no save and restore.
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
# recur (the diagram disjunctions of the functional translation) keeps each
# atom's truth for the rest of one call, so an atom is evaluated at most
# once per assignment.  Its walk is the plain one, so truth values, the
# short-circuit and the first EvaluationError raised are those of the
# plain closure.  It is built for single structures only.


_PREDICATES, _FUNCTIONS, _CONSTANTS, _DOMAIN, _ALL, _FIRST_SLOT = range(6)

# Slot value of a free variable the assignment does not cover.
_UNSET = object()


class CompiledFormula:
    """A formula checked once and compiled for repeated evaluation.

    ``holds(tables, domain)`` evaluates it with quantifiers ranging over
    ``domain``, reading ``tables.predicates``, ``.functions`` and
    ``.constants`` as they are (``tables`` is a :class:`Structure` or an
    ``Interpretation``).  On a submodel carrier of a structure, listed in
    ascending order, this is the truth of the formula in the induced
    submodel (relativization), without building it.

    ``atoms`` is the set of (predicate, arity) pairs its atoms read, or
    None when a term is a constant or a function application.  A sentence
    whose terms are all variables also has a bit-sliced mode, built by
    ``compile_formula(f, sliced=True)``: ``holds_sliced`` and
    ``holds_eso_sliced`` take ``columns`` (``structures.Columns``) in place
    of the tables and return the column of the structures where it holds.
    """

    __slots__ = (
        "first_order",
        "is_sentence",
        "has_set_quantifier",
        "eso_error",
        "atoms",
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
        return bool(self._run(frame))

    def holds_eso(self, tables, domain: Sequence[int]) -> bool:
        """Truth of the monadic existential second-order sentence: its set
        prefix ranges over every subset of ``domain`` (check ``eso_error``
        first)."""
        frame = [tables.predicates, tables.functions, tables.constants, domain, True, *self._frame]
        return bool(_exists_sets(frame, self._eso_body, self._eso_slots))

    def holds_sliced(self, columns, domain: Sequence[int]) -> int:
        """``holds`` in every structure of ``columns`` at once, as a column."""
        return self._sliced[0]([columns.predicates, None, None, domain, columns.full, *self._frame])

    def holds_eso_sliced(self, columns, domain: Sequence[int]) -> int:
        """``holds_eso`` in every structure of ``columns`` at once, as a column."""
        frame = [columns.predicates, None, None, domain, columns.full, *self._frame]
        return _exists_sets(frame, self._sliced[1], self._eso_slots)


def _exists_sets(frame: list, body, slots: tuple):
    """Disjunction of ``body`` over every choice of subsets of the domain
    for the set slots, stopping once it is all ones.  Refuses with
    :class:`CapExceededError` past ``DEFAULT_ENUMERATION_CAP`` choices,
    before making any."""
    if not slots:
        return body(frame)
    domain = tuple(frame[_DOMAIN])
    choices = 2 ** (len(domain) * len(slots))
    if choices > DEFAULT_ENUMERATION_CAP:
        raise CapExceededError(choices, DEFAULT_ENUMERATION_CAP, "set choices")
    found, full = False, frame[_ALL]
    for choice in itertools.product(_subsets(domain), repeat=len(slots)):
        for slot, members in zip(slots, choice):
            frame[slot] = members
        found |= body(frame)
        if found == full:
            break
    return found


@functools.lru_cache(maxsize=32)
def _subsets(domain: tuple[int, ...]) -> tuple[frozenset, ...]:
    """Every subset of ``domain``, in binary counting order."""
    return tuple(
        frozenset(e for i, e in enumerate(domain) if mask >> i & 1)
        for mask in range(2 ** len(domain))
    )


_COMPILED: dict[int, tuple] = {}


def compile_formula(f: Formula, sliced: bool = False) -> CompiledFormula:
    """The compiled form of ``f``, built on first use and kept while ``f`` lives.

    Kept by object identity: hashing the AST by value would cost about as
    much as an evaluation, so reuse the formula object to reuse the work.
    With ``sliced`` the bit-sliced closures are built too, on first
    request; ``f`` must be a sentence whose terms are variables.
    """
    key = id(f)
    hit = _COMPILED.get(key)
    if hit is not None and hit[0]() is f:
        compiled = hit[1]
    else:
        compiled = _compile(f)
        _COMPILED[key] = (weakref.ref(f, lambda _, key=key: _COMPILED.pop(key, None)), compiled)
    if sliced and compiled._sliced is None:
        if compiled.atoms is None or not compiled.is_sentence:
            raise ValueError("bit-sliced evaluation needs a sentence whose terms are variables")
        run, eso_body, _ = _build(_Builder(sliced=True), f)
        compiled._sliced = (run, eso_body)
    return compiled


def _compile(f: Formula) -> CompiledFormula:
    compiled = CompiledFormula()
    builder = _Builder()
    compiled._run, compiled._eso_body, compiled._eso_slots = _build(builder, f)
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
    compiled._sliced = None
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
        matrix = matrix.body
    body = builder.formula(matrix, {}, set_scope)
    if not set_scope:
        return body, body, ()
    return _second_order, body, tuple(set_scope.values())


def _second_order(fr):
    raise EvaluationError("second-order quantifier in first-order evaluation")


def _is_literal(f: Formula) -> bool:
    return isinstance(f, (Atom, Eq)) or (isinstance(f, Not) and isinstance(f.body, (Atom, Eq)))


def _missing(message: str):
    raise EvaluationError(message) from None


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
    memoises atom truths per call, to single structures.  The walk visits
    every node once, set quantifiers' bodies too, and records the facts
    ``CompiledFormula`` keeps: the free variables and set variables,
    whether a set atom or quantifier occurs and whether one occurs outside
    the prefix, the atoms' symbols and whether every term is a variable.
    """

    def __init__(self, sliced: bool = False):
        self.sliced = sliced
        self.slots = _FIRST_SLOT
        self.free: dict[str, int] = {}
        self.free_sets: dict[str, int] = {}
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
            self.formula(f.body, scope, {**set_scope, f.set_var: self.new_slot()})
            return _second_order
        raise TypeError(f"not a formula: {f!r}")

    def literal_disjunction(self, f: Or, scope: dict, set_scope: dict):
        """A disjunction of literals and conjunctions of literals in which an
        atom recurs, with each atom's truth kept for the rest of the call
        (None for any other disjunction).  The walk is the plain one, left
        to right and short-circuiting; only the repeats read the memo, so
        every atom is evaluated where the plain closure first reaches it."""
        groups = [p.parts if isinstance(p, And) else (p,) for p in f.parts]
        if not all(_is_literal(g) for group in groups for g in group):
            return None
        index: dict = {}  # atom closure -> its position
        disjuncts = []
        for group in groups:
            literals = []
            for g in group:
                atom = self.share(self._formula, g.body if isinstance(g, Not) else g,
                                  scope, set_scope)
                position = index.setdefault(atom, len(index))
                # memo entry 2i holds the atom's truth, 2i + 1 its negation
                literals.append(2 * position + isinstance(g, Not))
            disjuncts.append(tuple(literals))
        if len(index) == sum(map(len, disjuncts)):
            return None
        atoms = tuple(index)
        width = 2 * len(atoms)

        def literal_disjunction(fr):
            truths = [None] * width
            for literals in disjuncts:
                for i in literals:
                    truth = truths[i]
                    if truth is None:
                        value = atoms[i >> 1](fr)
                        truths[i & -2], truths[i | 1] = value, not value
                        truth = truths[i]
                    if not truth:
                        break
                else:
                    return True
            return False

        return literal_disjunction

    def atom(self, f: Atom, scope: dict):
        name = f.name
        self.atoms.add((name, len(f.args)))
        if self.sliced:
            parts = tuple(self.term(a, scope) for a in f.args)

            def column(fr):
                try:
                    return fr[_PREDICATES][name][tuple([p(fr) for p in parts])]
                except KeyError:
                    _missing(f"predicate {name} uninterpreted")

            return column
        slots = [scope.get(a.name) if isinstance(a, Var) else None for a in f.args]
        if None not in slots and len(slots) in (1, 2):
            # bound variables only: reading them cannot fail, so the
            # predicate may be looked up after the tuple is built
            if len(slots) == 2:
                a, b = slots

                def binary(fr):
                    try:
                        return (fr[a], fr[b]) in fr[_PREDICATES][name]
                    except KeyError:
                        _missing(f"predicate {name} uninterpreted")

                return binary
            (a,) = slots

            def unary(fr):
                try:
                    return (fr[a],) in fr[_PREDICATES][name]
                except KeyError:
                    _missing(f"predicate {name} uninterpreted")

            return unary
        parts = tuple(self.term(a, scope) for a in f.args)

        def atom(fr):
            try:
                rel = fr[_PREDICATES][name]
            except KeyError:
                _missing(f"predicate {name} uninterpreted")
            return tuple([p(fr) for p in parts]) in rel

        return atom

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


def map_formula(
    f: Formula,
    node: Optional[Callable[[Formula], Formula]] = None,
    term: Optional[Callable[[Term], Term]] = None,
) -> Formula:
    """Rebuild ``f`` bottom-up.

    Every term, once its arguments are rebuilt, is replaced by ``term(t)``;
    every formula node, once its parts are rebuilt, by ``node(g)``.  A hook
    left out keeps its nodes (without ``term``, atoms are kept as they are).
    """

    def rebuild_term(t: Term) -> Term:
        if isinstance(t, Func):
            t = Func(t.name, tuple(rebuild_term(a) for a in t.args))
        return term(t)

    def rec(g: Formula) -> Formula:
        if isinstance(g, (Top, Bottom)) or (term is None and isinstance(g, (Atom, Eq, SetAtom))):
            out = g
        elif isinstance(g, Atom):
            out = Atom(g.name, tuple(rebuild_term(a) for a in g.args))
        elif isinstance(g, Eq):
            out = Eq(rebuild_term(g.left), rebuild_term(g.right))
        elif isinstance(g, SetAtom):
            out = SetAtom(g.set_var, rebuild_term(g.arg))
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
        return out if node is None else node(out)

    return rec(f)


def relativize_to_set_variable(f: Formula, set_var: str) -> Formula:
    """Bound every quantifier of ``f`` to the monadic set variable.

    exists y. b  becomes  exists y. (X(y) & b');
    forall y. b  becomes  forall y. (X(y) -> b').
    """
    if not is_first_order(f):
        raise ValueError("relativization applies to first-order formulas")
    if set_var in set_variable_names(f):
        raise ValueError(f"set variable {set_var} already occurs in the formula")

    def bound(g: Formula) -> Formula:
        if isinstance(g, Exists):
            return Exists(g.var, And((SetAtom(set_var, Var(g.var)), g.body)))
        if isinstance(g, Forall):
            return Forall(g.var, Implies(SetAtom(set_var, Var(g.var)), g.body))
        return g

    return map_formula(f, node=bound)


def _quantifier_free(g: Formula) -> Formula:
    if isinstance(g, (Forall, Exists, ExistsSet)):
        raise ValueError("substitution expects a quantifier-free formula")
    return g


def substitute_variable(f: Formula, name: str, term: Term) -> Formula:
    """Replace free occurrences of a variable in a quantifier-free formula."""
    return map_formula(
        f,
        node=_quantifier_free,
        term=lambda t: term if isinstance(t, Var) and t.name == name else t,
    )


def substitute_constant(f: Formula, name: str, term: Term) -> Formula:
    """Replace every occurrence of a constant symbol by a term."""
    return map_formula(
        f, term=lambda t: term if isinstance(t, Const) and t.name == name else t
    )


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

    Innermost-out: exists y. b becomes the disjunction of b[y:=v] over the
    given variables, forall the conjunction.  Requires a predicate-only
    formula (terms are bare variables) and fresh variables; witnesses may
    repeat, so no distinctness constraints are introduced.
    """
    variables = list(variables)
    if not variables:
        raise ValueError("need at least one relativization variable")
    if not is_first_order(f):
        raise ValueError("relativization applies to first-order formulas")
    for t in _terms_of(f):
        for u in _walk_term(t):
            if isinstance(u, (Const, Func)):
                raise ValueError(
                    "functional signature: use the diagram-based translation instead"
                )
    taken = all_variable_names(f)
    for v in variables:
        if v in taken:
            raise ValueError(f"relativization variable {v} occurs in the formula")
    if len(set(variables)) != len(variables):
        raise ValueError("relativization variables must be distinct")

    def eliminate(g: Formula) -> Formula:
        if isinstance(g, Exists):
            return make_or(substitute_variable(g.body, g.var, Var(v)) for v in variables)
        if isinstance(g, Forall):
            return make_and(substitute_variable(g.body, g.var, Var(v)) for v in variables)
        return g

    return map_formula(f, node=eliminate)
