"""Formula AST, parser, printer, and evaluation over finite structures.

The AST has n-ary conjunction/disjunction nodes (k >= 1) because the
syntactic translations build index-set conjunctions whose width matters;
single-element chains collapse via the smart constructors.  Monadic
second-order quantifiers are restricted to an outermost existential
prefix, evaluated by exhaustive subset enumeration.

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

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .structures import Signature, Structure


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


def _eval_term(t: Term, s: Structure, env: dict) -> int:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise EvaluationError(f"uncovered free variable {t.name}") from None
    if isinstance(t, Const):
        try:
            return s.constants[t.name]
        except KeyError:
            raise EvaluationError(f"constant {t.name} uninterpreted") from None
    table = s.functions.get(t.name)
    if table is None:
        raise EvaluationError(f"function {t.name} uninterpreted")
    args = tuple(_eval_term(a, s, env) for a in t.args)
    try:
        return table[args]
    except KeyError:
        raise EvaluationError(f"function {t.name} not total at {args}") from None


def _eval_fo(f: Formula, s: Structure, env: dict) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        rel = s.predicates.get(f.name)
        if rel is None:
            raise EvaluationError(f"predicate {f.name} uninterpreted")
        return tuple(_eval_term(a, s, env) for a in f.args) in rel
    if isinstance(f, Eq):
        return _eval_term(f.left, s, env) == _eval_term(f.right, s, env)
    if isinstance(f, SetAtom):
        try:
            members = env[f.set_var]
        except KeyError:
            raise EvaluationError(f"uncovered set variable {f.set_var}") from None
        return _eval_term(f.arg, s, env) in members
    if isinstance(f, Not):
        return not _eval_fo(f.body, s, env)
    if isinstance(f, And):
        return all(_eval_fo(p, s, env) for p in f.parts)
    if isinstance(f, Or):
        return any(_eval_fo(p, s, env) for p in f.parts)
    if isinstance(f, Implies):
        return (not _eval_fo(f.left, s, env)) or _eval_fo(f.right, s, env)
    if isinstance(f, Iff):
        return _eval_fo(f.left, s, env) == _eval_fo(f.right, s, env)
    if isinstance(f, (Forall, Exists)):
        var = f.var
        shadowed = var in env
        old = env.get(var)
        want = isinstance(f, Exists)
        result = not want
        for e in range(s.size):
            env[var] = e
            if _eval_fo(f.body, s, env) == want:
                result = want
                break
        if shadowed:
            env[var] = old
        else:
            env.pop(var, None)
        return result
    if isinstance(f, ExistsSet):
        raise EvaluationError("second-order quantifier in first-order evaluation")
    raise TypeError(f"not a formula: {f!r}")


def evaluate_fo(s: Structure, f: Formula, assignment: Optional[dict] = None) -> bool:
    """Tarskian truth of a first-order formula; quantifiers range over the universe.

    The assignment must cover all free (first-order and set) variables.
    """
    env = dict(assignment or {})
    return _eval_fo(f, s, env)


def evaluate_eso(s: Structure, f: Formula) -> bool:
    """Truth of a monadic existential second-order sentence.

    Strips the outermost existsSet prefix and searches subsets exhaustively;
    set quantifiers anywhere else are rejected.
    """
    prefix = []
    body = f
    while isinstance(body, ExistsSet):
        prefix.append(body.set_var)
        body = body.body
    if any(isinstance(g, ExistsSet) for g in subformulas(body)):
        raise EvaluationError("set quantifier not in prefix position")
    if free_variables(f) or free_set_variables(f):
        raise EvaluationError("evaluate_eso expects a sentence")
    universe = list(range(s.size))
    for masks in itertools.product(range(2 ** s.size), repeat=len(prefix)):
        env = {
            name: frozenset(e for e in universe if mask >> e & 1)
            for name, mask in zip(prefix, masks)
        }
        if _eval_fo(body, s, env):
            return True
    return False


# --- relativization ---------------------------------------------------------


def relativize_to_set_variable(f: Formula, set_var: str) -> Formula:
    """Bound every quantifier of ``f`` to the monadic set variable.

    exists y. b  becomes  exists y. (X(y) & b');
    forall y. b  becomes  forall y. (X(y) -> b').
    """
    if not is_first_order(f):
        raise ValueError("relativization applies to first-order formulas")
    if set_var in set_variable_names(f):
        raise ValueError(f"set variable {set_var} already occurs in the formula")

    def rec(g: Formula) -> Formula:
        if isinstance(g, (Top, Bottom, Atom, Eq, SetAtom)):
            return g
        if isinstance(g, Not):
            return Not(rec(g.body))
        if isinstance(g, And):
            return And(tuple(rec(p) for p in g.parts))
        if isinstance(g, Or):
            return Or(tuple(rec(p) for p in g.parts))
        if isinstance(g, Implies):
            return Implies(rec(g.left), rec(g.right))
        if isinstance(g, Iff):
            return Iff(rec(g.left), rec(g.right))
        if isinstance(g, Exists):
            return Exists(g.var, And((SetAtom(set_var, Var(g.var)), rec(g.body))))
        if isinstance(g, Forall):
            return Forall(g.var, Implies(SetAtom(set_var, Var(g.var)), rec(g.body)))
        raise TypeError(f"not a formula: {g!r}")

    return rec(f)


def substitute_variable(f: Formula, name: str, term: Term) -> Formula:
    """Replace free occurrences of a variable in a quantifier-free formula."""

    def sub_term(t: Term) -> Term:
        if isinstance(t, Var):
            return term if t.name == name else t
        if isinstance(t, Func):
            return Func(t.name, tuple(sub_term(a) for a in t.args))
        return t

    def rec(g: Formula) -> Formula:
        if isinstance(g, (Top, Bottom)):
            return g
        if isinstance(g, Atom):
            return Atom(g.name, tuple(sub_term(a) for a in g.args))
        if isinstance(g, Eq):
            return Eq(sub_term(g.left), sub_term(g.right))
        if isinstance(g, SetAtom):
            return SetAtom(g.set_var, sub_term(g.arg))
        if isinstance(g, Not):
            return Not(rec(g.body))
        if isinstance(g, And):
            return And(tuple(rec(p) for p in g.parts))
        if isinstance(g, Or):
            return Or(tuple(rec(p) for p in g.parts))
        if isinstance(g, Implies):
            return Implies(rec(g.left), rec(g.right))
        if isinstance(g, Iff):
            return Iff(rec(g.left), rec(g.right))
        raise ValueError("substitution expects a quantifier-free formula")

    return rec(f)


def substitute_constant(f: Formula, name: str, term: Term) -> Formula:
    """Replace every occurrence of a constant symbol by a term."""

    def sub_term(t: Term) -> Term:
        if isinstance(t, Const) and t.name == name:
            return term
        if isinstance(t, Func):
            return Func(t.name, tuple(sub_term(a) for a in t.args))
        return t

    def rec(g: Formula) -> Formula:
        if isinstance(g, (Top, Bottom)):
            return g
        if isinstance(g, Atom):
            return Atom(g.name, tuple(sub_term(a) for a in g.args))
        if isinstance(g, Eq):
            return Eq(sub_term(g.left), sub_term(g.right))
        if isinstance(g, SetAtom):
            return SetAtom(g.set_var, sub_term(g.arg))
        if isinstance(g, Not):
            return Not(rec(g.body))
        if isinstance(g, And):
            return And(tuple(rec(p) for p in g.parts))
        if isinstance(g, Or):
            return Or(tuple(rec(p) for p in g.parts))
        if isinstance(g, Implies):
            return Implies(rec(g.left), rec(g.right))
        if isinstance(g, Iff):
            return Iff(rec(g.left), rec(g.right))
        if isinstance(g, Forall):
            return Forall(g.var, rec(g.body))
        if isinstance(g, Exists):
            return Exists(g.var, rec(g.body))
        if isinstance(g, ExistsSet):
            return ExistsSet(g.set_var, rec(g.body))
        raise TypeError(f"not a formula: {g!r}")

    return rec(f)


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

    def rec(g: Formula) -> Formula:
        if isinstance(g, (Top, Bottom, Atom, Eq, SetAtom)):
            return g
        if isinstance(g, Not):
            return Not(rec(g.body))
        if isinstance(g, And):
            return And(tuple(rec(p) for p in g.parts))
        if isinstance(g, Or):
            return Or(tuple(rec(p) for p in g.parts))
        if isinstance(g, Implies):
            return Implies(rec(g.left), rec(g.right))
        if isinstance(g, Iff):
            return Iff(rec(g.left), rec(g.right))
        if isinstance(g, Exists):
            body = rec(g.body)
            return make_or(substitute_variable(body, g.var, Var(v)) for v in variables)
        if isinstance(g, Forall):
            body = rec(g.body)
            return make_and(substitute_variable(body, g.var, Var(v)) for v in variables)
        raise TypeError(f"not a formula: {g!r}")

    return rec(f)
