"""Seeded random first-order sentences, emitted as text in the README grammar.

The generator knows only the text syntax (quantifier prefixes, ``&``,
``|``, ``->``, ``!``, ``=``, ``!=`` and applied symbol names), never the
package's formula objects, so changes to the AST or to the evaluator
cannot change which sentences a seed yields.  Every sentence is closed,
has quantifier depth at most 3 and mixes universal and existential
quantifiers.
"""

from __future__ import annotations

import random

VARIABLES = ("x", "y", "z")

# Symbol vocabulary per corpus signature name.
VOCABULARY = {
    "binary": {"predicates": (("R", 2),), "functions": ()},
    "unary_binary": {"predicates": (("P", 1), ("R", 2)), "functions": ()},
    "unar": {"predicates": (), "functions": (("F", 1),)},
}


def _term(rng: random.Random, sig: dict, scope: list[str], depth: int) -> str:
    var = rng.choice(scope)
    for name, _arity in sig["functions"]:
        if depth > 0 and rng.random() < 0.5:
            return f"{name}({_term(rng, sig, scope, depth - 1)})"
    return var


def _atom(rng: random.Random, sig: dict, scope: list[str]) -> str:
    choices = ["eq"] + [name for name, _ in sig["predicates"]]
    pick = rng.choice(choices)
    if pick == "eq":
        left = _term(rng, sig, scope, 2)
        right = _term(rng, sig, scope, 1)
        if left == right:
            right = rng.choice(scope)
        op = rng.choice(("=", "!="))
        return f"{left} {op} {right}"
    arity = dict(sig["predicates"])[pick]
    args = ",".join(rng.choice(scope) for _ in range(arity))
    return f"{pick}({args})"


def _literal(rng: random.Random, sig: dict, scope: list[str]) -> str:
    atom = _atom(rng, sig, scope)
    if rng.random() < 0.3:
        return f"!({atom})" if " " in atom else f"!{atom}"
    return atom


def _matrix(rng: random.Random, sig: dict, scope: list[str]) -> str:
    """A Boolean combination of 2 or 3 literals over the bound variables."""
    parts = [_literal(rng, sig, scope) for _ in range(rng.randint(2, 3))]
    op = rng.choice(("&", "|", "->"))
    if op == "->":
        return f"({parts[0]} -> ({' & '.join(parts[1:])}))"
    return "(" + f" {op} ".join(parts) + ")"


def random_sentence(rng: random.Random, signature_name: str) -> str:
    """One closed sentence: a prefix of 2 or 3 quantifiers with at least one
    alternation over a quantifier-free matrix, sometimes negated as a whole."""
    sig = VOCABULARY[signature_name]
    depth = rng.randint(2, 3)
    kinds = [rng.choice(("forall", "exists")) for _ in range(depth)]
    if len(set(kinds)) == 1:
        flip = rng.randrange(depth)
        kinds[flip] = "exists" if kinds[flip] == "forall" else "forall"
    scope = list(VARIABLES[:depth])
    text = _matrix(rng, sig, scope)
    for kind, var in zip(reversed(kinds), reversed(scope)):
        text = f"{kind} {var}. {text}"
    if rng.random() < 0.2:
        text = f"!({text})"
    return text


def random_sentences(seed: int, signature_name: str, count: int) -> list[str]:
    """``count`` sentences over one signature; the same seed gives the same text."""
    rng = random.Random(f"subsat-perfbench:{seed}:{signature_name}")
    return [random_sentence(rng, signature_name) for _ in range(count)]
