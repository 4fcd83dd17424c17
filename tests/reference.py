"""References for the tests.

``canonical_key`` is the colour-refined minimal encoding over
relabellings.  Two structures are isomorphic iff their keys coincide,
which the tests check against ``find_isomorphism``; the enumeration's
least-in-orbit representatives are checked against the first labelled
member of each key.

``find_isomorphism`` is the isomorphism search that re-checks the whole
partial map at every step; the search in ``subsat.structures`` checks
only what each new pair can change and must return the same mapping.
Its pruning invariant is ``element_profile``, one walk of every table per
element; ``structures._element_profiles`` reads every element's from one
walk of each table and must give the same profiles.

``least_in_orbit`` tests one index tuple against every relabelling, by
the orderly walk restricted to its digits; exactly the least member of
each orbit passes, which the generic iso enumeration relies on.

``labelled_first_counterexample`` is the witness-bound search that
builds and evaluates every labelled structure in order; the column
search and the search over iso representatives in ``subsat.prober``
must return the same hit and count the same structures scanned.

``render_formula`` renders the formula as a tree, every occurrence of a
shared node again; ``subsat.logic.render_formula`` renders each node
object once per call and must give the same text.
"""

import functools
import itertools

from subsat.logic import (
    And,
    Atom,
    Bottom,
    Const,
    Eq,
    Exists,
    ExistsSet,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    SetAtom,
    Top,
    Var,
    compile_formula,
)
from subsat.structures import (
    ESCAPES,
    Structure,
    _carrier,
    _map_mismatches,
    _orbit_steps,
    _orderly_walk,
    _relabel_table,
    _tuple_space,
    check_isomorphism,
    enumerate_structures,
    enumerate_submodels,
)


def _ranked(values: list) -> list[int]:
    """Replace each value by its rank among the distinct values."""
    rank = {v: r for r, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values]


def _refined_cells(s: Structure) -> tuple[tuple[int, ...], ...]:
    """Isomorphism-invariant ordered partition of the universe of ``s``.

    Colour refinement: elements start coloured by the constants naming
    them and are recoloured by the multiset of (symbol, position, argument
    colours, value colour) over the predicate tuples and function entries
    they occur in, until the number of colours stops growing.  Colours are
    ranks of sorted invariants, so isomorphic structures get cells in the
    same order.
    """
    sig = s.signature
    facts = [
        (sym, t, -1)
        for sym, (name, _) in enumerate(sig.predicates)
        for t in s.predicates[name]
    ]
    facts += [
        (sym, t, v)
        for sym, (name, _) in enumerate(sig.functions, start=len(sig.predicates))
        for t, v in s.functions[name].items()
    ]
    colour = _ranked(
        [tuple(k for k, c in enumerate(sig.constants) if s.constants[c] == x)
         for x in range(s.size)]
    )
    count = len(set(colour))
    while count < s.size:
        incidences = [[] for _ in range(s.size)]
        for sym, t, v in facts:
            fact = (sym, tuple(map(colour.__getitem__, t)), -1 if v < 0 else colour[v])
            for pos, x in enumerate(t):
                incidences[x].append((pos, fact))
            if v >= 0:
                incidences[v].append((-1, fact))
        refined = _ranked(
            [(colour[x], tuple(sorted(incidences[x]))) for x in range(s.size)]
        )
        refined_count = len(set(refined))
        if refined_count == count:
            break
        colour, count = refined, refined_count
    cells = [[] for _ in range(count)]
    for x, c in enumerate(colour):
        cells[c].append(x)
    return tuple(map(tuple, cells))


@functools.lru_cache(maxsize=1024)
def _cell_relabellings(n: int, arities: tuple[int, ...], cells) -> tuple:
    """(perm, relabel tables per arity) for every permutation of the universe
    sending each cell onto its block of positions, blocks in cell order."""
    blocks = []
    start = 0
    for cell in cells:
        blocks.append(itertools.permutations(range(start, start + len(cell))))
        start += len(cell)
    out = []
    for images in itertools.product(*blocks):
        perm = [0] * n
        for cell, image in zip(cells, images):
            for x, p in zip(cell, image):
                perm[x] = p
        perm = tuple(perm)
        out.append((perm, tuple(_relabel_table(n, a, perm) for a in arities)))
    return tuple(out)


# Below this universe size refinement costs more than the n! <= 6
# relabellings it could save.
_REFINE_FROM_SIZE = 4


def canonical_key(s: Structure):
    """Minimal encoding of ``s`` over relabellings of its universe.

    Two structures are isomorphic iff their canonical keys coincide.  The
    minimum runs over the relabellings that respect an invariant ordered
    partition of the universe (colour refinement, from size
    ``_REFINE_FROM_SIZE`` on; a single cell below it), so it is the same
    for isomorphic structures.
    """
    n = s.size
    sig = s.signature
    cells = _refined_cells(s) if n >= _REFINE_FROM_SIZE else (tuple(range(n)),)
    arities = tuple(a for _, a in sig.predicates) + tuple(a for _, a in sig.functions)
    flat_predicates = [
        [1 if t in s.predicates[name] else 0 for t in _tuple_space(n, arity)]
        for name, arity in sig.predicates
    ]
    flat_functions = [
        [s.functions[name][t] for t in _tuple_space(n, arity)]
        for name, arity in sig.functions
    ]
    constants = [s.constants[name] for name in sig.constants]
    best = None
    for perm, tables in _cell_relabellings(n, arities, cells):
        enc = [tuple([bits[r] for r in table]) for bits, table in zip(flat_predicates, tables)]
        enc += [
            tuple([perm[values[r]] for r in table])
            for values, table in zip(flat_functions, tables[len(flat_predicates):])
        ]
        enc += [perm[c] for c in constants]
        if best is None or enc < best:
            best = enc
    return (n, tuple(best))




def find_isomorphism(a, b):
    """Backtracking over carrier bijections with element-profile pruning,
    re-checking the whole partial map after each new pair."""
    if a.signature != b.signature:
        raise ValueError("signature mismatch")
    car_a, car_b = _carrier(a), _carrier(b)
    if len(car_a) != len(car_b):
        return None
    prof_a = {x: element_profile(a, x) for x in car_a}
    prof_b = {y: element_profile(b, y) for y in car_b}
    if sorted(prof_a.values()) != sorted(prof_b.values()):
        return None
    domain = sorted(car_a)
    targets = sorted(car_b)
    mapping: dict = {}
    used: set = set()

    def backtrack(i):
        if i == len(domain):
            return check_isomorphism(a, b, mapping)
        x = domain[i]
        for y in targets:
            if y in used or prof_a[x] != prof_b[y]:
                continue
            mapping[x] = y
            used.add(y)
            if not any(_map_mismatches(a, b, mapping)) and backtrack(i + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    if backtrack(0):
        return dict(mapping)
    return None


def element_profile(x, e: int) -> tuple:
    """Per predicate position, the tuples holding ``e`` there; per function,
    the entries of value ``e``, the entries through ``e`` that escape, and
    whether ``e`` is a fixed point; per constant, whether it names ``e``."""
    parts = []
    for name, arity in x.signature.predicates:
        rel = x.predicates[name]
        for pos in range(arity):
            parts.append(sum(1 for t in rel if t[pos] == e))
    for name, arity in x.signature.functions:
        table = x.functions[name]
        parts.append(sum(1 for v in table.values() if v == e))
        parts.append(sum(1 for t, v in table.items() if e in t and v is ESCAPES))
        parts.append(1 if table.get((e,) * arity, None) == e else 0)
    for name in x.signature.constants:
        parts.append(1 if x.constants.get(name, ESCAPES) == e else 0)
    return tuple(parts)


def least_in_orbit(sig, n: int, indices: tuple) -> bool:
    """Whether no relabelling of the universe gives ``indices`` a smaller
    index tuple: the orderly walk restricted to the digits of ``indices``."""
    digits = [
        (indices[sym] // n ** (n ** len(args) - 1 - rank) % n,)
        if is_value else (indices[sym] >> rank & 1,)
        for sym, is_value, args, rank in _orbit_steps(sig, n)
    ]
    return any(_orderly_walk(sig, n, digits))


def labelled_first_counterexample(phi, sig, n: int, lam: int, cap: int):
    """First labelled size-n structure satisfying phi with no phi-submodel
    of size <= lam, as (hit, scanned): every labelled structure in order,
    each and its small carriers evaluated in place."""
    compiled = compile_formula(phi)
    domain = range(n)
    scanned = 0
    for s in enumerate_structures(sig, n, cap=cap):
        scanned += 1
        if not compiled.holds(s, domain):
            continue
        if not any(compiled.holds(s, sorted(c)) for c in enumerate_submodels(s, max_card=lam)):
            return s, scanned
    return None, scanned


def render_term(t) -> str:
    if isinstance(t, (Var, Const)):
        return t.name
    return f"{t.name}(" + ",".join(render_term(a) for a in t.args) + ")"


def _render_operand(f) -> str:
    text = render_formula(f)
    if isinstance(f, (Forall, Exists, ExistsSet)):
        return f"({text})"
    return text


def render_formula(f) -> str:
    """The text of ``f`` rendered as a tree."""
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
