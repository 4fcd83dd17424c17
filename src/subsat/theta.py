"""The submodel operator: semantics, bounded variant, and syntactic translations.

``theta_semantic`` decides "some submodel satisfies the sentence" by
enumerating carriers; ``theta_bounded_semantic`` restricts to submodels
generated by small seeds.  Both evaluate each carrier in place: by the
relativization lemma, a submodel satisfies the sentence iff the parent
does with every quantifier bounded to the carrier, so the compiled
sentence runs on the parent's tables with the carrier as its domain and
no submodel is built.  The three translations express the same
content syntactically: a monadic existential second-order sentence, an
existential first-order sentence for predicate-only signatures, and a
diagram disjunction for functional signatures (sound always, complete
up to a generated-submodel size cap).  The models behind the diagrams
do not depend on the sentence: they are the classes of structures with
marked generators, told apart by numbering elements in order of first
reach from the marks, and are built once per (signature, bound, size);
each translation only filters them by the sentence.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .logic import (
    Atom,
    CompiledFormula,
    Const,
    Eq,
    Exists,
    ExistsSet,
    Forall,
    Formula,
    Func,
    Implies,
    Not,
    SetAtom,
    Term,
    Var,
    compile_formula,
    evaluate_fo,
    fresh_set_variable,
    fresh_variables,
    make_and,
    make_or,
    relativize_to_set_variable,
    relativize_to_variables,
    relativized_node_count,
    render_formula,
)
from .structures import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    Interpretation,
    Signature,
    Structure,
    _column_bits,
    _interpretation_from_indices,
    _labelled_indices,
    _structure_columns,
    _structure_from_indices,
    enumerate_submodels,
    generated_carrier,
    labelled_structure_count,
)


@dataclass(frozen=True)
class ThetaReport:
    """Outcome of a semantic check: truth, first witness carrier, work done."""

    truth: bool
    witness: Optional[frozenset]
    inspected: int


def _require_fo_sentence(phi: Formula) -> CompiledFormula:
    compiled = compile_formula(phi)
    if not compiled.first_order:
        raise ValueError("expected a first-order sentence")
    if not compiled.is_sentence:
        raise ValueError(f"open formula: {render_formula(phi)}")
    return compiled


def _sliced_formula(phi: Formula, sig: Signature, first_order: bool) -> bool:
    """Whether ``phi`` is decided bit-sliced over ``sig``: a sentence, first
    order if asked, over ``sig``'s predicates at their arities with
    variables for terms, on a signature with predicates only.  Nothing in
    it can raise, so deciding it for all classes at once changes no error."""
    compiled = compile_formula(phi)
    return (
        sig.is_predicate_only
        and compiled.eso_error is None
        and (compiled.first_order or not first_order)
        and compiled.atoms is not None
        and compiled.atoms <= set(sig.predicates)
    )


def theta_semantic(s: Structure, phi: Formula) -> ThetaReport:
    """Does some submodel of ``s`` satisfy ``phi``?

    Each carrier is checked in place: ``phi`` with its quantifiers bounded
    to the carrier, on the tables of ``s``.  The witness is the first
    carrier in deterministic order (size, then lexicographic).  Refuses
    with :class:`CapExceededError` past ``DEFAULT_ENUMERATION_CAP`` subsets
    before inspecting any.
    """
    compiled = _require_fo_sentence(phi)
    subsets = 2 ** s.size - 1
    if subsets > DEFAULT_ENUMERATION_CAP:
        raise CapExceededError(subsets, DEFAULT_ENUMERATION_CAP, "carrier subsets")
    inspected = 0
    for carrier in enumerate_submodels(s):
        inspected += 1
        if compiled.holds(s, sorted(carrier)):
            return ThetaReport(True, carrier, inspected)
    return ThetaReport(False, None, inspected)


def theta_bounded_semantic(s: Structure, phi: Formula, bound: int) -> ThetaReport:
    """Does some submodel generated by at most ``bound`` elements satisfy ``phi``?

    Refuses with :class:`CapExceededError` past ``DEFAULT_ENUMERATION_CAP``
    seeds before inspecting any.
    """
    compiled = _require_fo_sentence(phi)
    if bound < 0 or (bound == 0 and not s.signature.constants):
        raise ValueError("bound must be >= 1 (0 is allowed only with constants)")
    start = 0 if s.signature.constants else 1
    # the seeds are at most the 2**n subsets, so small universes pass at once
    if 2 ** s.size > DEFAULT_ENUMERATION_CAP:
        seeds = sum(math.comb(s.size, k) for k in range(start, min(bound, s.size) + 1))
        if seeds > DEFAULT_ENUMERATION_CAP:
            raise CapExceededError(seeds, DEFAULT_ENUMERATION_CAP, "seeds")
    seen = set()
    inspected = 0
    # without functions a seed generates itself plus the constants
    closure = s.signature.functions
    constants = frozenset(s.constants.values())
    for k in range(start, bound + 1):
        for seed in itertools.combinations(range(s.size), k):
            carrier = generated_carrier(s, seed) if closure else constants.union(seed)
            if carrier in seen:
                continue
            seen.add(carrier)
            inspected += 1
            if compiled.holds(s, sorted(carrier)):
                return ThetaReport(True, carrier, inspected)
    return ThetaReport(False, None, inspected)


def theta_to_eso(phi: Formula, sig: Signature) -> Formula:
    """Monadic existential second-order sentence equivalent to the submodel check.

    Shape: existsSet X. (nonempty & closed-under-each-function &
    contains-each-constant & relativization of phi to X).
    """
    _require_fo_sentence(phi)
    set_var = fresh_set_variable(phi)
    nonempty_var = fresh_variables(phi, 1)[0]
    conjuncts = [Exists(nonempty_var, SetAtom(set_var, Var(nonempty_var)))]
    for name, arity in sig.functions:
        args = fresh_variables(phi, arity)
        closed = Implies(
            make_and(SetAtom(set_var, Var(v)) for v in args),
            SetAtom(set_var, Func(name, tuple(Var(v) for v in args))),
        )
        for v in reversed(args):
            closed = Forall(v, closed)
        conjuncts.append(closed)
    for name in sig.constants:
        conjuncts.append(SetAtom(set_var, Const(name)))
    conjuncts.append(relativize_to_set_variable(phi, set_var))
    return ExistsSet(set_var, make_and(conjuncts))


def theta_bounded_to_existential_predicate(
    phi: Formula,
    bound: int,
    sig: Optional[Signature] = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Formula:
    """Existential first-order sentence equivalent to the bounded submodel check.

    Predicate-only signatures only: prefixes ``bound`` fresh existential
    variables over the quantifier-eliminated relativization of ``phi``.
    The output grows ``bound``-fold per quantifier, so its node count is
    predicted first and the translation refuses with
    :class:`CapExceededError` past ``cap`` nodes.
    """
    _require_fo_sentence(phi)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if sig is not None and (sig.functions or sig.constants):
        raise ValueError("functional signature: use the diagram-based translation")
    nodes = bound + relativized_node_count(phi, bound)
    if nodes > cap:
        raise CapExceededError(nodes, cap, "formula nodes")
    variables = fresh_variables(phi, bound)
    matrix = relativize_to_variables(phi, variables)
    sentence = matrix
    for v in reversed(variables):
        sentence = Exists(v, sentence)
    return sentence


@dataclass(frozen=True)
class FunctionalTranslation:
    """Existential diagram disjunction plus its completeness certificate.

    The sentence implies the bounded submodel check on every structure;
    equivalence holds exactly on structures all of whose submodels
    generated by at most ``bound`` elements have at most ``size_cap``
    elements.  ``disjuncts`` is the number of generated-model diagrams.
    """

    sentence: Formula
    bound: int
    size_cap: int
    disjuncts: int


def _representative_terms(
    s: Structure, generators: Sequence[int], markers: Sequence[Term]
) -> dict:
    """Breadth-first representative terms, shortest first.

    Depth-0 terms are the generator markers (in order) and the original
    constants (in signature order); deeper terms apply function symbols in
    signature order to already-represented elements, argument tuples in
    ascending element order.
    """
    reps: dict[int, Term] = {}
    for marker, e in zip(markers, generators):
        reps.setdefault(e, marker)
    for cname in s.signature.constants:
        reps.setdefault(s.constants[cname], Const(cname))
    while len(reps) < s.size:
        added = {}
        elems = sorted(reps)
        for fname, arity in s.signature.functions:
            table = s.functions[fname]
            for args in itertools.product(elems, repeat=arity):
                value = table[args]
                if value not in reps and value not in added:
                    added[value] = Func(fname, tuple(reps[a] for a in args))
        if not added:
            raise ValueError("structure is not generated by the given elements")
        reps.update(added)
    return reps


@dataclass(frozen=True)
class DiagramSentence:
    """Atomic diagram of a generated model over representative closed terms."""

    generator_count: int
    representatives: tuple  # term for element 0, 1, ...
    literals: tuple  # atomic and negated atomic formulas


def atomic_diagram(
    s: Structure, generators: Sequence[int], gen_names: Sequence[str]
) -> DiagramSentence:
    """Diagram literals characterizing ``s`` (with marked generators) up to isomorphism.

    Contains equations anchoring each marker and constant to its
    representative, all function entries over representatives, all
    predicate facts and their negations, and pairwise disequalities.
    Syntactically trivial equations (t = t) are dropped.
    """
    return _marked_diagram(s, generators, [Const(name) for name in gen_names])


def _marked_diagram(
    s: Structure, generators: Sequence[int], markers: Sequence[Term]
) -> DiagramSentence:
    """``atomic_diagram`` with each generator named by the given term."""
    reps = _representative_terms(s, generators, markers)
    literals = []
    for marker, e in zip(markers, generators):
        if reps[e] != marker:
            literals.append(Eq(marker, reps[e]))
    for cname in s.signature.constants:
        if reps[s.constants[cname]] != Const(cname):
            literals.append(Eq(Const(cname), reps[s.constants[cname]]))
    for fname, arity in s.signature.functions:
        table = s.functions[fname]
        for args in itertools.product(range(s.size), repeat=arity):
            lhs = Func(fname, tuple(reps[a] for a in args))
            rhs = reps[table[args]]
            if lhs != rhs:
                literals.append(Eq(lhs, rhs))
    for pname, arity in s.signature.predicates:
        rel = s.predicates[pname]
        for args in itertools.product(range(s.size), repeat=arity):
            atom = Atom(pname, tuple(reps[a] for a in args))
            literals.append(atom if args in rel else Not(atom))
    for i, j in itertools.combinations(range(s.size), 2):
        literals.append(Not(Eq(reps[i], reps[j])))
    return DiagramSentence(
        len(generators), tuple(reps[i] for i in range(s.size)), tuple(literals)
    )


def _reached(sig: Signature, size: int, indices: tuple[int, ...]) -> set[int]:
    """Elements that a constant names or a function takes as a value, read
    off the labelled structure's index tuple."""
    first = len(sig.predicates)
    reached = set(indices[first + len(sig.functions):])
    for code, (_, arity) in zip(indices[first:], sig.functions):
        for _ in range(size**arity):
            code, v = divmod(code, size)
            reached.add(v)
    return reached


@functools.lru_cache(maxsize=256)
def _tuples_through(i: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """Argument tuples over {0..i} that contain i, in lexicographic order."""
    return tuple(t for t in itertools.product(range(i + 1), repeat=arity) if i in t)


def _reach_key(s: Interpretation, generators: Sequence[int]):
    """Complete invariant of ``s`` with marked generators, or None when the
    marks (constants and generators) do not reach all of ``s``.

    Elements are numbered in order of first reach: the constants in
    signature order, then the generators, then, element by element in
    that numbering, the values of each function at the argument tuples
    over the numbered elements that contain the element.  The key is the
    size, the numbers of the marks, the function values in that visiting
    order, and the predicates read through the numbering.  An isomorphism
    that keeps the marks carries the numbering along, and the key rebuilds
    the structure on the numbers, so two marked structures that each
    generate their universe get the same key iff they are isomorphic by a
    map that keeps the marks.
    """
    sig = s.signature
    marks = [s.constants[c] for c in sig.constants] + list(generators)
    number: dict[int, int] = {}
    order: list[int] = []
    for x in marks:
        if x not in number:
            number[x] = len(order)
            order.append(x)
    functions = [(s.functions[name], arity) for name, arity in sig.functions]
    values = []
    i = 0
    while i < len(order):
        for table, arity in functions:
            for args in _tuples_through(i, arity):
                v = table[tuple(map(order.__getitem__, args))]
                if v not in number:
                    number[v] = len(order)
                    order.append(v)
                values.append(number[v])
        i += 1
    if len(order) < s.size:
        return None
    relations = tuple(
        frozenset(tuple(number[x] for x in t) for t in s.predicates[name])
        for name, _ in sig.predicates
    )
    return s.size, tuple(number[x] for x in marks), tuple(values), relations


@functools.lru_cache(maxsize=1024)
def _tuples_covering(size: int, bound: int, sources: frozenset) -> tuple:
    """The ``bound``-tuples over {0..size-1} that contain every source, in
    product order."""
    return tuple(
        t for t in itertools.product(range(size), repeat=bound) if sources.issubset(t)
    )


@functools.cache
def _generated_classes(sig: Signature, bound: int, size: int) -> tuple:
    """Every model of ``size`` elements generated by ``bound`` marked
    elements, up to marked isomorphism: (structure indices, generator
    tuples) pairs, in order of first labelled occurrence.

    A marked class first occurs at the first labelled member of its
    structure's isomorphism class, which carries every marked class of
    that structure; so a structure whose first generating tuple is a class
    seen before adds nothing.  An element that no constant names and no
    function takes as a value must be a generator: structures with more
    than ``bound`` such sources are skipped, and so are tuples that miss
    one.
    """
    classes = []
    seen = set()
    universe = frozenset(range(size))
    for indices in _labelled_indices(sig, size):
        sources = universe.difference(_reached(sig, size, indices))
        if len(sources) > bound:
            continue
        s = _interpretation_from_indices(sig, size, indices)
        kept = []
        for generators in _tuples_covering(size, bound, sources):
            key = _reach_key(s, generators)
            if key is None:
                continue
            if key in seen:
                if not kept:
                    break
                continue
            seen.add(key)
            kept.append(generators)
        if kept:
            classes.append((indices, tuple(kept)))
    return tuple(classes)


def enumerate_generated_models(
    sig: Signature,
    bound: int,
    size_cap: int,
    satisfying: Optional[Callable[[Structure], bool]] = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Iterable[tuple[Structure, tuple[int, ...]]]:
    """All (structure, generators) generated by ``bound`` marked elements, up to
    marked isomorphism, sizes up to ``size_cap``, optionally filtered.

    Every size's labelled structures are checked against ``cap`` before
    any is built.  The marked classes do not depend on the filter and are
    built once per (signature, bound, size); each call builds fresh
    structures from them and keeps those that pass ``satisfying``, which
    must be isomorphism-invariant, as truth of a sentence is.
    """
    for size in range(1, size_cap + 1):
        count = labelled_structure_count(sig, size)
        if count > cap:
            raise CapExceededError(count, cap)
    for size in range(1, size_cap + 1):
        for indices, tuples in _generated_classes(sig, bound, size):
            s = _structure_from_indices(sig, size, indices)
            if satisfying is None or satisfying(s):
                for generators in tuples:
                    yield s, generators


def theta_bounded_to_existential_functional(
    phi: Formula,
    sig: Signature,
    bound: int,
    size_cap: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> FunctionalTranslation:
    """Existential sentence for the bounded submodel check over functional signatures.

    Enumerates, up to isomorphism, the models generated by ``bound``
    marked elements with at most ``size_cap`` elements that satisfy
    ``phi``; each contributes the conjunction of its atomic diagram, with
    the prefixed variables as the generator markers.
    """
    _require_fo_sentence(phi)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if size_cap < bound:
        raise ValueError("size cap must be at least the generator bound")
    variables = fresh_variables(phi, bound)
    markers = [Var(v) for v in variables]
    disjuncts = [
        make_and(_marked_diagram(s, generators, markers).literals)
        for s, generators in enumerate_generated_models(
            sig, bound, size_cap, satisfying=lambda t: evaluate_fo(t, phi), cap=cap
        )
    ]
    sentence = make_or(disjuncts)
    for v in reversed(variables):
        sentence = Exists(v, sentence)
    return FunctionalTranslation(sentence, bound, size_cap, len(disjuncts))


# --- modal-law suite ---------------------------------------------------------


@dataclass
class LawResult:
    law: str
    holds: bool
    strictness_witness: Optional[Structure] = None
    note: str = ""


@dataclass
class ModalLawReport:
    results: list[LawResult]

    @property
    def passed(self) -> bool:
        return all(r.holds for r in self.results)

    def result(self, law: str) -> LawResult:
        for r in self.results:
            if r.law == law:
                return r
        raise KeyError(law)


_LAWS = ("i", "ii", "iii", "iv", "v-and", "v-or", "vi", "vii")


def _carrier_tables(sentences: Sequence[Formula], structures: list) -> list:
    """Per structure: its carriers (in ``enumerate_submodels`` order); per
    carrier, the bitmask of the carriers inside it; and per sentence, the
    bitmask of the carriers it holds on, in place (carrier by carrier, the
    sentences in order).

    Structures over a predicate-only signature, when every sentence is
    ``_sliced_formula`` over it, are packed per (signature, size) into
    ``Columns``: every nonempty subset is then a carrier, so one sliced
    evaluation per (sentence, carrier) decides it for the whole group, and
    the group's tables are those columns transposed.  The others are
    evaluated carrier by carrier.
    """
    import numpy as np

    groups: dict = {}
    for i, s in enumerate(structures):
        groups.setdefault((s.signature, s.size), []).append(i)
    out: list = [None] * len(structures)
    for (sig, n), members in groups.items():
        if not all(_sliced_formula(f, sig, True) for f in sentences):
            compiled = [compile_formula(f) for f in sentences]
            for i in members:
                carriers = list(enumerate_submodels(structures[i]))
                tables = [0] * len(compiled)
                for b, carrier in enumerate(carriers):
                    domain = sorted(carrier)
                    for j, sentence in enumerate(compiled):
                        if sentence.holds(structures[i], domain):
                            tables[j] |= 1 << b
                out[i] = (carriers, _below(carriers), tables)
            continue
        group = [structures[i] for i in members]
        columns = _structure_columns(sig, n, group)
        carriers = list(enumerate_submodels(group[0]))
        transposed = []
        for f in sentences:
            sliced = compile_formula(f, sliced=True)
            bits = [_column_bits(sliced.holds_sliced(columns, sorted(c)), len(group))
                    for c in carriers]
            packed = np.packbits(bits, axis=0, bitorder="little").T
            transposed.append([int.from_bytes(row.tobytes(), "little") for row in packed])
        below = _below(carriers)
        for pos, i in enumerate(members):
            out[i] = (carriers, below, [tables[pos] for tables in transposed])
    return out


def _below(carriers: list) -> list[int]:
    """Per carrier, the bitmask of the carriers inside it."""
    return [sum(1 << i for i, d in enumerate(carriers) if d <= c) for c in carriers]


def modal_laws_check(
    phi: Formula, psi: Formula, structures: Iterable[Structure]
) -> ModalLawReport:
    """Check the possibility-operator laws of the submodel operator on a corpus.

    Laws (i)-(iii) and (v)-(vii) are per structure; (iv) is the rule form:
    if phi -> psi holds on the corpus closed under submodels, then
    theta(phi) -> theta(psi) holds there too.  All of them hold by
    construction.  phi and psi are evaluated once per carrier
    (``_carrier_tables``), giving per structure a bitmask of the carriers
    each holds on.  Every connective acts carrier by carrier, so bit by
    bit; a submodel check is a mask being nonzero; and the carriers of the
    submodel on carrier c are the structure's carriers inside c, so the
    nested checks of (iii) and (vii) are the mask meeting ``below[c]``.
    Read this way, each law is a set identity on the masks (for (iv): if
    t_phi is inside t_psi, a carrier set meeting t_phi meets t_psi), and
    none can fail.  What the corpus still decides is (iv)'s premise, which
    sets its note, and the strictness witnesses of the one-directional laws
    (v-and), (vi) and (vii): the first structure where the converse fails.
    """
    _require_fo_sentence(phi)
    _require_fo_sentence(psi)
    results = {name: LawResult(name, True) for name in _LAWS}
    premise = True
    structures = list(structures)
    for s, (carriers, below, (t_phi, t_psi)) in zip(
            structures, _carrier_tables((phi, psi), structures)):
        full = (1 << len(carriers)) - 1
        premise = premise and not t_phi & ~t_psi
        # theta(phi) & theta(psi) without theta(phi & psi); theta(phi) without
        # phi (the full carrier comes last); theta(!phi) without theta(!theta(phi))
        strict = (
            t_phi and t_psi and not t_phi & t_psi,
            t_phi and not t_phi >> len(carriers) - 1,
            t_phi != full and all(t_phi & inside for inside in below),
        )
        for name, witnessed in zip(("v-and", "vi", "vii"), strict):
            if witnessed and results[name].strictness_witness is None:
                results[name].strictness_witness = s
    results["iv"].note = (
        "premise holds on corpus closure" if premise
        else "vacuous: phi->psi fails somewhere on the corpus closure"
    )
    return ModalLawReport([results[name] for name in _LAWS])
