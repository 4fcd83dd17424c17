"""Ideals, filters, reduced products, and coherent-system embeddings.

A filter F on a finite index family is closed under finite intersection,
so its least member K = ∩F belongs to it and F = {S : K ⊆ S}: every filter
is principal.  ``IndexFilter`` therefore stores only that kernel K.  Two
choice functions agree modulo F exactly when they agree on K, so the
reduced product is the direct product of the components indexed by K,
and a choice function's class is its projection onto those coordinates.

``reduced_product`` reads only the components at K: the quotient's
elements and tables come from them, and so does its cap, which counts
the elements, relation tuples and function table entries it would build
and refuses past the cap before building any.  The direct product itself
is never listed: ``choice_functions`` is a lazy view that counts it and
yields its elements on demand.  The cone filter of a powerset ideal has
one member in its kernel, the top, so its quotient is the top component
however many choice functions there are (309,586,821,120 on 5 points).
Index families are normalised once, where they enter the module, and
filters built from them keep the normalised sets.

Coherence and the canonical embedding are checked by
``structures._map_mismatches``: the coherence check maps the parent
through each injection onto its component, whose values outside the
image count as escaping, and the embedding check maps the parent onto
the reduced product; each kind of mismatch has its own message.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .structures import (
    CapExceededError,
    Structure,
    StructureFormatError,
    _map_mismatches,
    _trusted_structure,
    check_power_cap,
    induced_substructure,
)

DEFAULT_PRODUCT_CAP = 1_000_000


def _set_label(s: frozenset) -> str:
    return "{" + ",".join(str(x) for x in sorted(s)) + "}"


def _family_order(family: Iterable[frozenset]) -> list[frozenset]:
    return sorted(family, key=lambda s: (len(s), sorted(s)))


def _powerset(items) -> Iterable[frozenset]:
    """Every subset of ``items``, by size, then lexicographically; refuses
    with :class:`CapExceededError` past ``DEFAULT_PRODUCT_CAP`` subsets,
    before yielding any."""
    items = sorted(items)
    check_power_cap(len(items), DEFAULT_PRODUCT_CAP, "subsets", lambda: 2 ** len(items))
    return (
        frozenset(combo)
        for k in range(len(items) + 1)
        for combo in itertools.combinations(items, k)
    )


def _index_sets(sets) -> frozenset:
    """``sets`` as a frozenset of frozensets of ints: ``sets`` itself when
    it already is one, so a family normalised once passes through."""
    if (
        type(sets) is frozenset
        and set(map(type, sets)) <= {frozenset}
        and set(map(type, itertools.chain.from_iterable(sets))) <= {int}
    ):
        return sets
    return frozenset(frozenset(int(x) for x in s) for s in sets)


@dataclass(frozen=True)
class IndexIdeal:
    """An ideal of subsets of a base universe, covering it."""

    universe: frozenset
    sets: frozenset

    def __post_init__(self):
        object.__setattr__(self, "universe", frozenset(int(x) for x in self.universe))
        object.__setattr__(self, "sets", _index_sets(self.sets))


@dataclass(frozen=True)
class IndexFilter:
    """The filter {S ⊆ family : kernel ⊆ S} over a finite index family."""

    family: frozenset
    kernel: frozenset

    def __post_init__(self):
        object.__setattr__(self, "family", _index_sets(self.family))
        object.__setattr__(self, "kernel", _index_sets(self.kernel))

    def __contains__(self, member) -> bool:
        return self.kernel <= frozenset(member)


def powerset_ideal(universe: Iterable[int]) -> IndexIdeal:
    universe = frozenset(universe)
    return IndexIdeal(universe, frozenset(_powerset(universe)))


def validate_ideal(ideal: IndexIdeal) -> list[str]:
    """Violations of: downward closure, union closure, covering the universe."""
    violations = []
    sets = ideal.sets
    union = frozenset().union(*sets) if sets else frozenset()
    if union != ideal.universe:
        violations.append(
            f"union of members is {_set_label(union)}, not the universe "
            f"{_set_label(ideal.universe)}"
        )
    for s in _family_order(sets):
        for x in sorted(s):
            if s - {x} not in sets:
                violations.append(
                    f"not downward closed: {_set_label(s)} present but "
                    f"{_set_label(s - {x})} missing"
                )
    for a, b in itertools.combinations(_family_order(sets), 2):
        if a | b not in sets:
            violations.append(
                f"not union closed: {_set_label(a)} | {_set_label(b)} missing"
            )
    return violations


def validate_filter(filt: IndexFilter) -> list[str]:
    """Violations of: a kernel inside the index family, properness."""
    if not filt.kernel <= filt.family:
        return ["filter is empty: its kernel has sets outside the index family"]
    if not filt.kernel:
        return ["filter contains the empty set (not proper)"]
    return []


def upper_cone_filter(ideal_or_family) -> IndexFilter:
    """The filter over the index family generated by upper cones of (I, subset).

    It is defined whenever I is directed, which valid ideals always are.  A
    finite family is directed exactly when its union is a member; every
    cone {j in I : j >= i} contains that top, so the filter is the
    principal ultrafilter at the top.
    """
    if isinstance(ideal_or_family, IndexIdeal):
        family = ideal_or_family.sets
    else:
        family = _index_sets(ideal_or_family)
    top = frozenset().union(*family)
    if top not in family:
        raise ValueError(
            f"index family is not directed: its union {_set_label(top)} is not a member"
        )
    return IndexFilter(family, {top})


def principal_filter(family: Iterable[frozenset], at: frozenset) -> IndexFilter:
    """The principal ultrafilter {S : at in S} over the family."""
    family = _index_sets(family)
    if frozenset(at) not in family:
        raise ValueError("principal element must belong to the index family")
    return IndexFilter(family, {at})


def extend_filter(filt: IndexFilter, extra) -> Optional[IndexFilter]:
    """The filter generated by the given filter and one extra set, or None if improper."""
    extra = _index_sets(extra)
    if not extra <= filt.family:
        raise ValueError("extension set must be a subset of the index family")
    kernel = filt.kernel & extra
    return IndexFilter(filt.family, kernel) if kernel else None


# --- reduced products --------------------------------------------------------


def _rank(coords, sizes) -> int:
    """Mixed-radix rank: the position of ``coords`` in itertools.product order."""
    rank = 0
    for x, size in zip(coords, sizes):
        rank = rank * size + x
    return rank


@dataclass(frozen=True)
class ChoiceFunctions:
    """Every element of a direct product of universes of the given
    ``sizes``, as coordinate tuples in ``itertools.product`` order.

    The elements are made on iteration and none is stored.  ``total`` is
    their number, ``math.prod(sizes)``; ``len()`` gives it too, while it
    fits in ``sys.maxsize``.
    """

    sizes: tuple

    @property
    def total(self) -> int:
        return math.prod(self.sizes)

    def __len__(self) -> int:
        return self.total

    def __iter__(self):
        return itertools.product(*map(range, self.sizes))


@dataclass
class ReducedProduct:
    """Quotient of a direct product of structures by filter agreement.

    ``index_family`` fixes the coordinate order and ``at_kernel`` lists the
    positions in it of the filter's kernel.  ``choice_functions`` is a lazy
    view of the direct product's elements.  ``structure`` is the quotient,
    built from the components at the kernel alone: its element r is the
    class of the choice functions whose projection onto the kernel has
    mixed-radix rank r.
    """

    index_family: tuple
    components: tuple
    filter: IndexFilter
    structure: Structure
    choice_functions: ChoiceFunctions
    at_kernel: tuple

    def class_of_function(self, cf: tuple) -> int:
        return _rank(
            [cf[k] for k in self.at_kernel], [self.components[k].size for k in self.at_kernel]
        )


def reduced_product(
    components: Mapping[frozenset, Structure],
    filt: IndexFilter,
    cap: int = DEFAULT_PRODUCT_CAP,
) -> ReducedProduct:
    """Construct the reduced product of ``components`` modulo ``filt``.

    Components are indexed by the filter's family; all components must
    share a signature.  Choice functions agree modulo the filter iff they
    agree on its kernel, so the quotient is the direct product of the
    components at the kernel: a predicate holds on classes iff it holds
    at every kernel coordinate.  The cap bounds what is built, the
    quotient's elements, relation tuples and function table entries, and
    refuses with :class:`CapExceededError` before any of them is.
    """
    components = {frozenset(k): v for k, v in components.items()}
    if frozenset(components) != filt.family:
        raise ValueError("components must be indexed exactly by the filter's family")
    order = _family_order(filt.family)
    comps = [components[i] for i in order]
    if not comps:
        raise ValueError("empty index family")
    sig = comps[0].signature
    if any(c.signature != sig for c in comps):
        raise ValueError("components must share one signature")
    if not all(c.size for c in comps):
        raise ValueError("components must be nonempty")
    problems = validate_filter(filt)
    if problems:
        raise ValueError(problems[0])

    at_kernel = tuple(k for k, i in enumerate(order) if i in filt.kernel)
    kernel = [comps[k] for k in at_kernel]
    sizes = [c.size for c in kernel]
    size = math.prod(sizes)
    built = (
        size
        + sum(math.prod(len(c.predicates[name]) for c in kernel) for name, _ in sig.predicates)
        + sum(size**arity for _, arity in sig.functions)
    )
    if built > cap:
        raise CapExceededError(built, cap, "quotient elements and table entries")

    # class id -> its coordinates at the kernel
    elements = list(itertools.product(*(range(s) for s in sizes)))

    # a predicate tuple of the quotient picks one tuple of the relation at
    # each kernel coordinate; zip regroups those coordinates by argument
    preds = {
        name: frozenset(
            tuple(_rank(coords, sizes) for coords in zip(*per_coordinate))
            for per_coordinate in itertools.product(*(c.predicates[name] for c in kernel))
        )
        for name, _arity in sig.predicates
    }

    funcs = {}
    for name, arity in sig.functions:
        table = {}
        for args in itertools.product(range(size), repeat=arity):
            columns = zip(*(elements[a] for a in args))
            image = [c.functions[name][col] for c, col in zip(kernel, columns)]
            table[args] = _rank(image, sizes)
        funcs[name] = table

    consts = {name: _rank([c.constants[name] for c in kernel], sizes) for name in sig.constants}

    structure = _trusted_structure(sig, size, preds, funcs, consts)
    choice_functions = ChoiceFunctions(tuple(c.size for c in comps))
    return ReducedProduct(tuple(order), tuple(comps), filt, structure, choice_functions, at_kernel)


# --- coherent systems --------------------------------------------------------


@dataclass
class CoherentSystem:
    """Component structures indexed by subsets of a parent's universe.

    For each index set i, ``injections[i]`` embeds i into the universe of
    ``components[i]``; coherence means the fragments of the parent and of
    the component given by i coincide under that injection.
    """

    parent: Structure
    components: dict
    injections: dict

    def __post_init__(self):
        self.components = {frozenset(k): v for k, v in self.components.items()}
        self.injections = {
            frozenset(k): {int(a): int(b) for a, b in dict(v).items()}
            for k, v in self.injections.items()
        }

    @property
    def index_family(self) -> frozenset:
        return frozenset(self.components)


def induced_system(parent: Structure, family: Iterable[frozenset],
                   empty_component: Optional[Structure] = None) -> CoherentSystem:
    """Coherent system whose components are the induced substructures.

    Every nonempty index set must be a submodel carrier of the parent.
    The empty index gets a one-point default component (all predicates
    empty, functions identity) unless one is supplied.
    """
    components = {}
    injections = {}
    for i in family:
        i = frozenset(i)
        if not i:
            if empty_component is None:
                sig = parent.signature
                empty_component = Structure(
                    sig,
                    1,
                    {name: frozenset() for name, _ in sig.predicates},
                    {
                        name: {t: 0 for t in itertools.product(range(1), repeat=arity)}
                        for name, arity in sig.functions
                    },
                    {name: 0 for name in sig.constants},
                )
            components[i] = empty_component
            injections[i] = {}
            continue
        components[i] = induced_substructure(parent, i)
        injections[i] = {e: rank for rank, e in enumerate(sorted(i))}
    return CoherentSystem(parent, components, injections)


# What each kind of _map_mismatches reports, for a function (False) or a
# constant (True); predicates have no constant case.
_COHERENCE_MESSAGES = {
    ("predicate", False): "fragments disagree on {}{}",
    ("escape", False): "ESCAPES patterns differ at {}{}",
    ("value", False): "fragments disagree at {}{}",
    ("escape", True): "constant {} inside/outside mismatch",
    ("value", True): "constant {} maps differently",
}


def coherence_check(system: CoherentSystem) -> list[str]:
    """Violations of the coherence conditions, each naming the offending index."""
    violations = []
    parent = system.parent
    for i in _family_order(system.index_family):
        label = _set_label(i)
        comp = system.components[i]
        inj = system.injections[i]
        if set(inj) != set(i):
            violations.append(f"i={label}: injection not defined exactly on i")
            continue
        values = list(inj.values())
        if len(set(values)) != len(values):
            violations.append(f"i={label}: injection is not injective")
            continue
        if not all(0 <= v < comp.size for v in values):
            violations.append(f"i={label}: injection leaves the component universe")
            continue
        if not all(0 <= x < parent.size for x in i):
            raise ValueError(f"carrier {sorted(i)} not within universe of size {parent.size}")
        for kind, name, t in _map_mismatches(parent, comp, inj):
            violations.append(f"i={label}: " + _COHERENCE_MESSAGES[kind, t is None].format(name, t))
    return violations


@dataclass
class EmbeddingReport:
    """Canonical-map verification: injectivity, atoms, functions, constants."""

    mapping: tuple
    product: ReducedProduct
    injective: bool
    predicates_ok: bool
    functions_ok: bool
    constants_ok: bool
    violations: tuple

    @property
    def passed(self) -> bool:
        return (
            self.injective
            and self.predicates_ok
            and self.functions_ok
            and self.constants_ok
        )


_EMBEDDING_MESSAGES = {
    "predicates": "atom {}{} not preserved and reflected",
    "functions": "function {}{} does not commute",
    "constants": "constant {} not preserved",
}


def canonical_embedding(
    system: CoherentSystem,
    filt: IndexFilter,
    b: Optional[Mapping[frozenset, int]] = None,
    cap: int = DEFAULT_PRODUCT_CAP,
) -> EmbeddingReport:
    """Map each parent element a to the class of its canonical choice function.

    The choice function sends index i to the image of a when a is in i and
    to a fixed fallback element of the component otherwise.  Requires a
    coherent system and a filter extending the upper-cone filter; the
    report verifies injectivity and atomic preservation both ways.
    """
    family = system.index_family
    if filt.family != family:
        raise ValueError("filter family must match the system's index family")
    covered = frozenset().union(*family) if family else frozenset()
    if covered != frozenset(range(system.parent.size)):
        raise ValueError("index family must cover the parent universe")
    problems = coherence_check(system)
    if problems:
        raise ValueError("system is not coherent: " + "; ".join(problems[:3]))
    empty = [i for i in family if system.components[i].size < 1]
    if empty:
        raise ValueError(f"component at {_set_label(_family_order(empty)[0])} is empty")
    if not filt.kernel <= upper_cone_filter(filt.family).kernel:
        raise ValueError("filter does not extend the upper-cone filter")

    fallback = {frozenset(k): int(v) for k, v in (b or {}).items()}
    for i in family:
        fallback.setdefault(i, 0)
        if not 0 <= fallback[i] < system.components[i].size:
            raise ValueError(f"fallback element out of range at {_set_label(i)}")

    rp = reduced_product(system.components, filt, cap=cap)
    order = rp.index_family
    parent = system.parent

    mapping = []
    for a in range(parent.size):
        cf = tuple(
            system.injections[i][a] if a in i else fallback[i] for i in order
        )
        mapping.append(rp.class_of_function(cf))
    mapping = tuple(mapping)

    violations = []
    injective = len(set(mapping)) == parent.size
    if not injective:
        violations.append("canonical map is not injective")

    # every parent element is in the map's domain, so an "escape" (a value
    # off the image) is a failure to commute like a "value"
    failed = set()
    for kind, name, t in _map_mismatches(parent, rp.structure, dict(enumerate(mapping))):
        part = "predicates" if kind == "predicate" else "constants" if t is None else "functions"
        failed.add(part)
        violations.append(_EMBEDDING_MESSAGES[part].format(name, t))
    predicates_ok = "predicates" not in failed
    functions_ok = "functions" not in failed
    constants_ok = "constants" not in failed

    return EmbeddingReport(
        mapping, rp, injective, predicates_ok, functions_ok, constants_ok,
        tuple(violations),
    )


# --- ideal/filter text format -------------------------------------------------
#
# "ideal" block: one member per line as whitespace-separated integers, the
# keyword "empty" for the empty set, terminated by "end".  "filter" block:
# one member of the filter per line, given as indices into the ideal block's
# members (0-based, in file order), terminated by "end".  The block must list
# a whole proper filter; ``filter_from_members`` reduces it to its kernel.


def filter_from_members(family: Iterable[frozenset], members) -> IndexFilter:
    """The filter whose members are listed extensionally, stored as its kernel.

    The members must be exactly the subsets of ``family`` that contain their
    intersection, and that intersection must be nonempty; otherwise
    ValueError names the first closure property that fails.
    """
    family = _index_sets(family)
    members = frozenset(_index_sets(m) for m in members)
    if not members:
        raise ValueError("filter is empty")
    for member in sorted(members, key=lambda m: (len(m), sorted(map(sorted, m)))):
        for extra in _family_order(family - member):
            if member | {extra} not in members:
                raise ValueError(
                    f"not upward closed: adding {_set_label(extra)} to a member "
                    "leaves the filter"
                )
    kernel = frozenset.intersection(*members)
    if kernel not in members:
        raise ValueError(
            "not closed under pairwise intersection"
            + ("" if kernel else ": the members meet in the empty set (not proper)")
        )
    return IndexFilter(family, kernel)


def parse_ideal_file(text: str) -> tuple[IndexIdeal, Optional[frozenset], list]:
    """Parse an ideal and an optional filter block.

    Returns the ideal, the filter block's members as listed (None without a
    block; ``filter_from_members`` validates them) and the ideal's member
    order.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped.split()))
    pos = 0
    if not lines or lines[0][1] != ["ideal"]:
        raise StructureFormatError("expected 'ideal' block", lines[0][0] if lines else 1)
    pos = 1
    members: list[frozenset] = []
    while pos < len(lines) and lines[pos][1] != ["end"]:
        lineno, toks = lines[pos]
        if toks == ["empty"]:
            members.append(frozenset())
        else:
            try:
                members.append(frozenset(int(t) for t in toks))
            except ValueError:
                raise StructureFormatError("ideal members are integer lists", lineno)
        pos += 1
    if pos >= len(lines):
        raise StructureFormatError("ideal block not terminated by 'end'", lines[-1][0])
    pos += 1
    universe = frozenset().union(*members) if members else frozenset()
    ideal = IndexIdeal(universe, frozenset(members))

    listed = None
    if pos < len(lines):
        lineno, toks = lines[pos]
        if toks != ["filter"]:
            raise StructureFormatError("expected 'filter' block", lineno)
        pos += 1
        filter_members = []
        while pos < len(lines) and lines[pos][1] != ["end"]:
            lineno, toks = lines[pos]
            try:
                indices = [int(t) for t in toks]
            except ValueError:
                raise StructureFormatError(
                    "filter members are lists of ideal-member indices", lineno
                )
            if any(ix < 0 or ix >= len(members) for ix in indices):
                raise StructureFormatError("filter index out of range", lineno)
            filter_members.append(frozenset(members[ix] for ix in indices))
            pos += 1
        if pos >= len(lines):
            raise StructureFormatError("filter block not terminated by 'end'", lines[-1][0])
        pos += 1
        listed = frozenset(filter_members)
    if pos < len(lines):
        raise StructureFormatError("trailing content after blocks", lines[pos][0])
    return ideal, listed, members


def render_ideal_file(ideal: IndexIdeal, filt: Optional[IndexFilter] = None) -> str:
    members = _family_order(ideal.sets)
    out = ["ideal"]
    for m in members:
        out.append("empty" if not m else " ".join(str(x) for x in sorted(m)))
    out.append("end")
    if filt is not None:
        index = {m: i for i, m in enumerate(members)}
        listed = (filt.kernel | extra for extra in _powerset(filt.family - filt.kernel))
        out.append("filter")
        for member in sorted(listed, key=lambda m: sorted(index[s] for s in m)):
            out.append(" ".join(str(index[s]) for s in sorted(member, key=lambda s: index[s])))
        out.append("end")
    return "\n".join(out) + "\n"
