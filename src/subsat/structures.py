"""Finite signatures, structures, fragments, and isomorphism machinery.

Universes are always initial segments {0..n-1}.  Structures are built
permissively and checked by ``validate_structure`` (violations are data,
not exceptions).  Fragments record function values that leave the carrier
with the ``ESCAPES`` marker, which is what lets a one-point fragment
distinguish "fixed point inside" from "value leaves the carrier".

Whether a map carries one structure or fragment onto another is decided
in one place, ``_map_mismatches``: isomorphism checking and search,
fragment occurrences, and in ``products`` the coherence check and the
canonical embedding's verification all read its mismatches.  A value is
inside when it is not ``ESCAPES`` and lies in the map's domain (or, on
the target side, its image).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

DEFAULT_ENUMERATION_CAP = 5_000_000

# Widest packed predicate mask the numpy iso path handles: wider ones take
# the labelled path, which refuses 2**26 structures under the default cap.
_MASK_MAX_BITS = 25
# All-unary signatures sort element types and build no 2**bits array, so
# their one-point extension runs while masks fit in int32.
_UNARY_MASK_MAX_BITS = 31


# Counts of more bits than this are stated as a power of two they reach:
# Python refuses to print an int of more than 4300 digits.
_PRINTABLE_BITS = 4096


# The clear callables of every module-level memo of the package, so that
# ``clear_memos`` empties them all at once.
_MEMOS: list[Callable[[], None]] = []


def memo(maxsize: Optional[int] = None):
    """``functools.lru_cache(maxsize)``, its ``cache_clear`` registered
    with ``clear_memos``."""

    def register(fn):
        cached = functools.lru_cache(maxsize)(fn)
        _MEMOS.append(cached.cache_clear)
        return cached

    return register


def clear_memos() -> None:
    """Empty every module-level memo of the package."""
    for clear in _MEMOS:
        clear()


class CapExceededError(RuntimeError):
    """Raised when an enumeration would exceed its configured cap.

    ``count`` is the size of the refused enumeration, or None where only
    the lower bound ``2**bits`` was worked out.  A count of more than
    ``_PRINTABLE_BITS`` bits is stated as such a bound as well.
    """

    def __init__(
        self, count: Optional[int], cap: int, what: str = "labelled structures", bits: int = 0
    ):
        if count is not None and count.bit_length() > _PRINTABLE_BITS:
            bits = count.bit_length() - 1
        shown = f"at least 2^{bits}" if count is None or bits else count
        super().__init__(f"enumeration of {shown} {what} exceeds the cap of {cap}")
        self.count = count
        self.cap = cap


class StructureFormatError(ValueError):
    """Parse error in the structure/ideal/filter text formats."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        self.message = message
        super().__init__(message if line is None else f"line {line}: {message}")


class _Escapes:
    """Singleton marker: a function/constant value outside a fragment's carrier."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ESCAPES"

    def __reduce__(self):
        return (_Escapes, ())


ESCAPES = _Escapes()


@dataclass(frozen=True)
class Signature:
    """Predicate/function/constant symbols with arities.

    Constants are listed separately from functions; symbol names must be
    pairwise distinct and relation/function arities positive.
    """

    predicates: tuple[tuple[str, int], ...] = ()
    functions: tuple[tuple[str, int], ...] = ()
    constants: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "predicates", tuple((str(n), int(a)) for n, a in self.predicates)
        )
        object.__setattr__(
            self, "functions", tuple((str(n), int(a)) for n, a in self.functions)
        )
        object.__setattr__(self, "constants", tuple(str(n) for n in self.constants))
        names = (
            [n for n, _ in self.predicates]
            + [n for n, _ in self.functions]
            + list(self.constants)
        )
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be pairwise distinct")
        for name, arity in self.predicates + self.functions:
            if arity < 1:
                raise ValueError(f"arity of {name} must be a positive integer")

    @property
    def is_predicate_only(self) -> bool:
        return not self.functions and not self.constants

    def predicate_arity(self, name: str) -> Optional[int]:
        for n, a in self.predicates:
            if n == name:
                return a
        return None

    def function_arity(self, name: str) -> Optional[int]:
        for n, a in self.functions:
            if n == name:
                return a
        return None

    def has_constant(self, name: str) -> bool:
        return name in self.constants


def _normalize_predicates(sig: Signature, given) -> dict:
    preds = {}
    for name, tuples in (given or {}).items():
        preds[name] = frozenset(tuple(int(x) for x in t) for t in tuples)
    for name, _ in sig.predicates:
        preds.setdefault(name, frozenset())
    return preds


def _normalize_functions(sig: Signature, given) -> dict:
    funcs = {}
    for name, table in (given or {}).items():
        funcs[name] = {
            tuple(int(x) for x in k): int(v) for k, v in dict(table).items()
        }
    for name, _ in sig.functions:
        funcs.setdefault(name, {})
    return funcs


@dataclass(frozen=True, eq=False)
class Structure:
    """A finite model: universe {0..size-1} with total interpretations.

    Construction is permissive; use ``validate_structure`` to obtain the
    list of invariant violations.  A structure's tables must not change once
    it has been queried: ``generated_carrier`` keeps the carriers of seeds
    of at most one point in a table on the object and would go on returning
    them.  To change a table, build a new structure, for instance with
    ``dataclasses.replace``, which keeps nothing of the old one's carriers.
    """

    signature: Signature
    size: int
    predicates: Mapping[str, frozenset] = None
    functions: Mapping[str, Mapping[tuple, int]] = None
    constants: Mapping[str, int] = None

    def __post_init__(self):
        object.__setattr__(
            self, "predicates", _normalize_predicates(self.signature, self.predicates)
        )
        object.__setattr__(
            self, "functions", _normalize_functions(self.signature, self.functions)
        )
        object.__setattr__(
            self,
            "constants",
            {str(n): int(v) for n, v in dict(self.constants or {}).items()},
        )

    def key(self):
        sig = self.signature
        return (
            self.size,
            tuple(
                tuple(sorted(self.predicates.get(n, frozenset())))
                for n, _ in sig.predicates
            ),
            tuple(
                tuple(sorted(self.functions.get(n, {}).items()))
                for n, _ in sig.functions
            ),
            tuple(self.constants.get(n) for n in sig.constants),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Structure)
            and self.signature == other.signature
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.signature, self.key()))

    def __repr__(self):
        return f"Structure(size={self.size}, key={self.key()!r})"


@dataclass(frozen=True, eq=False)
class Fragment:
    """A partial submodel: carrier subset with inherited interpretations.

    Function and constant values outside the carrier are recorded as
    ``ESCAPES``.  The empty carrier is allowed as data but never counts
    as a submodel.
    """

    signature: Signature
    parent_size: int
    carrier: frozenset
    predicates: Mapping[str, frozenset] = None
    functions: Mapping[str, Mapping[tuple, object]] = None
    constants: Mapping[str, object] = None

    def __post_init__(self):
        object.__setattr__(self, "carrier", frozenset(int(x) for x in self.carrier))
        object.__setattr__(
            self, "predicates", _normalize_predicates(self.signature, self.predicates)
        )
        funcs = {}
        for name, table in (self.functions or {}).items():
            funcs[name] = {
                tuple(int(x) for x in k): (v if v is ESCAPES else int(v))
                for k, v in dict(table).items()
            }
        for name, _ in self.signature.functions:
            funcs.setdefault(name, {})
        object.__setattr__(self, "functions", funcs)
        object.__setattr__(
            self,
            "constants",
            {
                str(n): (v if v is ESCAPES else int(v))
                for n, v in dict(self.constants or {}).items()
            },
        )

    @property
    def has_escapes(self) -> bool:
        for table in self.functions.values():
            if any(v is ESCAPES for v in table.values()):
                return True
        return any(v is ESCAPES for v in self.constants.values())

    def key(self):
        """The sorted carrier, then every table with each element written as
        its rank in the carrier (``ESCAPES`` as -1).  Two fragments whose
        keys agree after the carrier are isomorphic by the order-preserving
        map between their carriers."""
        sig = self.signature
        carrier = tuple(sorted(self.carrier))
        rank = {x: r for r, x in enumerate(carrier)}
        rank[ESCAPES] = -1

        def ranks(t):
            return tuple(rank[x] for x in t)

        return (
            carrier,
            tuple(
                tuple(sorted(map(ranks, self.predicates.get(n, frozenset()))))
                for n, _ in sig.predicates
            ),
            tuple(
                tuple(sorted((ranks(k), rank[v]) for k, v in self.functions.get(n, {}).items()))
                for n, _ in sig.functions
            ),
            tuple(rank.get(self.constants.get(n)) for n in sig.constants),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Fragment)
            and self.signature == other.signature
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.signature, self.key()))

    def __repr__(self):
        return f"Fragment(carrier={sorted(self.carrier)}, key={self.key()!r})"


@dataclass(frozen=True)
class GeneratedSubmodel:
    """Carrier of a generated submodel plus its renamed copy on {0..m-1}."""

    carrier: tuple[int, ...]
    structure: Structure


def validate_structure(sig: Signature, s: Structure) -> list[str]:
    """Return the list of invariant violations of ``s`` against ``sig``.

    Empty list iff ``s`` is a well-formed structure for ``sig``.
    """
    violations = []
    if s.signature != sig:
        violations.append("structure signature differs from the given signature")
    n = s.size
    if n < 1:
        violations.append("universe must be nonempty")

    def in_range(x):
        return isinstance(x, int) and 0 <= x < n

    declared_preds = dict(sig.predicates)
    for name, tuples in s.predicates.items():
        if name not in declared_preds:
            violations.append(f"unknown predicate {name}")
            continue
        arity = declared_preds[name]
        for t in sorted(tuples):
            if len(t) != arity:
                violations.append(f"{name} tuple {t} has wrong arity")
            elif not all(in_range(x) for x in t):
                violations.append(f"{name} tuple {t} out of range")

    declared_funcs = dict(sig.functions)
    for name, table in s.functions.items():
        if name not in declared_funcs:
            violations.append(f"unknown function {name}")
            continue
        arity = declared_funcs[name]
        for t in itertools.product(range(n), repeat=arity):
            if t not in table:
                violations.append(f"{name} not total at {t}")
        for t, v in sorted(table.items()):
            if len(t) != arity or not all(in_range(x) for x in t):
                violations.append(f"{name} argument tuple {t} out of range")
            elif not in_range(v):
                violations.append(f"{name}{t} value {v} out of range")

    for name in sig.constants:
        if name not in s.constants:
            violations.append(f"constant {name} uninterpreted")
        elif not in_range(s.constants[name]):
            violations.append(f"constant {name} value out of range")
    for name in s.constants:
        if name not in sig.constants:
            violations.append(f"unknown constant {name}")
    return violations


def induced_fragment(s: Structure, carrier: Iterable[int]) -> Fragment:
    """The fragment of ``s`` on ``carrier``: inherited predicates, partial functions.

    A function value is recorded iff it lies inside the carrier, else ESCAPES.
    """
    carrier = frozenset(int(x) for x in carrier)
    if not all(0 <= x < s.size for x in carrier):
        raise ValueError(f"carrier {sorted(carrier)} not within universe of size {s.size}")
    elems = sorted(carrier)
    preds = {
        name: frozenset(t for t in s.predicates[name] if all(x in carrier for x in t))
        for name, _ in s.signature.predicates
    }
    funcs = {}
    for name, arity in s.signature.functions:
        table = {}
        for t in itertools.product(elems, repeat=arity):
            v = s.functions[name][t]
            table[t] = v if v in carrier else ESCAPES
        funcs[name] = table
    consts = {}
    for name in s.signature.constants:
        v = s.constants[name]
        consts[name] = v if v in carrier else ESCAPES
    return Fragment(s.signature, s.size, carrier, preds, funcs, consts)


def is_submodel_carrier(s: Structure, carrier: Iterable[int]) -> bool:
    """True iff carrier is nonempty, contains all constants, and is closed under functions."""
    carrier = frozenset(carrier)
    if not carrier:
        return False
    if not all(v in carrier for v in s.constants.values()):
        return False
    elems = sorted(carrier)
    for name, arity in s.signature.functions:
        table = s.functions[name]
        for t in itertools.product(elems, repeat=arity):
            if table[t] not in carrier:
                return False
    return True


def induced_substructure(s: Structure, carrier: Iterable[int]) -> Structure:
    """The substructure on a submodel carrier, renamed onto {0..m-1}.

    The renaming is order-preserving on the carrier.
    """
    carrier = frozenset(carrier)
    if not is_submodel_carrier(s, carrier):
        raise ValueError(f"carrier {sorted(carrier)} is not a submodel carrier")
    elems = sorted(carrier)
    index = {e: i for i, e in enumerate(elems)}
    rename = index.__getitem__
    preds = {
        name: frozenset(
            tuple(map(rename, t)) for t in s.predicates[name] if carrier.issuperset(t)
        )
        for name, _ in s.signature.predicates
    }
    funcs = {
        name: {
            tuple(map(rename, t)): index[s.functions[name][t]]
            for t in itertools.product(elems, repeat=arity)
        }
        for name, arity in s.signature.functions
    }
    consts = {name: index[s.constants[name]] for name in s.signature.constants}
    return _trusted_structure(s.signature, len(elems), preds, funcs, consts)


def generated_carrier(s: Structure, seed: Iterable[int]) -> frozenset:
    """Least superset of seed (plus all constants) closed under all functions.

    Read through ``carrier_entry``, which keeps the carriers of seeds of at
    most one point on the structure object, so the structure's tables must
    not change once it has been queried."""
    return carrier_entry(s, seed)[0]


class _CarrierTable(dict):
    """A structure's kept carriers: each seed of at most one point, as a
    tuple, to (carrier, its elements ascending).  ``unary`` tells whether
    every function is unary, so that a set generates the union of what its
    points generate."""

    __slots__ = ("unary",)


def carrier_entry(s: Structure, seed: Iterable[int]) -> tuple[frozenset, Optional[tuple]]:
    """(carrier, its elements ascending) of ``seed`` with the constants.

    The structure keeps one ``_CarrierTable`` (``_carriers``, made on first
    request) of the seeds of at most one point: at most ``size + 1``
    entries, however many seeds are asked.  A seed of several points is
    not kept, and its elements may come as None, for a caller to sort only
    carriers it has not met: under unary functions its carrier is the
    union of its points' entries, on other signatures it runs the closure
    loop.  A refused seed raises ValueError and stores nothing."""
    table = s.__dict__.get("_carriers")
    if table is None:
        table = _CarrierTable()
        table.unary = all(a == 1 for _, a in s.signature.functions)
        object.__setattr__(s, "_carriers", table)
    elif seed.__class__ is tuple:
        entry = table.get(seed)  # hit only by a seed equal to its normal form
        if entry is not None:
            return entry
        if table.unary and len(seed) > 1:
            carrier = None
            for p in seed:  # the union of the points' entries, if all are kept
                point = table.get((p,))
                if point is None:
                    break
                carrier = point[0] if carrier is None else carrier | point[0]
            else:
                return carrier, None
    points = set(map(int, seed))
    if len(points) > 1 and table.unary:
        if min(points) < 0 or max(points) >= s.size:  # refused before any point's entry is kept
            raise ValueError("seed element out of range")
        for p in points:
            carrier_entry(s, (p,))  # kept, so the union is taken above
        return carrier_entry(s, tuple(points))
    carrier = _closure(s, _seed_elements(s, points.union(s.constants.values())))
    if len(points) > 1:
        return carrier, None
    entry = table[tuple(points)] = (carrier, tuple(sorted(carrier)))
    return entry


def _seed_elements(s: Structure, elements: set) -> set:
    """``elements``, refused when, as a seed with the constants, they
    generate nothing or leave the universe."""
    if not elements:
        raise ValueError("empty seed with a constant-free signature generates nothing")
    if min(elements) < 0 or max(elements) >= s.size:
        raise ValueError("seed element out of range")
    return elements


def _closure(s: Structure, current: set) -> frozenset:
    """Least superset of ``current``, a set of elements of ``s``, closed
    under all functions."""
    # each round applies the functions only to the tuples through an element
    # the previous round added: the others were applied before
    old, frontier = (), current
    while frontier:
        added = set()
        for name, arity in s.signature.functions:
            table = s.functions[name]
            for i in range(arity):  # i: the first argument from the frontier
                for t in itertools.product(*[old] * i, frontier, *[current] * (arity - i - 1)):
                    v = table[t]
                    if v not in current:
                        added.add(v)
        old, frontier = current, added
        current = current | added
    return frozenset(current)


def generated_submodel(s: Structure, seed: Iterable[int]) -> GeneratedSubmodel:
    """The submodel generated by ``seed``: witness carrier plus renamed structure."""
    carrier = generated_carrier(s, seed)
    return GeneratedSubmodel(tuple(sorted(carrier)), induced_substructure(s, carrier))


def enumerate_submodels(s: Structure, max_card: Optional[int] = None) -> Iterator[frozenset]:
    """Yield every submodel carrier of ``s``, smallest first.

    Carriers are the nonempty subsets containing all constants and closed
    under all functions; order is by size, then lexicographic.
    """
    n = s.size
    upper = n if max_card is None else min(max_card, n)
    const_values = frozenset(s.constants.values())
    # without functions, every nonempty set holding the constants is closed
    closure_check = bool(s.signature.functions)
    for k in range(1, upper + 1):
        for combo in itertools.combinations(range(n), k):
            carrier = frozenset(combo)
            if const_values <= carrier and (
                not closure_check or is_submodel_carrier(s, carrier)
            ):
                yield carrier


def _labelled_powers(sig: Signature, n: int) -> list[tuple[int, int]]:
    """Each digit of a labelled index tuple (a mask per predicate, a base-n
    code per function, a value per constant) as (base, exponent) of its
    radix; labelled order is mixed-radix order, the first most significant."""
    return (
        [(2, n**arity) for _, arity in sig.predicates]
        + [(n, n**arity) for _, arity in sig.functions]
        + [(n, 1)] * len(sig.constants)
    )


def _labelled_radices(sig: Signature, n: int) -> list[int]:
    return [base**exponent for base, exponent in _labelled_powers(sig, n)]


def labelled_structure_count(sig: Signature, n: int) -> int:
    return math.prod(_labelled_radices(sig, n))


def power_exceeds(bits: int, cap: int) -> bool:
    """Whether ``2**bits > cap``, read off the cap's bit length: constant
    time, and no power is taken."""
    return bits >= cap.bit_length()


def check_power_cap(bits: int, cap: int, what: str, count: Callable[[], int]) -> None:
    """Refuse with :class:`CapExceededError` when ``count()`` exceeds
    ``cap``, where ``2**bits`` bounds the count from below.

    The exponent is compared first: a bound past the cap and too large to
    print, or to build, is refused as that bound and ``count()`` is never
    taken.
    """
    if bits > _PRINTABLE_BITS and power_exceeds(bits, cap):
        raise CapExceededError(None, cap, what, bits=bits)
    total = count()
    if total > cap:
        raise CapExceededError(total, cap, what)


def check_labelled_cap(sig: Signature, n: int, cap: int) -> None:
    """Refuse with :class:`CapExceededError` when the labelled structures on
    ``n`` points exceed ``cap``; the exponents bound the count from below
    by ``2**bits`` (``check_power_cap``)."""
    bits = sum(e * (b.bit_length() - 1) for b, e in _labelled_powers(sig, n) if b > 1)
    check_power_cap(bits, cap, "labelled structures", lambda: labelled_structure_count(sig, n))


def _trusted_structure(sig: Signature, n: int, preds: dict, funcs: dict, consts: dict) -> Structure:
    """A ``Structure`` over fresh tables that already hold every symbol of
    ``sig`` in normal form (frozensets of int tuples, dicts from int tuples
    to ints, int constants), built without normalising them again."""
    s = object.__new__(Structure)
    s.__dict__.update(signature=sig, size=n, predicates=preds, functions=funcs, constants=consts)
    return s


def _structure_from_indices(sig: Signature, n: int, indices: tuple[int, ...]) -> Structure:
    """The structure with index tuple ``indices``, over fresh tables."""
    preds = {}
    funcs = {}
    consts = {}
    pos = 0
    for name, arity in sig.predicates:
        mask = indices[pos]
        pos += 1
        preds[name] = frozenset(
            t for rank, t in enumerate(_tuple_space(n, arity)) if mask >> rank & 1
        )
    for name, arity in sig.functions:
        code = indices[pos]
        pos += 1
        table = {}
        for t in reversed(_tuple_space(n, arity)):
            code, v = divmod(code, n)
            table[t] = v
        funcs[name] = table
    for name in sig.constants:
        consts[name] = indices[pos]
        pos += 1
    return _trusted_structure(sig, n, preds, funcs, consts)


def _labelled_indices(sig: Signature, n: int) -> Iterator[tuple[int, ...]]:
    """The index tuple of every labelled structure, in labelled order."""
    return itertools.product(*map(range, _labelled_radices(sig, n)))


def _labelled_rank(sig: Signature, n: int, indices: tuple[int, ...]) -> int:
    """The position of index tuple ``indices`` in labelled order."""
    rank = 0
    for radix, digit in zip(_labelled_radices(sig, n), indices):
        rank = rank * radix + digit
    return rank


@memo(256)
def _tuple_space(n: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """All argument tuples over {0..n-1}, in rank order."""
    return tuple(itertools.product(range(n), repeat=arity))


def _relabel_table(n: int, arity: int, perm: tuple[int, ...]) -> tuple[int, ...]:
    """Relabelling of flat tuple tables along ``perm`` (element i -> perm[i]).

    Entry ``dst`` is the rank of the source tuple that lands on the tuple of
    rank ``dst``; ranks follow ``itertools.product(range(n), repeat=arity)``.
    """
    inverse = [0] * n
    for i, p in enumerate(perm):
        inverse[p] = i
    table = inverse
    for _ in range(arity - 1):
        table = [r * n + i for r in table for i in inverse]
    return tuple(table)


@memo(256)
def _orbit_steps(sig: Signature, n: int) -> tuple:
    """The digits of an index tuple, most significant first, as (symbol,
    whether it is a value, argument tuple, its rank): predicate bits from
    the highest rank down, then function values and constants (nullary
    functions) from rank 0 up."""
    arities = [a for _, a in sig.predicates + sig.functions] + [0] * len(sig.constants)
    steps = []
    for sym, arity in enumerate(arities):
        is_value = sym >= len(sig.predicates)
        ranks = range(n**arity) if is_value else reversed(range(n**arity))
        steps += [(sym, is_value, _tuple_space(n, arity)[r], r) for r in ranks]
    return tuple(steps)


def _orderly_walk(
    sig: Signature, n: int, choices: Sequence[Iterable[int]]
) -> Iterator[tuple[int, ...]]:
    """The index tuples least in their orbit under relabelling, in labelled
    order: orderly generation (Read 1978; McKay 1998).  The walk chooses
    the digits in ``_orbit_steps`` order, each from its step's ``choices``
    in the order given, and drops a prefix that a relabelling beats with
    every index tuple under it.  The search for that relabelling picks the
    old element behind a new label only when a digit needs it, gives an
    unlabelled value the least free label (any other makes that digit
    larger), and leaves a branch at its first digit unlike the prefix's
    own (a smaller one answers, a larger prunes) or, unbeaten, at the first
    digit it needs that is not chosen yet: a relabelling it finds beats
    every completion of the prefix."""
    steps = _orbit_steps(sig, n)
    # a digit table per symbol, by rank, None where no digit is chosen yet
    tables = [[None] * n**arity for _, arity in sig.predicates + sig.functions]
    tables += [[None] for _ in sig.constants]
    old_of = [-1] * n  # new label -> old element
    new_of = [-1] * n  # old element -> new label

    def beaten(start: int) -> bool:
        labelled = []
        for step in range(start, len(steps)):
            sym, is_value, args, rank = steps[step]
            own = tables[sym][rank]
            if own is None:
                break
            unlabelled = [label for label in args if old_of[label] < 0]
            if unlabelled:
                label = unlabelled[0]
                for old in range(n):
                    if new_of[old] < 0:
                        old_of[label], new_of[old] = old, label
                        if beaten(step):
                            return True
                        old_of[label] = new_of[old] = -1
                break
            moved = 0
            for label in args:
                moved = moved * n + old_of[label]
            digit = tables[sym][moved]
            if digit is None:
                break
            if is_value and new_of[digit] < 0:
                label = old_of.index(-1)
                old_of[label], new_of[digit] = digit, label
                labelled.append(label)
            digit = new_of[digit] if is_value else digit
            if digit != own:
                if digit < own:
                    return True
                break
        for label in labelled:
            new_of[old_of[label]] = old_of[label] = -1
        return False

    def walk(step: int) -> Iterator[tuple[int, ...]]:
        if step == len(steps):
            masks = len(sig.predicates)
            yield tuple([sum(bit << rank for rank, bit in enumerate(t)) for t in tables[:masks]]
                        + [functools.reduce(lambda code, v: code * n + v, t) for t in tables[masks:]])
            return
        sym, _, _, rank = steps[step]
        for digit in choices[step]:
            tables[sym][rank] = digit
            if beaten(0):
                old_of[:] = new_of[:] = [-1] * n  # a search that wins keeps its labels
            else:
                yield from walk(step + 1)
        tables[sym][rank] = None

    return walk(0)


@memo(256)
def _bit_layout(arities: tuple[int, ...], n: int):
    """Bit spans for packing all predicate interpretations into one mask.

    Later symbols occupy lower bits so that ascending masks coincide with
    the labelled enumeration order (which varies later symbols fastest).
    """
    widths = [n**arity for arity in arities]
    offsets = []
    below = 0
    for w in reversed(widths):
        offsets.append(below)
        below += w
    offsets.reverse()
    return widths, offsets, below


def _arities(sig: Signature) -> tuple[int, ...]:
    return tuple(arity for _, arity in sig.predicates)


def _bit_tables(dest):
    """Byte lookup tables that move bit ``i`` of a mask to bit ``dest[i]``,
    dropping the bits whose ``dest`` is None.

    Row ``b`` maps each value of the mask's byte ``b`` to the bits it
    becomes, so a whole bit permutation costs one gather per byte.
    """
    import numpy as np

    values = np.arange(256, dtype=np.int32)
    tables = np.zeros((max(1, -(-len(dest) // 8)), 256), dtype=np.int32)
    for i, d in enumerate(dest):
        if d is not None:
            tables[i // 8] |= (values >> i % 8 & 1) << d
    return tables


def _byte_columns(masks, bits: int) -> list:
    """The bytes of ``bits``-bit masks, one index array per byte."""
    import numpy as np

    return [(masks >> 8 * b & 0xFF).astype(np.intp) for b in range(max(1, -(-bits // 8)))]


def _remap_bits(columns, tables):
    """The masks given by their ``_byte_columns``, moved through ``_bit_tables``."""
    out = tables[0].take(columns[0])
    for table, column in zip(tables[1:], columns[1:]):
        out |= table.take(column)
    return out


@memo(16)
def _relabelling_tables(arities: tuple[int, ...], n: int) -> tuple:
    """``_bit_tables`` of every relabelling of the universe but the identity.

    Only signatures with a binary or wider symbol use them, and within
    ``_MASK_MAX_BITS`` tuple bits those have at most five points, so there
    are at most 119 tables.
    """
    _, offsets, bits = _bit_layout(arities, n)
    out = []
    for perm in itertools.islice(itertools.permutations(range(n)), 1, None):
        dest = [0] * bits
        for arity, offset in zip(arities, offsets):
            for dst, src in enumerate(_relabel_table(n, arity, perm)):
                dest[offset + src] = offset + dst
        out.append(_bit_tables(dest))
    return tuple(out)


def _type_sorted(masks, k: int, n: int):
    """Least relabelling of each mask of ``k`` unary predicates on ``n`` points.

    A unary structure is fixed up to isomorphism by how many elements have
    each type, the set of predicates they satisfy.  Listing the types in
    descending order, members of earlier predicates first, puts each
    predicate's members on the lowest points its higher spans leave free,
    which is the least mask of the class.
    """
    import numpy as np

    points = np.arange(n)
    types = np.zeros((len(masks), n), dtype=np.int32)
    for j in range(k):  # the span of predicate k - 1 - j starts at bit j * n
        types |= (masks[:, None] >> (j * n + points) & 1) << j
    types = -np.sort(-types, axis=1)
    out = np.zeros(len(masks), dtype=np.int32)
    for j in range(k):
        out |= ((types >> j & 1) << (j * n + points)).sum(axis=1, dtype=np.int32)
    return out


def _canonicalise(sig: Signature, n: int, masks):
    """Least mask over all relabellings of each packed predicate-only mask.

    Two masks share a canonical mask iff their structures are isomorphic,
    and the canonical mask is the least, hence first labelled, member of
    the class.  All-unary signatures sort their element types; all others
    apply every relabelling's byte tables.  Returns a new int32 array.
    """
    import numpy as np

    arities = _arities(sig)
    canon = np.array(masks, dtype=np.int32)
    if set(arities) == {1}:
        return _type_sorted(canon, len(arities), n)
    columns = _byte_columns(canon, _bit_layout(arities, n)[2])
    for tables in _relabelling_tables(arities, n):
        np.minimum(canon, _remap_bits(columns, tables), out=canon)
    return canon


def _fresh_bits(arities: tuple[int, ...], n: int) -> list[int]:
    """Mask bits at size ``n`` of the tuples that contain the point n - 1."""
    _, offsets, _ = _bit_layout(arities, n)
    return sorted(
        offset + rank
        for arity, offset in zip(arities, offsets)
        for rank, t in enumerate(_tuple_space(n, arity))
        if n - 1 in t
    )


def _point_invariants(arities: tuple[int, ...], n: int, masks):
    """The vertex invariant of every point of every mask, (len(masks), n).

    Per unary predicate the point's bit, per binary predicate its loop,
    out-degree and in-degree (a loop counts in both), read as digits of
    one int64, earlier predicates more significant, so ints compare as the
    digit tuples do.  Wider predicates add nothing, and digits past 62
    bits are left out: any isomorphism invariant will do.  Every digit is
    a sum over the mask's tuples, so the invariants of a union of disjoint
    masks are the sums of theirs.
    """
    import numpy as np

    _, offsets, _ = _bit_layout(arities, n)
    key = np.zeros((len(masks), n), dtype=np.int64)
    scale = 1
    for arity, offset in zip(arities, offsets):
        if arity > 2:
            continue
        table = masks[:, None] >> offset + np.arange(n**arity) & 1
        if arity == 1:
            digits = [(2, table)]
        else:
            table = table.reshape(-1, n, n)
            digits = [(2, table.diagonal(0, 1, 2)), (n + 1, table.sum(2)), (n + 1, table.sum(1))]
        for radix, digit in digits:
            scale *= radix
            if scale >= 1 << 62:
                return key
            key = key * radix + digit
    return key


# Extension candidates, before the invariant filter, taken at a time: bounds
# the invariant sums and the canonicalisation of the survivors.
_EXTEND_BLOCK = 1 << 16


@memo()
def _iso_level(sig: Signature, n: int):
    """Least mask of every isomorphism class at size ``n``, ascending, as a
    read-only int32 array.

    By one-point extension with McKay's canonical augmentation test: every
    class has a member whose point n - 1 has a greatest vertex invariant
    (``_point_invariants``) and whose restriction to {0..n-2} is a
    representative at size n - 1 (delete a point of greatest invariant).
    So the candidates are those representatives, embedded, with every
    subset of the fresh bits, kept only when the new point's invariant is
    at least every other point's; the canonical mask picks one member per
    class.  Representatives are taken in blocks, which bounds the filter's
    and the canonicalisation's temporaries.
    """
    import numpy as np

    arities = _arities(sig)
    prev = _iso_level(sig, n - 1) if n > 1 else np.zeros(1, dtype=np.int32)
    _, old_offsets, old_bits = _bit_layout(arities, n - 1)
    _, offsets, _ = _bit_layout(arities, n)
    embed = [0] * old_bits
    for arity, old_offset, offset in zip(arities, old_offsets, offsets):
        rank = {t: r for r, t in enumerate(_tuple_space(n, arity))}
        for old_rank, t in enumerate(_tuple_space(n - 1, arity)):
            embed[old_offset + old_rank] = offset + rank[t]
    fresh = _fresh_bits(arities, n)
    embedded = _remap_bits(_byte_columns(prev, old_bits), _bit_tables(embed))
    subsets = _byte_columns(np.arange(1 << len(fresh)), len(fresh))
    added = _remap_bits(subsets, _bit_tables(fresh))
    old_invariants = _point_invariants(arities, n, embedded)
    new_invariants = _point_invariants(arities, n, added)
    # the new point's lead over each old point, before the old tuples count
    lead = new_invariants[:, -1:] - new_invariants[:, :-1]
    step = max(1, _EXTEND_BLOCK >> len(fresh))
    found = []
    for start in range(0, len(prev), step):
        block = old_invariants[start:start + step]
        keep = np.ones((len(block), len(added)), dtype=bool)
        for x in range(n - 1):
            keep &= block[:, x, None] <= lead[None, :, x]
        rows, cols = np.nonzero(keep)
        found.append(_canonicalise(sig, n, embedded[start + rows] | added[cols]))
    level = np.concatenate(found)
    level.sort()
    level = level[np.concatenate(([True], level[1:] != level[:-1]))]
    level.flags.writeable = False
    return level


class Columns(NamedTuple):
    """Every isomorphism class of one size at once, bit-sliced.

    ``predicates`` maps each predicate to a dict from each argument tuple
    to its column: the int whose bit ``i`` is set when the ``i``-th class,
    in enumeration order, holds the tuple.  ``full`` has a bit per class.
    """

    predicates: Mapping[str, Mapping[tuple, int]]
    full: int


def _iso_path_applies(sig: Signature, n: int) -> bool:
    """Whether size ``n`` is enumerated up to isomorphism from packed masks."""
    arities = _arities(sig)
    return bool(
        sig.predicates
        and sig.is_predicate_only
        and sum(n**arity for arity in arities)
        <= (_UNARY_MASK_MAX_BITS if set(arities) == {1} else _MASK_MAX_BITS)
    )


@memo()
def _iso_columns(sig: Signature, n: int) -> Columns:
    """The ``Columns`` of the memoised classes of ``_iso_level(sig, n)``:
    each tuple's bit of every class mask, packed by numpy into one int."""
    masks = _iso_level(sig, n)
    _, offsets, _ = _bit_layout(_arities(sig), n)
    predicates = {}
    for (name, arity), offset in zip(sig.predicates, offsets):
        predicates[name] = {
            t: _packed_column(masks >> offset + rank & 1 == 1)
            for rank, t in enumerate(_tuple_space(n, arity))
        }
    return Columns(predicates, (1 << len(masks)) - 1)


# Induced-subclass tables of more entries than this, summed over the
# subset sizes, are not built: such sizes keep the per-structure loops.
_SUBCLASS_TABLE_MAX_ENTRIES = 1 << 24


def _subclass_tables_fit(sig: Signature, n: int, cap: int) -> bool:
    """Whether size ``n`` is enumerated from packed masks and its
    ``_subclass_table`` for every ``k < n`` fit in
    ``_SUBCLASS_TABLE_MAX_ENTRIES`` entries together.  Builds the size's
    classes, refusing past ``cap`` first (``_predicate_only_iso_masks``)."""
    return _iso_path_applies(sig, n) and (
        len(_predicate_only_iso_masks(sig, n, cap)) * (2**n - 2) <= _SUBCLASS_TABLE_MAX_ENTRIES
    )


@memo()
def _subclass_table(sig: Signature, n: int, k: int):
    """The class that each ``k``-subset of each size-``n`` class induces.

    Entry ``[i, j]`` is the index in ``_iso_level(sig, k)`` of the
    substructure that the ``j``-th ``k``-subset of the universe, in
    ``itertools.combinations`` order, induces in the ``i``-th class of
    ``_iso_level(sig, n)``.  For ``1 <= k < n`` on a size the iso path
    applies to; it does not depend on any sentence.  Each subset's tuple
    bits are gathered out of the class masks into a size-``k`` mask (the
    order-preserving renaming of ``induced_substructure``), canonicalised,
    and found in the ascending size-``k`` level.  Read-only, in the
    smallest unsigned dtype that holds the size-``k`` class count.
    """
    import numpy as np

    arities = _arities(sig)
    masks, level = _iso_level(sig, n), _iso_level(sig, k)
    _, offsets, bits = _bit_layout(arities, n)
    _, sub_offsets, sub_bits = _bit_layout(arities, k)

    def classify(induced):
        canon = _canonicalise(sig, k, induced)
        found = np.searchsorted(level, canon)
        if not np.array_equal(level[np.minimum(found, len(level) - 1)], canon):
            raise RuntimeError(f"a {k}-subset of a size-{n} class induces no size-{k} class")
        return found

    # with no more size-k masks than size-n classes, classify each mask once
    every = classify(np.arange(1 << sub_bits)) if 1 << sub_bits <= len(masks) else None
    columns = _byte_columns(masks, bits)
    table = np.empty((len(masks), math.comb(n, k)), dtype=np.min_scalar_type(len(level) - 1))
    for j, subset in enumerate(itertools.combinations(range(n), k)):
        dest = [None] * bits
        for arity, offset, sub_offset in zip(arities, offsets, sub_offsets):
            for sub_rank, t in enumerate(_tuple_space(k, arity)):
                rank = functools.reduce(lambda r, x: r * n + subset[x], t, 0)
                dest[offset + rank] = sub_offset + sub_rank
        induced = _remap_bits(columns, _bit_tables(dest))
        table[:, j] = classify(induced) if every is None else every.take(induced)
    table.flags.writeable = False
    return table


def _packed_column(bits) -> int:
    """The int whose bit ``i`` is ``bits[i]``, a numpy bool array."""
    import numpy as np

    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _column_bits(column: int, count: int):
    """Bits 0..count-1 of ``column`` as a numpy bool array."""
    import numpy as np

    packed = np.frombuffer(column.to_bytes(-(-count // 8), "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=count, bitorder="little").astype(bool)


def _structure_columns(sig: Signature, n: int, group: Sequence[Structure]) -> Columns:
    """The ``Columns`` of size-``n`` structures over a predicate-only ``sig``:
    bit ``i`` of a tuple's column is set when ``group[i]`` holds it."""
    predicates = {
        name: {
            t: _packed_column([t in s.predicates[name] for s in group])
            for t in _tuple_space(n, arity)
        }
        for name, arity in sig.predicates
    }
    return Columns(predicates, (1 << len(group)) - 1)


def _structure_from_mask(sig: Signature, n: int, mask: int) -> Structure:
    """The structure whose predicates are packed in ``mask`` (any int type)."""
    widths, offsets, _ = _bit_layout(_arities(sig), n)
    mask = int(mask)
    return _structure_from_indices(
        sig, n, tuple(mask >> o & (1 << w) - 1 for w, o in zip(widths, offsets))
    )


def _predicate_only_iso_masks(sig: Signature, n: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """Representative packed bitmasks, one per isomorphism class, as the
    memoised int32 array of ``_iso_level``.

    Representatives are the first labelled structure of each class, in
    ascending mask order (identical to the generic path), memoised per
    size.  They are built size by size, and each size's candidate count
    (``_iso_candidates``) is checked against ``cap`` before that size is
    computed.  The counts are memoised too, so a call for sizes seen
    before compares one count per size.
    """
    for k in range(1, n + 1):
        count = _iso_candidates(sig, k)
        if count > cap:
            raise CapExceededError(count, cap, "iso candidates")
    return _iso_level(sig, n)


@memo()
def _iso_candidates(sig: Signature, n: int) -> int:
    """The candidates of size ``n`` before the invariant filter: every
    class of the size below with every subset of the fresh bits."""
    below = len(_iso_level(sig, n - 1)) if n > 1 else 1
    return below << len(_fresh_bits(_arities(sig), n))


def enumerate_structures(
    sig: Signature,
    n: int,
    up_to_iso: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Iterator[Structure]:
    """Yield all labelled structures of size ``n``, or one per isomorphism class.

    Deterministic order: labelled structures ascend in their per-symbol
    encoding; with ``up_to_iso`` each class is represented by its first
    labelled member.  Refuses with :class:`CapExceededError` before doing
    the work, memoised or not: predicate-only signatures of at most
    ``_MASK_MAX_BITS`` tuple bits (``_UNARY_MASK_MAX_BITS`` when every
    predicate is unary) are enumerated up to isomorphism by
    one-point extension, and there ``cap`` bounds the candidates
    canonicalised at each size; everywhere else it bounds the labelled
    structures, and other signatures are enumerated up to isomorphism by
    the orderly walk (``_orderly_walk``), which builds no labelled
    structure.  On both paths the representatives are memoised per
    signature and size, and each call builds fresh structures from them.
    """
    if n < 1:
        raise ValueError("structure size must be >= 1")
    if up_to_iso and _iso_path_applies(sig, n):
        for mask in _predicate_only_iso_masks(sig, n, cap):
            yield _structure_from_mask(sig, n, mask)
        return
    check_labelled_cap(sig, n, cap)
    for indices in _generic_iso_indices(sig, n) if up_to_iso else _labelled_indices(sig, n):
        yield _structure_from_indices(sig, n, indices)


# Generic-path representatives per (signature, n), as index tuples.
_GENERIC_ISO: dict = {}
_MEMOS.append(_GENERIC_ISO.clear)


def _generic_iso_indices(sig: Signature, n: int) -> Iterator[tuple[int, ...]]:
    """Index tuple of the first labelled member of every isomorphism class,
    in labelled order: those least in their orbit, as the orderly walk
    finds them (``_orderly_walk``).  The representatives are memoised only
    once the stream has run to its end, so a consumer that stops early pays
    for no more than it took."""
    memo = _GENERIC_ISO.get((sig, n))
    if memo is not None:
        yield from memo
        return
    found = []
    choices = [range(n) if is_value else range(2) for _, is_value, _, _ in _orbit_steps(sig, n)]
    for indices in _orderly_walk(sig, n, choices):
        found.append(indices)
        yield indices
    _GENERIC_ISO[(sig, n)] = tuple(found)


def _map_mismatches(
    a: Union[Structure, Fragment],
    b: Union[Structure, Fragment],
    mapping: Mapping[int, int],
    new: Optional[int] = None,
) -> Iterator[tuple[str, str, Optional[tuple]]]:
    """Where ``mapping`` fails to carry ``a``'s tables onto ``b``'s.

    The tuples checked are those over ``mapping``'s keys.  A function or
    constant value is inside when it is not ``ESCAPES`` and lies in the
    keys (for ``a``) or in the image (for ``b``).  Yields ``(kind, symbol,
    tuple)`` in signature order, the tuple None for a constant: kind
    ``"predicate"`` when the tuple holds on one side only, ``"escape"``
    when a value is inside on one side only, ``"value"`` when both are
    inside but ``mapping`` does not send one to the other.

    With ``new``, a key of ``mapping``, predicate tuples are checked only
    where they hold ``new``: any other tuple and its image read the same
    facts with or without ``new``'s pair.  Function and constant entries
    are all checked, as any of their values may be ``new`` or its image.
    So when ``mapping`` without that pair has no mismatch, these are all
    of ``mapping``'s mismatches.
    """
    sig = a.signature
    domain = sorted(mapping)
    image = set(mapping.values())
    moved = mapping.__getitem__

    for name, arity in sig.predicates:
        rel_a, rel_b = a.predicates[name], b.predicates[name]
        for t in itertools.product(domain, repeat=arity):
            if (new is None or new in t) and (t in rel_a) != (tuple(map(moved, t)) in rel_b):
                yield "predicate", name, t
    values = itertools.chain(
        (
            (name, t, a.functions[name].get(t, ESCAPES),
             b.functions[name].get(tuple(map(moved, t)), ESCAPES))
            for name, arity in sig.functions
            for t in itertools.product(domain, repeat=arity)
        ),
        (
            (name, None, a.constants.get(name, ESCAPES), b.constants.get(name, ESCAPES))
            for name in sig.constants
        ),
    )
    # ESCAPES is never a key or an image, so membership decides "inside"
    for name, t, va, vb in values:
        if (va in mapping) != (vb in image):
            yield "escape", name, t
        elif va in mapping and mapping[va] != vb:
            yield "value", name, t


def _carrier(x: Union[Structure, Fragment]) -> frozenset:
    return frozenset(range(x.size)) if isinstance(x, Structure) else x.carrier


def check_isomorphism(
    a: Union[Structure, Fragment], b: Union[Structure, Fragment], mapping: Mapping[int, int]
) -> bool:
    """Verify that ``mapping`` is an isomorphism from ``a`` onto ``b``.

    For fragments the ESCAPES pattern must be preserved as well.
    """
    if a.signature != b.signature or set(mapping) != _carrier(a):
        return False
    if set(mapping.values()) != _carrier(b) or len(set(mapping.values())) != len(mapping):
        return False
    return not any(_map_mismatches(a, b, mapping))


def _element_profiles(x: Union[Structure, Fragment]) -> dict:
    """Each element's profile, an isomorphism invariant, from one walk of
    each table: per predicate position, the tuples holding the element
    there; per function, the entries of value the element, the escaping
    entries through it, and whether it is a fixed point; per constant,
    whether it names the element."""
    sig = x.signature
    width = sum(a for _, a in sig.predicates) + 3 * len(sig.functions) + len(sig.constants)
    parts = {e: [0] * width for e in _carrier(x)}
    i = 0
    for name, arity in sig.predicates:
        for t in x.predicates[name]:
            for pos, e in enumerate(t):
                if e in parts:
                    parts[e][i + pos] += 1
        i += arity
    for name, _ in sig.functions:
        for t, v in x.functions[name].items():
            if v is ESCAPES:
                for e in set(t).intersection(parts):
                    parts[e][i + 1] += 1
            elif v in parts:
                parts[v][i] += 1
                if t.count(v) == len(t):
                    parts[v][i + 2] = 1
        i += 3
    for name in sig.constants:
        v = x.constants.get(name, ESCAPES)
        if v in parts:
            parts[v][i] = 1
        i += 1
    return {e: tuple(p) for e, p in parts.items()}


def find_isomorphism(
    a: Union[Structure, Fragment], b: Union[Structure, Fragment]
) -> Optional[dict]:
    """Search for an isomorphism from ``a`` onto ``b``; None if there is none.

    Backtracking over carrier bijections with element-profile pruning,
    extending a partial map only while it shows no mismatch.  The empty
    map has none, so each new pair is checked only on what it can change
    (``_map_mismatches`` with ``new``), and a complete map satisfies
    :func:`check_isomorphism`.
    """
    if a.signature != b.signature:
        raise ValueError("signature mismatch")
    car_a, car_b = _carrier(a), _carrier(b)
    if len(car_a) != len(car_b):
        return None
    prof_a, prof_b = _element_profiles(a), _element_profiles(b)
    if sorted(prof_a.values()) != sorted(prof_b.values()):
        return None
    domain = sorted(car_a)
    targets = sorted(car_b)
    mapping: dict = {}
    used: set = set()

    def backtrack(i):
        if i == len(domain):
            return True
        x = domain[i]
        for y in targets:
            if y in used or prof_a[x] != prof_b[y]:
                continue
            mapping[x] = y
            used.add(y)
            if not any(_map_mismatches(a, b, mapping, x)) and backtrack(i + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    if backtrack(0):
        return dict(mapping)
    return None


def fragment_occurs(f: Fragment, s: Structure) -> list[dict]:
    """All embeddings of fragment ``f`` into ``s``.

    An embedding is an injective map from the carrier of ``f`` into the
    universe of ``s`` under which the induced fragment of ``s`` on the
    image matches ``f``, including the ESCAPES pattern.
    """
    if f.signature != s.signature:
        raise ValueError("signature mismatch")
    domain = sorted(f.carrier)
    out = []
    for image in itertools.permutations(range(s.size), len(domain)):
        mapping = dict(zip(domain, image))
        if not any(_map_mismatches(f, s, mapping)):
            out.append(mapping)
    return out


# --- text format -----------------------------------------------------------
#
# file   := sig-block struct-block+
# sig    := "signature" NL ("predicate" NAME ARITY | "function" NAME ARITY |
#           "constant" NAME)* "end"
# struct := "structure" NAME NL "universe" N NL (PRED ints | FUNC ints "->" int |
#           CONST int)* "end"
# '#' starts a comment; tokens are whitespace-separated.


def _tokenize_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_structures(text: str) -> tuple[Signature, dict[str, Structure]]:
    """Parse the structure text format into a signature and named structures."""
    lines = list(_tokenize_lines(text))
    pos = 0

    def error(msg, lineno=None):
        raise StructureFormatError(msg, lineno)

    if not lines or lines[0][1] != ["signature"]:
        error("expected 'signature' block", lines[0][0] if lines else 1)
    pos = 1
    predicates, functions, constants = [], [], []
    while pos < len(lines):
        lineno, toks = lines[pos]
        if toks == ["end"]:
            pos += 1
            break
        kind = toks[0]
        if kind in ("predicate", "function") and len(toks) == 3:
            if not toks[2].isdecimal() or int(toks[2]) < 1:
                error(f"arity of {toks[1]} must be a positive integer", lineno)
            (predicates if kind == "predicate" else functions).append((toks[1], int(toks[2])))
        elif kind == "constant" and len(toks) == 2:
            constants.append(toks[1])
        else:
            error(f"bad signature entry: {' '.join(toks)}", lineno)
        pos += 1
    else:
        error("signature block not terminated by 'end'", lines[-1][0])
    try:
        sig = Signature(tuple(predicates), tuple(functions), tuple(constants))
    except ValueError as exc:
        error(str(exc), lines[0][0])

    pred_arity = dict(sig.predicates)
    func_arity = dict(sig.functions)
    structures: dict[str, Structure] = {}
    while pos < len(lines):
        lineno, toks = lines[pos]
        if len(toks) != 2 or toks[0] != "structure":
            error("expected 'structure NAME'", lineno)
        name = toks[1]
        if name in structures:
            error(f"duplicate structure name {name}", lineno)
        pos += 1
        if pos >= len(lines) or lines[pos][1][0] != "universe" or len(lines[pos][1]) != 2:
            error("expected 'universe N'", lines[pos][0] if pos < len(lines) else lineno)
        try:
            size = int(lines[pos][1][1])
        except ValueError:
            error("universe size must be an integer", lines[pos][0])
        pos += 1
        preds: dict = {p: set() for p in pred_arity}
        funcs: dict = {f: {} for f in func_arity}
        consts: dict = {}
        closed = False
        while pos < len(lines):
            lineno, toks = lines[pos]
            if toks == ["end"]:
                pos += 1
                closed = True
                break
            sym = toks[0]
            try:
                if sym in pred_arity:
                    args = [int(x) for x in toks[1:]]
                    if len(args) != pred_arity[sym]:
                        error(f"{sym} expects {pred_arity[sym]} arguments", lineno)
                    preds[sym].add(tuple(args))
                elif sym in func_arity:
                    if "->" not in toks:
                        error(f"function entry for {sym} needs '->'", lineno)
                    arrow = toks.index("->")
                    args = [int(x) for x in toks[1:arrow]]
                    rest = toks[arrow + 1 :]
                    if len(args) != func_arity[sym] or len(rest) != 1:
                        error(f"{sym} expects {func_arity[sym]} arguments and one value", lineno)
                    key = tuple(args)
                    value = int(rest[0])
                    if key in funcs[sym] and funcs[sym][key] != value:
                        error(f"conflicting entries for {sym}{key}", lineno)
                    funcs[sym][key] = value
                elif sig.has_constant(sym):
                    if len(toks) != 2:
                        error(f"constant {sym} expects one value", lineno)
                    consts[sym] = int(toks[1])
                else:
                    error(f"unknown symbol {sym}", lineno)
            except StructureFormatError:
                raise
            except ValueError as exc:
                error(f"bad integer in entry: {exc}", lineno)
            pos += 1
        if not closed:
            error(f"structure {name} not terminated by 'end'", lines[-1][0])
        structures[name] = Structure(sig, size, preds, funcs, consts)
    if not structures:
        error("expected at least one structure block", lines[-1][0])
    return sig, structures


def render_structures(sig: Signature, structures: Mapping[str, Structure]) -> str:
    """Render a signature and named structures in the text format."""
    out = ["signature"]
    for name, arity in sig.predicates:
        out.append(f"predicate {name} {arity}")
    for name, arity in sig.functions:
        out.append(f"function {name} {arity}")
    for name in sig.constants:
        out.append(f"constant {name}")
    out.append("end")
    for sname, s in structures.items():
        out.append(f"structure {sname}")
        out.append(f"universe {s.size}")
        for name, _ in sig.predicates:
            for t in sorted(s.predicates.get(name, frozenset())):
                out.append(f"{name} " + " ".join(str(x) for x in t))
        for name, _ in sig.functions:
            for t, v in sorted(s.functions.get(name, {}).items()):
                out.append(f"{name} " + " ".join(str(x) for x in t) + f" -> {v}")
        for name in sig.constants:
            if name in s.constants:
                out.append(f"{name} {s.constants[name]}")
        out.append("end")
    return "\n".join(out) + "\n"
