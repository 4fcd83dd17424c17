import dataclasses
import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import reference
from reference import canonical_key

from subsat import corpus, structures
from subsat.structures import (
    ESCAPES,
    CapExceededError,
    Fragment,
    Signature,
    Structure,
    StructureFormatError,
    check_isomorphism,
    check_power_cap,
    enumerate_structures,
    enumerate_submodels,
    find_isomorphism,
    fragment_occurs,
    generated_carrier,
    generated_submodel,
    induced_fragment,
    labelled_structure_count,
    parse_structures,
    power_exceeds,
    render_structures,
    validate_structure,
)

UNAR = Signature(functions=(("F", 1),))
BINARY = Signature(predicates=(("R", 2),))
UNARY_BINARY = Signature(predicates=(("P", 1), ("R", 2)))


def unar(n, table):
    return Structure(UNAR, n, functions={"F": {(i,): v for i, v in table.items()}})


def z4_successor():
    return unar(4, {0: 1, 1: 2, 2: 3, 3: 0})


def digraph(n, edges):
    return Structure(BINARY, n, predicates={"R": set(edges)})


# --- oracles ----------------------------------------------------------------


def iso_oracle(a, b):
    """Exhaustive bijection search, independent of find_isomorphism."""
    if a.size != b.size:
        return None
    for perm in itertools.permutations(range(b.size)):
        mapping = {i: perm[i] for i in range(a.size)}
        if check_isomorphism(a, b, mapping):
            return mapping
    return None


def count_iso_classes_oracle(sig, n):
    """Brute force: pairwise isomorphism tests over all labelled structures."""
    reps = []
    for s in enumerate_structures(sig, n):
        if not any(iso_oracle(s, r) for r in reps):
            reps.append(s)
    return len(reps)


# --- validate_structure -----------------------------------------------------


def test_validate_wellformed_unar():
    assert validate_structure(UNAR, z4_successor()) == []


def test_validate_function_not_total():
    s = unar(4, {0: 1, 1: 2, 3: 0})
    violations = validate_structure(UNAR, s)
    assert any("F not total at (2,)" in v for v in violations)


def test_validate_predicate_tuple_out_of_range():
    s = digraph(4, [(0, 5)])
    violations = validate_structure(BINARY, s)
    assert any("R tuple (0, 5) out of range" in v for v in violations)


def test_validate_missing_constant():
    sig = Signature(constants=("c",))
    s = Structure(sig, 2)
    assert any("constant c uninterpreted" in v for v in validate_structure(sig, s))


def test_signature_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Signature(predicates=(("R", 2),), functions=(("R", 1),))
    with pytest.raises(ValueError):
        Signature(predicates=(("R", 0),))


# --- induced_fragment -------------------------------------------------------


def test_induced_fragment_escape():
    f = induced_fragment(z4_successor(), {0})
    assert f.functions["F"][(0,)] is ESCAPES
    assert f.has_escapes


def test_induced_fragment_fixed_point_stays_inside():
    s = unar(4, {0: 1, 1: 2, 2: 3, 3: 3})
    f = induced_fragment(s, {3})
    assert f.functions["F"][(3,)] == 3
    assert not f.has_escapes


def test_induced_fragment_full_universe_is_identity():
    s = z4_successor()
    f = induced_fragment(s, range(4))
    assert not f.has_escapes
    assert f.predicates == s.predicates
    assert f.functions["F"] == s.functions["F"]


def test_induced_fragment_out_of_range_carrier():
    with pytest.raises(ValueError):
        induced_fragment(z4_successor(), {0, 7})


# --- generated_submodel -----------------------------------------------------


def test_generated_submodel_cycle_closure():
    g = generated_submodel(z4_successor(), {0})
    assert g.carrier == (0, 1, 2, 3)


def test_generated_submodel_predicate_only_is_seed():
    s = digraph(3, [(0, 1)])
    g = generated_submodel(s, {2})
    assert g.carrier == (2,)
    assert validate_structure(BINARY, g.structure) == []


def test_generated_submodel_idempotent_on_closed_seed():
    s = unar(3, {0: 0, 1: 1, 2: 0})
    g = generated_submodel(s, {0, 2})
    assert g.carrier == (0, 2)


def test_generated_submodel_empty_seed_requires_constants():
    with pytest.raises(ValueError):
        generated_submodel(z4_successor(), set())
    sig = Signature(functions=(("F", 1),), constants=("c",))
    s = Structure(sig, 3, functions={"F": {(0,): 1, (1,): 0, (2,): 2}}, constants={"c": 0})
    g = generated_submodel(s, set())
    assert g.carrier == (0, 1)


def test_generated_submodel_is_closure_operator():
    s = unar(4, {0: 1, 1: 0, 2: 3, 3: 3})
    for seed in [{0}, {2}, {0, 2}, {3}]:
        carrier = generated_carrier(s, seed)
        assert seed <= carrier
        assert generated_carrier(s, carrier) == carrier
    assert generated_carrier(s, {0}) <= generated_carrier(s, {0, 2})


def _fixpoint_carrier(s, seed):
    """``generated_carrier`` as it was: every round applies every function
    to every tuple of the elements so far."""
    current = set(int(x) for x in seed)
    current.update(s.constants.values())
    if not current:
        raise ValueError("empty seed with a constant-free signature generates nothing")
    if not all(0 <= x < s.size for x in current):
        raise ValueError("seed element out of range")
    while True:
        added = set()
        elems = sorted(current)
        for name, arity in s.signature.functions:
            for t in itertools.product(elems, repeat=arity):
                if s.functions[name][t] not in current:
                    added.add(s.functions[name][t])
        if not added:
            return frozenset(current)
        current |= added


BINARY_FUNCTION_CONST = Signature(functions=(("G", 2),), constants=("c",))


def _same_carriers(s):
    seeds = [()] + [seed for k in (1, 2) for seed in itertools.combinations(range(s.size), k)]
    seeds += [(s.size,), (-1, 0)]  # out of range
    for seed in seeds:
        try:
            expected = _fixpoint_carrier(s, seed)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{e}$"):
                generated_carrier(s, seed)
        else:
            assert generated_carrier(s, seed) == expected, (s, seed)


def test_generated_carrier_matches_the_fixpoint():
    for sig, n_max in ((UNAR, 4), (Signature(functions=(("F", 1),), constants=("c",)), 3),
                       (BINARY_FUNCTION_CONST, 2)):
        for n in range(1, n_max + 1):
            for s in enumerate_structures(sig, n):
                _same_carriers(s)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_carrier_matches_the_fixpoint_with_a_binary_function(data):
    _same_carriers(data.draw(random_structures(BINARY_FUNCTION_CONST, data.draw(st.integers(3, 5)))))


# all-unary signatures build a seed of several points from its points' entries
UNARY_SIGNATURES = (
    UNAR,
    corpus.UNAR_CONST,
    Signature(predicates=(("P", 1),), functions=(("F", 1), ("G", 1)), constants=("c", "d")),
)
SEED_FORMS = (
    tuple,
    list,
    set,
    lambda seed: (x for x in seed),
    lambda seed: tuple(map(np.int64, seed)),
)


def _carrier_outcome(f, s, seed):
    try:
        return f(s, seed)
    except ValueError as e:
        return str(e)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_kept_closures_match_the_fixpoint(data):
    sig = data.draw(st.sampled_from(UNARY_SIGNATURES))
    s = data.draw(random_structures(sig, data.draw(st.integers(1, 6))))
    # seeds repeat points, so later calls read closures earlier calls kept
    seeds = st.lists(st.integers(-1, s.size), max_size=3)
    for seed, form in data.draw(st.lists(st.tuples(seeds, st.sampled_from(SEED_FORMS)),
                                         min_size=5, max_size=25)):
        expected = _carrier_outcome(_fixpoint_carrier, s, seed)
        assert _carrier_outcome(generated_carrier, s, form(seed)) == expected, (s, seed)


def _table(s):
    return dict(vars(s).get("_carriers", {}))


# one unary function, with and without a constant, and binary functions,
# where every new seed runs the closure loop
TABLE_SIGNATURES = (
    UNAR,
    corpus.UNAR_CONST,
    BINARY_FUNCTION_CONST,
    Signature(predicates=(("P", 1),), functions=(("G", 2), ("F", 1))),
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_the_carrier_table_matches_the_fixpoint(data):
    sig = data.draw(st.sampled_from(TABLE_SIGNATURES))
    s = data.draw(random_structures(sig, data.draw(st.integers(1, 5))))
    seeds = st.lists(st.integers(-1, s.size), max_size=3)
    for seed, form in data.draw(st.lists(st.tuples(seeds, st.sampled_from(SEED_FORMS)),
                                         min_size=5, max_size=25)):
        expected = _carrier_outcome(_fixpoint_carrier, s, seed)
        before = _table(s)
        assert _carrier_outcome(generated_carrier, s, form(seed)) == expected, (s, seed)
        after = _table(s)
        if isinstance(expected, str):
            assert after == before  # a refused seed leaves no entry
        elif len(set(seed)) <= 1:
            assert after[tuple(set(seed))][0] == expected
        else:  # a seed of several points is not kept
            assert structures.carrier_entry(s, form(seed)) == (expected, None)
        # only seeds of at most one point are kept, each with its carrier
        # and the carrier's elements ascending
        assert len(after) <= s.size + 1
        for key, (carrier, domain) in after.items():
            assert len(key) <= 1
            assert carrier == _fixpoint_carrier(s, key) and domain == tuple(sorted(carrier))


@pytest.mark.parametrize("sig", UNARY_SIGNATURES)
def test_kept_closures_refuse_seeds_alike_cold_and_warm(sig):
    # where there are constants, they leave the universe: every seed is refused
    bad_constant = Structure(
        sig, 2, functions={name: {(0,): 1, (1,): 0} for name, _ in sig.functions},
        constants={name: 2 for name in sig.constants},
    )
    structures_ = [*enumerate_structures(sig, 2), bad_constant]
    for seed in [(), (2,), (-1,), (0, 2), (-1, 1), (5, 0)]:
        for s in structures_:
            expected = _carrier_outcome(_fixpoint_carrier, s, seed)
            cold = Structure(s.signature, s.size, s.predicates, s.functions, s.constants)
            assert _carrier_outcome(generated_carrier, cold, seed) == expected
            if isinstance(expected, str):
                assert _table(cold) == {}
            for point in range(s.size):  # warm every kept closure
                _carrier_outcome(generated_carrier, cold, (point,))
            assert _carrier_outcome(generated_carrier, cold, seed) == expected
            assert _carrier_outcome(generated_carrier, cold, (0, 1)) == (
                _carrier_outcome(_fixpoint_carrier, s, (0, 1))
            )


def test_an_unqueried_structure_keeps_only_its_fields():
    fields = {f.name for f in dataclasses.fields(Structure)}
    built = unar(3, {0: 1, 1: 2, 2: 2})
    enumerated = list(enumerate_structures(corpus.UNAR_CONST, 2))
    binary = next(iter(enumerate_structures(BINARY_FUNCTION_CONST, 2)))
    for s in (built, *enumerated, binary):
        assert set(vars(s)) == fields
    generated_carrier(built, (0,))
    generated_carrier(enumerated[0], ())
    generated_carrier(binary, (1,))
    # a query keeps a carrier table on the structure it asked and on no
    # other, on every signature, and leaves equality and hashing as they were
    assert set(vars(enumerated[1])) == fields
    assert set(vars(binary)) == fields | {"_carriers"}
    copy = unar(3, {0: 1, 1: 2, 2: 2})
    assert built == copy and hash(built) == hash(copy)


def test_a_replaced_structure_keeps_no_closures_of_the_old_one():
    # a structure's tables stay fixed once queried; a changed model is a new
    # structure, and it computes its carriers afresh
    s = unar(3, {0: 1, 1: 2, 2: 2})
    assert generated_carrier(s, (0,)) == {0, 1, 2}
    changed = dataclasses.replace(s, functions={"F": {(0,): 0, (1,): 2, (2,): 2}})
    assert set(vars(changed)) == {f.name for f in dataclasses.fields(Structure)}
    assert generated_carrier(changed, (0,)) == {0}
    assert generated_carrier(s, (0,)) == {0, 1, 2}


# --- enumerate_submodels ----------------------------------------------------


def test_enumerate_submodels_unar_cycle():
    assert list(enumerate_submodels(z4_successor())) == [frozenset({0, 1, 2, 3})]


def test_enumerate_submodels_predicate_only_counts():
    s = digraph(3, [(0, 1), (1, 2)])
    carriers = list(enumerate_submodels(s))
    assert len(carriers) == 2**3 - 1
    sizes = [len(c) for c in carriers]
    assert sizes == sorted(sizes)


def test_enumerate_submodels_fixed_points():
    s = unar(2, {0: 0, 1: 1})
    assert list(enumerate_submodels(s)) == [
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    ]


def test_enumerate_submodels_respects_bound_and_constants():
    sig = Signature(predicates=(("P", 1),), constants=("c",))
    s = Structure(sig, 3, predicates={"P": {(0,)}}, constants={"c": 1})
    carriers = list(enumerate_submodels(s, max_card=2))
    assert all(1 in c for c in carriers)
    assert all(len(c) <= 2 for c in carriers)
    assert frozenset({1}) in carriers


def test_submodel_carriers_have_no_escapes():
    for s in [z4_successor(), unar(3, {0: 1, 1: 0, 2: 2}), digraph(3, [(0, 1)])]:
        for carrier in enumerate_submodels(s):
            assert not induced_fragment(s, carrier).has_escapes


# --- enumerate_structures ---------------------------------------------------


def test_enumerate_structures_labelled_counts():
    assert labelled_structure_count(BINARY, 2) == 16
    assert len(list(enumerate_structures(BINARY, 2))) == 16
    assert labelled_structure_count(UNAR, 3) == 27
    assert len(list(enumerate_structures(UNAR, 3))) == 27


# OEIS A000595 (binary relations up to isomorphism).
@pytest.mark.parametrize("n,expected", [(1, 2), (2, 10), (3, 104), (4, 3044), (5, 291968)])
def test_enumerate_structures_iso_class_pins(n, expected):
    assert sum(1 for _ in enumerate_structures(BINARY, n, up_to_iso=True)) == expected


def test_unary_binary_iso_class_pin():
    # counted by canonicalising all 2**20 labelled masks
    assert sum(1 for _ in enumerate_structures(UNARY_BINARY, 4, up_to_iso=True)) == 45960


# Predicate-only signatures of every shape the one-point extension handles.
EXTENSION_ARITIES = {
    "unary": (1,),
    "binary": (2,),
    "unary_binary": (1, 2),
    "two_unary": (1, 1),
    "two_binary": (2, 2),
    "ternary": (3,),
}


@pytest.mark.parametrize("label", list(EXTENSION_ARITIES))
def test_extension_matches_full_canonicalisation(label):
    # The reference canonicalises all 2**bits masks under all n!
    # relabellings: every n with at most 20 bits, and at most 6 points.
    arities = EXTENSION_ARITIES[label]
    sig = Signature(tuple((f"P{i}", a) for i, a in enumerate(arities)))
    n = 1
    while sum(n**a for a in arities) <= 20 and n <= 6:
        bits = sum(n**a for a in arities)
        reference = np.unique(structures._canonicalise(sig, n, np.arange(2**bits))).tolist()
        assert structures._predicate_only_iso_masks(sig, n).tolist() == reference
        n += 1
    assert n > 2


def _generic_iso_representatives(sig, n):
    generic = []
    seen = set()
    for s in enumerate_structures(sig, n):
        key = canonical_key(s)
        if key not in seen:
            seen.add(key)
            generic.append(s)
    return generic


UNARY = Signature(predicates=(("P", 1),))
TWO_UNARY = Signature(predicates=(("P", 1), ("Q", 1)))


def _least_relabelled_unary_masks(k, n):
    """Least mask over all n! relabellings of every mask of ``k`` unary
    predicates on ``n`` points, predicate i on bits (k-1-i)*n onwards."""
    masks = np.arange(2 ** (k * n))
    least = masks.copy()
    for perm in itertools.permutations(range(n)):
        moved = np.zeros_like(masks)
        for span in range(k):
            for x in range(n):
                moved |= (masks >> (span * n + x) & 1) << (span * n + perm[x])
        np.minimum(least, moved, out=least)
    return least


@pytest.mark.parametrize("k", [1, 2, 3])
def test_unary_canonical_masks_are_least_over_all_relabellings(k):
    sig = Signature(tuple((f"P{i}", 1) for i in range(k)))
    for n in range(1, 6):
        assert structures._canonicalise(sig, n, np.arange(2 ** (k * n))).tolist() == (
            _least_relabelled_unary_masks(k, n).tolist()
        ), n


def test_unary_class_counts():
    # a unary structure is its count of elements of each type: one unary
    # predicate has n + 1 classes, two have C(n + 3, 3) (multisets of n
    # from the four types); all-unary masks take the one-point extension
    # while they fit in int32
    for n in range(1, 32):
        assert sum(1 for _ in enumerate_structures(UNARY, n, up_to_iso=True)) == n + 1
    for n in range(1, 16):
        assert sum(1 for _ in enumerate_structures(TWO_UNARY, n, up_to_iso=True)) == (
            math.comb(n + 3, 3)
        )


def test_unary_cap_refuses_before_the_work():
    # past 31 bits the labelled path counts 2**32 structures and refuses
    # before any size is extended
    for sig, n in ((UNARY, 32), (TWO_UNARY, 16)):
        before = structures._iso_level.cache_info()
        with pytest.raises(CapExceededError, match="4294967296 labelled structures"):
            next(enumerate_structures(sig, n, up_to_iso=True))
        assert structures._iso_level.cache_info() == before
    with pytest.raises(CapExceededError, match="12 iso candidates"):
        next(enumerate_structures(UNARY, 26, up_to_iso=True, cap=10))


def test_unary_classes_at_seven_points_match_generic_path():
    reps = list(enumerate_structures(UNARY, 7, up_to_iso=True))
    assert reps == _generic_iso_representatives(UNARY, 7)
    assert len(reps) == 8
    assert sum(1 for _ in enumerate_structures(TWO_UNARY, 7, up_to_iso=True)) == 120


def test_unary_binary_extension_matches_generic_path():
    assert list(enumerate_structures(UNARY_BINARY, 3, up_to_iso=True)) == (
        _generic_iso_representatives(UNARY_BINARY, 3)
    )


@pytest.mark.parametrize(
    "sig,n,up_to_iso", [(BINARY, 3, True), (BINARY, 2, False), (UNAR, 3, True)]
)
def test_enumerated_structures_are_normal_and_unshared(sig, n, up_to_iso):
    # the enumerator builds its structures without normalising them
    first = list(enumerate_structures(sig, n, up_to_iso=up_to_iso))
    keys = [s.key() for s in first]
    for s in first:
        normal = Structure(s.signature, s.size, s.predicates, s.functions, s.constants)
        assert vars(s) == vars(normal)
        assert all(type(x) is int for rel in s.predicates.values() for t in rel for x in t)
        assert all(
            type(x) is int
            for table in s.functions.values()
            for t, v in table.items()
            for x in t + (v,)
        )
        assert validate_structure(sig, s) == []
        for name in s.predicates:
            s.predicates[name] = frozenset({(0,) * dict(sig.predicates)[name]})
        for table in s.functions.values():
            table.clear()
    assert [s.key() for s in enumerate_structures(sig, n, up_to_iso=up_to_iso)] == keys


@pytest.mark.parametrize("n", [1, 2])
def test_iso_class_counts_match_bruteforce_oracle(n):
    assert len(list(enumerate_structures(BINARY, n, up_to_iso=True))) == (
        count_iso_classes_oracle(BINARY, n)
    )


def test_iso_classes_partition_labelled_structures():
    # class count times average class size equals labelled count, n <= 3
    for n in (1, 2, 3):
        sizes = {}
        for s in enumerate_structures(BINARY, n):
            sizes[canonical_key(s)] = sizes.get(canonical_key(s), 0) + 1
        reps = list(enumerate_structures(BINARY, n, up_to_iso=True))
        assert len(reps) == len(sizes)
        assert sum(sizes.values()) == labelled_structure_count(BINARY, n)


def test_iso_representatives_pairwise_non_isomorphic():
    reps = list(enumerate_structures(BINARY, 2, up_to_iso=True))
    for a, b in itertools.combinations(reps, 2):
        assert find_isomorphism(a, b) is None


def test_numpy_iso_path_matches_generic_path():
    generic = []
    seen = set()
    for s in enumerate_structures(BINARY, 3):
        key = canonical_key(s)
        if key not in seen:
            seen.add(key)
            generic.append(s)
    assert list(enumerate_structures(BINARY, 3, up_to_iso=True)) == generic


def test_enumerate_structures_cap_refusal():
    with pytest.raises(CapExceededError) as exc:
        list(enumerate_structures(BINARY, 5, cap=1000))
    assert exc.value.count == 2**25


def test_iso_cap_counts_candidates_before_the_work(monkeypatch):
    # 3044 four-point classes times 2**9 choices of the new point's tuples
    sizes = []
    canonicalise = structures._canonicalise

    def recording(sig, n, masks):
        sizes.append(n)
        return canonicalise(sig, n, masks)

    monkeypatch.setattr(structures, "_canonicalise", recording)
    structures.clear_memos()
    for memoised in (False, True):
        with pytest.raises(CapExceededError, match="1558528 iso candidates") as exc:
            next(enumerate_structures(BINARY, 5, up_to_iso=True, cap=1_000_000))
        assert (exc.value.count, exc.value.cap) == (1_558_528, 1_000_000)
        assert 5 not in sizes
        if not memoised:
            structures._predicate_only_iso_masks(BINARY, 5)
            sizes.clear()
    with pytest.raises(CapExceededError, match="16 iso candidates"):
        next(enumerate_structures(BINARY, 2, up_to_iso=True, cap=10))


def test_generic_iso_memo_fills_only_when_a_stream_ends(monkeypatch):
    structures.clear_memos()
    stream = enumerate_structures(UNAR, 4, up_to_iso=True)
    first = next(stream)
    stream.close()
    assert (UNAR, 4) not in structures._GENERIC_ISO
    keys = [s.key() for s in enumerate_structures(UNAR, 4, up_to_iso=True)]
    assert keys[0] == first.key()
    assert len(structures._GENERIC_ISO[(UNAR, 4)]) == len(keys) == 19

    def unexpected(sig, n):
        raise AssertionError("the memoised size was walked again")

    monkeypatch.setattr(structures, "_orbit_steps", unexpected)
    assert [s.key() for s in enumerate_structures(UNAR, 4, up_to_iso=True)] == keys


def test_generic_iso_walk_builds_no_labelled_structure(monkeypatch):
    def unexpected(sig, n):
        raise AssertionError("labelled structures were scanned")

    monkeypatch.setattr(structures, "_labelled_indices", unexpected)
    structures.clear_memos()
    assert sum(1 for _ in enumerate_structures(UNAR, 6, up_to_iso=True)) == 130


def test_generic_iso_cap_refuses_before_the_work(monkeypatch):
    # 5**5 labelled unars on five points
    sizes = []
    steps = structures._orbit_steps

    def recording(sig, n):
        sizes.append(n)
        return steps(sig, n)

    monkeypatch.setattr(structures, "_orbit_steps", recording)
    structures.clear_memos()
    for memoised in (False, True):
        with pytest.raises(CapExceededError, match="3125 labelled structures") as exc:
            next(enumerate_structures(UNAR, 5, up_to_iso=True, cap=3000))
        assert (exc.value.count, exc.value.cap) == (3125, 3000)
        assert sizes == []
        if not memoised:
            assert sum(1 for _ in enumerate_structures(UNAR, 5, up_to_iso=True)) == 47
            assert (UNAR, 5) in structures._GENERIC_ISO
            sizes.clear()


def test_enumerate_structures_mixed_signature():
    sig = Signature(predicates=(("P", 1),), functions=(("F", 1),), constants=("c",))
    structures = list(enumerate_structures(sig, 2))
    assert len(structures) == labelled_structure_count(sig, 2) == 4 * 4 * 2
    for s in structures[:8]:
        assert validate_structure(sig, s) == []
    classes = list(enumerate_structures(sig, 2, up_to_iso=True))
    assert len(classes) == count_iso_classes_oracle(sig, 2)


# --- iso classes beyond binary relations ------------------------------------

KERNEL_SIGNATURES = {
    "unar": UNAR,
    "unar_const": Signature(functions=(("F", 1),), constants=("c",)),
    "binary_function": Signature(functions=(("G", 2),)),
    "unary_binary": Signature(predicates=(("P", 1), ("R", 2))),
    "mixed": Signature(predicates=(("P", 1),), functions=(("F", 1),), constants=("c",)),
}


@st.composite
def random_structures(draw, sig, n):
    preds = {
        name: {t for t in itertools.product(range(n), repeat=arity) if draw(st.booleans())}
        for name, arity in sig.predicates
    }
    values = st.integers(0, n - 1)
    funcs = {
        name: {t: draw(values) for t in itertools.product(range(n), repeat=arity)}
        for name, arity in sig.functions
    }
    consts = {name: draw(values) for name in sig.constants}
    return Structure(sig, n, preds, funcs, consts)


def relabel(s, perm):
    """The copy of ``s`` with each element x renamed perm[x]."""
    return Structure(
        s.signature,
        s.size,
        {name: {tuple(perm[x] for x in t) for t in rel} for name, rel in s.predicates.items()},
        {
            name: {tuple(perm[x] for x in t): perm[v] for t, v in table.items()}
            for name, table in s.functions.items()
        },
        {name: perm[v] for name, v in s.constants.items()},
    )


def near_copy(data, s):
    """A relabelled copy of ``s``, sometimes with one predicate bit, function
    value or constant redrawn, so that pairs are often nearly isomorphic."""
    n = s.size
    sig = s.signature
    preds = {name: set(rel) for name, rel in s.predicates.items()}
    funcs = {name: dict(table) for name, table in s.functions.items()}
    consts = dict(s.constants)
    slots = (
        [("P", name, arity) for name, arity in sig.predicates]
        + [("F", name, arity) for name, arity in sig.functions]
        + [("C", name, 0) for name in sig.constants]
    )
    if data.draw(st.booleans()):
        kind, name, arity = data.draw(st.sampled_from(slots))
        args = tuple(data.draw(st.integers(0, n - 1)) for _ in range(arity))
        if kind == "P":
            preds[name] ^= {args}
        elif kind == "F":
            funcs[name][args] = data.draw(st.integers(0, n - 1))
        else:
            consts[name] = data.draw(st.integers(0, n - 1))
    changed = Structure(sig, n, preds, funcs, consts)
    return relabel(changed, data.draw(st.permutations(range(n))))


def rewired(data, s):
    """A relabelled copy of ``s`` in which two tuples of one predicate trade
    their elements at one position, or two entries of one function trade
    their values.  Each element keeps its count at every predicate position
    and its number of preimages, so the profiles often agree although the
    structures differ."""
    n = s.size
    preds = {name: set(rel) for name, rel in s.predicates.items()}
    funcs = {name: dict(table) for name, table in s.functions.items()}
    slots = [
        (preds, name) for name, rel in preds.items() if len(rel) > 1
    ] + [(funcs, name) for name, table in funcs.items() if len(table) > 1]
    if slots:
        tables, name = data.draw(st.sampled_from(slots))
        t, u = data.draw(st.lists(st.sampled_from(sorted(tables[name])),
                                  min_size=2, max_size=2, unique=True))
        if tables is funcs:
            funcs[name][t], funcs[name][u] = funcs[name][u], funcs[name][t]
        else:
            pos = data.draw(st.integers(0, len(t) - 1))
            traded = {t[:pos] + u[pos:pos + 1] + t[pos + 1:],
                      u[:pos] + t[pos:pos + 1] + u[pos + 1:]}
            if not traded & preds[name]:
                preds[name] = (preds[name] - {t, u}) | traded
    changed = Structure(s.signature, n, preds, funcs, dict(s.constants))
    return relabel(changed, data.draw(st.permutations(range(n))))


@pytest.mark.parametrize("label", list(KERNEL_SIGNATURES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_key_is_invariant_under_relabelling(label, data):
    sig = KERNEL_SIGNATURES[label]
    s = data.draw(random_structures(sig, data.draw(st.integers(1, 4))))
    perm = data.draw(st.permutations(range(s.size)))
    assert canonical_key(relabel(s, perm)) == canonical_key(s)


@pytest.mark.parametrize("label", list(KERNEL_SIGNATURES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_keys_agree_iff_isomorphic(label, data):
    sig = KERNEL_SIGNATURES[label]
    a = data.draw(random_structures(sig, data.draw(st.integers(1, 4))))
    b = near_copy(data, a)
    assert (canonical_key(a) == canonical_key(b)) == (find_isomorphism(a, b) is not None)


# SHA-256 of the Structure.key() list of the iso-class representatives, in
# enumeration order, as the exhaustive n!-permutation canonical form gave it;
# the last three as the scan of every labelled structure gave them.
ENUMERATION_ORDER_PINS = {
    ("unar", 1): "cb8ac0c88f108fe66715288091d8f01ff0fa18ee198caa2592cf81775adc3831",
    ("unar", 2): "e1b8af00d15221ac6566bbaeaf1eea5835bf8404ed7d39d323b77649148a8f00",
    ("unar", 3): "a319229b6165da31e8397878abe1efb6f9df4b74058e5a4e0ce68479c3d68849",
    ("unar", 4): "ca274035da49b8aa7405a62780eabedb3d98e0bcebc6140d2f0355c45a46f057",
    ("unar", 5): "94d176ebc72bbdc7b2f9348371f4735b073ec5c2cc9f95852975a952ac9f70c7",
    ("unar_const", 1): "67fec7e6bd30887b1aa96d9063ab756710522dd2e0c42194f17e015ff151ae36",
    ("unar_const", 2): "7c29721303311ebd9fd845dd1be03c2cb1e7042657a0554ce3bbd3d0ad8beaaa",
    ("unar_const", 3): "d28d55938ad5b86577b355e3709221ab274716e0bacefff93042b794e9832a48",
    ("unar_const", 4): "18dd0481a6b69db10877dae2178d2475c381f463a57993729ba1d85212798f51",
    ("mixed", 2): "7a961e95f724285c61f64c252a2b71c7390bd57ab11bb912e4ee6cea37833a8e",
    ("unar", 6): "122fbdc381b72046eaccf6f52a33b67db68232e7788787518bf208db496c9fd4",
    ("unar_const", 5): "8f7159026f4e4371e7a6bca5da30d22dbfec7e72a826181f38eb04aeed9e97b4",
    ("binary_function", 2): "b18dc42fa40c1f65d1f7c782fdce9fc590b6c91d92d26d9039f55dd8a64af01a",
    ("binary_function", 3): "d308a06a5496d21b26e055fbda70bbaba62ce9a9d352a97199c73b72cd31d7d6",
    ("mixed", 3): "5babb86d73064ace964e51c1fa142df477f72927e6f6f1b512fa0f5dd92c651d",
    ("unar", 7): "9afb40f306d817115a047ee14d0db7640ef4a00e9e0c52006a13178c9a7b307a",
    ("unar_const", 6): "03dc1be50211aba8dc6e0335143277bfd1dee96fa7a851519fea2b609e8cbee2",
    ("mixed", 4): "fe9179e9f5a9d585416407c75af66df6cba9a7db8d6ce2193f92bee13dfcf259",
}


@pytest.mark.parametrize("label,n", list(ENUMERATION_ORDER_PINS))
def test_generic_iso_enumeration_order_pins(label, n):
    keys = [s.key() for s in enumerate_structures(KERNEL_SIGNATURES[label], n, up_to_iso=True)]
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest == ENUMERATION_ORDER_PINS[(label, n)]


# Largest size at which each signature's representatives are compared with
# the first labelled member per canonical key, over every labelled structure.
EXHAUSTIVE_SIZES = {
    "unar": 4,
    "unar_const": 4,
    "binary_function": 3,
    "unary_binary": 3,
    "mixed": 4,
    "consts3": 4,
}
ORBIT_SIGNATURES = {**KERNEL_SIGNATURES, "consts3": corpus.CONSTS3}


@pytest.mark.parametrize("label", list(EXHAUSTIVE_SIZES))
def test_least_in_orbit_keeps_the_first_member_per_canonical_key(label):
    sig = ORBIT_SIGNATURES[label]
    for n in range(1, EXHAUSTIVE_SIZES[label] + 1):
        structures._GENERIC_ISO.pop((sig, n), None)
        reps = [
            structures._structure_from_indices(sig, n, indices)
            for indices in structures._generic_iso_indices(sig, n)
        ]
        assert reps == _generic_iso_representatives(sig, n), n


def index_tuple(s):
    """The labelled enumeration's index tuple of ``s``: a mask per predicate
    (tuple rank r on bit r), a base-n code per function (rank 0 most
    significant), a value per constant."""
    n = s.size
    sig = s.signature
    indices = [
        sum(1 << rank for rank, t in enumerate(itertools.product(range(n), repeat=arity))
            if t in s.predicates[name])
        for name, arity in sig.predicates
    ]
    for name, arity in sig.functions:
        code = 0
        for t in itertools.product(range(n), repeat=arity):
            code = code * n + s.functions[name][t]
        indices.append(code)
    return tuple(indices + [s.constants[name] for name in sig.constants])


@pytest.mark.parametrize("label", list(ORBIT_SIGNATURES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exactly_the_least_member_of_an_orbit_is_least_in_orbit(label, data):
    sig = ORBIT_SIGNATURES[label]
    s = data.draw(random_structures(sig, data.draw(st.integers(1, 4))))
    assert structures._structure_from_indices(sig, s.size, index_tuple(s)) == s
    orbit = {index_tuple(relabel(s, perm)) for perm in itertools.permutations(range(s.size))}
    passing = [i for i in sorted(orbit) if reference.least_in_orbit(sig, s.size, i)]
    assert passing == [min(orbit)]


# --- find_isomorphism -------------------------------------------------------


def test_find_isomorphism_cycles():
    a = unar(3, {0: 1, 1: 2, 2: 0})
    b = unar(3, {0: 2, 1: 0, 2: 1})
    mapping = find_isomorphism(a, b)
    assert mapping is not None
    assert check_isomorphism(a, b, mapping)


def test_find_isomorphism_cycle_vs_fixed_points():
    a = unar(3, {0: 1, 1: 2, 2: 0})
    b = unar(3, {0: 0, 1: 1, 2: 2})
    assert find_isomorphism(a, b) is None


def test_find_isomorphism_identity():
    a = z4_successor()
    mapping = find_isomorphism(a, a)
    assert mapping is not None
    assert check_isomorphism(a, a, mapping)


def test_find_isomorphism_signature_mismatch():
    with pytest.raises(ValueError):
        find_isomorphism(z4_successor(), digraph(4, []))


def test_find_isomorphism_agrees_with_oracle_on_digraphs():
    structures = (
        list(enumerate_structures(BINARY, 2))
        + list(itertools.islice(enumerate_structures(BINARY, 3), 0, 64, 7))
        + list(itertools.islice(enumerate_structures(BINARY, 4), 0, 4096, 509))
    )
    for a, b in itertools.combinations(structures, 2):
        if a.size != b.size:
            continue
        ours = find_isomorphism(a, b)
        oracle = iso_oracle(a, b)
        assert (ours is None) == (oracle is None)
        if ours is not None:
            assert check_isomorphism(a, b, ours)


def test_find_isomorphism_on_fragments_checks_escapes():
    s = z4_successor()
    fixed = unar(1, {0: 0})
    f_escapes = induced_fragment(s, {0})
    f_fixed = induced_fragment(fixed, {0})
    assert find_isomorphism(f_escapes, f_fixed) is None
    g = induced_fragment(s, {2})
    mapping = find_isomorphism(f_escapes, g)
    assert mapping == {0: 2}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_find_isomorphism_returns_the_full_recheck_mapping(data):
    # checking only what each new pair changes prunes exactly where the
    # whole-map re-check does, so both searches return the same mapping
    sig = data.draw(st.sampled_from((BINARY, UNAR, KERNEL_SIGNATURES["mixed"])))
    n = data.draw(st.integers(1, 4))
    a = data.draw(random_structures(sig, n))
    b = near_copy(data, a)
    perm = data.draw(st.permutations(range(n)))
    carrier = data.draw(st.sets(st.integers(0, n - 1)))
    other = data.draw(st.sets(st.integers(0, n - 1), min_size=len(carrier), max_size=len(carrier)))
    fragment = induced_fragment(a, carrier)
    pairs = [
        (a, b),
        (fragment, induced_fragment(b, other)),
        (fragment, induced_fragment(relabel(a, perm), {perm[x] for x in carrier})),
    ]
    for x, y in pairs:
        assert find_isomorphism(x, y) == reference.find_isomorphism(x, y)


def _distinct_profiles(x):
    profiles = list(structures._element_profiles(x).values())
    return len(set(profiles)) == len(profiles)


def _searched(x, y):
    """``find_isomorphism(x, y)`` and the ``new`` argument of each
    ``_map_mismatches`` call it made: None for a check of a whole map."""
    calls = []
    whole = structures._map_mismatches

    def recording(a, b, mapping, new=None):
        calls.append(new)
        return whole(a, b, mapping, new)

    with mock.patch.object(structures, "_map_mismatches", recording):
        return find_isomorphism(x, y), calls


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_find_isomorphism_checks_a_forced_map_once(data):
    # when every element has a profile of its own, one map keeps them all:
    # it is checked once, whole, with no backtracking, and it is the map
    # the reference search returns; a rewired copy keeps the profiles, so
    # its forced map is often refused only by that check
    sig = data.draw(st.sampled_from((BINARY, UNAR, KERNEL_SIGNATURES["mixed"])))
    n = data.draw(st.integers(1, 4))
    s = data.draw(random_structures(sig, n))
    perm = data.draw(st.permutations(range(n)))
    if data.draw(st.booleans()):
        a = induced_fragment(s, data.draw(st.sets(st.integers(0, n - 1))))
        copy = induced_fragment(relabel(s, perm), {perm[x] for x in a.carrier})
        other = data.draw(st.sets(st.integers(0, n - 1), min_size=len(a.carrier),
                                  max_size=len(a.carrier)))
        near = induced_fragment(near_copy(data, s), other)
        traded = induced_fragment(rewired(data, s), other)
    else:
        a = s
        copy = relabel(a, perm)
        near = near_copy(data, a)
        traded = rewired(data, a)
    assume(_distinct_profiles(a))
    for b in (copy, near, traded):
        got, calls = _searched(a, b)
        same = sorted(structures._element_profiles(a).values()) == sorted(
            structures._element_profiles(b).values())
        # the forced path ran: one whole-map check, or none when the
        # profile multisets already differ
        assert calls == ([None] if same else [])
        assert got == reference.find_isomorphism(a, b)
        if b is copy:
            assert got is not None
        if got is not None:
            assert list(got) == sorted(got)
            assert check_isomorphism(a, b, got)


def test_find_isomorphism_refuses_a_forced_map_that_fails():
    # 3 -> 2 -> 1 -> 0, F(0) = 0, c = 2 against 1 -> 0, F(0) = 0, 2 <-> 3,
    # c = 2: every profile is its own and the multisets agree, but the one
    # map that keeps them sends 3 -> 1 and F(3) = 2 to F(1) = 0, not to 2
    sig = KERNEL_SIGNATURES["unar_const"]
    a = Structure(sig, 4, {}, {"F": {(0,): 0, (1,): 0, (2,): 1, (3,): 2}}, {"c": 2})
    b = Structure(sig, 4, {}, {"F": {(0,): 0, (1,): 0, (2,): 3, (3,): 2}}, {"c": 2})
    assert _distinct_profiles(a)
    got, calls = _searched(a, b)
    assert got is None and calls == [None]
    assert reference.find_isomorphism(a, b) is None


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_element_profiles_match_the_walk_per_element(data):
    # one walk of each table gives every element the profile that one walk
    # of every table per element gives, on structures and on fragments,
    # whose escaping entries and constants count too
    sig = data.draw(st.sampled_from(
        (BINARY, *KERNEL_SIGNATURES.values(), BINARY_FUNCTION_CONST)))
    n = data.draw(st.integers(1, 4))
    s = data.draw(random_structures(sig, n))
    fragment = induced_fragment(s, data.draw(st.sets(st.integers(0, n - 1))))
    for x in (s, fragment):
        assert structures._element_profiles(x) == {
            e: reference.element_profile(x, e) for e in structures._carrier(x)
        }


# --- fragment_occurs --------------------------------------------------------


def test_fragment_occurs_escaping_point_in_cycle():
    f = induced_fragment(z4_successor(), {0})
    embeddings = fragment_occurs(f, z4_successor())
    assert len(embeddings) == 4


def test_fragment_occurs_pattern_mismatch():
    f = induced_fragment(z4_successor(), {0})
    assert fragment_occurs(f, unar(1, {0: 0})) == []


def test_fragment_occurs_empty_carrier_is_trivial():
    f = Fragment(UNAR, 4, frozenset())
    assert fragment_occurs(f, z4_successor()) == [{}]


def test_fragment_occurs_respects_predicates():
    loop = induced_fragment(digraph(2, [(0, 0)]), {0})
    s = digraph(3, [(0, 0), (1, 2)])
    assert fragment_occurs(loop, s) == [{0: 0}]


def _renamed_fragment(f, mapping, s):
    """``f`` carried through ``mapping`` into the universe of ``s``."""
    def move(v):
        return v if v is ESCAPES else mapping[v]

    return Fragment(
        f.signature, s.size, frozenset(mapping.values()),
        {name: {tuple(map(move, t)) for t in rel} for name, rel in f.predicates.items()},
        {name: {tuple(map(move, t)): move(v) for t, v in table.items()}
         for name, table in f.functions.items()},
        {name: move(v) for name, v in f.constants.items()},
    )


def fragment_occurs_oracle(f, s):
    """Every injective map under which ``f``, renamed, is the fragment of
    ``s`` on the image."""
    domain = sorted(f.carrier)
    found = []
    for image in itertools.permutations(range(s.size), len(domain)):
        mapping = dict(zip(domain, image))
        if _renamed_fragment(f, mapping, s) == induced_fragment(s, image):
            found.append(mapping)
    return found


@pytest.mark.parametrize("sig", [
    Signature(predicates=(("P", 1),), functions=(("F", 1),), constants=("c",)),
    BINARY,
], ids=["P-F-c", "R"])
def test_fragment_occurs_matches_renaming_oracle(sig):
    # every fragment of every structure of at most 3 points, placed by
    # every injective map into that structure
    occurrences = 0
    for n in (1, 2, 3):
        for s in enumerate_structures(sig, n):
            for k in range(n + 1):
                for carrier in itertools.combinations(range(n), k):
                    f = induced_fragment(s, carrier)
                    found = fragment_occurs(f, s)
                    assert found == fragment_occurs_oracle(f, s)
                    occurrences += len(found)
    assert occurrences > sum(len(list(enumerate_structures(sig, n))) for n in (1, 2, 3))


# --- text format ------------------------------------------------------------

SAMPLE = """\
# sample file
signature
predicate R 2
function F 1
constant c
end
structure A
universe 3
R 0 1
R 1 2   # comment after entry
F 0 -> 1
F 1 -> 2
F 2 -> 0
c 0
end
"""


def test_parse_structures_roundtrip():
    sig, structures = parse_structures(SAMPLE)
    assert sig == Signature((("R", 2),), (("F", 1),), ("c",))
    s = structures["A"]
    assert validate_structure(sig, s) == []
    assert s.predicates["R"] == frozenset({(0, 1), (1, 2)})
    assert s.constants["c"] == 0
    text = render_structures(sig, structures)
    sig2, structures2 = parse_structures(text)
    assert sig2 == sig and structures2 == structures


def test_parse_structures_errors_carry_line_numbers():
    bad = SAMPLE.replace("F 1 -> 2", "F 1 2")
    with pytest.raises(StructureFormatError) as exc:
        parse_structures(bad)
    assert exc.value.line is not None
    with pytest.raises(StructureFormatError):
        parse_structures("signature\nend\n")
    with pytest.raises(StructureFormatError):
        parse_structures("structure A\nuniverse 1\nend\n")


@pytest.mark.parametrize(
    "old, new, message, line",
    [
        ("F 1 -> 2", "F 1 2", "function entry for F needs '->'", 12),
        ("R 0 1\n", "R 0 1 2\n", "R expects 2 arguments", 9),
        ("R 0 1\n", "R 0 x\n",
         "bad integer in entry: invalid literal for int() with base 10: 'x'", 9),
        ("predicate R 2", "predicate R x", "arity of R must be a positive integer", 3),
        ("function F 1", "function F 0", "arity of F must be a positive integer", 4),
    ],
    ids=["no_arrow", "argument_count", "bad_integer", "arity_not_integer", "arity_zero"],
)
def test_parse_structures_error_message_and_line(old, new, message, line):
    with pytest.raises(StructureFormatError) as exc:
        parse_structures(SAMPLE.replace(old, new))
    assert (exc.value.message, exc.value.line) == (message, line)


def test_power_exceeds_reads_the_cap_bit_length():
    assert all(
        power_exceeds(bits, cap) == (2**bits > cap) for bits in range(40) for cap in range(0, 5000, 7)
    )
    assert power_exceeds(10**11, 5_000_000) and not power_exceeds(22, 5_000_000)


def test_power_cap_takes_no_power_past_a_printable_bound():
    def never():
        raise AssertionError("the count was taken")

    with pytest.raises(CapExceededError, match=r"^enumeration of at least 2\^100000000000 things"
                                               r" exceeds the cap of 10$"):
        check_power_cap(10**11, 10, "things", never)
    # a printable bound, or one under the cap, compares the exact count
    with pytest.raises(CapExceededError, match=r"^enumeration of 1025 things exceeds the cap"):
        check_power_cap(10, 1024, "things", lambda: 1025)
    with pytest.raises(CapExceededError, match=r"at least 2\^4097 things exceeds the cap of 10$"):
        check_power_cap(4097, 10, "things", never)
    check_power_cap(4097, 2**4098, "things", lambda: 2**4097)
    check_power_cap(10, 1024, "things", lambda: 1024)
