import dataclasses
import itertools
import random
import time

import pytest

from subsat import products
from subsat.logic import parse_formula, evaluate_fo
from subsat.products import (
    DEFAULT_PRODUCT_CAP,
    CoherentSystem,
    IndexFilter,
    IndexIdeal,
    canonical_embedding,
    coherence_check,
    extend_filter,
    filter_from_members,
    induced_system,
    parse_ideal_file,
    powerset_ideal,
    principal_filter,
    reduced_product,
    render_ideal_file,
    upper_cone_filter,
    validate_filter,
    validate_ideal,
)
from subsat.structures import CapExceededError, Signature, Structure, find_isomorphism

BINARY = Signature(predicates=(("R", 2),))
UNAR = Signature(functions=(("F", 1),))
FULL = Signature(predicates=(("R", 2),), functions=(("F", 1),), constants=("c",))


def digraph(n, edges):
    return Structure(BINARY, n, predicates={"R": set(edges)})


def fs(*xs):
    return frozenset(xs)


def _all_subfamilies(family):
    members = sorted(family, key=lambda s: (len(s), sorted(s)))
    for k in range(len(members) + 1):
        for combo in itertools.combinations(members, k):
            yield frozenset(combo)


def members_of(filt):
    # the filter enumerated from its kernel: every superset of the kernel
    return {filt.kernel | extra for extra in _all_subfamilies(filt.family - filt.kernel)}


def chain_family(k):
    return frozenset(frozenset(range(j)) for j in range(k + 1))


# --- ideals and filters -------------------------------------------------------


def test_validate_ideal_powerset_ok():
    assert validate_ideal(powerset_ideal({0, 1, 2})) == []


def test_powerset_refuses_before_enumerating():
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="1073741824 subsets") as exc:
        powerset_ideal(range(30))
    assert (exc.value.count, exc.value.cap) == (2**30, DEFAULT_PRODUCT_CAP)
    singletons = frozenset(frozenset({i}) for i in range(30))
    with pytest.raises(CapExceededError, match="1073741824 subsets"):
        render_ideal_file(IndexIdeal(range(30), singletons), IndexFilter(singletons, frozenset()))
    assert time.perf_counter() - start < 1.0


def test_validate_ideal_downward_closure_violation():
    ideal = IndexIdeal({0, 1}, {fs(), fs(0, 1), fs(1)})
    violations = validate_ideal(ideal)
    assert any("downward" in v and "{0}" in v for v in violations)


def test_validate_ideal_union_closure_and_cover():
    ideal = IndexIdeal({0, 1, 2}, {fs(), fs(0), fs(1)})
    violations = validate_ideal(ideal)
    assert any("union" in v for v in violations)


def test_validate_filter_properness():
    family = fs(fs(0), fs(0, 1))
    filt = IndexFilter(family, frozenset())  # every subfamily, the empty one too
    assert any("empty set" in v for v in validate_filter(filt))
    outside = IndexFilter(family, {fs(1)})  # no subfamily contains {1}
    assert any("filter is empty" in v for v in validate_filter(outside))


def test_upper_cone_filter_powerset_of_two():
    ideal = powerset_ideal({0, 1})
    filt = upper_cone_filter(ideal)
    assert validate_filter(filt) == []
    top = fs(0, 1)
    # members are exactly the subfamilies that contain some cone
    for member in _all_subfamilies(ideal.sets):
        assert (member in filt) == any(
            frozenset(j for j in ideal.sets if i <= j) <= member for i in ideal.sets
        )
    assert frozenset(ideal.sets) in filt
    assert fs(top) in filt  # the cone at the top itself


def test_upper_cone_filter_two_element_chain():
    ideal = IndexIdeal({0}, {fs(), fs(0)})
    filt = upper_cone_filter(ideal)
    whole = fs(fs(), fs(0))
    assert filt.kernel == fs(fs(0))
    assert members_of(filt) == {whole, fs(fs(0))}


def test_ultrafilter_extension_passes_validation():
    ideal = powerset_ideal({0, 1})
    filt = upper_cone_filter(ideal)
    ultra = principal_filter(ideal.sets, fs(0, 1))
    assert validate_filter(ultra) == []
    assert members_of(filt) <= members_of(ultra)


def test_extend_filter_stays_proper_or_none():
    ideal = powerset_ideal({0, 1})
    filt = upper_cone_filter(ideal)
    extra = frozenset({fs(0), fs(0, 1)})
    extended = extend_filter(filt, extra)
    assert extended is not None
    assert validate_filter(extended) == []
    assert members_of(filt) <= members_of(extended)
    # extending by a set disjoint from the top cone is improper
    hopeless = frozenset({fs()})
    assert extend_filter(filt, hopeless) is None


def test_cone_filter_is_the_top_ultrafilter():
    families = [frozenset(powerset_ideal(range(n)).sets) for n in range(4)]
    families += [chain_family(k) for k in range(7)]
    for family in families:
        top = frozenset().union(*family)
        cone = upper_cone_filter(family)
        assert cone == principal_filter(family, top)
        for extra in _all_subfamilies(family):
            assert extend_filter(cone, extra) == (cone if top in extra else None)


def test_upper_cone_filter_rejects_undirected_family():
    with pytest.raises(ValueError, match="not directed"):
        upper_cone_filter([fs(0), fs(1)])


# --- reduced products ----------------------------------------------------------


def test_reduced_product_principal_ultrafilter_collapse():
    family = [fs(0), fs(1)]
    components = {fs(0): digraph(2, [(0, 1)]), fs(1): digraph(3, [(0, 0), (1, 2)])}
    for j in family:
        filt = principal_filter(family, j)
        rp = reduced_product(components, filt)
        assert find_isomorphism(rp.structure, components[j]) is not None


def test_reduced_product_trivial_filter_counts_pairs():
    family = [fs(0), fs(1)]
    components = {fs(0): digraph(2, []), fs(1): digraph(3, [])}
    filt = IndexFilter(frozenset(family), frozenset(family))  # the filter {family}
    rp = reduced_product(components, filt)
    assert rp.structure.size == 6


def test_reduced_product_diagonal_embedding():
    b = digraph(2, [(0, 1), (1, 1)])
    family = [fs(0), fs(1), fs(0, 1)]
    components = {i: b for i in family}
    filt = upper_cone_filter([fs(0), fs(1), fs(0, 1)])
    rp = reduced_product(components, filt)
    diag = [rp.class_of_function((e, e, e)) for e in range(2)]
    assert len(set(diag)) == 2
    for s, t in itertools.product(range(2), repeat=2):
        assert ((s, t) in b.predicates["R"]) == (
            (diag[s], diag[t]) in rp.structure.predicates["R"]
        )


def textbook_reduced_product(components, filt):
    """The quotient by the definition: choice functions f ~ g iff the set
    of indices where they agree lies in the filter, with the filter listed
    member by member; classes are numbered in order of first member."""
    order = sorted(filt.family, key=lambda s: (len(s), sorted(s)))
    comps = [components[i] for i in order]
    members = members_of(filt)

    def agreement(holds):
        return frozenset(i for k, i in enumerate(order) if holds(k))

    reps, class_of = [], {}
    for cf in itertools.product(*(range(c.size) for c in comps)):
        related = [
            cid for cid, r in enumerate(reps)
            if agreement(lambda k: cf[k] == r[k]) in members
        ]
        assert len(related) <= 1
        if not related:
            related = [len(reps)]
            reps.append(cf)
        class_of[cf] = related[0]

    sig = comps[0].signature
    size = len(reps)
    preds = {
        name: {
            args for args in itertools.product(range(size), repeat=arity)
            if agreement(
                lambda k: tuple(reps[a][k] for a in args) in comps[k].predicates[name]
            ) in members
        }
        for name, arity in sig.predicates
    }
    funcs = {
        name: {
            args: class_of[tuple(
                c.functions[name][tuple(reps[a][k] for a in args)]
                for k, c in enumerate(comps)
            )]
            for args in itertools.product(range(size), repeat=arity)
        }
        for name, arity in sig.functions
    }
    consts = {
        name: class_of[tuple(c.constants[name] for c in comps)] for name in sig.constants
    }
    return Structure(sig, size, preds, funcs, consts), class_of


def generated_filters(family, rng):
    """The cone, every principal filter, and four seeded extensions of the
    filter {family} (kernels that are random subfamilies)."""
    filters = [upper_cone_filter(family)]
    filters += [principal_filter(family, j) for j in family]
    whole = IndexFilter(family, family)
    candidates = list(_all_subfamilies(family))
    while len(filters) < len(family) + 5:
        extended = extend_filter(whole, candidates[rng.randrange(len(candidates))])
        if extended is not None:
            filters.append(extended)
    return filters


def assert_matches_textbook(components, filt):
    rp = reduced_product(components, filt)
    structure, class_of = textbook_reduced_product(components, filt)
    assert rp.structure == structure
    assert len(rp.choice_functions) == len(class_of)
    for cf, cid in class_of.items():
        assert rp.class_of_function(cf) == cid


def test_reduced_product_matches_textbook_definition():
    rng = random.Random(20261018)
    families = [frozenset(powerset_ideal(range(n)).sets) for n in (1, 2, 3)]
    families += [chain_family(k) for k in range(1, 6)]
    checked = 0
    for family in families:
        n = len(frozenset().union(*family))
        for _ in range(2):
            edges = [t for t in itertools.product(range(n), repeat=2) if rng.random() < 0.4]
            system = induced_system(digraph(n, edges), family)
            for filt in generated_filters(family, rng):
                assert_matches_textbook(system.components, filt)
                checked += 1
    assert checked >= 100


def test_reduced_product_matches_textbook_with_functions_and_constants():
    sig = Signature(functions=(("F", 1), ("G", 2)), constants=("c",))
    family = frozenset(powerset_ideal({0, 1}).sets)
    components = {}
    for i in family:
        m = len(i) + 1  # the cyclic group Z_m with a shifted constant
        components[i] = Structure(
            sig, m,
            functions={
                "F": {(x,): (x + 1) % m for x in range(m)},
                "G": {(x, y): (x + y) % m for x in range(m) for y in range(m)},
            },
            constants={"c": len(i) % m},
        )
    for kernel in _all_subfamilies(family):
        if kernel:
            assert_matches_textbook(components, IndexFilter(family, kernel))


def test_reduced_product_cap_counts_every_choice_function():
    # the filter {family} on the 5-point powerset: its kernel is the whole
    # family, so the quotient's elements are all 1 * 1^5 * 2^10 * 3^10 *
    # 4^5 * 5 choice functions, refused in full before any is built
    family = powerset_ideal(range(5)).sets
    system = induced_system(digraph(5, []), family)
    with pytest.raises(CapExceededError) as exc:
        reduced_product(system.components, IndexFilter(family, family))
    assert exc.value.count == 309586821120
    assert "quotient elements and table entries" in str(exc.value)
    # the cone filter's kernel is the top alone: one 5-point component
    rp = reduced_product(system.components, upper_cone_filter(family))
    assert rp.choice_functions.total == 309586821120
    assert rp.structure.size == 5


def test_reduced_product_cap_counts_function_table_entries():
    # 7 * 143 = 1001 classes fit the cap, their binary table does not
    sig = Signature(functions=(("G", 2),))
    family = frozenset({fs(0), fs(1)})

    def constant(m):
        table = dict.fromkeys(itertools.product(range(m), repeat=2), 0)
        return Structure(sig, m, functions={"G": table})

    components = {fs(0): constant(7), fs(1): constant(143)}
    with pytest.raises(CapExceededError) as exc:
        reduced_product(components, IndexFilter(family, family))
    assert exc.value.count == 1001 + 1001**2
    assert reduced_product(components, principal_filter(family, fs(1))).structure.size == 143


def test_reduced_product_refuses_before_building_any_table(monkeypatch):
    # 101 * 100 * 100 classes: ranking a function value or a constant, or
    # building the structure, would be recorded
    built = []
    monkeypatch.setattr(products, "_trusted_structure", lambda *args: built.append(args))
    monkeypatch.setattr(products, "_rank", lambda *args: built.append(args))

    def component(m):
        return Structure(FULL, m, {"R": {(0, 0)}}, {"F": {(x,): x for x in range(m)}}, {"c": 0})

    components = {fs(0): component(101), fs(1): component(100), fs(0, 1): component(100)}
    family = frozenset(components)
    with pytest.raises(CapExceededError) as exc:
        reduced_product(components, IndexFilter(family, family))
    assert exc.value.count == 1_010_000 + 1 + 1_010_000
    assert built == []


def test_choice_functions_are_a_lazy_view_in_product_order():
    components = {fs(0): digraph(2, []), fs(1): digraph(3, []), fs(0, 1): digraph(1, [])}
    family = frozenset(components)
    rp = reduced_product(components, upper_cone_filter(family))
    view = rp.choice_functions
    # index order: {0}, {1}, {0,1}
    assert list(view) == list(itertools.product(range(2), range(3), range(1)))
    assert len(view) == view.total == 6
    big = products.ChoiceFunctions((6,) * 40)
    assert big.total == 6**40
    with pytest.raises(OverflowError):
        len(big)
    assert next(iter(big)) == (0,) * 40


# --- coherent systems -----------------------------------------------------------


def test_coherence_check_induced_substructures():
    parent = digraph(3, [(0, 1), (1, 2)])
    family = [fs(0), fs(1), fs(2), fs(0, 1), fs(1, 2), fs(0, 2), fs(0, 1, 2)]
    system = induced_system(parent, family)
    assert coherence_check(system) == []


def test_coherence_check_detects_extra_loop():
    parent = digraph(2, [(0, 1)])
    system = induced_system(parent, [fs(0), fs(1), fs(0, 1)])
    bad = Structure(BINARY, 1, predicates={"R": {(0, 0)}})
    system.components[fs(0)] = bad
    violations = coherence_check(system)
    assert any("i={0}" in v and "R" in v for v in violations)


def test_coherence_check_detects_missing_element():
    parent = digraph(2, [(0, 1)])
    system = induced_system(parent, [fs(0), fs(1), fs(0, 1)])
    system.injections[fs(0, 1)] = {0: 0}
    violations = coherence_check(system)
    assert any("injection" in v for v in violations)


def test_coherent_unar_system_function_fragments():
    sig = UNAR
    parent = Structure(sig, 4, functions={"F": {(0,): 1, (1,): 2, (2,): 3, (3,): 0}})
    # components: generated submodels over each index set (whole cycle),
    # mapped through the identity injection
    family = [fs(0), fs(0, 1), fs(0, 1, 2, 3)]
    components = {i: parent for i in family}
    injections = {i: {e: e for e in i} for i in family}
    system = CoherentSystem(parent, components, injections)
    assert coherence_check(system) == []


def test_coherence_check_names_every_mismatch_in_order():
    # R(0,1), F: 0 -> 0, 1 -> 2, 2 -> 2, c = 0
    parent = Structure(FULL, 3, {"R": {(0, 1)}}, {"F": {(0,): 0, (1,): 2, (2,): 2}}, {"c": 0})
    system = CoherentSystem(
        parent,
        {
            fs(1): parent,
            # an extra loop; F(0) lands on 1; F(1) stays inside where the
            # parent's escapes; c leaves the image {0,1}
            fs(0, 1): Structure(FULL, 3, {"R": {(0, 0), (0, 1)}},
                                {"F": {(0,): 1, (1,): 1, (2,): 2}}, {"c": 2}),
            # F(0) leaves the image {0,1} where the parent's stays inside
            fs(0, 2): Structure(FULL, 3, {}, {"F": {(0,): 2, (1,): 1, (2,): 1}}, {"c": 0}),
            fs(1, 2): parent,
            # c moves to 1
            fs(0, 1, 2): Structure(FULL, 3, {"R": {(0, 1)}},
                                   {"F": {(0,): 0, (1,): 2, (2,): 2}}, {"c": 1}),
        },
        {
            fs(1): {1: 5},
            fs(0, 1): {0: 0, 1: 1},
            fs(0, 2): {0: 0, 2: 1},
            fs(1, 2): {1: 0, 2: 0},
            fs(0, 1, 2): {0: 0, 1: 1, 2: 2},
        },
    )
    assert coherence_check(system) == [
        "i={1}: injection leaves the component universe",
        "i={0,1}: fragments disagree on R(0, 0)",
        "i={0,1}: fragments disagree at F(0,)",
        "i={0,1}: ESCAPES patterns differ at F(1,)",
        "i={0,1}: constant c inside/outside mismatch",
        "i={0,2}: ESCAPES patterns differ at F(0,)",
        "i={1,2}: injection is not injective",
        "i={0,1,2}: constant c maps differently",
    ]


# --- canonical embedding ---------------------------------------------------------


def test_canonical_embedding_linear_order():
    parent = digraph(3, [(0, 1), (0, 2), (1, 2)])
    ideal = powerset_ideal({0, 1, 2})
    system = induced_system(parent, ideal.sets)
    filt = upper_cone_filter(ideal)
    report = canonical_embedding(system, filt)
    assert report.passed
    assert report.injective and report.predicates_ok


def test_canonical_embedding_unar_function_commutation():
    parent = Structure(UNAR, 4, functions={"F": {(0,): 1, (1,): 2, (2,): 3, (3,): 0}})
    # a directed covering chain; every index set generates the whole cycle,
    # so coherent components must repeat the parent itself
    family = [fs(), fs(0), fs(0, 1), fs(0, 1, 2), fs(0, 1, 2, 3)]
    components = {}
    injections = {}
    for i in family:
        if not i:
            components[i] = Structure(UNAR, 1, functions={"F": {(0,): 0}})
            injections[i] = {}
        else:
            components[i] = parent
            injections[i] = {e: e for e in i}
    system = CoherentSystem(parent, components, injections)
    filt = upper_cone_filter(family)
    report = canonical_embedding(system, filt)
    assert report.functions_ok
    assert report.passed


def test_canonical_embedding_single_point():
    parent = digraph(1, [(0, 0)])
    ideal = powerset_ideal({0})
    system = induced_system(parent, ideal.sets)
    report = canonical_embedding(system, upper_cone_filter(ideal))
    assert report.passed
    assert report.mapping == (report.mapping[0],)


def test_canonical_embedding_requires_cone_extension():
    parent = digraph(2, [(0, 1)])
    ideal = powerset_ideal({0, 1})
    system = induced_system(parent, ideal.sets)
    narrow = principal_filter(ideal.sets, fs(0))  # does not contain the top cone
    with pytest.raises(ValueError):
        canonical_embedding(system, narrow)


def test_canonical_embedding_varying_fallback():
    parent = digraph(2, [(0, 1), (1, 0)])
    ideal = powerset_ideal({0, 1})
    system = induced_system(parent, ideal.sets)
    filt = upper_cone_filter(ideal)
    for b_top in (0, 1):
        report = canonical_embedding(system, filt, b={fs(0, 1): b_top})
        assert report.passed


def test_embedding_random_sweep_with_filter_extensions():
    rng = random.Random(20240811)
    ideal = powerset_ideal({0, 1, 2})
    cone = upper_cone_filter(ideal)
    candidates = sorted(
        ( frozenset(m) for m in _all_subfamilies(ideal.sets) if frozenset(m) not in cone ),
        key=lambda m: (len(m), sorted(sorted(x) for x in m)),
    )
    checked = 0
    for _ in range(25):
        bits = rng.randrange(2 ** 9)
        edges = [
            (i, j)
            for r, (i, j) in enumerate(itertools.product(range(3), repeat=2))
            if bits >> r & 1
        ]
        parent = digraph(3, edges)
        system = induced_system(parent, ideal.sets)
        filters = [cone]
        tries = 0
        while len(filters) < 4 and tries < 40:
            tries += 1
            extra = candidates[rng.randrange(len(candidates))]
            extended = extend_filter(cone, extra)
            if extended is not None and extended not in filters:
                filters.append(extended)
        for filt in filters:
            report = canonical_embedding(system, filt)
            assert report.passed
            checked += 1
    assert checked >= 25


def test_embedding_not_elementary():
    # components need not be submodels: a bigger component with a loop makes
    # the product satisfy a sentence the parent refutes
    parent = digraph(1, [])
    family = [fs(), fs(0)]
    big = digraph(2, [(1, 1)])  # element 0 mirrors the parent point, 1 has a loop
    components = {fs(): digraph(1, []), fs(0): big}
    injections = {fs(): {}, fs(0): {0: 0}}
    system = CoherentSystem(parent, components, injections)
    assert coherence_check(system) == []
    filt = upper_cone_filter(family)
    report = canonical_embedding(system, filt)
    assert report.passed
    has_loop = parse_formula("exists x. R(x,x)", BINARY)
    assert not evaluate_fo(parent, has_loop)
    assert evaluate_fo(report.product.structure, has_loop)


def test_canonical_embedding_reports_each_failing_symbol(monkeypatch):
    # a coherent system whose product is tampered with after it is built:
    # one tuple added, F(0) sent outside the image {0,1}, F(1) sent to the
    # wrong point inside it, and c moved
    parent = Structure(FULL, 2, {"R": {(0, 1)}}, {"F": {(0,): 1, (1,): 1}}, {"c": 0})
    top = Structure(FULL, 3, {"R": {(0, 1)}}, {"F": {(0,): 1, (1,): 1, (2,): 2}}, {"c": 0})
    system = CoherentSystem(parent, {fs(0): parent, fs(0, 1): top},
                            {fs(0): {0: 0}, fs(0, 1): {0: 0, 1: 1}})
    real = products.reduced_product

    def tampered(components, filt, cap):
        rp = real(components, filt, cap=cap)
        s = rp.structure
        bad = Structure(FULL, s.size, {"R": s.predicates["R"] | {(1, 0)}},
                        {"F": {**s.functions["F"], (0,): 2, (1,): 0}}, {"c": 1})
        return dataclasses.replace(rp, structure=bad)

    monkeypatch.setattr(products, "reduced_product", tampered)
    report = canonical_embedding(system, upper_cone_filter([fs(0), fs(0, 1)]))
    assert report.mapping == (0, 1)
    assert report.injective
    assert (report.predicates_ok, report.functions_ok, report.constants_ok) == (False,) * 3
    assert not report.passed
    assert report.violations == (
        "atom R(1, 0) not preserved and reflected",
        "function F(0,) does not commute",
        "function F(1,) does not commute",
        "constant c not preserved",
    )


# --- text format -----------------------------------------------------------------


IDEAL_TEXT = """\
ideal
empty
0
1
0 1
end
filter
3      # the cone at the top
1 3
0 1 2 3
2 3
end
"""

# the whole cone filter: every subfamily containing the top {0,1}
CONE_TEXT = IDEAL_TEXT.replace("2 3\nend", "2 3\n0 3\n0 1 3\n0 2 3\n1 2 3\nend")


def test_parse_ideal_file_roundtrip():
    ideal, listed, members = parse_ideal_file(CONE_TEXT)
    assert validate_ideal(ideal) == []
    assert listed is not None and len(listed) == 8
    filt = filter_from_members(ideal.sets, listed)
    assert filt == upper_cone_filter(ideal)
    assert fs(fs(0, 1)) in filt
    text = render_ideal_file(ideal, filt)
    ideal2, listed2, _ = parse_ideal_file(text)
    assert ideal2 == ideal and listed2 == listed
    assert filter_from_members(ideal2.sets, listed2) == filt


def test_filter_from_members_needs_a_whole_proper_filter():
    ideal, listed, members = parse_ideal_file(IDEAL_TEXT)
    assert len(listed) == 4  # only part of the cone filter
    with pytest.raises(ValueError, match="not upward closed"):
        filter_from_members(ideal.sets, listed)
    with pytest.raises(ValueError, match="filter is empty"):
        filter_from_members(ideal.sets, [])
    nonempty = [m for m in _all_subfamilies(ideal.sets) if m]
    with pytest.raises(ValueError, match="not proper"):
        filter_from_members(ideal.sets, nonempty)
    principal = [m for m in _all_subfamilies(ideal.sets) if fs(0) in m]
    assert filter_from_members(ideal.sets, principal) == principal_filter(ideal.sets, fs(0))


def test_parse_ideal_file_errors():
    import subsat.structures as structures

    with pytest.raises(structures.StructureFormatError):
        parse_ideal_file("ideal\n0\n")
    with pytest.raises(structures.StructureFormatError):
        parse_ideal_file("ideal\n0\nend\nfilter\n9\nend\n")
