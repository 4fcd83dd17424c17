"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import itertools
import random
import time

from subsat.cli import main as cli_main
from subsat.corpus import (
    BINARY,
    CORPUS,
    PREDICATE_ONLY,
    SIGNATURES,
    UNAR_ONLY,
    WORKED_EQUIVALENCES,
)
from subsat.logic import evaluate_eso, evaluate_fo, is_existential_sentence, parse_formula
from subsat.prober import (
    ProbeConfig,
    ThetaOf,
    constant_blindness_demo,
    equivalence_oracle,
    wellfoundedness_demo,
    witness_bound_search,
)
from subsat.products import (
    canonical_embedding,
    extend_filter,
    induced_system,
    powerset_ideal,
    principal_filter,
    reduced_product,
    upper_cone_filter,
)
from subsat.structures import (
    Signature,
    Structure,
    check_isomorphism,
    enumerate_structures,
    enumerate_submodels,
    find_isomorphism,
    generated_carrier,
)
from subsat.theta import (
    modal_laws_check,
    theta_bounded_semantic,
    theta_bounded_to_existential_functional,
    theta_bounded_to_existential_predicate,
    theta_semantic,
    theta_to_eso,
)


def report(criterion, passed, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} in {elapsed * 1000:.1f}ms{suffix}")
    assert passed


def structures_up_to(sig, n_max):
    for n in range(1, n_max + 1):
        yield from enumerate_structures(sig, n, up_to_iso=True)


def test_criterion_1_paper_example_regressions():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for worked in WORKED_EQUIVALENCES:
        cfg = ProbeConfig(worked.signature, n_max=4)
        verdict = equivalence_oracle(ThetaOf(worked.lhs), worked.rhs, cfg)
        checked += verdict.checked
        if not verdict.equal:
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert checked >= 2 * 3160 + 30  # 114+ iso classes is a floor, not the count
    report(
        "1 paper example regressions",
        mismatches == 0 and elapsed < 10.0,
        elapsed,
        f"{checked} structure checks",
    )


def test_criterion_2_eso_translation_soundness():
    start = time.perf_counter()
    assert len(CORPUS) >= 12
    has_alternation = any("forall" in e.text and "exists" in e.text for e in CORPUS)
    has_functions = any(e.signature.functions for e in CORPUS)
    has_constants = any(e.signature.constants for e in CORPUS)
    assert has_alternation and has_functions and has_constants
    mismatches = 0
    checked = 0
    for entry in CORPUS:
        phi = entry.formula
        translated = theta_to_eso(phi, entry.signature)
        for s in structures_up_to(entry.signature, 4):
            checked += 1
            if evaluate_eso(s, translated) != theta_semantic(s, phi).truth:
                mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "2 eso translation soundness",
        mismatches == 0 and elapsed < 60.0,
        elapsed,
        f"{len(CORPUS)} sentences, {checked} checks",
    )


def test_criterion_3_predicate_existential_translation():
    start = time.perf_counter()
    mismatches = 0
    non_existential = 0
    checked = 0
    for entry in PREDICATE_ONLY:
        phi = entry.formula
        for lam in (1, 2, 3):
            translated = theta_bounded_to_existential_predicate(
                phi, lam, sig=entry.signature
            )
            if not is_existential_sentence(translated):
                non_existential += 1
            for s in structures_up_to(entry.signature, 4):
                checked += 1
                if evaluate_fo(s, translated) != theta_bounded_semantic(s, phi, lam).truth:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "3 predicate existential translation",
        mismatches == 0 and non_existential == 0 and elapsed < 60.0,
        elapsed,
        f"{len(PREDICATE_ONLY)} sentences x lambda 1..3, {checked} checks",
    )


def test_criterion_4_functional_translation():
    start = time.perf_counter()
    nu = 4
    soundness_violations = 0
    completeness_violations = 0
    checked = 0
    for entry in UNAR_ONLY:
        phi = entry.formula
        for lam in (1, 2):
            result = theta_bounded_to_existential_functional(
                phi, entry.signature, lam, nu
            )
            assert is_existential_sentence(result.sentence)
            for s in structures_up_to(entry.signature, 5):
                checked += 1
                translated = evaluate_fo(s, result.sentence)
                semantic = theta_bounded_semantic(s, phi, lam).truth
                if translated and not semantic:
                    soundness_violations += 1
                within_cap = all(
                    len(generated_carrier(s, seed)) <= nu
                    for k in range(1, lam + 1)
                    for seed in itertools.combinations(range(s.size), k)
                )
                if within_cap and translated != semantic:
                    completeness_violations += 1
    elapsed = time.perf_counter() - start
    report(
        "4 functional translation soundness+conditional completeness",
        soundness_violations == 0 and completeness_violations == 0 and elapsed < 60.0,
        elapsed,
        f"{checked} checks, nu={nu}",
    )


def test_criterion_5_modal_law_suite():
    start = time.perf_counter()
    groups = {}
    for entry in CORPUS:
        groups.setdefault(entry.signature_name, []).append(entry)
    failures = []
    strictness = {"v-and": 0, "vi": 0, "vii": 0}
    for sig_name, entries in groups.items():
        sig = SIGNATURES[sig_name]
        structures = list(structures_up_to(sig, 3))
        for left, right in itertools.product(entries, repeat=2):
            result = modal_laws_check(left.formula, right.formula, structures)
            if not result.passed:
                failures.append((sig_name, left.name, right.name,
                                 [r.law for r in result.results if not r.holds]))
            for law in strictness:
                if result.result(law).strictness_witness is not None:
                    strictness[law] += 1
    elapsed = time.perf_counter() - start
    report(
        "5 possibility-operator law suite",
        not failures and all(v > 0 for v in strictness.values()) and elapsed < 120.0,
        elapsed,
        f"strictness witnesses: {strictness}",
    )


def test_criterion_6_coherent_embedding_lemma():
    start = time.perf_counter()
    rng = random.Random(20250810)
    cones = {n: upper_cone_filter(powerset_ideal(range(n))) for n in (1, 2, 3)}
    families = {n: frozenset(powerset_ideal(range(n)).sets) for n in (1, 2, 3)}
    passes = 0
    collapse_failures = 0
    for _ in range(50):
        n = rng.randint(1, 3)
        bits = rng.randrange(2 ** (n * n))
        edges = [
            (i, j)
            for r, (i, j) in enumerate(itertools.product(range(n), repeat=2))
            if bits >> r & 1
        ]
        parent = Structure(BINARY, n, predicates={"R": set(edges)})
        system = induced_system(parent, families[n])
        cone = cones[n]
        filters = [cone]
        members = sorted(
            ( frozenset(m) for m in _subfamilies(families[n]) ),
            key=lambda m: (len(m), sorted(sorted(x) for x in m)),
        )
        attempts = 0
        while len(filters) < 4 and attempts < 60:
            attempts += 1
            candidate = members[rng.randrange(len(members))]
            extended = extend_filter(cone, candidate)
            if extended is not None and extended not in filters:
                filters.append(extended)
        while len(filters) < 4:
            filters.append(principal_filter(families[n], frozenset(range(n))))
        for filt in filters:
            if canonical_embedding(system, filt).passed:
                passes += 1
        for j in sorted(families[n], key=lambda s: (len(s), sorted(s))):
            rp = reduced_product(system.components, principal_filter(families[n], j))
            if find_isomorphism(rp.structure, system.components[j]) is None:
                collapse_failures += 1

    # non-elementarity: a coherent system whose product satisfies a sentence
    # the parent refutes (components are not submodels of the parent)
    from subsat.products import CoherentSystem
    from subsat.products import coherence_check

    parent = Structure(BINARY, 1, predicates={"R": set()})
    big = Structure(BINARY, 2, predicates={"R": {(1, 1)}})
    system = CoherentSystem(
        parent,
        {frozenset(): Structure(BINARY, 1), frozenset({0}): big},
        {frozenset(): {}, frozenset({0}): {0: 0}},
    )
    assert coherence_check(system) == []
    filt = upper_cone_filter([frozenset(), frozenset({0})])
    embedding = canonical_embedding(system, filt)
    has_loop = parse_formula("exists x. R(x,x)", BINARY)
    non_elementary = (
        embedding.passed
        and not evaluate_fo(parent, has_loop)
        and evaluate_fo(embedding.product.structure, has_loop)
    )
    elapsed = time.perf_counter() - start
    report(
        "6 coherent embedding lemma",
        passes == 200 and collapse_failures == 0 and non_elementary and elapsed < 120.0,
        elapsed,
        f"{passes}/200 embeddings verified, principal collapse ok, non-elementary witness ok",
    )


def _subfamilies(family):
    members = sorted(family, key=lambda s: (len(s), sorted(s)))
    for k in range(len(members) + 1):
        for combo in itertools.combinations(members, k):
            yield combo


def test_criterion_7_non_expressibility_demos():
    start = time.perf_counter()
    well = wellfoundedness_demo(ProbeConfig(BINARY, n_max=4, lambda_max=1, nu=1))
    demo_ok = well.passed and well.structures_checked == 3160

    sig3 = Signature(constants=("c0", "c1", "c2"))
    blind = constant_blindness_demo(3, parse_formula("c0 = c1", sig3))
    blind_ok = blind.agree_on_psi and blind.theta_in_a and not blind.theta_in_b

    phi = parse_formula("forall x. exists y. R(x,y)", BINARY)
    verdict = witness_bound_search(phi, ProbeConfig(BINARY, n_max=5, lambda_max=4, nu=4))
    cycles_ok = (
        verdict.outcome == "NO_BOUND_UP_TO"
        and [lam for lam, _ in verdict.counterexamples] == [1, 2, 3, 4]
        and [s.size for _, s in verdict.counterexamples] == [2, 3, 4, 5]
        and all(
            find_isomorphism(
                s,
                Structure(
                    BINARY, s.size,
                    predicates={"R": {(i, (i + 1) % s.size) for i in range(s.size)}},
                ),
            )
            is not None
            for _, s in verdict.counterexamples
        )
    )
    elapsed = time.perf_counter() - start
    report(
        "7 non-expressibility demos",
        demo_ok and blind_ok and cycles_ok,
        elapsed,
        "wellfoundedness + constant blindness + cycle family",
    )


def test_criterion_8_enumeration_oracle_pins():
    start = time.perf_counter()
    expected = {1: 2, 2: 10, 3: 104}
    pins_ok = True
    for n, count in expected.items():
        produced = list(enumerate_structures(BINARY, n, up_to_iso=True))
        if len(produced) != count:
            pins_ok = False
        # independent confirmation: pairwise-isomorphism brute force over
        # exhaustive bijections
        reps = []
        for s in enumerate_structures(BINARY, n):
            if not any(_bijection_oracle(s, r) for r in reps):
                reps.append(s)
        if len(reps) != count:
            pins_ok = False

    submodel_ok = True
    for n in (1, 2, 3, 4):
        s = Structure(BINARY, n, predicates={"R": set()})
        if sum(1 for _ in enumerate_submodels(s)) != 2**n - 1:
            submodel_ok = False
    elapsed = time.perf_counter() - start
    report(
        "8 enumeration oracle pins",
        pins_ok and submodel_ok,
        elapsed,
        "iso classes 2/10/104 + predicate-only submodel counts",
    )


def _bijection_oracle(a, b):
    if a.size != b.size:
        return False
    for perm in itertools.permutations(range(b.size)):
        if check_isomorphism(a, b, {i: perm[i] for i in range(a.size)}):
            return True
    return False


def test_criterion_9_report_determinism():
    start = time.perf_counter()
    commands = [
        ["probe", "--check", "witness-bound",
         "--formula", "forall x. exists y. R(x,y)",
         "--n-max", "4", "--lambda-max", "3", "--workers", "1", "--seed", "0"],
        ["probe", "--check", "wellfounded", "--n-max", "3", "--workers", "1",
         "--seed", "0"],
        ["probe", "--check", "equivalence", "--theta-left",
         "--formula", "exists x. forall y. R(x,y)",
         "--formula2", "exists x. R(x,x)", "--n-max", "3", "--workers", "1",
         "--seed", "0"],
    ]
    deterministic = True
    for argv in commands:
        buffers = []
        codes = []
        for _ in range(2):
            buf = io.StringIO()
            codes.append(cli_main(argv, stdout=buf))
            buffers.append(buf.getvalue())
        if buffers[0] != buffers[1] or codes[0] != codes[1]:
            deterministic = False
    elapsed = time.perf_counter() - start
    report("9 report determinism", deterministic, elapsed, f"{len(commands)} commands x2")
