import hashlib

import pytest
from reference import labelled_first_counterexample

from subsat import prober, structures
from subsat.corpus import BINARY_ONLY, CORPUS, PREDICATE_ONLY, UNARY_BINARY
from subsat.logic import TRUE, Not, evaluate_fo, parse_formula
from subsat.prober import (
    BoundedThetaOf,
    ProbeConfig,
    ThetaOf,
    constant_blindness_demo,
    equivalence_oracle,
    has_directed_cycle,
    preservation_under_extensions,
    render_probe_report,
    sentence_checker,
    wellfoundedness_demo,
    witness_bound_search,
)
from subsat.structures import (
    CapExceededError,
    Signature,
    Structure,
    find_isomorphism,
    induced_substructure,
    enumerate_submodels,
    labelled_structure_count,
)
from subsat.theta import theta_bounded_semantic, theta_semantic, theta_to_eso

BINARY = Signature(predicates=(("R", 2),))
UNAR = Signature(functions=(("F", 1),))

EXISTS_FORALL = parse_formula("exists x. forall y. R(x,y)", BINARY)
FORALL_EXISTS = parse_formula("forall x. exists y. R(x,y)", BINARY)
LOOP = parse_formula("exists x. R(x,x)", BINARY)
NO_LOOP = parse_formula("exists x. !R(x,x)", BINARY)
MOVED = parse_formula("exists x. F(x) != x", UNAR)


def digraph(n, edges):
    return Structure(BINARY, n, predicates={"R": set(edges)})


def cycle(n):
    return digraph(n, [(i, (i + 1) % n) for i in range(n)])


# --- equivalence oracle -------------------------------------------------------


def test_equivalence_theta_of_exists_forall_is_loop():
    cfg = ProbeConfig(BINARY, n_max=4)
    verdict = equivalence_oracle(ThetaOf(EXISTS_FORALL), LOOP, cfg)
    assert verdict.equal
    assert verdict.checked == 2 + 10 + 104 + 3044


def test_equivalence_theta_of_moved_is_itself():
    cfg = ProbeConfig(UNAR, n_max=4)
    verdict = equivalence_oracle(ThetaOf(MOVED), MOVED, cfg)
    assert verdict.equal


def test_equivalence_counterexample_at_size_one():
    cfg = ProbeConfig(BINARY, n_max=3)
    verdict = equivalence_oracle(LOOP, Not(LOOP), cfg)
    assert not verdict.equal
    assert verdict.counterexample.size == 1
    assert verdict.checked == 1


def test_equivalence_eso_formula_dispatch():
    cfg = ProbeConfig(BINARY, n_max=3)
    verdict = equivalence_oracle(theta_to_eso(EXISTS_FORALL, BINARY), LOOP, cfg)
    assert verdict.equal


def test_equivalence_counterexample_reverifies():
    cfg = ProbeConfig(BINARY, n_max=3)
    verdict = equivalence_oracle(ThetaOf(FORALL_EXISTS), FORALL_EXISTS, cfg)
    assert not verdict.equal
    s = verdict.counterexample
    assert theta_semantic(s, FORALL_EXISTS).truth != evaluate_fo(s, FORALL_EXISTS)


# --- preservation under extensions ----------------------------------------------


def test_preservation_of_theta_passes():
    cfg = ProbeConfig(BINARY, n_max=3)
    verdict = preservation_under_extensions(EXISTS_FORALL, cfg)
    assert verdict.preserved


def test_preservation_of_raw_pi2_sentence_fails():
    cfg = ProbeConfig(BINARY, n_max=3)
    verdict = preservation_under_extensions(FORALL_EXISTS, cfg, apply_theta=False)
    assert not verdict.preserved
    carrier, sub, s = verdict.counterexample
    assert evaluate_fo(sub, FORALL_EXISTS)
    assert not evaluate_fo(s, FORALL_EXISTS)


def test_preservation_of_top_passes():
    cfg = ProbeConfig(BINARY, n_max=2)
    assert preservation_under_extensions(TRUE, cfg).preserved


# --- witness-bound search --------------------------------------------------------


def test_witness_bound_exists_forall_is_one():
    cfg = ProbeConfig(BINARY, n_max=4, lambda_max=3, nu=4)
    verdict = witness_bound_search(EXISTS_FORALL, cfg)
    assert verdict.outcome == "WITNESS_BOUND_FOUND"
    assert verdict.bound == 1


def test_witness_bound_forall_exists_no_bound_with_cycles():
    cfg = ProbeConfig(BINARY, n_max=5, lambda_max=4, nu=4)
    verdict = witness_bound_search(FORALL_EXISTS, cfg)
    assert verdict.outcome == "NO_BOUND_UP_TO"
    assert [lam for lam, _ in verdict.counterexamples] == [1, 2, 3, 4]
    sizes = [s.size for _, s in verdict.counterexamples]
    assert sizes == [2, 3, 4, 5]  # strictly increasing family
    for lam, s in verdict.counterexamples:
        assert find_isomorphism(s, cycle(s.size)) is not None
        # counterexamples are certificates: they re-verify
        assert evaluate_fo(s, FORALL_EXISTS)
        assert not theta_bounded_semantic(s, FORALL_EXISTS, lam).truth
    # pinned as measured when every subset met every mask
    assert verdict.stats["structures_scanned"] == 2163216
    assert verdict.counterexamples[-1][1].key() == (
        5, (((0, 2), (1, 4), (2, 3), (3, 1), (4, 0)),), (), ()
    )


def test_witness_bound_fragment_mode_unar():
    cfg = ProbeConfig(UNAR, n_max=3, lambda_max=2, nu=3, mode="fragment")
    verdict = witness_bound_search(MOVED, cfg)
    assert verdict.outcome == "WITNESS_BOUND_FOUND"
    assert verdict.bound == 1


# SHA-256 of the fragment-mode reports of every corpus sentence, as the
# fragment memo keyed on its own renamed copy of each fragment gave them.
FRAGMENT_REPORTS_DIGEST = "8ba06cc7e57accdaf170690b1ae8eafc162c430b3f401a63eb112d745bceac9e"


def test_fragment_mode_reports_pin():
    text = "".join(
        render_probe_report(witness_bound_search(
            entry.formula,
            ProbeConfig(entry.signature, n_max=3, lambda_max=2, mode="fragment"),
        ))
        for entry in CORPUS
    )
    assert hashlib.sha256(text.encode()).hexdigest() == FRAGMENT_REPORTS_DIGEST


# SHA-256 of the binary fragment-mode reports at n_max = 4, lambda_max = 3,
# as the per-structure loops gave them.
BINARY_FRAGMENT_REPORTS_DIGEST = "ea7e595009c41a1d31dda9c85350bab0a51386feae558c2c4888b621f83c14c4"


def test_binary_fragment_mode_reports_pin():
    text = "".join(
        render_probe_report(witness_bound_search(
            entry.formula,
            ProbeConfig(entry.signature, n_max=4, lambda_max=3, mode="fragment"),
        ))
        for entry in BINARY_ONLY
    )
    assert hashlib.sha256(text.encode()).hexdigest() == BINARY_FRAGMENT_REPORTS_DIGEST


# SHA-256 of the submodel-mode reports of every corpus sentence over a
# signature with functions or constants, as the scan of every labelled
# structure gave them.
SUBMODEL_REPORTS_DIGEST = "9aba068ab0e1cb4081cd4cf9fff3acaa1111303d36d849122a6692fc5d2ab395"


def test_submodel_mode_reports_pin():
    text = "".join(
        render_probe_report(witness_bound_search(
            entry.formula, ProbeConfig(entry.signature, n_max=5, lambda_max=2),
        ))
        for entry in CORPUS
        if not entry.signature.is_predicate_only
    )
    assert hashlib.sha256(text.encode()).hexdigest() == SUBMODEL_REPORTS_DIGEST


# SHA-256 of the extension-probe reports, of the submodel check and of the
# raw sentence, for every predicate-only corpus sentence at n_max = 4, as
# the per-structure loops gave them.
EXTENSION_REPORTS_DIGEST = "dfe4f5068e1611bf263e07be166432fb84d2501a89a01b6f2931113ca2d54bbf"


def test_extension_reports_pin():
    text = "".join(
        render_probe_report(preservation_under_extensions(
            entry.formula, ProbeConfig(entry.signature, n_max=4), apply_theta=apply_theta,
        ))
        for entry in PREDICATE_ONLY
        for apply_theta in (True, False)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == EXTENSION_REPORTS_DIGEST


def test_witness_bound_fragment_equals_submodel_for_predicate_only():
    for phi in [EXISTS_FORALL, LOOP]:
        sub = witness_bound_search(phi, ProbeConfig(BINARY, n_max=3, lambda_max=2))
        frag = witness_bound_search(
            phi, ProbeConfig(BINARY, n_max=3, lambda_max=2, mode="fragment")
        )
        assert sub.outcome == frag.outcome
        assert sub.bound == frag.bound


def test_witness_bound_monotone_in_n_max():
    bounds = []
    for n_max in (2, 3, 4):
        verdict = witness_bound_search(
            EXISTS_FORALL, ProbeConfig(BINARY, n_max=n_max, lambda_max=2, nu=2)
        )
        assert verdict.outcome == "WITNESS_BOUND_FOUND"
        bounds.append(verdict.bound)
    assert bounds == sorted(bounds)


BINARY_CORPUS = {e.name: e.formula for e in CORPUS if e.signature_name == "binary"}

UNARY = Signature(predicates=(("P", 1),))
UNARY_SENTENCES = {
    "some_p": "exists x. P(x)",
    "all_p": "forall x. P(x)",
    "p_and_not_p": "exists x. exists y. (P(x) & !P(y))",
    "three_p": "exists x. exists y. exists z. (x != y & x != z & y != z & P(x) & P(y) & P(z))",
    # at most one point outside P, two in it: the first model lies past mask 0
    "nearly_all_p": "(forall x. forall y. ((!P(x) & !P(y)) -> x = y)) & "
                    "(exists x. exists y. (x != y & P(x) & P(y)))",
}

# ``two_points`` has an all-false 1-point table and an all-true 2-point one.
TWO_POINTS = parse_formula("exists x. exists y. x != y", BINARY)

UNARY_BINARY_SENTENCES = {
    **{e.name: e.formula for e in CORPUS if e.signature_name == "unary_binary"},
    "marked_successors": parse_formula(
        "forall x. exists y. (R(x,y) & (P(x) | P(y)))", UNARY_BINARY),
    "split": parse_formula("exists x. exists y. (P(x) & !P(y))", UNARY_BINARY),
}

# At n = 4 the labelled scan takes 0.5-2 s per sentence when it has to
# scan all 65536 labelled structures, so n = 4 runs the sentence whose
# counterexamples (directed cycles) lie past the first masks, plus three
# whole-space scans: one where the one-point witnesses already cover every
# structure, one where no structure satisfies phi without them, and one
# where most structures are models that need two-point carriers.  A unary
# and a binary predicate (unary_binary) are searched on columns too.
SEARCH_CASES = [
    (name, n, lam)
    for name in [*BINARY_CORPUS, "no_loop", "two_points"]
    for n in (2, 3)
    for lam in range(1, n)
] + [
    ("two_points", 4, 1),
    ("total_out_degree", 4, 1),
    ("total_out_degree", 4, 2),
    ("total_out_degree", 4, 3),
    ("one_point_world", 4, 1),
    ("edgeless", 4, 1),
    ("proper_edge", 4, 2),
] + [
    # one unary predicate on 7-9 points: the labelled masks are few, and
    # the classes come from the type-sorted canonical masks
    (name, n, lam)
    for name in UNARY_SENTENCES
    for n in (7, 8, 9)
    for lam in (1, 2, 3)
] + [
    (name, n, lam)
    for name in UNARY_BINARY_SENTENCES
    for n in (2, 3)
    for lam in range(1, n)
]


def test_column_search_agrees_with_generic_path(monkeypatch):
    formulas = {name: (BINARY, phi) for name, phi in BINARY_CORPUS.items()}
    formulas["no_loop"] = (BINARY, NO_LOOP)
    formulas["two_points"] = (BINARY, TWO_POINTS)
    for name, text in UNARY_SENTENCES.items():
        formulas[name] = (UNARY, parse_formula(text, UNARY))
    for name, phi in UNARY_BINARY_SENTENCES.items():
        formulas[name] = (UNARY_BINARY, phi)
    hits, late_hits = [], []
    for name, n, lam in SEARCH_CASES:
        sig, phi = formulas[name]
        total = labelled_structure_count(sig, n)
        labelled_hit, labelled_scanned = labelled_first_counterexample(phi, sig, n, lam, 10**7)
        if labelled_hit is not None:
            hits.append(name)
            if labelled_scanned > 1000:
                late_hits.append(name)
        assert prober._generic_first_counterexample(phi, sig, n, lam, 10**7) == (
            labelled_hit, labelled_scanned), (name, n, lam)
        # small quanta put hits past the first of each
        for quantum in (1 << 20, 1000, 4):
            monkeypatch.setattr(prober, "_SCAN_QUANTUM", quantum)
            hit, scanned = prober._column_first_counterexample(phi, sig, n, lam, 10**7, {})
            case = (name, n, lam, quantum)
            assert hit == labelled_hit, case
            if labelled_hit is None:
                assert scanned == labelled_scanned == total, case
            else:
                assert scanned == min(-(-labelled_scanned // quantum) * quantum, total), case
    assert late_hits  # some hits lie past the first quantum of 1000
    assert {"marked_successors", "split"} <= set(hits)


def test_column_search_hit_past_the_first_quantum(monkeypatch):
    # total_out_degree on 3 points: the first counterexample is the directed
    # 3-cycle at mask 98, in the 25th quantum of 4 masks and the 99th of 1
    phi = BINARY_CORPUS["total_out_degree"]
    labelled_hit, labelled_scanned = labelled_first_counterexample(phi, BINARY, 3, 2, 10**7)
    assert (labelled_hit, labelled_scanned) == (cycle(3), 99)
    for quantum, end in ((4, 100), (1, 99)):
        monkeypatch.setattr(prober, "_SCAN_QUANTUM", quantum)
        truths = {}
        hit, scanned = prober._column_first_counterexample(phi, BINARY, 3, 2, 10**7, truths)
        assert (hit, scanned) == (cycle(3), end), quantum
        assert sorted(truths) == [1, 2, 3]


def test_witness_bound_multi_predicate_scan_count(monkeypatch):
    # over two predicates a column search counts to the end of the hit's
    # quantum, here the whole space at each size (64 + 4096); the search
    # over iso representatives counts to the hit's labelled rank, 7 + 99,
    # with the same hits
    phi = parse_formula("forall x. exists y. R(x,y)", UNARY_BINARY)
    cfg = ProbeConfig(UNARY_BINARY, n_max=3, lambda_max=2)
    verdict = witness_bound_search(phi, cfg)
    assert verdict.outcome == "NO_BOUND_UP_TO"
    assert verdict.stats["structures_scanned"] == 4160 == sum(
        labelled_structure_count(UNARY_BINARY, n) for n in (2, 3))
    monkeypatch.setattr(prober, "_sliced_formula", lambda *args: False)
    generic = witness_bound_search(phi, cfg)
    assert generic.counterexamples == verdict.counterexamples
    assert generic.stats["structures_scanned"] == 7 + 99


def test_generic_witness_search_builds_no_labelled_structure(monkeypatch):
    def unexpected(sig, n):
        raise AssertionError("labelled structures were scanned")

    monkeypatch.setattr(structures, "_labelled_indices", unexpected)
    structures.clear_memos()
    verdict = witness_bound_search(parse_formula("exists x. F(x) = x", UNAR),
                                   ProbeConfig(UNAR, n_max=6))
    assert (verdict.outcome, verdict.bound) == ("WITNESS_BOUND_FOUND", 1)
    assert verdict.stats["structures_scanned"] == sum(n**n for n in range(2, 7))


def test_witness_bound_symmetric_n5_pin():
    # structures_scanned as measured when every subset met every mask:
    # dropping a mask once it has a witness must not move it
    verdict = witness_bound_search(
        BINARY_CORPUS["symmetric"], ProbeConfig(BINARY, n_max=5, lambda_max=3)
    )
    assert (verdict.outcome, verdict.bound) == ("WITNESS_BOUND_FOUND", 1)
    assert verdict.stats["structures_scanned"] == 2**25 + 2**16 + 2**9 + 2**4


def test_full_truth_column_builds_no_larger_class():
    # phi holds in every class of some size k <= lambda, so every structure
    # has a witness of size k: the search answers before building any class
    # of a larger size
    for phi, full in ((BINARY_CORPUS["symmetric"], 1), (TWO_POINTS, 2)):
        structures.clear_memos()
        verdict = witness_bound_search(phi, ProbeConfig(BINARY, n_max=5, lambda_max=3))
        assert (verdict.outcome, verdict.bound) == ("WITNESS_BOUND_FOUND", full)
        assert structures._iso_level.cache_info().currsize == full
        assert structures._iso_columns.cache_info().currsize == full
        truths = {}
        assert prober._column_first_counterexample(phi, BINARY, 5, 3, 10**7, truths) == (
            None, 2**25
        )
        assert sorted(truths) == list(range(1, full + 1))
        assert truths[full] == structures._iso_columns(BINARY, full).full
        assert structures._iso_level.cache_info().currsize == full


def test_proper_edge_n5_pin():
    # no one-point structure is a witness: the hit is the least mask with a
    # proper edge, in the first quantum
    phi = BINARY_CORPUS["proper_edge"]
    hit, scanned = prober._column_first_counterexample(phi, BINARY, 5, 1, 10**7, {})
    assert (hit.size, hit.predicates["R"], scanned) == (5, {(0, 1)}, 2**20)
    verdict = witness_bound_search(phi, ProbeConfig(BINARY, n_max=5, lambda_max=1))
    assert verdict.outcome == "NO_BOUND_UP_TO"
    assert verdict.counterexamples == ((1, digraph(2, [(0, 1)])),)
    assert verdict.stats["structures_scanned"] == 2**4


def test_column_search_refuses_before_building_a_size():
    # 10 three-point classes times 2**5 choices of the new point's tuples
    # exceed a cap of 100 before any three-point class is built
    structures.clear_memos()
    with pytest.raises(CapExceededError, match="320 iso candidates exceeds the cap of 100"):
        witness_bound_search(FORALL_EXISTS, ProbeConfig(BINARY, n_max=5, lambda_max=4, cap=100))
    assert structures._iso_level.cache_info().currsize == 2


@pytest.mark.parametrize("mode", ["extensions", "fragment"])
def test_table_probes_refuse_before_building_a_size(mode):
    # as the column search: the three-point classes are refused before they
    # or any table over them are built
    structures.clear_memos()
    with pytest.raises(CapExceededError, match="320 iso candidates exceeds the cap of 100"):
        if mode == "extensions":
            preservation_under_extensions(FORALL_EXISTS, ProbeConfig(BINARY, n_max=5, cap=100))
        else:
            witness_bound_search(FORALL_EXISTS, ProbeConfig(
                BINARY, n_max=5, lambda_max=3, mode="fragment", cap=100))
    assert structures._iso_level.cache_info().currsize == 2
    # the extension probe decided size 2 on its one table, (2, 1)
    assert structures._subclass_table.cache_info().currsize == (mode == "extensions")


def test_witness_bound_counterexamples_lack_small_witnesses():
    cfg = ProbeConfig(BINARY, n_max=4, lambda_max=3, nu=4)
    verdict = witness_bound_search(FORALL_EXISTS, cfg)
    for lam, s in verdict.counterexamples:
        assert all(
            not evaluate_fo(induced_substructure(s, c), FORALL_EXISTS)
            for c in enumerate_submodels(s, max_card=lam)
        )


# --- wellfoundedness demo ---------------------------------------------------------


def test_has_directed_cycle_oracle():
    assert has_directed_cycle(cycle(3), "R")
    assert has_directed_cycle(digraph(1, [(0, 0)]), "R")
    assert not has_directed_cycle(digraph(3, [(0, 1), (1, 2), (0, 2)]), "R")
    assert not has_directed_cycle(digraph(1, []), "R")


def test_wellfoundedness_demo_passes_to_n4():
    report = wellfoundedness_demo(ProbeConfig(BINARY, n_max=4, lambda_max=1, nu=1))
    assert report.passed
    assert report.structures_checked == 2 + 10 + 104 + 3044
    assert 0 < report.cyclic_count < report.structures_checked


def test_wellfoundedness_demo_examples():
    phi = parse_formula("forall x. exists y. R(y,x)", BINARY)
    assert theta_semantic(cycle(3), phi).truth
    chain = digraph(3, [(0, 1), (1, 2), (0, 2)])
    assert not theta_semantic(chain, phi).truth
    assert not theta_semantic(digraph(1, []), phi).truth


def test_wellfoundedness_demo_requires_binary_signature():
    with pytest.raises(ValueError):
        wellfoundedness_demo(ProbeConfig(UNAR, n_max=2, lambda_max=1, nu=1))


# --- constant blindness demo --------------------------------------------------------


def test_constant_blindness_k3():
    sig = Signature(constants=("c0", "c1", "c2"))
    psi = parse_formula("c0 = c1", sig)
    report = constant_blindness_demo(3, psi)
    assert report.agree_on_psi
    assert report.theta_in_a and not report.theta_in_b
    assert report.theta_differs
    assert report.distinguishing_constant == "c2"


def test_constant_blindness_psi_with_no_constants_is_inconclusive():
    report = constant_blindness_demo(2, TRUE)
    assert report.agree_on_psi
    # with no constant pinned to the first point, the second structure keeps a
    # one-point submodel, so the check cannot differ
    assert not report.theta_differs


def test_constant_blindness_rejects_full_naming():
    sig = Signature(constants=("c0",))
    psi = parse_formula("c0 = c0", sig)
    with pytest.raises(ValueError):
        constant_blindness_demo(1, psi)


# --- sentence-like dispatch -----------------------------------------------------------


def test_sentence_checker_dispatch():
    s = digraph(2, [(0, 0)])
    assert sentence_checker(LOOP)(s)
    assert sentence_checker(ThetaOf(EXISTS_FORALL))(s)
    assert sentence_checker(BoundedThetaOf(EXISTS_FORALL, 1))(s)
    assert sentence_checker(lambda t: t.size == 2)(s)
    assert sentence_checker(theta_to_eso(LOOP, BINARY))(s)


# --- report rendering ---------------------------------------------------------------


def test_render_probe_report_witness_bound():
    cfg = ProbeConfig(BINARY, n_max=3, lambda_max=2, nu=2)
    verdict = witness_bound_search(FORALL_EXISTS, cfg)
    text = render_probe_report(verdict)
    assert "VERDICT lambda=none n_max=3 mode=submodel outcome=NO_BOUND_UP_TO" in text
    assert "structure counterexample_lambda_1" in text
    assert text == render_probe_report(witness_bound_search(FORALL_EXISTS, cfg))


def test_render_probe_report_equivalence_and_demos():
    cfg = ProbeConfig(BINARY, n_max=2)
    text = render_probe_report(equivalence_oracle(ThetaOf(EXISTS_FORALL), LOOP, cfg))
    assert "VERDICT equal=yes" in text
    text2 = render_probe_report(wellfoundedness_demo(ProbeConfig(BINARY, n_max=2, lambda_max=1, nu=1)))
    assert "VERDICT agree=yes" in text2
    sig = Signature(constants=("c0", "c1", "c2"))
    text3 = render_probe_report(constant_blindness_demo(3, parse_formula("c0 = c1", sig)))
    assert "VERDICT differs=yes" in text3


def test_cross_module_soundness_pin():
    # the evaluated second-order translation and the semantic submodel check
    # are indistinguishable as pseudo-sentences, across the whole corpus
    for entry in CORPUS:
        cfg = ProbeConfig(entry.signature, n_max=3)
        phi = entry.formula
        verdict = equivalence_oracle(theta_to_eso(phi, entry.signature), ThetaOf(phi), cfg)
        assert verdict.equal, entry.name
    for entry in CORPUS:
        if entry.signature_name not in ("binary", "unar"):
            continue
        cfg = ProbeConfig(entry.signature, n_max=4)
        phi = entry.formula
        verdict = equivalence_oracle(theta_to_eso(phi, entry.signature), ThetaOf(phi), cfg)
        assert verdict.equal, entry.name
