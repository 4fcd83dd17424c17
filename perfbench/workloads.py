"""The three benchmark workloads: fixed job lists built from a seed.

A job is one call into a public ``subsat`` function, or one in-process
``subsat.cli.main(argv, stdout=...)`` call, ending in a verdict.  Each job
has a check that runs after the timed pass and returns ``None`` when the
verdict is right, or a message naming what is wrong.  Jobs look functions
up through their module at call time, so the tracer's wrappers see them.

Which layers each workload stresses, and why it was chosen, is written in
``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from subsat import cli, corpus, logic, prober, products, structures, theta

from sentences import random_sentences

# Iso-class counts: OEIS A000595 (binary relations) and A001372
# (mappings of an n-set into itself); unar_const is pinned from the
# generic path of the seed version.
BINARY_CLASSES = {1: 2, 2: 10, 3: 104, 4: 3044}
UNAR_CLASSES = {1: 1, 2: 3, 3: 7, 4: 19, 5: 47}
UNAR_CONST_CLASSES = {1: 1, 2: 4, 3: 15, 4: 52}
UNARY_BINARY_UP_TO_3 = 4 + 36 + 752  # iso classes of (P/1, R/2) up to 3 points
# Acyclic digraphs on 1..4 unlabelled points: OEIS A003087.
ACYCLIC_CLASSES = {1: 1, 2: 2, 3: 6, 4: 31}
# Diagram disjuncts of the corpus functional translations at nu = 4.
FUNCTIONAL_DISJUNCTS = {
    ("moved_point", 1): 9, ("moved_point", 2): 63,
    ("all_fixed", 1): 1, ("all_fixed", 2): 2,
    ("two_periodic", 1): 7, ("two_periodic", 2): 51,
    ("fixed_constant", 1): 10, ("fixed_constant", 2): 65,
    ("constant_reached", 1): 34, ("constant_reached", 2): 204,
}


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object], Optional[str]]
    cli: bool = False


@dataclass
class Workload:
    jobs: list
    files: dict  # CLI input files, written to the working directory in setup


def _up_to(sig, n_max):
    for n in range(1, n_max + 1):
        yield from structures.enumerate_structures(sig, n, up_to_iso=True)


def _require(condition: bool, message: str) -> Optional[str]:
    return None if condition else message


# --- CLI jobs ---------------------------------------------------------------

# Files named by the README examples; the CLI reads them from the working
# directory so that the manifests, and so the report digests, do not
# depend on where the checkout lives.
K2 = """signature
predicate R 2
end
structure K2
universe 2
R 0 1
R 1 0
R 1 1
end
"""

Z4 = """signature
function F 1
end
structure Z4
universe 4
F 0 -> 1
F 1 -> 2
F 2 -> 3
F 3 -> 0
end
"""

UNAR_SIG = """signature
function F 1
end
structure One
universe 1
F 0 -> 0
end
"""

UNAR_CONST_SIG = """signature
function F 1
constant c
end
structure One
universe 1
F 0 -> 0
c 0
end
"""

CHAIN = """signature
predicate R 2
end
structure Chain
universe 3
R 0 1
R 1 2
R 0 2
end
"""

CYCLE3 = """signature
predicate R 2
end
structure Cycle
universe 3
R 0 1
R 1 2
R 2 0
end
"""

POWERSET3 = """ideal
empty
0
1
2
0 1
0 2
1 2
0 1 2
end
"""

def cli_job(name: str, argv: list, exit_code: int, digest: str) -> Job:
    """A CLI call and its pinned report.  ``probe`` commands get ``--workers 1``:
    its default, one worker process per CPU, would time process start-up and
    the scheduler rather than subsat, and would put the machine's CPU count
    in the report's manifest line, so in the pinned digest."""
    if argv[0] == "probe":
        argv = argv + ["--workers", "1"]

    def run(ctx):
        out = io.StringIO()
        code = cli.main(argv, stdout=out)
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code != exit_code:
            return f"exit code {code}, expected {exit_code}"
        got = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return _require(got == digest, f"report digest {got}, pinned {digest}")

    return Job(f"cli:{name}", run, check, cli=True)


# --- shared checks --------------------------------------------------------------


def equivalence_job(name, pairs, sig, n_max, expected_checked) -> Job:
    """For each (left, build) pair, build the translation, then compare it
    with ``left`` on every structure."""

    def run(ctx):
        return [prober.equivalence_oracle(left, build(), prober.ProbeConfig(sig, n_max=n_max))
                for left, build in pairs]

    def check(verdicts):
        for verdict in verdicts:
            if not verdict.equal:
                return "theta and its translation disagree"
            if verdict.checked != expected_checked:
                return f"checked {verdict.checked} structures, expected {expected_checked}"
        return None

    return Job(name, run, check)


def _counterexample_certified(phi, lam, s) -> bool:
    """phi holds in s and no submodel with at most lam elements satisfies it."""
    if not logic.evaluate_fo(s, phi):
        return False
    return not any(
        logic.evaluate_fo(structures.induced_substructure(s, c), phi)
        for c in structures.enumerate_submodels(s, max_card=lam)
    )


def _directed_cycle(n):
    return structures.Structure(
        corpus.BINARY, n, predicates={"R": {(i, (i + 1) % n) for i in range(n)}}
    )


# --- predicate-probes ---------------------------------------------------------


def predicate_probes(seed: int) -> Workload:
    entries = {e.name: e for e in corpus.CORPUS}
    binary = [(e.name, e.formula) for e in corpus.BINARY_ONLY]
    random_binary = [logic.parse_formula(t, corpus.BINARY)
                     for t in random_sentences(seed, "binary", 10)]
    checked_binary = {3: sum(BINARY_CLASSES[n] for n in (1, 2, 3)),
                      4: sum(BINARY_CLASSES.values())}

    jobs = []

    def translation_jobs(tag, phis, sig, n_max, lambdas, checked):
        jobs.append(equivalence_job(
            f"eso:{tag}:n{n_max}",
            [(prober.ThetaOf(phi), lambda phi=phi: theta.theta_to_eso(phi, sig)) for phi in phis],
            sig, n_max, checked,
        ))
        for lam in lambdas:
            jobs.append(equivalence_job(
                f"pred:{tag}:l{lam}:n{n_max}",
                [(prober.BoundedThetaOf(phi, lam),
                  lambda phi=phi, lam=lam: theta.theta_bounded_to_existential_predicate(
                      phi, lam, sig=sig))
                 for phi in phis],
                sig, n_max, checked,
            ))

    for tag, phi in binary:
        translation_jobs(f"binary:{tag}", [phi], corpus.BINARY, 3, (1, 2, 3), checked_binary[3])
    # The seeded sentences run in one job (ESO and lambda = 1, 2; lambda = 3
    # varies most in cost between sentences).  One sentence's probe costs
    # 10-40 ms with the sentence: as 30 jobs around the median one they let
    # the seed move p50, and as one job per translation (200-400 ms) they
    # moved which jobs stand at the tail's rank.
    jobs.append(equivalence_job(
        "probe:binary:random:n3",
        [pair for phi in random_binary for pair in (
            (prober.ThetaOf(phi), lambda phi=phi: theta.theta_to_eso(phi, corpus.BINARY)),
            *((prober.BoundedThetaOf(phi, lam),
               lambda phi=phi, lam=lam: theta.theta_bounded_to_existential_predicate(
                   phi, lam, sig=corpus.BINARY))
              for lam in (1, 2)))],
        corpus.BINARY, 3, checked_binary[3],
    ))
    translation_jobs("binary:dominating_point", [entries["dominating_point"].formula],
                     corpus.BINARY, 4, (2,), checked_binary[4])
    translation_jobs("unary_binary:marked_hub", [entries["marked_hub"].formula],
                     corpus.UNARY_BINARY, 3, (1, 2, 3), UNARY_BINARY_UP_TO_3)

    for left, right in (("dominating_point", "has_loop"),
                        ("total_out_degree", "some_point_stuck"),
                        ("symmetric", "edgeless"),
                        ("proper_edge", "one_point_world")):
        phi, psi = entries[left].formula, entries[right].formula

        def run_laws(ctx, phi=phi, psi=psi):
            return theta.modal_laws_check(phi, psi, _up_to(corpus.BINARY, 3))

        jobs.append(Job(f"modal:{left}:{right}", run_laws,
                        lambda r: _require(r.passed, "a modal law failed")))

    def run_wellfounded(ctx):
        cfg = prober.ProbeConfig(corpus.BINARY, n_max=4, lambda_max=1, nu=1)
        return prober.wellfoundedness_demo(cfg)

    def check_wellfounded(report):
        if not report.passed:
            return f"{len(report.mismatches)} theta/cycle mismatches"
        if report.structures_checked != sum(BINARY_CLASSES.values()):
            return f"checked {report.structures_checked} structures"
        cyclic = sum(BINARY_CLASSES.values()) - sum(ACYCLIC_CLASSES.values())
        return _require(report.cyclic_count == cyclic,
                        f"{report.cyclic_count} cyclic structures, expected {cyclic}")

    jobs.append(Job("wellfounded:n4", run_wellfounded, check_wellfounded))

    symmetric = entries["symmetric"].formula

    def run_symmetric(ctx):
        return prober.witness_bound_search(
            symmetric, prober.ProbeConfig(corpus.BINARY, n_max=5, lambda_max=3))

    def check_symmetric(v):
        return _require(
            v.outcome == "WITNESS_BOUND_FOUND" and v.bound == 1 and not v.counterexamples
            and v.stats.get("structures_scanned") == 2 ** 25 + 2 ** 16 + 2 ** 9 + 2 ** 4,
            f"unexpected verdict {v.outcome} bound={v.bound} stats={v.stats}",
        )

    jobs.append(Job("witness:symmetric:n5", run_symmetric, check_symmetric))

    total = entries["total_out_degree"].formula

    def run_cycles(ctx):
        return prober.witness_bound_search(
            total, prober.ProbeConfig(corpus.BINARY, n_max=5, lambda_max=4))

    def check_cycles(v):
        if v.outcome != "NO_BOUND_UP_TO":
            return f"outcome {v.outcome}, expected NO_BOUND_UP_TO"
        if [(lam, s.size) for lam, s in v.counterexamples] != [(1, 2), (2, 3), (3, 4), (4, 5)]:
            return "counterexample family is not sizes 2..5"
        for lam, s in v.counterexamples:
            if not _counterexample_certified(total, lam, s):
                return f"lambda={lam} counterexample is not a certificate"
            if structures.find_isomorphism(s, _directed_cycle(s.size)) is None:
                return f"lambda={lam} counterexample is not a directed cycle"
        return None

    jobs.append(Job("witness:total_out_degree:n5", run_cycles, check_cycles))

    jobs += [
        cli_job("eval", ["eval", "--structure", "k2.st", "--formula", "exists x. R(x,x)"],
                0, PINS["eval"]),
        cli_job("theta", ["theta", "--structure", "k2.st",
                          "--formula", "exists x. forall y. R(x,y)"], 0, PINS["theta"]),
        cli_job("translate-eso", ["translate", "--to", "eso",
                                  "--formula", "exists x. forall y. R(x,y)"],
                0, PINS["translate-eso"]),
        cli_job("translate-existential", ["translate", "--to", "existential", "--lambda", "1",
                                          "--formula", "exists x. forall y. R(x,y)"],
                0, PINS["translate-existential"]),
        cli_job("probe-equivalence", ["probe", "--check", "equivalence", "--theta-left",
                                      "--formula", "exists x. forall y. R(x,y)",
                                      "--formula2", "exists x. R(x,x)", "--n-max", "4"],
                0, PINS["probe-equivalence"]),
        cli_job("probe-extensions", ["probe", "--check", "extensions",
                                     "--formula", "exists x. forall y. R(x,y)",
                                     "--n-max", "3"], 0, PINS["probe-extensions"]),
        cli_job("probe-witness-bound", ["probe", "--check", "witness-bound",
                                        "--formula", "forall x. exists y. R(x,y)",
                                        "--n-max", "4", "--lambda-max", "3"],
                1, PINS["probe-witness-bound"]),
        cli_job("probe-wellfounded", ["probe", "--check", "wellfounded", "--n-max", "3"],
                0, PINS["probe-wellfounded"]),
        cli_job("probe-constants", ["probe", "--check", "constants", "--k", "3",
                                    "--psi", "c0 = c1"], 0, PINS["probe-constants"]),
    ]
    return Workload(jobs, {"k2.st": K2})


# --- functional-translation ------------------------------------------------------


def _sweep(phi, lam, nu, sentence, swept):
    """Criterion 4: the translated sentence against the bounded check on every
    structure; returns (soundness violations, completeness violations within
    the size cap, structures checked)."""
    unsound = incomplete = checked = 0
    for s in swept:
        checked += 1
        translated = logic.evaluate_fo(s, sentence)
        semantic = theta.theta_bounded_semantic(s, phi, lam).truth
        if translated and not semantic:
            unsound += 1
        within_cap = all(
            len(structures.generated_carrier(s, seed_elems)) <= nu
            for k in range(1, lam + 1)
            for seed_elems in itertools.combinations(range(s.size), k)
        )
        if within_cap and translated != semantic:
            incomplete += 1
    return unsound, incomplete, checked


def functional_translation(seed: int) -> Workload:
    unar_corpus = [(e.name, e.formula, corpus.UNAR) for e in corpus.UNAR_ONLY]
    const_corpus = [(e.name, e.formula, corpus.UNAR_CONST) for e in corpus.CORPUS
                    if e.signature_name == "unar_const"]
    random_unar = [
        (f"rand{i}", logic.parse_formula(t, corpus.UNAR))
        for i, t in enumerate(random_sentences(seed, "unar", 10))
    ]
    jobs = []
    sizes = {corpus.UNAR: (5, UNAR_CLASSES), corpus.UNAR_CONST: (4, UNAR_CONST_CLASSES)}
    for sig, label in ((corpus.UNAR, "unar"), (corpus.UNAR_CONST, "unar_const")):
        n_top, pins = sizes[sig]
        for n in range(1, n_top + 1):
            def run_enum(ctx, sig=sig, n=n):
                found = list(structures.enumerate_structures(sig, n, up_to_iso=True))
                ctx.setdefault(sig, []).extend(found)
                return found

            jobs.append(Job(
                f"enumerate:{label}:n{n}", run_enum,
                lambda found, want=pins[n]: _require(
                    len(found) == want, f"{len(found)} iso classes, pinned {want}"),
            ))

    def check_sweep(result, sig):
        unsound, incomplete, checked = result
        want = sum(sizes[sig][1].values())
        if checked != want:
            return f"swept {checked} structures, expected {want}"
        return _require(unsound == 0 and incomplete == 0,
                        f"{unsound} soundness and {incomplete} completeness violations")

    nu = 4
    for tag, phi, sig in unar_corpus + const_corpus:
        for lam in (1, 2):
            key = (tag, lam, sig)

            def run_translate(ctx, phi=phi, sig=sig, lam=lam, key=key):
                ctx[key] = theta.theta_bounded_to_existential_functional(phi, sig, lam, nu)
                return ctx[key]

            def check_translate(result, tag=tag, lam=lam):
                if not logic.is_existential_sentence(result.sentence):
                    return "translation is not an existential sentence"
                want = FUNCTIONAL_DISJUNCTS[(tag, lam)]
                return _require(result.disjuncts == want,
                                f"{result.disjuncts} disjuncts, pinned {want}")

            jobs.append(Job(f"functional:{tag}:l{lam}", run_translate, check_translate))
            jobs.append(Job(
                f"sweep:{tag}:l{lam}",
                lambda ctx, phi=phi, sig=sig, lam=lam, key=key: _sweep(
                    phi, lam, nu, ctx[key].sentence, ctx[sig]),
                lambda result, sig=sig: check_sweep(result, sig),
            ))

    # The seeded sentences are translated in one job at lambda = 1, and
    # swept in its check, off the clock: one translation costs 8-290 ms
    # with the number of structures that satisfy the sentence, so as
    # separate jobs they would let the seed move p50 and the tail.
    def run_random(ctx):
        return [theta.theta_bounded_to_existential_functional(phi, corpus.UNAR, 1, nu)
                for _, phi in random_unar], ctx[corpus.UNAR]

    def check_random(answer):
        results, enumerated = answer
        for (tag, phi), result in zip(random_unar, results):
            if not logic.is_existential_sentence(result.sentence):
                return f"{tag}: translation is not an existential sentence"
            problem = check_sweep(_sweep(phi, 1, nu, result.sentence, enumerated), corpus.UNAR)
            if problem is not None:
                return f"{tag}: {problem}"
        return None

    jobs.append(Job("functional:random:l1", run_random, check_random))

    jobs += [
        cli_job("enumerate-unar", ["enumerate", "--signature", "unar.st", "-n", "4",
                                   "--up-to-iso"], 0, PINS["enumerate-unar"]),
        cli_job("enumerate-unar-const", ["enumerate", "--signature", "unar_const.st",
                                         "-n", "3", "--up-to-iso"],
                0, PINS["enumerate-unar-const"]),
        cli_job("translate-functional", ["translate", "--to", "existential", "--lambda", "1",
                                         "--nu", "2", "--signature", "z4.st",
                                         "--formula", "exists x. F(x) != x"],
                0, PINS["translate-functional"]),
        cli_job("translate-functional-l2", ["translate", "--to", "existential",
                                            "--lambda", "2", "--nu", "4",
                                            "--signature", "z4.st",
                                            "--formula", "exists x. F(F(x)) = x"],
                0, PINS["translate-functional-l2"]),
        cli_job("theta-bounded", ["theta", "--structure", "z4.st",
                                  "--formula", "exists x. F(x) != x", "--lambda", "1"],
                0, PINS["theta-bounded"]),
    ]
    return Workload(jobs, {"z4.st": Z4, "unar.st": UNAR_SIG, "unar_const.st": UNAR_CONST_SIG})


# --- product-embedding --------------------------------------------------------


def _random_parent(rng: random.Random, n: int):
    edges = [t for t in itertools.product(range(n), repeat=2) if rng.random() < 0.4]
    return structures.Structure(corpus.BINARY, n, predicates={"R": set(edges)})


def _subfamilies(family):
    members = sorted(family, key=lambda s: (len(s), sorted(s)))
    for k in range(len(members) + 1):
        yield from itertools.combinations(members, k)


def product_embedding(seed: int) -> Workload:
    rng = random.Random(f"subsat-perfbench:{seed}:products")
    jobs = []

    # Filter-heavy: powerset ideals over 1..3 points, a fixed number per size
    # so that every seed does the same amount of filter work.
    for idx, n in enumerate([3] * 24 + [2] * 4 + [1] * 2):
        parent = _random_parent(rng, n)
        family = frozenset(frozenset(s) for k in range(n + 1)
                           for s in itertools.combinations(range(n), k))
        members = sorted((frozenset(m) for m in _subfamilies(family)),
                         key=lambda m: (len(m), sorted(sorted(x) for x in m)))
        picks = [members[rng.randrange(len(members))] for _ in range(8)]
        tag = f"powerset{n}:{idx}"

        def run_filters(ctx, n=n, picks=picks, tag=tag):
            cone = products.upper_cone_filter(products.powerset_ideal(range(n)))
            filters = [cone]
            for extra in picks:
                if len(filters) == 4:
                    break
                extended = products.extend_filter(cone, extra)
                if extended is not None and extended not in filters:
                    filters.append(extended)
            problems = [products.validate_filter(f) for f in filters]
            ctx[tag] = filters
            return filters, problems

        def check_filters(result):
            filters, problems = result
            return _require(all(p == [] for p in problems), "an invalid filter was built")

        jobs.append(Job(f"filters:{tag}", run_filters, check_filters))

        def run_embed(ctx, parent=parent, family=family, tag=tag):
            system = products.induced_system(parent, family)
            return [products.canonical_embedding(system, f) for f in ctx[tag]]

        jobs.append(Job(f"embed:{tag}", run_embed,
                        lambda reports: _require(all(r.passed for r in reports),
                                                 "an embedding failed verification")))

        def run_collapse(ctx, parent=parent, family=family):
            system = products.induced_system(parent, family)
            found = []
            for j in sorted(family, key=lambda s: (len(s), sorted(s))):
                rp = products.reduced_product(
                    system.components, products.principal_filter(family, j))
                found.append((rp.structure, system.components[j],
                              structures.find_isomorphism(rp.structure, system.components[j])))
            return found

        def check_collapse(found):
            for product, component, mapping in found:
                if mapping is None or not structures.check_isomorphism(
                        product, component, mapping):
                    return "principal reduced product is not its component"
            return None

        jobs.append(Job(f"collapse:{tag}", run_collapse, check_collapse))

    # Choice-function-heavy: chain ideals {}, {0}, ..., {0..k-1}.
    for idx, k in enumerate((2, 3, 4, 5) + (6,) * 12):
        parent = _random_parent(rng, k)
        family = frozenset(frozenset(range(j)) for j in range(k + 1))

        def run_chain(ctx, parent=parent, family=family):
            system = products.induced_system(parent, family)
            return products.canonical_embedding(system, products.upper_cone_filter(family))

        def check_chain(report, parent=parent, k=k):
            if not report.passed:
                return "chain embedding failed verification"
            if len(report.product.choice_functions) != math.factorial(k):
                return f"{len(report.product.choice_functions)} choice functions"
            return _require(
                structures.find_isomorphism(report.product.structure, parent) is not None,
                "cone-filter product of a chain is not the top component",
            )

        jobs.append(Job(f"chain:k{k}:{idx}", run_chain, check_chain))

    jobs += [
        cli_job("product-powerset", ["product", "--structures", "chain.st",
                                     "--ideal", "powerset.id", "--cone-filter",
                                     "--verify-embedding"], 0, PINS["product-powerset"]),
        cli_job("product-cycle", ["product", "--structures", "cycle3.st",
                                  "--ideal", "powerset.id", "--cone-filter",
                                  "--verify-embedding"], 0, PINS["product-cycle"]),
    ]
    return Workload(jobs, {"chain.st": CHAIN, "cycle3.st": CYCLE3, "powerset.id": POWERSET3})


WORKLOADS = {
    "predicate-probes": predicate_probes,
    "functional-translation": functional_translation,
    "product-embedding": product_embedding,
}

# SHA-256 of each CLI report, pinned from the seed version.
PINS = {
    "eval": "54a63e25ecf7c30dbb3884532d5513a046d7168dc38b5c7cd51cefb51afc1105",
    "theta": "4f409f593ac12e9ffb53d3d6a103a747336bed019783bc073ad8c7dd8b5c7229",
    "translate-eso": "8a26984bd5a50708e0cb630bcec13b5242b6e024da9122780c894cee6b85ef54",
    "translate-existential": "509a744dfa19e4ab593a02f6cda910936aaa4c238bc3ae476747b6bcf364312f",
    "probe-equivalence": "d2d53e5da97694ca91588206ec2c63a8d272c32117a29fba394127907d20d773",
    "probe-extensions": "aabcf4e77def6cce81c0f2c4d6a8d8facb39fff2fdb5b7599ab83c67d0645d9b",
    "probe-witness-bound": "a0cb1beaeef86c35496bc5fc37d0ea6337a1f79571185ccc46a01706e04b80fa",
    "probe-wellfounded": "e096661055d81033c578b0eb3aef4c70a25657b567f8c346de7573a7a730e3a9",
    "probe-constants": "1c1eda1cf61e24f16f4c08956ddea7b089dd5f8a1ce1a1e8a2796aa2a828343e",
    "enumerate-unar": "d4f0f01b21c0d7595e2c2e45e1b8d0e4734d199b8024490f0fbe5522a25e28d6",
    "enumerate-unar-const": "fad8b40cb4df0c8296fdfcbe675d1db9bdb6c576990cdeeeefb1f2a5371cb195",
    "translate-functional": "6b97e9d77b8d0cd6031533b8c8ca491871dea6b62136a87f6846126a0b18f63a",
    "translate-functional-l2": "262e48b5e33f92e1d51b6eb3fc945a999719af4d52fad562a29c44aee54689f6",
    "theta-bounded": "9b237a0a6192f32ce6944ca1b90df5c92ad8fa5ec7f037d85727cafca710c36a",
    "product-powerset": "be4a0f5ac5fd3ac05819143de223f703cc3c78d10ea056d299cce3c08a0e633a",
    "product-cycle": "5ad02fd55a47ef8a2e1dbde536e63fa1410cd2960c922aa22da6fe5c29aec6da",
}
