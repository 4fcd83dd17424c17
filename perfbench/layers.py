"""Which subsat functions the tracer wraps, and the per-layer metrics built
from the spans and counts it records.

Layers are named after the package's modules: ``logic``, ``structures``,
``theta``, ``prober``, ``products`` and ``cli``.
"""

from __future__ import annotations

from tracer import Target


def _enumerate_span(args, kwargs):
    """Name enumeration steps by the path that ``enumerate_structures`` takes."""
    sig = args[0] if args else kwargs["sig"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    up_to_iso = args[2] if len(args) > 2 else kwargs.get("up_to_iso", False)
    if not up_to_iso:
        return "structures.enumerate_labelled"
    numpy_path = (
        sig.predicates and not sig.functions and not sig.constants
        and sum(n ** arity for _, arity in sig.predicates) <= 25
    )
    return "structures.iso_numpy" if numpy_path else "structures.iso_generic"


def _inspected(tracer, args, kwargs, report):
    tracer.count("theta.inspected", getattr(report, "inspected", 0))


def _translation(tracer, args, kwargs, result):
    sentence = getattr(result, "sentence", result)
    tracer.defer("theta.translate.output_nodes", _node_count, sentence)
    tracer.count("theta.functional.disjuncts", getattr(result, "disjuncts", 0))


def _node_count(formula) -> int:
    from subsat import logic

    return sum(1 for _ in logic.subformulas(formula))


def _checked(tracer, args, kwargs, verdict):
    tracer.count("prober.checked", getattr(verdict, "checked", 0))


def _scanned(tracer, args, kwargs, verdict):
    stats = getattr(verdict, "stats", None) or {}
    tracer.count("prober.structures_scanned", stats.get("structures_scanned", 0))


def _sieve(tracer, args, kwargs, result):
    tracer.count("prober.sieve.masks", result[1])


def _filter_members(tracer, args, kwargs, filt):
    members = getattr(filt, "sets", None)
    if members is not None:
        tracer.count("products.filter_members", len(members))


def _choice_functions(tracer, args, kwargs, rp):
    tracer.count("products.choice_functions", len(getattr(rp, "choice_functions", ())))


def _report_bytes(tracer, args, kwargs, code):
    out = kwargs.get("stdout")
    if hasattr(out, "getvalue"):
        tracer.count("cli.report_bytes", len(out.getvalue().encode("utf-8")))


TARGETS = [
    Target("subsat.logic", "parse_formula", "logic.parse_formula"),
    Target("subsat.logic", "evaluate_fo", "logic.evaluate_fo"),
    Target("subsat.logic", "evaluate_eso", "logic.evaluate_eso"),
    Target("subsat.structures", "enumerate_structures", "structures.enumerate_structures",
           span_name=_enumerate_span),
    Target("subsat.structures", "canonical_key", "structures.canonical_key"),
    Target("subsat.structures", "enumerate_submodels", "structures.enumerate_submodels"),
    Target("subsat.structures", "induced_substructure", "structures.induced_substructure"),
    Target("subsat.structures", "find_isomorphism", "structures.find_isomorphism"),
    Target("subsat.theta", "theta_semantic", "theta.theta_semantic", on_result=_inspected),
    Target("subsat.theta", "theta_bounded_semantic", "theta.theta_bounded_semantic",
           on_result=_inspected),
    Target("subsat.theta", "theta_to_eso", "theta.theta_to_eso", on_result=_translation),
    Target("subsat.theta", "theta_bounded_to_existential_predicate",
           "theta.theta_bounded_to_existential_predicate", on_result=_translation),
    Target("subsat.theta", "theta_bounded_to_existential_functional",
           "theta.theta_bounded_to_existential_functional", on_result=_translation),
    Target("subsat.theta", "modal_laws_check", "theta.modal_laws_check"),
    Target("subsat.prober", "equivalence_oracle", "prober.equivalence_oracle",
           on_result=_checked),
    Target("subsat.prober", "witness_bound_search", "prober.witness_bound_search",
           on_result=_scanned),
    Target("subsat.prober", "wellfoundedness_demo", "prober.wellfoundedness_demo"),
    Target("subsat.prober", "preservation_under_extensions",
           "prober.preservation_under_extensions"),
    # The sieve is private; when a later version renames it the tracer
    # records zero calls and the sieve metrics read 0.
    Target("subsat.prober", "_sieve_first_counterexample", "prober.sieve", on_result=_sieve),
    Target("subsat.prober", "_mask_truth_table", "prober.sieve.truth_table"),
    Target("subsat.products", "upper_cone_filter", "products.upper_cone_filter",
           on_result=_filter_members),
    Target("subsat.products", "extend_filter", "products.extend_filter",
           on_result=_filter_members),
    Target("subsat.products", "principal_filter", "products.principal_filter",
           on_result=_filter_members),
    Target("subsat.products", "validate_filter", "products.validate_filter"),
    Target("subsat.products", "reduced_product", "products.reduced_product",
           on_result=_choice_functions),
    Target("subsat.products", "canonical_embedding", "products.canonical_embedding"),
    Target("subsat.cli", "main", "cli.main", on_result=_report_bytes),
]

TRANSLATIONS = (
    "theta.theta_to_eso",
    "theta.theta_bounded_to_existential_predicate",
    "theta.theta_bounded_to_existential_functional",
)

# Self time of these spans, reported as ``<span>.self_s``.
SELF_TIMES = (
    "structures.iso_numpy",
    "structures.iso_generic",
    "structures.canonical_key",
    "structures.enumerate_submodels",
    "structures.induced_substructure",
    "structures.find_isomorphism",
    "logic.evaluate_fo",
    "logic.evaluate_eso",
    "theta.theta_semantic",
    "theta.theta_bounded_semantic",
    "theta.modal_laws_check",
    "prober.equivalence_oracle",
    "prober.witness_bound_search",
    "products.upper_cone_filter",
    "products.extend_filter",
    "products.validate_filter",
    "products.reduced_product",
    "products.canonical_embedding",
    "cli.main",
)

UNITS = {"self_s": "s", "build_s": "s", "overhead_s": "s", "us_per_call": "us",
         "masks_per_s": "1/s", "survivor_ratio": "ratio"}


def layer_metrics(passes: dict, setup: dict, overhead_s: float) -> dict:
    """Per-layer metrics for one traced pass (totals divided by the pass count).

    ``passes`` and ``setup`` are tracer summaries of the traced passes and
    of the traced set-up; ``overhead_s`` is traced minus untraced pass time.
    """
    runs = passes["passes"]
    spans, counts, edges = passes["spans"], passes["counts"], passes["edges"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0.0) / runs

    def count(name):
        return counts.get(name, 0) / runs

    m = {f"{name}.self_s": span(name, "self_s") for name in SELF_TIMES}
    m["structures.canonical_key.calls"] = count("structures.canonical_key.calls")
    m["structures.iso_classes"] = (count("structures.iso_numpy.items")
                                   + count("structures.iso_generic.items"))
    m["structures.enumerate_submodels.carriers"] = count("structures.enumerate_submodels.items")
    m["structures.induced_substructure.calls"] = count("structures.induced_substructure.calls")
    calls = count("logic.evaluate_fo.calls")
    m["logic.evaluate_fo.calls"] = calls
    m["logic.evaluate_fo.us_per_call"] = (
        1e6 * m["logic.evaluate_fo.self_s"] / calls if calls else 0.0)
    m["logic.parse_formula.self_s"] = setup["spans"].get(
        "logic.parse_formula", {}).get("self_s", 0.0)
    m["theta.inspected"] = count("theta.inspected")
    m["theta.translate.build_s"] = sum(span(name, "total_s") for name in TRANSLATIONS)
    m["theta.translate.output_nodes"] = count("theta.translate.output_nodes")
    m["theta.functional.disjuncts"] = count("theta.functional.disjuncts")
    m["prober.checked"] = count("prober.checked")
    m["prober.structures_scanned"] = count("prober.structures_scanned")
    masks = count("prober.sieve.masks")
    sieve_s = span("prober.sieve", "self_s")
    m["prober.sieve.masks_per_s"] = masks / sieve_s if sieve_s else 0.0
    survivors = edges.get(("prober.sieve", "logic.evaluate_fo"), 0) / runs
    m["prober.sieve.survivor_ratio"] = survivors / masks if masks else 0.0
    m["products.filter_members"] = count("products.filter_members")
    m["products.choice_functions"] = count("products.choice_functions")
    m["cli.report_bytes"] = count("cli.report_bytes")
    m["tracing.overhead_s"] = overhead_s
    return m


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[-1], "count")
