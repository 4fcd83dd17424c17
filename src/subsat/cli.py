"""Command-line surface: eval, theta, translate, product, probe, enumerate.

Every report starts with its manifest line; identical manifests produce
byte-identical reports.  Exit codes: 0 success/pass, 1 probe found a
counterexample, 2 input error, 3 enumeration cap exceeded.  Each command
does all work that can fail before it writes its manifest line, so exit
codes 2 and 3 leave stdout empty.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from dataclasses import dataclass

from . import __version__
from .logic import (
    FormulaSyntaxError,
    compile_formula,
    evaluate_eso,
    evaluate_fo,
    parse_formula,
    parse_with_inference,
    render_formula,
)
from .products import (
    canonical_embedding,
    filter_from_members,
    induced_system,
    parse_ideal_file,
    reduced_product,
    upper_cone_filter,
    validate_ideal,
)
from .prober import (
    ProbeConfig,
    ThetaOf,
    constant_blindness_demo,
    equivalence_oracle,
    preservation_under_extensions,
    render_probe_report,
    wellfoundedness_demo,
    witness_bound_search,
)
from .structures import (
    _PRINTABLE_BITS,
    CapExceededError,
    Signature,
    StructureFormatError,
    enumerate_structures,
    memo,
    parse_structures,
    render_structures,
    validate_structure,
)
from .theta import (
    theta_bounded_semantic,
    theta_bounded_to_existential_functional,
    theta_bounded_to_existential_predicate,
    theta_semantic,
    theta_to_eso,
)


@dataclass(frozen=True)
class RunManifest:
    """Everything that determines a report: command, inputs, parameters."""

    command: str
    params: tuple

    def line(self) -> str:
        parts = [f"command={self.command}", f"version={__version__}"]
        for key, value in self.params:
            text = str(value)
            if any(ch.isspace() or ch in "\"'" for ch in text):
                text = shlex.quote(text)
            parts.append(f"{key}={text}")
        return "# manifest " + " ".join(parts)


def _manifest(command: str, args, keys: list[str]) -> RunManifest:
    params = []
    for key in sorted(keys):
        value = getattr(args, key.replace("-", "_"), None)
        if value is None:
            continue
        params.append((key, value))
    return RunManifest(command, tuple(params))


class _InputError(Exception):
    pass


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _load_structures(path: str):
    sig, structures = parse_structures(_read_file(path))
    for name, s in structures.items():
        violations = validate_structure(sig, s)
        if violations:
            raise _InputError(f"{path}: structure {name}: {violations[0]}")
    return sig, structures


def _formula_text(args) -> str:
    # inline wins on conflict: single-source rule keeps manifests honest
    if getattr(args, "formula", None):
        return args.formula
    if getattr(args, "formula_file", None):
        return _read_file(args.formula_file).strip()
    raise _InputError("a formula is required (--formula or --formula-file)")


def _signature_from_args(args) -> Signature | None:
    path = getattr(args, "signature", None)
    if path:
        sig, _structures = parse_structures(_read_file(path))
        return sig
    return None


def _parse_against(text: str, sig: Signature | None):
    if sig is not None:
        return parse_formula(text, sig), sig
    return parse_with_inference(text)


def _witness_text(carrier) -> str:
    return "{" + ",".join(str(x) for x in sorted(carrier)) + "}"


# --- subcommand handlers -----------------------------------------------------


def _named_structures(args, structures) -> list:
    names = [args.name] if args.name else list(structures)
    for name in names:
        if name not in structures:
            raise _InputError(f"no structure named {name} in {args.structure}")
    return names


def _cmd_eval(args, out) -> int:
    sig, structures = _load_structures(args.structure)
    text = _formula_text(args)
    formula = parse_formula(text, sig)
    evaluate = evaluate_eso if compile_formula(formula).has_set_quantifier else evaluate_fo
    names = _named_structures(args, structures)
    values = [evaluate(structures[name], formula) for name in names]
    manifest = _manifest("eval", args, ["structure", "formula", "formula-file", "name", "seed"])
    out(manifest.line())
    for name, value in zip(names, values):
        prefix = f"{name}: " if len(names) > 1 else ""
        out(f"{prefix}{'true' if value else 'false'}")
    return 0


def _cmd_theta(args, out) -> int:
    sig, structures = _load_structures(args.structure)
    formula = parse_formula(_formula_text(args), sig)
    bound = getattr(args, "lambda")
    names = _named_structures(args, structures)
    reports = [
        theta_semantic(structures[name], formula) if bound is None
        else theta_bounded_semantic(structures[name], formula, bound)
        for name in names
    ]
    manifest = _manifest(
        "theta", args, ["structure", "formula", "formula-file", "lambda", "name", "seed"]
    )
    out(manifest.line())
    for name, report in zip(names, reports):
        prefix = f"{name}: " if len(names) > 1 else ""
        if report.truth:
            out(f"{prefix}true, witness {_witness_text(report.witness)}")
        else:
            out(f"{prefix}false")
        out(f"{prefix}inspected {report.inspected} submodels")
    return 0


def _cmd_translate(args, out) -> int:
    text = _formula_text(args)
    sig = _signature_from_args(args)
    formula, sig = _parse_against(text, sig)
    manifest = _manifest(
        "translate", args,
        ["to", "formula", "formula-file", "lambda", "nu", "signature", "seed"],
    )
    for line in [manifest.line(), *_translation_lines(args, formula, sig)]:
        out(line)
    return 0


def _translation_lines(args, formula, sig: Signature) -> list[str]:
    bound = getattr(args, "lambda")
    if args.to == "eso":
        return [render_formula(theta_to_eso(formula, sig))]
    if bound is None:
        raise _InputError("--lambda is required for the existential translation")
    if sig.is_predicate_only:
        sentence = theta_bounded_to_existential_predicate(formula, bound, sig=sig)
        return [
            render_formula(sentence),
            f"completeness: exact equivalence (predicate-only signature, lambda={bound})",
        ]
    if args.nu is None:
        raise _InputError("--nu is required for functional signatures")
    result = theta_bounded_to_existential_functional(formula, sig, bound, args.nu)
    return [
        render_formula(result.sentence),
        "completeness: sound always; equivalent on structures whose "
        f"<={result.bound}-generated submodels have <={result.size_cap} elements "
        f"(nu={result.size_cap}, disjuncts={result.disjuncts})",
    ]


def _cmd_product(args, out) -> int:
    sig, structures = _load_structures(args.structures)
    ideal, listed, _members = parse_ideal_file(_read_file(args.ideal))
    problems = validate_ideal(ideal)
    if problems:
        raise _InputError(f"{args.ideal}: {problems[0]}")
    if args.cone_filter or listed is None:
        filt = upper_cone_filter(ideal)
    else:
        try:
            filt = filter_from_members(ideal.sets, listed)
        except ValueError as exc:
            raise _InputError(f"{args.ideal}: {exc}") from exc
    parent_name = args.parent or next(iter(structures))
    if parent_name not in structures:
        raise _InputError(f"no structure named {parent_name} in {args.structures}")
    parent = structures[parent_name]
    manifest = _manifest(
        "product", args,
        ["structures", "ideal", "cone-filter", "verify-embedding", "parent", "seed"],
    )
    system = induced_system(parent, ideal.sets)
    if args.verify_embedding:
        report = canonical_embedding(system, filt)
        rp = report.product
    else:
        rp = reduced_product(system.components, filt)
        report = None
    out(manifest.line())
    out(f"index family: {len(rp.index_family)} sets")
    # a count too large to print is stated as the power of two it reaches
    total = rp.choice_functions.total
    bits = total.bit_length() - 1
    out(f"choice functions: {total if bits < _PRINTABLE_BITS else f'at least 2^{bits}'}")
    out(f"classes: {rp.structure.size}")
    for line in render_structures(sig, {"product": rp.structure}).splitlines():
        out(line)
    if report is not None:
        out(
            "embedding: injective={} predicates={} functions={} constants={} -> {}".format(
                "yes" if report.injective else "no",
                "ok" if report.predicates_ok else "FAIL",
                "ok" if report.functions_ok else "FAIL",
                "ok" if report.constants_ok else "FAIL",
                "PASS" if report.passed else "FAIL",
            )
        )
        if not report.passed:
            for violation in report.violations:
                out(f"  {violation}")
            return 1
    return 0


def _probe_config(args, sig: Signature) -> ProbeConfig:
    return ProbeConfig(
        signature=sig,
        n_max=args.n_max,
        lambda_max=args.lambda_max,
        nu=args.nu,
        mode=args.mode,
        cap=args.cap,
    )


def _cmd_probe(args, out) -> int:
    report, code = _run_probe(args)
    manifest = _manifest(
        "probe", args,
        [
            "check", "formula", "formula2", "formula-file", "psi", "k",
            "n-max", "lambda-max", "nu", "mode", "signature", "theta-left",
            "theta-right", "raw", "cap", "workers", "seed",
        ],
    )
    out(manifest.line())
    out(render_probe_report(report).rstrip("\n"))
    return code


def _run_probe(args):
    """The probe's verdict or demo report and its exit code."""
    if args.workers != 1:
        raise _InputError("--workers must be 1: probes run in one process")
    sig = _signature_from_args(args)

    if args.check == "constants":
        if args.k is None:
            raise _InputError("--k is required for the constants demo")
        if args.k > args.cap:
            raise CapExceededError(args.k, args.cap, "constants")
        demo_sig = Signature(constants=tuple(f"c{i}" for i in range(args.k)))
        psi_text = args.psi or "true"
        psi = parse_formula(psi_text, demo_sig)
        report = constant_blindness_demo(args.k, psi)
        return report, 0 if (report.theta_differs and report.agree_on_psi) else 1

    if args.check == "wellfounded":
        if sig is None:
            sig = Signature(predicates=(("R", 2),))
        cfg = _probe_config(args, sig)
        report = wellfoundedness_demo(cfg)
        return report, 0 if report.passed else 1

    text = _formula_text(args)
    if sig is None and args.formula2:
        left, right = (parse_with_inference(t)[1] for t in (text, args.formula2))
        merged = [dict(left.predicates), dict(left.functions)]
        for table, symbols in zip(merged, (right.predicates, right.functions)):
            for name, arity in symbols:
                if table.setdefault(name, arity) != arity:
                    raise _InputError(f"{name} used with conflicting arities")
        sig = Signature(
            *(tuple(sorted(table.items())) for table in merged),
            tuple(sorted({*left.constants, *right.constants})),
        )
    formula, sig = _parse_against(text, sig)
    second = parse_formula(args.formula2, sig) if args.formula2 else None

    cfg = _probe_config(args, sig)

    if args.check == "equivalence":
        if second is None:
            raise _InputError("--formula2 is required for equivalence probes")
        left = ThetaOf(formula) if args.theta_left else formula
        right = ThetaOf(second) if args.theta_right else second
        verdict = equivalence_oracle(left, right, cfg)
        return verdict, 0 if verdict.equal else 1

    if args.check == "extensions":
        verdict = preservation_under_extensions(formula, cfg, apply_theta=not args.raw)
        return verdict, 0 if verdict.preserved else 1

    if args.check == "witness-bound":
        verdict = witness_bound_search(formula, cfg)
        return verdict, 0 if verdict.outcome == "WITNESS_BOUND_FOUND" else 1

    raise _InputError(f"unknown check {args.check}")


def _cmd_enumerate(args, out) -> int:
    sig = _signature_from_args(args)
    if sig is None:
        raise _InputError("--signature is required")
    structures = {}
    for index, s in enumerate(
        enumerate_structures(sig, args.n, up_to_iso=args.up_to_iso, cap=args.cap)
    ):
        structures[f"S{index}"] = s
    manifest = _manifest("enumerate", args, ["signature", "n", "up-to-iso", "cap", "seed"])
    out(manifest.line())
    out(f"# {len(structures)} structures")
    for line in render_structures(sig, structures).splitlines():
        out(line)
    return 0


# --- argument parsing -----------------------------------------------------------


@memo()
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="subsat",
        description="Finite-model workbench for satisfiability in submodels.",
    )
    parser.add_argument("--version", action="version", version=f"subsat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_formula_args(p):
        p.add_argument("--formula", help="formula text (wins over --formula-file)")
        p.add_argument("--formula-file", help="file containing the formula")

    def add_common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="recorded in the manifest; no command reads it")

    p_eval = sub.add_parser("eval", help="evaluate a sentence in structures")
    p_eval.add_argument("--structure", required=True, help="structure file")
    p_eval.add_argument("--name", help="structure name (default: all in file)")
    add_formula_args(p_eval)
    add_common(p_eval)

    p_theta = sub.add_parser("theta", help="submodel-satisfiability check")
    p_theta.add_argument("--structure", required=True)
    p_theta.add_argument("--name")
    p_theta.add_argument("--lambda", type=int, default=None,
                         help="restrict to submodels generated by <= L elements")
    add_formula_args(p_theta)
    add_common(p_theta)

    p_tr = sub.add_parser("translate", help="syntactic translations of the check")
    p_tr.add_argument("--to", choices=["eso", "existential"], required=True)
    p_tr.add_argument("--lambda", type=int, default=None)
    p_tr.add_argument("--nu", type=int, default=None,
                      help="generated-submodel size cap (functional signatures)")
    p_tr.add_argument("--signature", help="file whose signature block to use")
    add_formula_args(p_tr)
    add_common(p_tr)

    p_prod = sub.add_parser("product", help="reduced products and embeddings")
    p_prod.add_argument("--structures", required=True, help="structure file (parent first)")
    p_prod.add_argument("--ideal", required=True, help="ideal (and optional filter) file")
    p_prod.add_argument("--cone-filter", action="store_true",
                        help="synthesize the upper-cone filter from the ideal")
    p_prod.add_argument("--verify-embedding", action="store_true")
    p_prod.add_argument("--parent", help="parent structure name (default: first)")
    add_common(p_prod)

    p_probe = sub.add_parser("probe", help="semantic probes over small structures")
    p_probe.add_argument(
        "--check",
        choices=["equivalence", "extensions", "witness-bound", "wellfounded", "constants"],
        required=True,
    )
    add_formula_args(p_probe)
    p_probe.add_argument("--formula2", help="second formula (equivalence probes)")
    p_probe.add_argument("--theta-left", action="store_true",
                         help="apply the submodel check to the first formula")
    p_probe.add_argument("--theta-right", action="store_true")
    p_probe.add_argument("--raw", action="store_true",
                         help="extensions: test the raw sentence, not its submodel check")
    p_probe.add_argument("--signature", help="file whose signature block to use")
    p_probe.add_argument("--n-max", type=int, default=4)
    p_probe.add_argument("--lambda-max", type=int, default=None)
    p_probe.add_argument("--nu", type=int, default=None,
                         help="must be >= --lambda-max; no probe reads it")
    p_probe.add_argument("--mode", choices=["submodel", "fragment"], default="submodel")
    p_probe.add_argument("--cap", type=int, default=5_000_000)
    p_probe.add_argument("--workers", type=int, default=1,
                         help="only 1: probes run in one process (kept in the manifest)")
    p_probe.add_argument("--k", type=int, help="constant count for the constants demo")
    p_probe.add_argument("--psi", help="sentence for the constants demo")
    add_common(p_probe)

    p_enum = sub.add_parser("enumerate", help="enumerate structures of a size")
    p_enum.add_argument("--signature", required=True)
    p_enum.add_argument("-n", type=int, required=True)
    p_enum.add_argument("--up-to-iso", action="store_true")
    p_enum.add_argument("--cap", type=int, default=5_000_000)
    add_common(p_enum)

    return parser


_HANDLERS = {
    "eval": _cmd_eval,
    "theta": _cmd_theta,
    "translate": _cmd_translate,
    "product": _cmd_product,
    "probe": _cmd_probe,
    "enumerate": _cmd_enumerate,
}


def main(argv=None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout

    def out(line: str):
        print(line, file=stdout)

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = _HANDLERS[args.command]
    try:
        return handler(args, out)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FormulaSyntaxError as exc:
        print(f"error: formula {exc}", file=sys.stderr)
        return 2
    except StructureFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
