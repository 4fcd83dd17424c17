"""Brute-force semantic probes: equivalence, preservation, witness bounds, demos.

Verdicts carry re-checkable counterexamples, never summaries.  All sweeps
run in deterministic enumeration order so reports are reproducible
byte-for-byte.  They stream the iso classes from ``enumerate_structures``
(memoised representatives, built by one-point extension for
predicate-only signatures), in one process.  Each sweep classifies and
compiles its sentences once.

Over predicate-only signatures, a size whose classes come from packed
masks is swept bit-sliced: every sentence whose evaluation cannot raise
(variables for terms, the signature's predicates) is decided for all
classes at once on the size's predicate columns (``structures.Columns``,
bit i for the i-th class), and a submodel check is the disjunction of
its sentence over the carriers, there every nonempty subset.  The equivalence
oracle then builds only the first class where the sides differ, the
lowest set bit of their xor; the witness-bound search builds only the
first class that satisfies its sentence with no small witness; the
well-foundedness demo takes its submodel checks from one column and its
cycle oracle from a transitive closure of the columns.  Each class is
represented by its least mask, its first labelled member, and the
representatives ascend, so the first class hit holds the first labelled
structure hit.  Callables and every other side keep the class-by-class loop, and other
witness-bound searches the generic path, which evaluates every labelled
structure and its small carriers in place on the raw tables and is the
column search's reference in the test suite.  Only a returned
counterexample is built as a ``Structure``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .logic import (
    Eq,
    Forall,
    Exists,
    Atom,
    Formula,
    Var,
    compile_formula,
    constant_names,
    evaluate_eso,
    evaluate_fo,
    free_variables,
    render_formula,
)
from .structures import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    Columns,
    Signature,
    Structure,
    enumerate_structures,
    enumerate_submodels,
    fragment_occurs,
    induced_fragment,
    induced_substructure,
    labelled_structure_count,
    render_structures,
    _iso_columns,
    _iso_level,
    _iso_path_applies,
    _labelled_interpretations,
    _predicate_only_iso_masks,
    _structure_from_mask,
)
from .theta import _sliced_formula, theta_bounded_semantic, theta_semantic

# Witness searches on class columns count labelled masks scanned in quanta
# of this many, so that ``structures_scanned`` keeps the counts that a
# labelled scan in chunks of 2**20 masks reported (and that tests pin).
_SCAN_QUANTUM = 1 << 20


@dataclass(frozen=True)
class ProbeConfig:
    """Search ceilings: structure size, witness size, generated-model cap.

    ``lambda_max`` defaults to min(3, n_max) and ``nu`` to
    max(lambda_max, 4); the invariants n_max >= 1, 1 <= lambda_max <= n_max
    and nu >= lambda_max are enforced, in that order.
    """

    signature: Signature
    n_max: int = 4
    lambda_max: Optional[int] = None
    nu: Optional[int] = None
    mode: str = "submodel"
    cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("need n_max >= 1")
        if self.lambda_max is None:
            object.__setattr__(self, "lambda_max", min(3, self.n_max))
        if self.nu is None:
            object.__setattr__(self, "nu", max(self.lambda_max, 4))
        if not 1 <= self.lambda_max <= self.n_max:
            raise ValueError("need 1 <= lambda_max <= n_max")
        if self.nu < self.lambda_max:
            raise ValueError("generated-model cap nu must be >= lambda_max")
        if self.mode not in ("submodel", "fragment"):
            raise ValueError("mode must be 'submodel' or 'fragment'")


# --- sentence-like things -----------------------------------------------------


@dataclass(frozen=True)
class ThetaOf:
    """Pseudo-sentence: 'some submodel satisfies the formula'."""

    formula: Formula


@dataclass(frozen=True)
class BoundedThetaOf:
    """Pseudo-sentence: 'some submodel generated by <= bound elements satisfies it'."""

    formula: Formula
    bound: int


SentenceLike = Union[Formula, ThetaOf, BoundedThetaOf, Callable[[Structure], bool]]


def sentence_checker(item: SentenceLike) -> Callable[[Structure], bool]:
    """Classify (and compile) ``item`` once; the result decides it on a structure.

    Formulas with a set quantifier are evaluated as monadic existential
    second-order sentences, all others as first-order ones.
    """
    if isinstance(item, ThetaOf):
        phi = item.formula
        return lambda s: theta_semantic(s, phi).truth
    if isinstance(item, BoundedThetaOf):
        phi, bound = item.formula, item.bound
        return lambda s: theta_bounded_semantic(s, phi, bound).truth
    if callable(item) and not _is_formula(item):
        return lambda s: bool(item(s))
    if compile_formula(item).has_set_quantifier:
        return lambda s: evaluate_eso(s, item)
    return lambda s: evaluate_fo(s, item)


def _is_formula(item) -> bool:
    return hasattr(item, "__dataclass_fields__") and not isinstance(
        item, (ThetaOf, BoundedThetaOf)
    )


def _sliceable(item: SentenceLike, sig: Signature) -> bool:
    """Whether ``_class_truths`` decides ``item`` (callables never)."""
    if isinstance(item, ThetaOf):
        return _sliced_formula(item.formula, sig, True)
    if isinstance(item, BoundedThetaOf):
        return item.bound >= 1 and _sliced_formula(item.formula, sig, True)
    return _is_formula(item) and _sliced_formula(item, sig, False)


def _class_truths(item: SentenceLike, columns: Columns, n: int) -> int:
    """Truth of a ``_sliceable`` item in every class of ``columns`` (size
    ``n``), as a column.  The submodel check is the disjunction of the
    formula evaluated in place on each carrier (the relativization lemma,
    on columns): with predicates only every nonempty subset is a carrier,
    and the bounded check keeps those of at most ``bound`` points."""
    if isinstance(item, (ThetaOf, BoundedThetaOf)):
        compiled = compile_formula(item.formula, sliced=True)
        bound = item.bound if isinstance(item, BoundedThetaOf) else n
        truth = 0
        for k in range(1, min(bound, n) + 1):
            for carrier in itertools.combinations(range(n), k):
                truth |= compiled.holds_sliced(columns, carrier)
                if truth == columns.full:
                    return truth
        return truth
    compiled = compile_formula(item, sliced=True)
    if compiled.has_set_quantifier:
        return compiled.holds_eso_sliced(columns, range(n))
    return compiled.holds_sliced(columns, range(n))


def describe_sentence_like(item: SentenceLike) -> str:
    if isinstance(item, ThetaOf):
        return f"theta[{render_formula(item.formula)}]"
    if isinstance(item, BoundedThetaOf):
        return f"theta<={item.bound}[{render_formula(item.formula)}]"
    if callable(item) and not _is_formula(item):
        return getattr(item, "__name__", "<callable>")
    return render_formula(item)


# --- equivalence oracle ---------------------------------------------------------


@dataclass
class EquivalenceVerdict:
    equal: bool
    counterexample: Optional[Structure]
    left_truth: Optional[bool]
    right_truth: Optional[bool]
    checked: int
    n_max: int


def equivalence_oracle(
    left: SentenceLike, right: SentenceLike, cfg: ProbeConfig
) -> EquivalenceVerdict:
    """First structure (up to isomorphism, sizes ascending) where truth differs.

    ``left``/``right`` may be formulas, theta wrappers, or arbitrary
    structure predicates.

    When both sides are sentences over the predicates of a predicate-only
    signature (formulas, first-order or with a set prefix, or theta
    wrappers of first-order ones), each size taken from packed class masks
    is decided bit-sliced: each side is evaluated once, on the columns of
    all that size's classes, and the first class where they differ is the
    lowest set bit of the two columns' xor.  Only that class is built.
    Every other size and side (callables, constants, function terms, open
    formulas, symbols outside the signature) is checked class by class,
    so its errors are unchanged.
    """
    sig = cfg.signature
    checked = 0
    left_check, right_check = sentence_checker(left), sentence_checker(right)
    sliced = _sliceable(left, sig) and _sliceable(right, sig)
    for n in range(1, cfg.n_max + 1):
        if sliced and _iso_path_applies(sig, n):
            classes = _predicate_only_iso_masks(sig, n, cfg.cap)  # refuses before the work
            columns = _iso_columns(sig, n)
            lt, rt = _class_truths(left, columns, n), _class_truths(right, columns, n)
            differ = lt ^ rt
            if differ:
                i = (differ & -differ).bit_length() - 1
                return EquivalenceVerdict(
                    False, _structure_from_mask(sig, n, classes[i]),
                    bool(lt >> i & 1), bool(rt >> i & 1), checked + i + 1, cfg.n_max,
                )
            checked += len(classes)
            continue
        for s in enumerate_structures(sig, n, up_to_iso=True, cap=cfg.cap):
            checked += 1
            lt, rt = left_check(s), right_check(s)
            if lt != rt:
                return EquivalenceVerdict(False, s, lt, rt, checked, cfg.n_max)
    return EquivalenceVerdict(True, None, None, None, checked, cfg.n_max)


# --- preservation under extensions ----------------------------------------------


@dataclass
class PreservationVerdict:
    preserved: bool
    counterexample: Optional[tuple]  # (carrier, substructure, structure)
    checked: int
    n_max: int
    target: str


def preservation_under_extensions(
    phi: Formula, cfg: ProbeConfig, apply_theta: bool = True
) -> PreservationVerdict:
    """Check that the target holds in a structure whenever it holds in a submodel.

    By default the target is the submodel check of ``phi`` (which the
    theory guarantees); with ``apply_theta=False`` the raw sentence is
    tested instead, where counterexamples are expected.
    """
    target: SentenceLike = ThetaOf(phi) if apply_theta else phi
    holds = sentence_checker(target)
    checked = 0
    for n in range(1, cfg.n_max + 1):
        for s in enumerate_structures(cfg.signature, n, up_to_iso=True, cap=cfg.cap):
            holds_in_s = holds(s)
            for carrier in enumerate_submodels(s):
                checked += 1
                if len(carrier) == s.size:
                    continue
                sub = induced_substructure(s, carrier)
                if holds(sub) and not holds_in_s:
                    return PreservationVerdict(
                        False, (carrier, sub, s), checked, cfg.n_max,
                        describe_sentence_like(target),
                    )
    return PreservationVerdict(True, None, checked, cfg.n_max, describe_sentence_like(target))


# --- witness-bound search ---------------------------------------------------------


@dataclass
class ProbeVerdict:
    outcome: str  # "WITNESS_BOUND_FOUND" | "NO_BOUND_UP_TO"
    bound: Optional[int]
    n_max: int
    lambda_max: int
    mode: str
    counterexamples: tuple = ()  # pairs (lambda, structure)
    stats: dict = field(default_factory=dict)


def _column_first_counterexample(
    phi: Formula, sig: Signature, n: int, lam: int, cap: int, truths: dict
) -> tuple[Optional[Structure], int]:
    """First labelled size-n structure satisfying phi with no phi-submodel of
    size <= lam, decided on the class columns; returns (hit, scanned).

    For a ``_sliced_formula`` on a signature ``_iso_path_applies`` to.  If
    phi holds in every class of some size k <= lam, every structure has a
    witness of size k and no size-n class is built.  Otherwise the
    counterexamples are the column phi & ~theta<=lam(phi) at size n; they
    are closed under isomorphism, so the first labelled one is the least
    mask of the class at its lowest set bit.  ``scanned`` counts labelled
    masks in quanta of ``_SCAN_QUANTUM``: up to the end of the hit's, or
    the whole space.  ``truths`` memoises phi's column per size.
    """
    total = 2 ** sum(n**arity for _, arity in sig.predicates)

    def phi_at(k):
        if k not in truths:
            _predicate_only_iso_masks(sig, k, cap)  # refuses before the work
            truths[k] = _class_truths(phi, _iso_columns(sig, k), k)
        return truths[k]

    if any(phi_at(k) == _iso_columns(sig, k).full for k in range(1, lam + 1)):
        return None, total
    models = phi_at(n)  # refuses before size n is built
    witnessed = _class_truths(BoundedThetaOf(phi, lam), _iso_columns(sig, n), n)
    counterexamples = models & ~witnessed
    if not counterexamples:
        return None, total
    mask = int(_iso_level(sig, n)[(counterexamples & -counterexamples).bit_length() - 1])
    scanned = min((mask // _SCAN_QUANTUM + 1) * _SCAN_QUANTUM, total)
    return _structure_from_mask(sig, n, mask), scanned


def _generic_first_counterexample(
    phi: Formula, sig: Signature, n: int, lam: int, cap: int
) -> tuple[Optional[Structure], int]:
    """The search over any signature, and the reference for the column
    search: every labelled structure in order, each and its small carriers
    evaluated in place."""
    count = labelled_structure_count(sig, n)
    if count > cap:
        raise CapExceededError(count, cap)
    compiled = compile_formula(phi)
    domain = range(n)
    scanned = 0
    for tables in _labelled_interpretations(sig, n):
        scanned += 1
        if not compiled.holds(tables, domain):
            continue
        if not any(
            compiled.holds(tables, sorted(c))
            for c in enumerate_submodels(tables, max_card=lam)
        ):
            return Structure._trusted(tables), scanned
    return None, scanned


def _first_submodel_counterexample(
    phi: Formula, cfg: ProbeConfig, lam: int, truths: dict
) -> tuple[Optional[Structure], int]:
    """First structure of size in (lam, n_max] that satisfies phi but has no
    phi-submodel of size <= lam.  Sizes <= lam are their own witnesses."""
    sig = cfg.signature
    sliced = _sliced_formula(phi, sig, True)
    scanned = 0
    for n in range(lam + 1, cfg.n_max + 1):
        if sliced and _iso_path_applies(sig, n):
            hit, done = _column_first_counterexample(phi, sig, n, lam, cfg.cap, truths)
        else:
            hit, done = _generic_first_counterexample(phi, sig, n, lam, cfg.cap)
        scanned += done
        if hit is not None:
            return hit, scanned
    return None, scanned


def witness_bound_search(phi: Formula, cfg: ProbeConfig) -> ProbeVerdict:
    """Smallest witness size that certifies the submodel check, or counterexamples.

    submodel mode: the smallest lambda <= lambda_max such that every
    phi-model up to n_max has a phi-submodel of size <= lambda.  fragment
    mode: the smallest lambda such that every phi-model has a fragment of
    size <= lambda whose every occurrence (up to n_max) lies in a
    structure satisfying the submodel check; fragment verdicts are
    relative to n_max.  NO_BOUND verdicts carry one counterexample per
    lambda, sizes strictly increasing.
    """
    if cfg.mode == "submodel":
        return _witness_bound_submodel(phi, cfg)
    return _witness_bound_fragment(phi, cfg)


def _witness_bound_submodel(phi: Formula, cfg: ProbeConfig) -> ProbeVerdict:
    truths: dict = {}
    family = []
    scanned_total = 0
    for lam in range(1, cfg.lambda_max + 1):
        hit, scanned = _first_submodel_counterexample(phi, cfg, lam, truths)
        scanned_total += scanned
        if hit is None:
            return ProbeVerdict(
                "WITNESS_BOUND_FOUND",
                lam,
                cfg.n_max,
                cfg.lambda_max,
                cfg.mode,
                tuple(family),
                {"structures_scanned": scanned_total},
            )
        family.append((lam, hit))
    return ProbeVerdict(
        "NO_BOUND_UP_TO",
        None,
        cfg.n_max,
        cfg.lambda_max,
        cfg.mode,
        tuple(family),
        {"structures_scanned": scanned_total},
    )


def _witness_bound_fragment(phi: Formula, cfg: ProbeConfig) -> ProbeVerdict:
    by_size = {
        n: list(enumerate_structures(cfg.signature, n, up_to_iso=True, cap=cfg.cap))
        for n in range(1, cfg.n_max + 1)
    }
    all_structures = [s for n in sorted(by_size) for s in by_size[n]]
    theta_truth = [theta_semantic(s, phi).truth for s in all_structures]
    models = [s for s in all_structures if evaluate_fo(s, phi)]
    certified: dict = {}

    def fragment_certifies(frag) -> bool:
        # the carrier's size in place of the carrier: equal keys, isomorphic fragments
        key = (len(frag.carrier),) + frag.key()[1:]
        if key not in certified:
            ok = True
            for s, truth in zip(all_structures, theta_truth):
                if truth:
                    continue
                if fragment_occurs(frag, s):
                    ok = False
                    break
            certified[key] = ok
        return certified[key]

    family = []
    for lam in range(1, cfg.lambda_max + 1):
        counterexample = None
        for s in models:
            found = False
            for k in range(1, min(lam, s.size) + 1):
                for combo in itertools.combinations(range(s.size), k):
                    if fragment_certifies(induced_fragment(s, combo)):
                        found = True
                        break
                if found:
                    break
            if not found:
                counterexample = s
                break
        if counterexample is None:
            return ProbeVerdict(
                "WITNESS_BOUND_FOUND",
                lam,
                cfg.n_max,
                cfg.lambda_max,
                cfg.mode,
                tuple(family),
                {"models_checked": len(models)},
            )
        family.append((lam, counterexample))
    return ProbeVerdict(
        "NO_BOUND_UP_TO",
        None,
        cfg.n_max,
        cfg.lambda_max,
        cfg.mode,
        tuple(family),
        {"models_checked": len(models)},
    )


# --- demos ---------------------------------------------------------------------


def has_directed_cycle(s: Structure, predicate: str) -> bool:
    """Independent cycle oracle: iterative three-color DFS over the edge set."""
    edges = {}
    for t in s.predicates[predicate]:
        edges.setdefault(t[0], []).append(t[1])
    color = {v: 0 for v in range(s.size)}
    for root in range(s.size):
        if color[root]:
            continue
        stack = [(root, iter(sorted(edges.get(root, ()))))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    return True
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


@dataclass
class WellfoundednessReport:
    sentence: str
    structures_checked: int
    cyclic_count: int
    mismatches: tuple
    n_max: int

    @property
    def passed(self) -> bool:
        return not self.mismatches


def wellfoundedness_demo(cfg: ProbeConfig) -> WellfoundednessReport:
    """The submodel check of 'every element has a predecessor' detects cycles.

    Sweeps all structures up to n_max and compares against an independent
    cycle search; on finite structures the two agree everywhere.  Each
    size taken from packed class masks is decided for all its classes at
    once: the submodel check bit-sliced, and the cycles by Warshall's
    transitive closure of the edge columns (a class is cyclic when some
    point reaches itself); only mismatching classes are built.  Other
    sizes run the submodel check and a graph search on each structure.
    """
    sig = cfg.signature
    if len(sig.predicates) != 1 or sig.predicates[0][1] != 2 or sig.functions or sig.constants:
        raise ValueError("demo needs a signature with exactly one binary predicate")
    name = sig.predicates[0][0]
    phi = Forall("x", Exists("y", Atom(name, (Var("y"), Var("x")))))
    checked = 0
    cyclic = 0
    mismatches = []
    for n in range(1, cfg.n_max + 1):
        if not _iso_path_applies(sig, n):
            for s in enumerate_structures(sig, n, up_to_iso=True, cap=cfg.cap):
                checked += 1
                c = has_directed_cycle(s, name)
                cyclic += c
                if theta_semantic(s, phi).truth != c:
                    mismatches.append(s)
            continue
        classes = _predicate_only_iso_masks(sig, n, cfg.cap)  # refuses before the work
        columns = _iso_columns(sig, n)
        theta = _class_truths(ThetaOf(phi), columns, n)
        reach = [[columns.predicates[name][i, j] for j in range(n)] for i in range(n)]
        for k in range(n):
            for i in range(n):
                if reach[i][k]:
                    for j in range(n):
                        reach[i][j] |= reach[i][k] & reach[k][j]
        cycles = 0
        for i in range(n):
            cycles |= reach[i][i]
        checked += len(classes)
        cyclic += cycles.bit_count()
        differ = theta ^ cycles
        while differ:
            i = (differ & -differ).bit_length() - 1
            mismatches.append(_structure_from_mask(sig, n, classes[i]))
            differ &= differ - 1
    return WellfoundednessReport(
        render_formula(phi), checked, cyclic, tuple(mismatches), cfg.n_max
    )


@dataclass
class ConstantBlindnessReport:
    constant_count: int
    psi: str
    named_constants: tuple
    agree_on_psi: bool
    theta_in_a: bool
    theta_in_b: bool
    distinguishing_constant: str
    structure_a: Structure
    structure_b: Structure

    @property
    def theta_differs(self) -> bool:
        return self.theta_in_a != self.theta_in_b


def constant_blindness_demo(k: int, psi: Formula) -> ConstantBlindnessReport:
    """Two structures agreeing on any sentence naming < k constants can still
    disagree on the single-point-submodel check.

    Builds the two-point structures where all constants (resp. only the
    constants named in psi) sit on the first point.  The disagreement on
    the submodel check of 'everything is equal' requires psi to name at
    least one constant; the report records the facts either way.
    """
    if k < 1:
        raise ValueError("need at least one constant symbol")
    sig = Signature(constants=tuple(f"c{i}" for i in range(k)))
    free = sorted(free_variables(psi))
    if free:
        # a name outside c0..c{k-1} parses as a variable
        raise ValueError(f"psi must be a sentence over {', '.join(sig.constants)}; "
                         f"free names: {', '.join(free)}")
    named = tuple(sorted(constant_names(psi)))
    unknown = [c for c in named if not sig.has_constant(c)]
    if unknown:
        raise ValueError(f"psi names symbols outside the signature: {unknown}")
    if len(named) >= k:
        raise ValueError("psi must name fewer constants than the signature has")
    a = Structure(sig, 2, constants={c: 0 for c in sig.constants})
    b = Structure(
        sig, 2, constants={c: 0 if c in named else 1 for c in sig.constants}
    )
    phi = Forall("x", Forall("y", Eq(Var("x"), Var("y"))))
    psi_in_a = evaluate_fo(a, psi)
    psi_in_b = evaluate_fo(b, psi)
    theta_a = theta_semantic(a, phi).truth
    theta_b = theta_semantic(b, phi).truth
    distinguishing = next(c for c in sig.constants if c not in named)
    return ConstantBlindnessReport(
        k,
        render_formula(psi),
        named,
        psi_in_a == psi_in_b,
        theta_a,
        theta_b,
        distinguishing,
        a,
        b,
    )


# --- report rendering -------------------------------------------------------------


def render_probe_report(verdict) -> str:
    """Plain-text sections plus a machine-readable summary line."""
    lines = []
    if isinstance(verdict, ProbeVerdict):
        lines.append("verdict:")
        if verdict.outcome == "WITNESS_BOUND_FOUND":
            lines.append(f"  witness bound lambda={verdict.bound} suffices up to n_max={verdict.n_max}")
        else:
            lines.append(
                f"  no witness bound up to lambda_max={verdict.lambda_max} "
                f"for structures up to n_max={verdict.n_max}"
            )
        if verdict.mode == "fragment":
            lines.append("  (fragment-mode verdicts are relative to n_max)")
        lines.append("parameters:")
        lines.append(f"  n_max={verdict.n_max} lambda_max={verdict.lambda_max} mode={verdict.mode}")
        for key in sorted(verdict.stats):
            lines.append(f"  {key}={verdict.stats[key]}")
        if verdict.counterexamples:
            lines.append("counterexamples:")
            sig = verdict.counterexamples[0][1].signature
            named = {
                f"counterexample_lambda_{lam}": s for lam, s in verdict.counterexamples
            }
            for raw in render_structures(sig, named).splitlines():
                lines.append("  " + raw)
        bound = verdict.bound if verdict.bound is not None else "none"
        lines.append(
            f"VERDICT lambda={bound} n_max={verdict.n_max} mode={verdict.mode} "
            f"outcome={verdict.outcome}"
        )
    elif isinstance(verdict, EquivalenceVerdict):
        lines.append("verdict:")
        lines.append(
            "  equal up to n_max" if verdict.equal else "  counterexample found"
        )
        lines.append("parameters:")
        lines.append(f"  n_max={verdict.n_max} structures_checked={verdict.checked}")
        if verdict.counterexample is not None:
            lines.append("counterexamples:")
            sig = verdict.counterexample.signature
            text = render_structures(sig, {"counterexample": verdict.counterexample})
            for raw in text.splitlines():
                lines.append("  " + raw)
            lines.append(f"  left={verdict.left_truth} right={verdict.right_truth}")
        lines.append(
            f"VERDICT equal={'yes' if verdict.equal else 'no'} n_max={verdict.n_max} "
            f"checked={verdict.checked}"
        )
    elif isinstance(verdict, PreservationVerdict):
        lines.append("verdict:")
        lines.append(
            "  preserved under extensions up to n_max"
            if verdict.preserved
            else "  extension-preservation fails"
        )
        lines.append("parameters:")
        lines.append(
            f"  n_max={verdict.n_max} target={verdict.target} pairs_checked={verdict.checked}"
        )
        if verdict.counterexample is not None:
            carrier, sub, s = verdict.counterexample
            lines.append("counterexamples:")
            lines.append(f"  carrier {{{','.join(str(x) for x in sorted(carrier))}}}")
            text = render_structures(s.signature, {"substructure": sub, "structure": s})
            for raw in text.splitlines():
                lines.append("  " + raw)
        lines.append(
            f"VERDICT preserved={'yes' if verdict.preserved else 'no'} n_max={verdict.n_max}"
        )
    elif isinstance(verdict, WellfoundednessReport):
        lines.append("verdict:")
        lines.append(
            "  submodel check of the no-minimal-element sentence matches cycle detection"
            if verdict.passed
            else "  MISMATCH between submodel check and cycle detection"
        )
        lines.append("parameters:")
        lines.append(f"  sentence={verdict.sentence}")
        lines.append(
            f"  n_max={verdict.n_max} structures_checked={verdict.structures_checked} "
            f"cyclic={verdict.cyclic_count} "
            f"acyclic={verdict.structures_checked - verdict.cyclic_count}"
        )
        if verdict.mismatches:
            lines.append("counterexamples:")
            sig = verdict.mismatches[0].signature
            named = {f"mismatch_{i}": s for i, s in enumerate(verdict.mismatches)}
            for raw in render_structures(sig, named).splitlines():
                lines.append("  " + raw)
        lines.append(
            f"VERDICT agree={'yes' if verdict.passed else 'no'} n_max={verdict.n_max} "
            f"checked={verdict.structures_checked}"
        )
    elif isinstance(verdict, ConstantBlindnessReport):
        lines.append("verdict:")
        if verdict.theta_differs and verdict.agree_on_psi:
            lines.append(
                "  structures agree on psi yet differ on the single-point-submodel check"
            )
        else:
            lines.append("  demo inconclusive for this psi")
        lines.append("parameters:")
        lines.append(f"  constants={verdict.constant_count} psi={verdict.psi}")
        lines.append(
            f"  named={','.join(verdict.named_constants) if verdict.named_constants else '-'} "
            f"distinguishing={verdict.distinguishing_constant}"
        )
        lines.append(
            f"  psi_agrees={verdict.agree_on_psi} theta_A={verdict.theta_in_a} "
            f"theta_B={verdict.theta_in_b}"
        )
        sig = verdict.structure_a.signature
        lines.append("structures:")
        for raw in render_structures(
            sig, {"A": verdict.structure_a, "B": verdict.structure_b}
        ).splitlines():
            lines.append("  " + raw)
        lines.append(
            f"VERDICT differs={'yes' if verdict.theta_differs else 'no'} "
            f"agree_on_psi={'yes' if verdict.agree_on_psi else 'no'}"
        )
    else:
        raise TypeError(f"no report renderer for {type(verdict).__name__}")
    return "\n".join(lines) + "\n"
