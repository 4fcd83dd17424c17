import functools
import importlib
import io
import itertools
import pkgutil
import sys
import time

import pytest

import subsat
from subsat import cli, logic, structures, theta
from subsat.cli import main

K2_FILE = """\
signature
predicate R 2
end
structure k2
universe 2
R 0 0
end
"""

UNAR_FILE = """\
signature
function F 1
end
structure z4
universe 4
F 0 -> 1
F 1 -> 2
F 2 -> 3
F 3 -> 0
end
"""

TWO_STRUCTS = """\
signature
predicate R 2
end
structure chain
universe 3
R 0 1
R 1 2
end
structure loop
universe 1
R 0 0
end
"""

IDEAL_FILE = """\
ideal
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


def run(argv):
    buf = io.StringIO()
    code = main(argv, stdout=buf)
    return code, buf.getvalue()


@pytest.fixture
def k2(tmp_path):
    path = tmp_path / "k2.st"
    path.write_text(K2_FILE)
    return str(path)


@pytest.fixture
def z4(tmp_path):
    path = tmp_path / "z4.st"
    path.write_text(UNAR_FILE)
    return str(path)


def test_eval_reports_truth(k2):
    code, text = run(["eval", "--structure", k2, "--formula", "exists x. R(x,x)"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("# manifest command=eval version=")
    assert lines[1] == "true"


def test_eval_decides_a_set_quantifier_prefix(k2, capsys):
    code, text = run(["eval", "--structure", k2, "--formula", "existsSet X. exists x. X(x)"])
    assert (code, text.splitlines()[1]) == (0, "true")
    code, text = run(
        ["eval", "--structure", k2, "--formula", "exists x. existsSet X. X(x)"]
    )
    assert code == 2
    assert "set quantifier not in prefix position" in capsys.readouterr().err


def test_theta_paper_example(k2):
    code, text = run(
        ["theta", "--structure", k2, "--formula", "exists x. forall y. R(x,y)"]
    )
    assert code == 0
    assert "true, witness {0}" in text


def test_theta_bounded(z4):
    code, text = run(
        ["theta", "--structure", z4, "--formula", "exists x. F(x) != x", "--lambda", "1"]
    )
    assert code == 0
    assert "true, witness {0,1,2,3}" in text


def test_translate_existential_paper_example():
    code, text = run(
        ["translate", "--to", "existential", "--lambda", "1",
         "--formula", "exists x. forall y. R(x,y)"]
    )
    assert code == 0
    assert "exists x0. R(x0,x0)" in text


def test_translate_eso():
    code, text = run(
        ["translate", "--to", "eso", "--formula", "exists x. forall y. R(x,y)"]
    )
    assert code == 0
    assert "existsSet X." in text


def test_translate_functional_requires_nu(z4):
    code, text = run(
        ["translate", "--to", "existential", "--lambda", "1",
         "--signature", z4, "--formula", "exists x. F(x) != x"]
    )
    assert code == 2
    code, text = run(
        ["translate", "--to", "existential", "--lambda", "1", "--nu", "2",
         "--signature", z4, "--formula", "exists x. F(x) != x"]
    )
    assert code == 0
    assert "disjuncts=2" in text


def test_product_with_cone_filter(tmp_path):
    structures = tmp_path / "s.st"
    structures.write_text(TWO_STRUCTS)
    ideal = tmp_path / "i.id"
    ideal.write_text(IDEAL_FILE)
    code, text = run(
        ["product", "--structures", str(structures), "--ideal", str(ideal),
         "--cone-filter", "--verify-embedding", "--parent", "chain"]
    )
    assert code == 0
    assert "embedding: injective=yes predicates=ok functions=ok constants=ok -> PASS" in text
    assert "structure product" in text


def test_probe_witness_bound_cycles_exit_code():
    code, text = run(
        ["probe", "--check", "witness-bound",
         "--formula", "forall x. exists y. R(x,y)",
         "--n-max", "5", "--lambda-max", "4", "--workers", "1"]
    )
    assert code == 1
    assert "VERDICT lambda=none n_max=5 mode=submodel outcome=NO_BOUND_UP_TO" in text
    assert "counterexample_lambda_4" in text


def test_probe_equivalence_theta_left():
    code, text = run(
        ["probe", "--check", "equivalence", "--theta-left",
         "--formula", "exists x. forall y. R(x,y)",
         "--formula2", "exists x. R(x,x)",
         "--n-max", "3", "--workers", "1"]
    )
    assert code == 0
    assert "VERDICT equal=yes" in text


def test_probe_extensions(k2):
    code, text = run(
        ["probe", "--check", "extensions", "--formula", "exists x. forall y. R(x,y)",
         "--n-max", "3", "--workers", "1"]
    )
    assert code == 0
    code, text = run(
        ["probe", "--check", "extensions", "--raw",
         "--formula", "forall x. exists y. R(x,y)",
         "--n-max", "3", "--workers", "1"]
    )
    assert code == 1


def test_probe_wellfounded():
    code, text = run(
        ["probe", "--check", "wellfounded", "--n-max", "3", "--workers", "1"]
    )
    assert code == 0
    assert "VERDICT agree=yes" in text


def test_probe_constants():
    code, text = run(
        ["probe", "--check", "constants", "--k", "3", "--psi", "c0 = c1"]
    )
    assert code == 0
    assert "VERDICT differs=yes agree_on_psi=yes" in text


def test_probe_constants_rejects_an_open_psi(capsys):
    # c5 is outside c0, c1, so it parses as a variable
    code, text = run(["probe", "--check", "constants", "--k", "2", "--psi", "c5 = c0"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        "error: psi must be a sentence over c0, c1; free names: c5\n"
    )


def test_enumerate_structures_output(tmp_path, k2):
    code, text = run(
        ["enumerate", "--signature", k2, "-n", "2", "--up-to-iso"]
    )
    assert code == 0
    assert "# 10 structures" in text
    assert "structure S0" in text and "structure S9" in text


def test_enumerate_cap_exit_code(k2):
    code, _ = run(["enumerate", "--signature", k2, "-n", "5"])
    assert code == 3


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.st"
    bad.write_text("signature\npredicate R 2\nend\nstructure A\nuniverse 2\nR 0\nend\n")
    code, _ = run(["eval", "--structure", str(bad), "--formula", "true"])
    assert code == 2
    code, _ = run(["eval", "--structure", str(tmp_path / "missing.st"),
                   "--formula", "true"])
    assert code == 2


def test_undecodable_file_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.st"
    path.write_bytes(b"\xffsignature\nend\n")
    code, text = run(["eval", "--structure", str(path), "--formula", "true"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


def test_formula_syntax_error_exit_code(k2):
    code, _ = run(["eval", "--structure", k2, "--formula", "exists x. R(x,"])
    assert code == 2


@pytest.mark.parametrize(
    "formula,message",
    [("forall x. Q(x)", "formula 1:11: unknown predicate Q"),
     ("exists x. G(x) = x", "formula 1:11: unknown function G")],
)
def test_undeclared_application_is_named_by_its_role(tmp_path, capsys, formula, message):
    path = tmp_path / "p_f.st"
    path.write_text("signature\npredicate P 1\nfunction F 1\nend\n"
                    "structure one\nuniverse 1\nF 0 -> 0\nend\n")
    code, text = run(["translate", "--to", "existential", "--lambda", "1", "--nu", "3",
                      "--signature", str(path), "--formula", formula])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


# Two formulas without a signature file: the signatures inferred from each
# must give every shared predicate and function one arity.
@pytest.mark.parametrize(
    "formula,formula2,symbol",
    [("exists x. R(x,x)", "exists x. R(x)", "R"),
     ("exists x. F(x) = x", "exists x. F(x,x) = x", "F")],
)
def test_formula_pair_with_conflicting_arities_is_refused(capsys, formula, formula2, symbol):
    code, text = run(["probe", "--check", "equivalence", "--formula", formula,
                      "--formula2", formula2])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {symbol} used with conflicting arities\n"


def test_reports_are_deterministic():
    argv = ["probe", "--check", "witness-bound",
            "--formula", "forall x. exists y. R(x,y)",
            "--n-max", "4", "--lambda-max", "3", "--workers", "1"]
    code1, text1 = run(argv)
    code2, text2 = run(argv)
    assert code1 == code2 == 1
    assert text1 == text2


def test_manifest_reflects_parameters():
    code, text = run(
        ["probe", "--check", "wellfounded", "--n-max", "2", "--seed", "7",
         "--workers", "1"]
    )
    assert code == 0
    manifest = text.splitlines()[0]
    assert "command=probe" in manifest
    assert "check=wellfounded" in manifest
    assert "n-max=2" in manifest
    assert "seed=7" in manifest


def test_inline_formula_wins_over_file(k2, tmp_path):
    other = tmp_path / "f.txt"
    other.write_text("exists x. !R(x,x)\n")
    code, text = run(
        ["eval", "--structure", k2, "--formula", "exists x. R(x,x)",
         "--formula-file", str(other)]
    )
    assert code == 0
    assert text.splitlines()[1] == "true"


# --- custom filter blocks ---------------------------------------------------------

DIGRAPH2_FILE = """\
signature
predicate R 2
end
structure d2
universe 2
R 0 1
R 1 1
end
"""

POWERSET2_IDEAL = """\
ideal
empty
0
1
0 1
end
"""

# the filter of all families containing {1} and {0,1}: not the cone filter
CUSTOM_FILTER = """\
filter
2 3
0 2 3
1 2 3
0 1 2 3
end
"""

CUSTOM_PRODUCT_REPORT = """\
# manifest command=product version=0.1.0 cone-filter=False ideal=i.id seed=0 \
structures=s.st verify-embedding=False
index family: 4 sets
choice functions: 2
classes: 2
signature
predicate R 2
end
structure product
universe 2
R 0 1
R 1 1
end
"""


def run_product_with_filter(tmp_path, monkeypatch, filter_block, *extra):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.st").write_text(DIGRAPH2_FILE)
    (tmp_path / "i.id").write_text(POWERSET2_IDEAL + filter_block)
    err = io.StringIO()
    monkeypatch.setattr("sys.stderr", err)
    code, text = run(["product", "--structures", "s.st", "--ideal", "i.id", *extra])
    return code, text, err.getvalue()


def test_product_with_custom_filter(tmp_path, monkeypatch):
    code, text, _ = run_product_with_filter(tmp_path, monkeypatch, CUSTOM_FILTER)
    assert code == 0
    assert text == CUSTOM_PRODUCT_REPORT


def test_product_custom_filter_must_extend_cone_to_embed(tmp_path, monkeypatch):
    code, text, err = run_product_with_filter(
        tmp_path, monkeypatch, CUSTOM_FILTER, "--verify-embedding"
    )
    assert code == 2
    assert text == ""
    assert "does not extend the upper-cone filter" in err


def test_product_filter_not_upward_closed(tmp_path, monkeypatch):
    code, _, err = run_product_with_filter(tmp_path, monkeypatch, "filter\n2 3\nend\n")
    assert code == 2
    assert "not upward closed" in err


def test_product_filter_members_with_empty_intersection(tmp_path, monkeypatch):
    # every nonempty subfamily: upward closed, but {0} and {1} meet in the
    # empty set, so the filter the block generates is not proper
    lines = [" ".join(map(str, combo))
             for k in range(1, 5) for combo in itertools.combinations(range(4), k)]
    block = "filter\n" + "\n".join(lines) + "\nend\n"
    code, _, err = run_product_with_filter(tmp_path, monkeypatch, block)
    assert code == 2
    assert "not closed under pairwise intersection" in err


def test_product_filter_empty_block(tmp_path, monkeypatch):
    code, _, err = run_product_with_filter(tmp_path, monkeypatch, "filter\nend\n")
    assert code == 2
    assert "filter is empty" in err


def test_product_cone_filter_ignores_filter_block(tmp_path, monkeypatch):
    for block in ("filter\n2 3\nend\n", "filter\nend\n"):
        code, text, _ = run_product_with_filter(
            tmp_path, monkeypatch, block, "--cone-filter", "--verify-embedding"
        )
        assert code == 0
        assert text.rstrip().endswith("-> PASS")


def powerset_ideal_text(n):
    lines = ["ideal"]
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            lines.append(" ".join(map(str, combo)) if combo else "empty")
    return "\n".join(lines + ["end"]) + "\n"


def path_structure_text(n):
    edges = "".join(f"R {i} {i + 1}\n" for i in range(n - 1))
    return f"signature\npredicate R 2\nend\nstructure path\nuniverse {n}\n{edges}end\n"


def test_product_cone_filter_on_four_and_five_points(tmp_path):
    # 4 points: 1 * 1^4 * 2^6 * 3^4 * 4 = 20736 choice functions;
    # 5 points: about 3.1e11, yet the cone filter's kernel is the top
    # alone, so the quotient is the 5-point path and is built
    for n, count in ((4, 20736), (5, 309586821120)):
        structures = tmp_path / f"path{n}.st"
        structures.write_text(path_structure_text(n))
        ideal = tmp_path / f"powerset{n}.id"
        ideal.write_text(powerset_ideal_text(n))
        code, text = run(
            ["product", "--structures", str(structures), "--ideal", str(ideal),
             "--cone-filter", "--verify-embedding"]
        )
        assert code == 0
        assert f"choice functions: {count}\n" in text
        assert f"classes: {n}\n" in text
        assert text.rstrip().endswith("-> PASS")


def test_product_cone_filter_counts_past_sys_maxsize(tmp_path, capsys, monkeypatch):
    # 6 points: 1 * 1^6 * 2^15 * 3^20 * 4^15 * 5^6 * 6 choice functions,
    # past sys.maxsize, where len() of the choice functions would raise
    count = 11501279977342425366528000000
    assert count > sys.maxsize
    structures = tmp_path / "path6.st"
    structures.write_text(path_structure_text(6))
    ideal = tmp_path / "powerset6.id"
    ideal.write_text(powerset_ideal_text(6))
    code, text = run(
        ["product", "--structures", str(structures), "--ideal", str(ideal),
         "--cone-filter", "--verify-embedding"]
    )
    assert code == 0
    assert f"choice functions: {count}\n" in text
    assert text.rstrip().endswith("-> PASS")
    assert "Traceback" not in capsys.readouterr().err
    # a count too large to print is stated as the power of two it reaches
    monkeypatch.setattr(cli, "_PRINTABLE_BITS", 64)
    code, text = run(
        ["product", "--structures", str(structures), "--ideal", str(ideal),
         "--cone-filter", "--verify-embedding"]
    )
    assert code == 0
    assert f"choice functions: at least 2^{count.bit_length() - 1}\n" in text


@pytest.mark.parametrize("formula", ["!" * 3000 + "R(x,x)", "(" * 1200 + "true" + ")" * 1200])
def test_deeply_nested_formula_is_an_input_error(k2, formula, capsys):
    code, _ = run(["eval", "--structure", k2, "--formula", formula])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: formula ")


# Every command refuses before it writes anything: no manifest line on stdout
# for an input error (exit 2) or a cap refusal (exit 3).
HUGE = str(10**11)

REFUSALS = [
    (["translate", "--to", "existential", "--lambda", "0",
      "--formula", "exists x. R(x,x)"], 2, "bound must be >= 1"),
    (["translate", "--to", "existential", "--formula", "exists x. R(x,x)"],
     2, "--lambda is required"),
    (["translate", "--to", "existential", "--lambda", "4",
      "--formula", "".join(f"forall y{i}. " for i in range(16)) + "R(y0,y15)"],
     3, "formula nodes exceeds the cap"),
    (["theta", "--structure", "{k2}", "--lambda", "0", "--formula", "exists x. R(x,x)"],
     2, "bound must be >= 1"),
    (["eval", "--structure", "{k2}", "--formula", "R(x,x)"],
     2, "uncovered free variable x"),
    (["probe", "--check", "witness-bound", "--formula", "exists x. R(x,x)",
      "--lambda-max", "3", "--n-max", "2"], 2, "need 1 <= lambda_max <= n_max"),
    (["probe", "--check", "equivalence", "--formula", "exists x. R(x,x)",
      "--formula2", "exists y. R(y,y)", "--cap", "10"],
     3, "enumeration of 16 iso candidates exceeds the cap of 10"),
    (["probe", "--check", "wellfounded", "--n-max", "2", "--workers", "2"],
     2, "--workers must be 1"),
    (["enumerate", "--signature", "{k2}", "-n", "9"], 3, "labelled structures exceeds the cap"),
    # every size up to nu is checked before any is built: 8**8 at nu = 8
    (["translate", "--to", "existential", "--lambda", "1", "--nu", "8",
      "--signature", "{z4}", "--formula", "exists x. F(x) != x"],
     3, "enumeration of 16777216 labelled structures exceeds the cap of 5000000"),
    # the witness search refuses the 10 three-point classes times 2**5
    # choices of the new point's tuples before building them
    (["probe", "--check", "witness-bound", "--formula", "forall x. exists y. R(x,y)",
      "--n-max", "5", "--lambda-max", "4", "--cap", "100"],
     3, "enumeration of 320 iso candidates exceeds the cap of 100"),
    (["probe", "--check", "wellfounded", "--n-max", "0"], 2, "need n_max >= 1"),
    # exponential walks over 23 points refuse before the first carrier or set
    (["theta", "--structure", "{p23}", "--formula", "forall x. R(x,x)"],
     3, "enumeration of 8388607 carrier subsets exceeds the cap of 5000000"),
    # sum of C(23, k) for k = 1..12
    (["theta", "--structure", "{p23}", "--lambda", "12", "--formula", "forall x. R(x,x)"],
     3, "enumeration of 5546381 seeds exceeds the cap of 5000000"),
    (["eval", "--structure", "{p23}", "--formula", "existsSet X. forall x. (X(x) & R(x,x))"],
     3, "enumeration of 8388608 set choices exceeds the cap of 5000000"),
    # counts too large to print, or to build, are refused as a power of two
    (["enumerate", "--signature", "{k2}", "-n", "120"],
     3, "enumeration of at least 2^14400 labelled structures exceeds the cap of 5000000"),
    (["enumerate", "--signature", "{k2}", "-n", HUGE],
     3, "enumeration of at least 2^10000000000000000000000 labelled structures"
        " exceeds the cap of 5000000"),
    (["probe", "--check", "constants", "--k", HUGE],
     3, "enumeration of 100000000000 constants exceeds the cap of 5000000"),
    # the per-size refusal comes before the generator variables are named
    (["translate", "--to", "existential", "--lambda", HUGE, "--nu", HUGE,
      "--signature", "{z4}", "--formula", "exists x. F(x) != x"],
     3, "enumeration of 16777216 labelled structures exceeds the cap of 5000000"),
    # a file may declare a universe too large for any power of two to be
    # taken: the exponent is compared with the cap first
    (["theta", "--structure", "{huge}", "--formula", "forall x. R(x,x)"],
     3, "enumeration of at least 2^99999999999 carrier subsets exceeds the cap of 5000000"),
    (["theta", "--structure", "{huge}", "--lambda", "1", "--formula", "forall x. R(x,x)"],
     3, "enumeration of 100000000000 seeds exceeds the cap of 5000000"),
    (["eval", "--structure", "{huge}", "--formula", "existsSet X. forall x. (X(x) & R(x,x))"],
     3, "enumeration of at least 2^100000000000 set choices exceeds the cap of 5000000"),
]


def _refusal_id(argv):
    # the 23-point, huge-universe and oversized cases are named apart, so
    # the other ids keep their numbers
    if "{p23}" in argv:
        return f"{argv[0]}-23-points"
    if "{huge}" in argv:
        return f"{argv[0]}-huge-universe"
    return f"{argv[0]}-oversized" if {"120", HUGE} & set(argv) else argv[0]


@pytest.fixture
def p23(tmp_path):
    path = tmp_path / "p23.st"
    path.write_text("signature\npredicate R 2\nend\nstructure e23\nuniverse 23\nend\n")
    return str(path)


@pytest.fixture
def huge(tmp_path):
    path = tmp_path / "huge.st"
    path.write_text(f"signature\npredicate R 2\nend\nstructure e\nuniverse {HUGE}\nend\n")
    return str(path)


@pytest.mark.parametrize("argv, code, message", REFUSALS,
                         ids=[_refusal_id(a) for a, _, _ in REFUSALS])
def test_refusals_leave_stdout_empty(k2, z4, p23, huge, capsys, argv, code, message):
    paths = {"{k2}": k2, "{z4}": z4, "{p23}": p23, "{huge}": huge}
    start = time.perf_counter()
    got, text = run([paths.get(arg, arg) for arg in argv])
    assert time.perf_counter() - start < 1
    assert (got, text) == (code, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# Up to isomorphism, over predicate-only signatures, the cap counts the
# candidates canonicalised at each size, whatever the size; labelled
# enumeration counts labelled structures.
ENUMERATION_CAPS = {
    "labelled": ("R 2", ["-n", "5"],
                 "enumeration of 33554432 labelled structures exceeds the cap"),
    "iso": ("R 2", ["-n", "5", "--up-to-iso", "--cap", "1000000"],
            "enumeration of 1558528 iso candidates exceeds the cap of 1000000"),
    # the 6 five-point classes with the sixth point in P or not
    "iso-unary": ("P 1", ["-n", "23", "--up-to-iso", "--cap", "10"],
                  "enumeration of 12 iso candidates exceeds the cap of 10"),
}


@pytest.mark.parametrize("case", list(ENUMERATION_CAPS))
def test_enumeration_cap_says_what_it_counts(tmp_path, capsys, case):
    predicate, argv, message = ENUMERATION_CAPS[case]
    path = tmp_path / "sig.st"
    path.write_text(
        f"signature\npredicate {predicate}\nend\nstructure a\nuniverse 1\nend\n"
    )
    assert run(["enumerate", "--signature", str(path), *argv]) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_theta_bound_past_the_universe_reads_as_the_universe(k2):
    # the seeds stop at the universe's size, so a bound of 10**11 answers
    # at once, as the bound 2 does
    formula = "exists x. (R(x,x) & !R(x,x))"
    code, text = run(["theta", "--structure", k2, "--lambda", HUGE, "--formula", formula])
    assert code == 0
    _, small = run(["theta", "--structure", k2, "--lambda", "2", "--formula", formula])
    assert text.splitlines()[1:] == small.splitlines()[1:] == ["false", "inspected 3 submodels"]


def test_enumerate_unary_classes_on_23_points(tmp_path):
    # one class per count of points in P
    path = tmp_path / "sig.st"
    path.write_text("signature\npredicate P 1\nend\nstructure a\nuniverse 1\nend\n")
    code, text = run(["enumerate", "--signature", str(path), "-n", "23", "--up-to-iso"])
    assert code == 0
    assert "# 24 structures" in text


def test_default_probe_manifest_does_not_depend_on_the_machine(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    code, text = run(["probe", "--check", "wellfounded", "--n-max", "2"])
    assert code == 0
    assert "workers=1" in text.splitlines()[0].split()


def test_parser_built_once_gives_the_answers_of_fresh_parsers(capsys):
    # an argparse usage error, then valid calls, on one cached parser and
    # on a parser built afresh for every call
    calls = [
        ["probe", "--check", "nonsense"],
        ["translate", "--to", "eso", "--formula", "exists x. forall y. R(x,y)"],
        ["--version"],
        ["probe", "--check", "equivalence", "--theta-left", "--formula",
         "exists x. forall y. R(x,y)", "--formula2", "exists x. R(x,x)", "--n-max", "3"],
    ]

    def outcomes(fresh):
        got = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            buf = io.StringIO()
            code = main(argv, stdout=buf)
            captured = capsys.readouterr()
            got.append((code, buf.getvalue(), captured.out, captured.err))
        return got

    cli._build_parser.cache_clear()
    once = outcomes(fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert once == outcomes(fresh=True)
    assert [code for code, *_ in once] == [2, 0, 0, 0]
    assert "invalid choice: 'nonsense'" in once[0][3]


def test_clear_memos_empties_every_memo_and_changes_no_report(z4):
    modules = [importlib.import_module(f"subsat.{m.name}")
               for m in pkgutil.iter_modules(subsat.__path__)]
    memos = {id(v): v for m in modules for v in vars(m).values()
             if isinstance(v, functools._lru_cache_wrapper)}.values()
    assert memos and all(m.cache_clear in structures._MEMOS for m in memos)
    calls = [
        ["probe", "--check", "witness-bound", "--formula", "forall x. exists y. R(x,y)",
         "--n-max", "4", "--lambda-max", "3"],
        ["probe", "--check", "extensions", "--formula", "exists x. R(x,x)", "--n-max", "3"],
        ["translate", "--to", "existential", "--lambda", "1", "--nu", "4",
         "--signature", z4, "--formula", "exists x. F(x) != x"],
        ["translate", "--to", "eso", "--formula", "exists x. forall y. R(x,y)"],
        ["translate", "--to", "existential", "--lambda", "2",
         "--formula", "exists x. forall y. R(x,y)"],
    ]
    warm = [run(argv) for argv in calls]
    translations = [theta.theta_to_eso, theta.theta_bounded_to_existential_predicate]
    assert all(t.cache_info().currsize for t in translations)
    # the predicate-signature translations keep their parsed formulas, and
    # the compiled forms of those and of their sentences; a formula kept here
    # keeps its compiled form too
    kept = logic.parse_formula("exists x. R(x,x)", structures.Signature((("R", 2),)))
    logic.formula_facts(kept)
    assert structures._GENERIC_ISO and id(kept) in logic._COMPILED
    structures.clear_memos()
    assert [m.cache_info().currsize for m in memos] == [0] * len(memos)
    assert structures._GENERIC_ISO == {} and logic._COMPILED == {}
    assert [run(argv) for argv in calls] == warm
