"""Generated command lines: any argv over a fixed vocabulary of
subcommands, flags, values and small files ends in an exit code, never in
a traceback."""

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subsat.cli import main

HUGE = str(10**11)

FILES = {
    "k2.st": "signature\npredicate R 2\nend\nstructure k2\nuniverse 2\nR 0 0\nend\n",
    "z4.st": "signature\nfunction F 1\nend\nstructure z4\nuniverse 4\n"
             "F 0 -> 1\nF 1 -> 2\nF 2 -> 3\nF 3 -> 0\nend\n",
    "two.st": "signature\npredicate R 2\nend\nstructure chain\nuniverse 3\nR 0 1\nR 1 2\nend\n"
              "structure loop\nuniverse 1\nR 0 0\nend\n",
    "pfc.st": "signature\npredicate P 1\nfunction F 1\nconstant c\nend\nstructure a\n"
              "universe 2\nP 1\nF 0 -> 1\nF 1 -> 1\nc 0\nend\n",
    "partial.st": "signature\nfunction F 1\nend\nstructure p\nuniverse 2\nF 0 -> 1\nend\n",
    "ideal.id": "ideal\nempty\n0\n1\n0 1\nend\n",
    "filtered.id": "ideal\nempty\n0\n1\n0 1\nend\nfilter\n2 3\n0 2 3\n1 2 3\n0 1 2 3\nend\n",
    "chain.id": "ideal\nempty\n0\n0 1\nend\n",
    "notideal.id": "ideal\n0\n1\nend\n",
    "phi.txt": "exists x. R(x,x)\n",
    "garbage.txt": "structure\nuniverse -3\nR 0\n",
    "empty.txt": "",
}
BINARY_FILES = {"latin1.txt": "signature\nend\n# caf\xe9\n".encode("latin-1")}

FORMULAS = [
    "exists x. R(x,x)",
    "forall x. exists y. R(x,y)",
    "exists x. F(x) != x",
    "forall x. (P(x) -> F(x) = c)",
    "existsSet X. forall x. (X(x) & R(x,x))",
    "R(x,x)",
    "c0 = c1",
    "true",
    "exists x. (",
    "",
]

BAD_PATHS = ["garbage.txt", "empty.txt", "partial.st", "latin1.txt", "missing.st"]
STRUCTURES = ["k2.st", "z4.st", "two.st", "pfc.st"]
IDEALS = ["ideal.id", "filtered.id", "chain.id", "notideal.id"]
SIZES = ["1", "2", "3", HUGE]
BAD_SIZES = ["-1", "0", "x"]

# every flag, with the values it usually takes and the ones it seldom does
FLAGS = {
    "--structure": (STRUCTURES, BAD_PATHS),
    "--structures": (STRUCTURES, BAD_PATHS),
    "--signature": (STRUCTURES, BAD_PATHS),
    "--ideal": (IDEALS, BAD_PATHS),
    "--formula-file": (["phi.txt"], BAD_PATHS),
    "--formula": (FORMULAS, []),
    "--formula2": (FORMULAS, []),
    "--psi": (FORMULAS, []),
    "--name": (["k2", "z4", "chain", "loop", "a"], ["nobody"]),
    "--parent": (["k2", "z4", "chain", "loop", "a"], ["nobody"]),
    "--lambda": (SIZES, BAD_SIZES),
    "--nu": (SIZES, BAD_SIZES),
    "--k": (SIZES, BAD_SIZES),
    "-n": (SIZES, BAD_SIZES),
    "--n-max": (["1", "2", "3"], ["-1", "0"]),
    "--lambda-max": (["1", "2", "3"], ["0"]),
    "--cap": (["10", "1000", "5000000"], ["0"]),
    "--workers": (["1"], ["2"]),
    "--seed": (["0", "7"], []),
    "--to": (["eso", "existential"], ["nowhere"]),
    "--check": (["equivalence", "extensions", "witness-bound", "wellfounded", "constants"],
                ["other"]),
    "--mode": (["submodel", "fragment"], ["neither"]),
    "--up-to-iso": None,
    "--cone-filter": None,
    "--verify-embedding": None,
    "--theta-left": None,
    "--theta-right": None,
    "--raw": None,
    "--version": None,
}

# each subcommand's flags that are (nearly) always given, then the others
SUBCOMMANDS = {
    "eval": (["--structure", "--formula"], ["--name", "--formula-file", "--seed"]),
    "theta": (["--structure", "--formula"], ["--name", "--lambda", "--formula-file", "--seed"]),
    "translate": (["--to", "--formula"],
                  ["--lambda", "--nu", "--signature", "--formula-file", "--seed"]),
    "product": (["--structures", "--ideal"],
                ["--cone-filter", "--verify-embedding", "--parent", "--seed"]),
    "probe": (["--check", "--formula"],
              ["--formula2", "--theta-left", "--theta-right", "--raw", "--signature",
               "--lambda-max", "--nu", "--mode", "--cap", "--workers", "--k",
               "--psi", "--formula-file", "--seed"]),
    "enumerate": (["--signature", "-n"], ["--up-to-iso", "--cap", "--seed"]),
}


def _seldom(draw) -> bool:
    return draw(st.integers(0, 7)) == 0


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS) + ["nonsense"]))
    required, optional = SUBCOMMANDS.get(command, ([], []))
    flags = [flag for flag in required if not _seldom(draw)]
    if command == "probe":
        # probes default to 4 points, where some take seconds
        flags.append("--n-max")
    flags += draw(st.lists(st.sampled_from(optional or sorted(FLAGS)), max_size=6, unique=True))
    if _seldom(draw):
        flags.append(draw(st.sampled_from(sorted(FLAGS))))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if FLAGS[flag] is not None:
            usual, seldom = FLAGS[flag]
            argv.append(draw(st.sampled_from(seldom if seldom and _seldom(draw) else usual)))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (root / name).write_text(text)
    for name, data in BINARY_FILES.items():
        (root / name).write_bytes(data)
    return root


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_any_command_line_ends_in_an_exit_code(workdir, monkeypatch, argv):
    monkeypatch.chdir(workdir)
    monkeypatch.setattr("sys.stderr", io.StringIO())
    assert main(argv, stdout=io.StringIO()) in {0, 1, 2, 3}
