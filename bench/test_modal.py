"""Cost of ``theta.modal_laws_check`` on the digraphs of up to 3 points.

Run with ``python -m pytest bench --benchmark-only``.  The corpus is the
116 digraphs on 1..3 points up to isomorphism, enumerated before timing,
and the sentences are compiled by the warm-up round, so a round is phi's
and psi's carrier tables and one pass over them for (iv)'s premise and
the strictness witnesses.  Each case runs on both
paths: ``columns`` packs the corpus into class columns per size and
evaluates each (sentence, carrier) once for all of them; ``loop``
evaluates every carrier of every structure, the path of signatures with
constants or functions.

- ``total_out_degree_some_point_stuck``: a sentence and its negation;
- ``proper_edge_one_point_world``: law (iv) holds vacuously.

``extra_info`` records the carriers a round evaluates and the median µs
per carrier.
"""

import contextlib
from unittest import mock

import pytest

from subsat import corpus, structures, theta

FORMULAS = {e.name: e.formula for e in corpus.CORPUS}
STRUCTURES = [
    s for n in range(1, 4)
    for s in structures.enumerate_structures(corpus.BINARY, n, up_to_iso=True)
]

CASES = {
    "total_out_degree_some_point_stuck": ("total_out_degree", "some_point_stuck"),
    "proper_edge_one_point_world": ("proper_edge", "one_point_world"),
}


@pytest.mark.parametrize("path", ["columns", "loop"])
@pytest.mark.parametrize("case", list(CASES))
def test_modal_laws_check(benchmark, case, path):
    phi, psi = (FORMULAS[name] for name in CASES[case])

    def check():
        return theta.modal_laws_check(phi, psi, STRUCTURES)

    loop = mock.patch.object(theta, "_sliced_formula", lambda *args: False)
    with loop if path == "loop" else contextlib.nullcontext():
        report = benchmark.pedantic(check, rounds=5, iterations=1, warmup_rounds=1)
    assert report.passed
    carriers = sum(1 for s in STRUCTURES for _ in structures.enumerate_submodels(s))
    benchmark.extra_info["carriers"] = carriers
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_carrier"] = 1e6 * benchmark.stats.stats.median / carriers
