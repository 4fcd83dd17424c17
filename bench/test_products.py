"""Cost of reduced products, canonical embeddings and the collapse check.

Run with ``python -m pytest bench --benchmark-only``.  The parents are
fixed digraphs.  ``test_induced_system`` times the building of a system of
induced substructures; every other case builds its system before timing,
so a round times only the product layer:

- ``test_induced_system``: ``induced_system`` on the 3-point powerset
  family (with its one-point default component at the empty index) and
  on the chain ideal of k = 6;
- ``test_principal_products``: ``reduced_product`` at each of the 8
  principal filters of the 3-point powerset system; each quotient is the
  one component at the filter's kernel;
- ``test_cone_embedding``: ``canonical_embedding`` with the upper-cone
  filter, which includes the coherence check and the verification of the
  map: on the chain ideal of k = 6 (720 choice functions) and on the 3-,
  4- and 5-point powerset ideals (24, 20,736 and 309,586,821,120 choice
  functions; the quotient is the top component in each case);
- ``test_collapse_isomorphisms``: ``find_isomorphism`` from each
  principal product of the 3-point system onto its component, the check
  that a principal reduced product is that component.

``extra_info`` records the choice functions of the product, the number of
products or searches in a round, or the components of the system.
"""

import pytest

from subsat import corpus, products, structures


def _path(n):
    return structures.Structure(
        corpus.BINARY, n, predicates={"R": {(i, i + 1) for i in range(n - 1)} | {(0, 0)}}
    )


def _chain_family(k):
    return frozenset(frozenset(range(j)) for j in range(k + 1))


POWERSET3 = products.powerset_ideal(range(3)).sets
SYSTEM3 = products.induced_system(_path(3), POWERSET3)
PRINCIPAL3 = [
    products.principal_filter(POWERSET3, j)
    for j in sorted(POWERSET3, key=lambda s: (len(s), sorted(s)))
]
COLLAPSE3 = [
    (products.reduced_product(SYSTEM3.components, filt).structure,
     SYSTEM3.components[next(iter(filt.kernel))])
    for filt in PRINCIPAL3
]


SYSTEM_CASES = {
    "powerset3": (_path(3), POWERSET3),
    "chain_k6": (_path(6), _chain_family(6)),
}


@pytest.mark.parametrize("case", list(SYSTEM_CASES))
def test_induced_system(benchmark, case):
    parent, family = SYSTEM_CASES[case]

    def build():
        return products.induced_system(parent, family)

    system = benchmark.pedantic(build, rounds=20, iterations=1, warmup_rounds=1)
    assert products.coherence_check(system) == []
    benchmark.extra_info["components"] = len(system.components)


def test_principal_products(benchmark):
    def build():
        return [products.reduced_product(SYSTEM3.components, filt) for filt in PRINCIPAL3]

    built = benchmark.pedantic(build, rounds=20, iterations=1, warmup_rounds=1)
    assert [rp.structure.size for rp in built] == [1, 1, 1, 1, 2, 2, 2, 3]
    benchmark.extra_info["products"] = len(built)


CONE_CASES = {
    "chain_k6": (_path(6), _chain_family(6)),
    "powerset3": (_path(3), products.powerset_ideal(range(3)).sets),
    "powerset4": (_path(4), products.powerset_ideal(range(4)).sets),
    "powerset5": (_path(5), products.powerset_ideal(range(5)).sets),
}


@pytest.mark.parametrize("case", list(CONE_CASES))
def test_cone_embedding(benchmark, case):
    parent, family = CONE_CASES[case]
    system = products.induced_system(parent, family)
    cone = products.upper_cone_filter(family)

    def embed():
        return products.canonical_embedding(system, cone)

    report = benchmark.pedantic(embed, rounds=5, iterations=1, warmup_rounds=1)
    assert report.passed
    assert report.product.structure.size == parent.size
    benchmark.extra_info["choice_functions"] = report.product.choice_functions.total


def test_collapse_isomorphisms(benchmark):
    def search():
        return [structures.find_isomorphism(rp, comp) for rp, comp in COLLAPSE3]

    found = benchmark.pedantic(search, rounds=20, iterations=1, warmup_rounds=1)
    assert all(
        structures.check_isomorphism(rp, comp, mapping)
        for (rp, comp), mapping in zip(COLLAPSE3, found)
    )
    benchmark.extra_info["searches"] = len(found)
