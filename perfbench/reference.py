"""A fixed reference computation that measures how fast the machine runs now.

The benchmark's machine is a few virtual CPUs of a shared host, and its
speed moves by 20-50% over minutes with the load of other tenants: two runs
of the same code and seed, minutes apart, differ by that much.  Every run
therefore times this computation many times, interleaved with its own work,
and scales its times by ``REFERENCE_S / mean(reference samples)``: the
times it reports are what the run would have taken on a machine that runs
the reference computation in ``REFERENCE_S`` seconds on average.

The computation uses only the standard library and numpy, never subsat, so a
change to subsat cannot move it: the scaled times move with subsat's speed
and not with the machine's.  It is made of the kinds of work subsat does
(permutation search over small tuples, union-find over dicts and lists,
set closures, numpy row filtering), which the machine's slow state slows
by the same ratio as subsat's own work.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time

import numpy as np

# Any fixed value would do: it sets the scale of the reported times.  5 ms
# is near the mean reference time on the machine the benchmark was written
# on (a 2-vCPU shared virtual machine), so scaled times read close to
# measured ones there.
REFERENCE_S = 0.005

# 16384 rows of 8 pseudo-random bytes: row filtering as in subsat's sieve.
_ARRAY = (np.arange(1 << 17, dtype=np.uint32).reshape(-1, 8) * 2654435761 >> 7).astype(np.uint8)


def _canonical(table):
    """Least relabelling of a unary function table, tried over every
    permutation (the shape of subsat's generic canonical form)."""
    n = len(table)
    best = None
    for perm in itertools.permutations(range(n)):
        inverse = [0] * n
        for i, x in enumerate(perm):
            inverse[x] = i
        key = tuple(perm[table[inverse[i]]] for i in range(n))
        if best is None or key < best:
            best = key
    return best


def _classes(n):
    """Union-find over the permutations of n points, merging each with its
    rotation (the shape of a reduced product's quotient)."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    parent = list(range(len(perms)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, p in enumerate(perms):
        a, b = find(i), find(index[p[1:] + p[:1]])
        if a != b:
            parent[a] = b
    return len({find(i) for i in range(len(perms))})


def _closure(n):
    edges = frozenset((a, b) for a, b in itertools.product(range(n), repeat=2)
                      if (a * 3 + b) % 5)
    succ = {i: set() for i in range(n)}
    for a, b in edges:
        succ[a].add(b)
    two_step = frozenset((a, c) for a in range(n) for b in succ[a] for c in succ[b])
    return len(two_step) + len({(b, a) for a, b in edges} & edges)


def _work() -> int:
    total = _classes(6) + sum(_canonical(t)[0] for t in ((1, 2, 0, 4, 3, 2), (5, 5, 0, 1, 2, 3)))
    for n in (5, 6, 7, 8) * 4:
        total += _closure(n)
    return total + int(((_ARRAY & 3).sum(axis=1) > 12).sum())


def sample() -> float:
    """Time one run of the reference computation, without the collector."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(samples: list) -> float:
    """Factor that turns this run's times into times at the reference speed.

    The mean, not the median: a sample runs either at full speed or, while
    another tenant shares the core, about 1.6 times slower, and a run's
    times are sums over both states in the share the run met them.  The
    mean follows that share; the median jumps from one state to the other
    when the share passes one half."""
    return REFERENCE_S / statistics.fmean(samples)
