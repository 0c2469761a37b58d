"""Differential tests of the shared enumeration walks against the loops
they replaced.

`compositions`, `coarsenings` and `refinements` share one cut-set walk,
`distinct_rearrangements` is Knuth's Algorithm L, the oracle reads one
generator of proper colourings, and `balanced_orientations` finds the
cycles of a graph once for all of its orientations. The earlier loops
are kept here, and only here, as references: the walks must give the
same values, and the cut-set walks and the balanced orientations the
same order.
"""

import itertools
import random

from chromexp import oracle
from chromexp.chromatic import expand, humpert
from chromexp.combinat import (
    coarsenings,
    compositions,
    descent_set,
    distinct_rearrangements,
    partitions,
    refinements,
)
from chromexp.graph import (
    balanced_orientations,
    is_k_balanced,
    orientations,
    simple_cycles,
    simple_graph,
    standardize_labels,
    underlying_graph,
)
from chromexp.oracle import TruncPoly, WordPoly, _ascents, _colouring_ok
from chromexp.qsym import QSymExpr, _merge
from chromexp.tpoly import TPoly
from chromexp.verify import random_digraph, random_labelled_digraph
from reference import composition_from_descents

# ---------------------------------------------------------------------------
# the earlier implementations


def ref_compositions(n):
    if n == 0:
        yield ()
        return
    for size in range(n):
        for cuts in itertools.combinations(range(1, n), size):
            yield composition_from_descents(cuts, n)


def ref_coarsenings(alpha):
    n = sum(alpha)
    cuts = sorted(descent_set(alpha))
    out = []
    for size in range(len(cuts) + 1):
        for chosen in itertools.combinations(cuts, size):
            out.append(composition_from_descents(chosen, n))
    return out


def ref_refinements(alpha):
    n = sum(alpha)
    base = descent_set(alpha)
    free = [s for s in range(1, n) if s not in base]
    out = []
    for size in range(len(free) + 1):
        for extra in itertools.combinations(free, size):
            out.append(composition_from_descents(base | set(extra), n))
    return out


def ref_rearrangements(lam):
    """Each rearrangement where it first occurs in itertools.permutations."""
    lam = tuple(lam)
    n = len(lam)
    if n == 0:
        yield ()
        return
    where: dict = {}
    for i, part in enumerate(lam):
        where.setdefault(part, []).append(i)
    used = dict.fromkeys(where, 0)

    def choices():
        return iter(sorted((spots[used[v]], v) for v, spots in where.items()
                           if used[v] < len(spots)))

    picks: list = []
    stack = [choices()]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if picks:
                used[picks.pop()[1]] -= 1
            continue
        picks.append(step)
        used[step[1]] += 1
        if len(picks) < n:
            stack.append(choices())
            continue
        yield tuple(lam[i] for i, _ in picks)
        used[picks.pop()[1]] -= 1


def ref_direct_expand(g, k):
    out: dict = {}
    for colours in itertools.product(range(1, k + 1), repeat=g.n):
        if _colouring_ok(g, colours):
            exponents = [0] * k
            for c in colours:
                exponents[c - 1] += 1
            _merge(out, tuple(exponents), TPoly.t_power(_ascents(g, colours)))
    return TruncPoly(k, out)


def ref_direct_expand_nc(lg, k):
    lg = standardize_labels(lg)
    g = lg.graph
    position = {label: v for v, label in enumerate(lg.labels)}
    out: dict = {}
    for colours in itertools.product(range(1, k + 1), repeat=g.n):
        if _colouring_ok(g, colours):
            word = tuple(colours[position[i]] for i in range(1, g.n + 1))
            _merge(out, word, TPoly.t_power(_ascents(g, colours)))
    return WordPoly(k, out)


def ref_count_colourings(g, p):
    if p == 0:
        return 1 if g.n == 0 else 0
    return sum(1 for colours in itertools.product(range(1, p + 1), repeat=g.n)
               if _colouring_ok(g, colours))


def ref_is_k_balanced(orientation, k):
    arcs = {(u, v) for u, v, _ in orientation.edges}
    for cycle in simple_cycles(underlying_graph(orientation)):
        forward = sum(1 for i in range(len(cycle))
                      if (cycle[i], cycle[(i + 1) % len(cycle)]) in arcs)
        if forward < k or len(cycle) - forward < k:
            return False
    return True


# ---------------------------------------------------------------------------
# the cut-set walk and Algorithm L


def test_cut_set_walks_keep_the_order():
    for n in range(10):
        assert list(compositions(n)) == list(ref_compositions(n)), n
        for alpha in ref_compositions(n):
            assert coarsenings(alpha) == ref_coarsenings(alpha), alpha
            assert refinements(alpha) == ref_refinements(alpha), alpha
    assert list(compositions(-1)) == []


def test_rearrangements_are_the_distinct_permutations_once():
    for n in range(11):
        for alpha in itertools.chain(partitions(n), compositions(n)):
            got = list(distinct_rearrangements(alpha))
            assert len(got) == len(set(got)), alpha
            assert set(got) == set(ref_rearrangements(alpha)), alpha
    assert list(distinct_rearrangements([])) == [()]
    assert list(distinct_rearrangements(x for x in (2, 1))) == [(1, 2), (2, 1)]


# ---------------------------------------------------------------------------
# one colouring walk in the oracle


def test_oracle_walk_matches_the_three_loops():
    rng = random.Random(20261019)
    for _ in range(40):
        g = random_digraph(rng, 5)
        lg = random_labelled_digraph(rng, 5)
        for k in range(1, 5):
            assert oracle.direct_expand(g, k) == ref_direct_expand(g, k)
            assert oracle.direct_expand_nc(lg, k) == ref_direct_expand_nc(lg, k)
        for p in range(5):
            assert oracle.count_colourings(g, p) == ref_count_colourings(g, p)
    assert oracle.count_colourings(random_digraph(rng, 0, 0), 0) == 1


# ---------------------------------------------------------------------------
# one orientation walk for the balanced functions


def _complete(n):
    return simple_graph(n, itertools.combinations(range(n), 2))


def test_balanced_orientations_match_the_filter():
    rng = random.Random(714)
    graphs = [_complete(4), _complete(5)]
    for _ in range(20):
        n = rng.randint(1, 5)
        graphs.append(simple_graph(n, [e for e in itertools.combinations(range(n), 2)
                                       if rng.random() < 0.6]))
    for h in graphs:
        all_orientations = orientations(h)
        for k in (1, 2):
            want = [o for o in all_orientations if ref_is_k_balanced(o, k)]
            assert [o for o in all_orientations if is_k_balanced(o, k)] == want
            assert balanced_orientations(h, k) == want
            assert humpert(h, k) == QSymExpr.sum_of(expand(o).at_t(1) for o in want)

