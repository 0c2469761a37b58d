"""Differential tests of the subset-DP expansion engine.

Up to six vertices the engine is checked against the brute-force
oracle, with the full t-grading. At seven and eight vertices, where the
oracle is too slow, it is checked against the backtracking walk over
level surjections that the package used before the DP; that walk is kept
here, and only here, as a reference.
"""

import random

from hypothesis import given, settings, strategies as st

from chromexp.chromatic import chromatic_number, expand
from chromexp.graph import LEQ, LT, NEQ, atom, contract, labelled, make, standardize_labels
from chromexp.ncqsym import NCQSymExpr, expand_nc
from chromexp.oracle import assert_equal, direct_expand, direct_expand_nc, realize, realize_nc
from chromexp.qsym import QSymExpr
from chromexp.tpoly import TPoly

KINDS = ("neq", "lt", "leq")


@st.composite
def digraphs(draw, max_n=6):
    """Digraphs with every edge kind, often with a double-edge cycle, so
    that contraction and infeasible classes both occur."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = {}
    if pairs:
        edges = draw(st.dictionaries(st.sampled_from(pairs), st.sampled_from(KINDS),
                                     max_size=len(pairs)))
    cycle = draw(st.lists(st.integers(min_value=0, max_value=max(n - 1, 0)),
                          unique=True, max_size=n))
    if len(cycle) >= 2:
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            edges[(u, v)] = "leq"
    return make(n, [(u, v, kind) for (u, v), kind in edges.items()])


@settings(max_examples=60, deadline=None)
@given(digraphs())
def test_expand_matches_the_oracle(g):
    k = max(g.n, 1)  # n variables realize degree n faithfully
    report = assert_equal(realize(expand(g), k), direct_expand(g, k))
    assert report.ok, report.detail


@settings(max_examples=60, deadline=None)
@given(digraphs(), st.randoms(use_true_random=False))
def test_expand_nc_matches_the_oracle(g, rng):
    labels = list(range(1, g.n + 1))
    rng.shuffle(labels)
    lg = labelled(g, labels)
    k = max(g.n, 1)
    report = assert_equal(realize_nc(expand_nc(lg), k), direct_expand_nc(lg, k))
    assert report.ok, report.detail


# ---------------------------------------------------------------------------
# the backtracking walk, as a reference at seven and eight vertices

def walk_levels(con):
    """Every constraint-satisfying surjection of the classes onto 1..k,
    for every k up to the class count, in increasing k."""
    s = len(con.classes)
    constraints = [[] for _ in range(s)]  # (earlier class, relation, flipped)
    for ci, cj, kind in set(con.edges):
        lo, hi = min(ci, cj), max(ci, cj)
        constraints[hi].append((lo, kind, ci > cj))
    levels = [0] * s

    def ok(index, level):
        for other, kind, flipped in constraints[index]:
            a, b = (level, levels[other]) if flipped else (levels[other], level)
            if kind is NEQ and a == b:
                return False
            if kind is LT and not a < b:
                return False
            if kind is LEQ and not a <= b:
                return False
        return True

    def walk(index, used_mask, k):
        if s - index < k - used_mask.bit_count():
            return
        if index == s:
            yield tuple(levels)
            return
        for level in range(1, k + 1):
            if ok(index, level):
                levels[index] = level
                yield from walk(index + 1, used_mask | (1 << level), k)

    for k in range(1, s + 1):
        yield from walk(0, 0, k)


def walk_expand(g):
    con = contract(g)
    if g.n == 0:
        return QSymExpr.one()
    terms = {}
    for levels in walk_levels(con) if con.feasible else ():
        alpha = [0] * max(levels)
        for ci, weight in enumerate(con.weights):
            alpha[levels[ci] - 1] += weight
        asc = sum(1 for ci, cj, _ in con.edges if levels[ci] < levels[cj])
        key = tuple(alpha)
        terms[key] = terms.get(key, TPoly()) + TPoly.t_power(asc)
    return QSymExpr(terms)


def walk_expand_nc(lg):
    lg = standardize_labels(lg)
    con = contract(lg.graph)
    if lg.graph.n == 0:
        return NCQSymExpr.one()
    class_labels = [[lg.labels[v] for v in cls] for cls in con.classes]
    terms = {}
    for levels in walk_levels(con) if con.feasible else ():
        blocks = [[] for _ in range(max(levels))]
        for ci, labs in enumerate(class_labels):
            blocks[levels[ci] - 1].extend(labs)
        phi = tuple(tuple(sorted(b)) for b in blocks)
        asc = sum(1 for ci, cj, _ in con.edges if levels[ci] < levels[cj])
        terms[phi] = terms.get(phi, TPoly()) + TPoly.t_power(asc)
    return NCQSymExpr(terms)


def walk_chromatic_number(g):
    con = contract(g)
    if g.n == 0:
        return 0
    if not con.feasible:
        return None
    return next((max(levels) for levels in walk_levels(con)), None)


def larger_digraphs():
    rng = random.Random(2022)
    out = []
    for n, p, count in ((7, 0.3, 10), (7, 0.5, 6), (8, 0.35, 6), (8, 0.5, 4)):
        for _ in range(count):
            edges = [(u, v, rng.choice(KINDS)) for u in range(n) for v in range(n)
                     if u != v and rng.random() < p / 2]
            if rng.random() < 0.4:
                u, v = rng.sample(range(n), 2)
                edges = [e for e in edges if {e[0], e[1]} != {u, v}]
                edges += [(u, v, "leq"), (v, u, "leq")]
            out.append(make(n, edges))
    return out


def test_expand_matches_the_walk_at_seven_and_eight_vertices():
    for g in larger_digraphs():
        assert expand(g) == walk_expand(g), g


def test_expand_nc_matches_the_walk_at_seven_and_eight_vertices():
    rng = random.Random(8)
    for g in larger_digraphs():
        labels = list(range(1, g.n + 1))
        rng.shuffle(labels)
        lg = labelled(g, labels)
        assert expand_nc(lg) == walk_expand_nc(lg), g


def test_chromatic_number_matches_the_walk():
    for g in larger_digraphs():
        assert chromatic_number(g) == walk_chromatic_number(g), g


def test_expand_stats_count_the_dp():
    stats = {}
    f = expand(make(3), stats)
    assert stats["classes"] == 3
    assert stats["states"] == 3          # 0, 1 or 2 of the three twins placed
    assert stats["transitions"] == 6     # from k placed, take 1 to 3 - k more
    assert stats["terms"] == len(f.terms) == 4
    assert stats["seconds"] >= 0
    infeasible = {}
    assert expand(make(2, [(0, 1, "lt"), (1, 0, "leq")]), infeasible) == QSymExpr()
    assert infeasible["terms"] == 0


def test_long_chains_expand_without_deep_recursion():
    """A solid path has one colouring, one vertex per level from the
    bottom up with every edge an ascent, at a thousand vertices too."""
    chain = atom("P", 1000)
    stats = {}
    assert expand(chain, stats) == QSymExpr({(1,) * 1000: TPoly.t_power(999)})
    assert (stats["states"], stats["transitions"]) == (1000, 1000)
    blocks = tuple((label,) for label in range(1, 1001))
    assert expand_nc(labelled(chain), stats) == NCQSymExpr({blocks: TPoly.t_power(999)})
    assert (stats["states"], stats["transitions"]) == (1000, 1000)
