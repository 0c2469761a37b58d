"""Differential tests of expand's twin groups.

expand counts the placed members of each group of false twins instead
of enumerating them (chromatic.LevelDP). reference.subset_expand is the
walk over every subset of classes, with no twin groups; the two must
agree with the full t-grading on seeded random digraphs and on inputs
rich in twins.
"""

import random
from math import factorial, prod

import pytest
from reference import subset_expand

from chromexp.chromatic import LevelDP, expand
from chromexp.graph import contract, labelled, make, parse_dsl
from chromexp.ncqsym import expand_nc
from chromexp.qsym import QSymExpr
from chromexp.tpoly import TPoly

KINDS = ("neq", "lt", "leq")


def edgeless(n: int) -> str:
    return "U(" + ",".join(["C(1)"] * n) + ")"


def random_digraphs(count: int, seed: int):
    """Digraphs of up to seven vertices: mixed colours or one colour for
    every edge, sparse enough that twins occur, and sometimes a double-edge
    cycle that contracts to a class of weight 2 or 3."""
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randint(1, 7)
        p = rng.choice((0.1, 0.2, 0.35, 0.5))
        kinds = KINDS if trial % 4 == 0 else (rng.choice(KINDS),)
        edges = {(u, v): rng.choice(kinds) for u in range(n) for v in range(n)
                 if u != v and rng.random() < p}
        if n >= 3 and rng.random() < 0.3:
            cycle = rng.sample(range(n), rng.randint(2, 3))
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                edges.pop((v, u), None)
                edges[(u, v)] = "leq"
        yield make(n, [(u, v, kind) for (u, v), kind in edges.items()])


def test_twin_groups_match_the_subset_walk_on_random_digraphs():
    twins = 0
    for g in random_digraphs(400, seed=26):
        assert expand(g) == subset_expand(g), g
        con = contract(g)
        twins += len(LevelDP(con, twins=True)._groups) < len(con.classes)
    assert twins >= 80  # the draws do exercise twin groups (93 of the 400)


def dashed_cycle(n: int, extra: int = 0):
    """A dashed cycle on n vertices plus `extra` isolated vertices."""
    return make(n + extra, [(i, (i + 1) % n, "neq") for i in range(n)])


def dashed_path(n: int):
    return make(n, [(i, i + 1, "neq") for i in range(n - 1)])


TWIN_RICH = {dsl: parse_dsl(dsl) for dsl in [
    *(edgeless(n) for n in range(1, 10)),
    "D(U(C(1),C(1)),U(C(1),C(1),C(1)))",
    "S(U(C(1),C(1),C(1)),U(C(1),C(1)))",
    "D(U(C(1),C(1),C(1)),U(C(1),C(1),C(1)),U(C(1),C(1),C(1)))",
    "W(U(C(1),C(1)),U(C(1),C(1)))",
    "U(C(2),C(2),C(1))",                    # twins of weight 2 beside one of weight 1
    "D(U(C(2),C(2)),U(C(1),C(1),C(1)))",
    "U(P(3),C(1),C(1),C(1))",               # isolated vertices beside a solid path
    "U(P(2),P(2),C(1),C(1))",
    "S(C(1),U(C(1),C(1),C(1)))",            # one solid predecessor of three twins
    "S(C(2),U(C(1),C(1)))",                 # two edges from a weight-2 class into each twin
    "W(C(1),U(C(1),C(1),C(1)))",            # one double predecessor of three twins
    "W(U(C(1),C(1)),C(1))",                 # twins that are double predecessors
    "S(U(C(1),C(1)),C(1),U(C(1),C(1)))",
    "U(K(2),K(2),C(1),C(1))",
]}
TWIN_RICH |= {f"dashed {n}-cycle and {extra} isolated vertices": dashed_cycle(n, extra)
              for n, extra in ((3, 3), (4, 2), (5, 3))}


@pytest.mark.parametrize("name", list(TWIN_RICH))
def test_twin_groups_match_the_subset_walk_on_twin_rich_forms(name):
    g = TWIN_RICH[name]
    assert expand(g) == subset_expand(g)


def test_edgeless_sixteen_is_the_multinomial_sum():
    """On n edgeless vertices every composition alpha of n has the
    coefficient n! / prod(alpha_i!), with no t."""
    f = expand(parse_dsl(edgeless(16)))
    assert len(f.terms) == 2 ** 15 == 32768
    for alpha, coeff in f.terms.items():
        assert coeff == TPoly.of(factorial(16) // prod(map(factorial, alpha)))


def test_twin_groups_count_their_states():
    """Edgeless n is one group of n twins: its states are 0..n-1 placed,
    and from k placed there is one move per count taken."""
    for n in (3, 12):
        stats = {}
        expand(parse_dsl(edgeless(n)), stats)
        assert (stats["classes"], stats["states"]) == (n, n)
        assert stats["transitions"] == n * (n + 1) // 2
        assert stats["terms"] == 2 ** (n - 1)
    # two groups of three: (3 + 1)^2 states, less the full one
    stats = {}
    expand(parse_dsl("D(U(C(1),C(1),C(1)),U(C(1),C(1),C(1)))"), stats)
    assert stats["states"] == 15


@pytest.mark.parametrize("g, pins", [
    (dashed_cycle(7), (7, 127, 1008, 44)),
    (dashed_path(7), (7, 127, 1096, 56)),
])
def test_twin_free_inputs_walk_every_subset(g, pins):
    """No two classes are twins, so the states are every subset but the
    full one, exactly as for the walk without twin groups."""
    stats = {}
    expand(g, stats)
    assert (stats["classes"], stats["states"], stats["transitions"], stats["terms"]) == pins


def test_expand_nc_keeps_a_move_per_block():
    """expand_nc keeps one term per colouring, so it places twins one
    block of classes at a time."""
    stats = {}
    expand_nc(labelled(make(3)), stats)
    assert (stats["classes"], stats["states"], stats["transitions"]) == (3, 7, 19)


def test_twins_beside_no_colouring_sum_to_zero():
    """A dashed edge inside a double-edge cycle, or a solid edge against a
    double one, leaves no colouring, whatever twins stand beside it."""
    inside = make(5, [(0, 1, "leq"), (1, 2, "leq"), (2, 0, "leq"), (0, 2, "neq")])
    against = make(4, [(0, 1, "lt"), (1, 0, "leq")])
    for g in (inside, against):
        assert expand(g) == QSymExpr() == subset_expand(g)
