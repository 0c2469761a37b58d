"""Differential tests of expand_nc's batched level walk, and of the zero
expansions that LevelDP.ordered decides before any walk.

expand_nc walks the states in increasing bitmask order, colouring the
levels from the top down, and extends every path into a state at once.
reference.dfs_expand_nc is the depth-first walk it replaced, one stack
entry per path node; the two must give the same terms and coefficients,
with the full t-grading, on seeded labelled digraphs of 0-7 vertices,
and walk the same states and moves wherever a colouring can exist.
"""

import random

import pytest
from reference import dfs_expand_nc, subset_expand

from chromexp import oracle
from chromexp.chromatic import LevelDP, chromatic_number, expand
from chromexp.graph import contract, labelled, make, parse_dsl, standardize_labels
from chromexp.ncqsym import NCQSymExpr, expand_nc, ncqsym_to_json
from chromexp.qsym import QSymExpr

KINDS = ("neq", "lt", "leq")


def _labelled(rng, n, edges):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return labelled(make(n, edges), labels)


def _cycle(rng, vertices, kinds):
    """The edges of a directed cycle through the vertices, each of a kind
    drawn from kinds."""
    return [(u, v, rng.choice(kinds)) for u, v in zip(vertices, vertices[1:] + vertices[:1])]


def seeded_digraphs(seed: int = 29):
    """Labelled digraphs of 0-7 vertices, by family: mixed colours at
    several densities, empty ones, contractions that fail (a dashed or
    solid edge inside a double-edge cycle), cycles of solid and double
    edges with at least one solid edge, and forms rich in twins."""
    rng = random.Random(seed)
    out = {"empty": [labelled(make(n)) for n in range(8)]}
    out["mixed"] = []
    for _ in range(240):
        n = rng.randint(0, 7)
        p = rng.choice((0.1, 0.2, 0.3, 0.5))
        edges = [(u, v, rng.choice(KINDS)) for u in range(n) for v in range(n)
                 if u != v and rng.random() < p / 2]
        out["mixed"].append(_labelled(rng, n, edges))
    out["infeasible"] = []
    for _ in range(40):
        n = rng.randint(3, 7)
        ring = rng.sample(range(n), rng.randint(3, min(n, 4)))
        edges = {(u, v): "leq" for u, v, _ in _cycle(rng, ring, ("leq",))}
        chords = [(u, v) for u in ring for v in ring if u != v and (u, v) not in edges]
        edges[rng.choice(chords)] = rng.choice(("neq", "lt"))
        for a in range(n):
            for b in range(n):
                if a != b and (a, b) not in edges and rng.random() < 0.1:
                    edges[(a, b)] = rng.choice(KINDS)
        out["infeasible"].append(_labelled(rng, n, [(a, b, k) for (a, b), k in edges.items()]))
    out["solid/double cycle"] = []
    for _ in range(60):
        n = rng.randint(2, 7)
        ring = rng.sample(range(n), rng.randint(2, n))
        cycle = _cycle(rng, ring, ("lt", "leq"))
        first = cycle[0]
        cycle[0] = (first[0], first[1], "lt")
        edges = {(u, v): kind for u, v, kind in cycle}
        for a in range(n):
            for b in range(n):
                if a != b and (a, b) not in edges and (b, a) not in edges and rng.random() < 0.15:
                    edges[(a, b)] = rng.choice(("neq", "lt"))  # no double cycle
        out["solid/double cycle"].append(_labelled(rng, n, [(a, b, k) for (a, b), k in edges.items()]))
    out["twin-rich"] = [labelled(parse_dsl(dsl)) for dsl in (
        "U(C(1),C(1),C(1),C(1),C(1),C(1))",
        "D(U(C(1),C(1)),U(C(1),C(1),C(1)))",
        "S(U(C(1),C(1),C(1)),U(C(1),C(1)))",
        "W(U(C(1),C(1)),U(C(1),C(1),C(1)))",
        "U(C(2),C(2),C(1),C(1))",
        "U(P(2),P(2),C(1),C(1),C(1))",
        "S(C(1),U(C(1),C(1),C(1),C(1)))",
        "W(C(1),U(C(1),C(1),C(1)))",
        "U(K(2),K(2),C(1),C(1))",
    )]
    out["twin-rich"] += [_labelled(rng, 7, [(0, 1, "lt"), (1, 0, "lt")]),
                         _labelled(rng, 6, [(0, 1, "lt"), (1, 2, "leq"), (2, 0, "leq")])]
    return out


DIGRAPHS = seeded_digraphs()


@pytest.mark.parametrize("family", list(DIGRAPHS))
def test_expand_nc_matches_the_stack_walk(family):
    for lg in DIGRAPHS[family]:
        ref_stats, stats = {}, {}
        ref = dfs_expand_nc(lg, ref_stats)
        got = expand_nc(lg, stats)
        assert got.terms == ref.terms, lg
        assert ncqsym_to_json(got) == ncqsym_to_json(ref), lg
        assert stats["terms"] == ref_stats["terms"] == len(ref.terms)
        if LevelDP(contract(lg.graph)).ordered:
            assert (stats["states"], stats["transitions"]) == \
                (ref_stats["states"], ref_stats["transitions"]), lg
        else:
            assert (stats["states"], stats["transitions"], stats["terms"]) == (0, 0, 0), lg


@pytest.mark.parametrize("family", list(DIGRAPHS))
def test_expand_nc_writes_each_first_block_together(family):
    """The walk colours the levels from the top down, so the terms of
    one first block are written one after another, as the depth-first
    walk wrote them; NCQSymExpr._sorted sorts that order fast."""
    for lg in DIGRAPHS[family]:
        firsts = [phi[0] for phi in expand_nc(lg).terms if phi]
        changes = sum(a != b for a, b in zip(firsts, firsts[1:]))
        assert changes == max(len(set(firsts)) - 1, 0), lg


def test_the_families_exercise_every_case():
    """The draws hold zero and nonzero expansions in the families meant
    to, and the cycle family is caught by `ordered` alone."""
    for family in ("mixed", "twin-rich"):
        assert any(expand_nc(lg).terms for lg in DIGRAPHS[family]), family
        assert any(not expand_nc(lg).terms for lg in DIGRAPHS[family]), family
    assert not any(contract(lg.graph).feasible for lg in DIGRAPHS["infeasible"])
    for lg in DIGRAPHS["solid/double cycle"]:
        con = contract(lg.graph)
        assert con.feasible and not LevelDP(con).ordered, lg


@pytest.mark.parametrize("family", list(DIGRAPHS))
def test_expand_and_chromatic_number_agree_with_the_stack_walk(family):
    """expand is the commutative image of the walk's terms (checked
    against the subset walk, which decides zero by walking), and the
    chromatic number is the fewest blocks of any term."""
    for lg in DIGRAPHS[family]:
        g = lg.graph
        assert expand(g) == subset_expand(g), lg
        blocks = [len(phi) for phi in dfs_expand_nc(lg).terms]
        assert chromatic_number(g) == min(blocks, default=None), lg


def test_ordered_is_false_exactly_when_no_colouring_exists():
    """On feasible contractions of at most six vertices, `ordered` is
    False exactly when the oracle counts no colouring with n colours
    (a colouring uses at most n levels)."""
    seen = {True: 0, False: 0}
    for family, graphs in DIGRAPHS.items():
        for lg in graphs:
            g = lg.graph
            con = contract(g)
            if not con.feasible or g.n > 6:
                continue
            ordered = LevelDP(con).ordered
            assert ordered == (oracle.count_colourings(g, max(g.n, 1)) > 0), (family, g)
            seen[ordered] += 1
    assert min(seen.values()) >= 30


def test_ordered_reads_solid_and_double_edges_between_classes():
    cases = [
        (make(2, [(0, 1, "lt"), (1, 0, "lt")]), False),
        (make(2, [(0, 1, "lt"), (1, 0, "leq")]), False),
        (make(3, [(0, 1, "lt"), (1, 2, "leq"), (2, 0, "leq")]), False),
        (make(3, [(0, 1, "lt"), (1, 2, "lt"), (0, 2, "lt")]), True),
        (make(3, [(0, 1, "leq"), (1, 2, "leq"), (2, 0, "leq")]), True),   # one class
        (make(3, [(0, 1, "neq"), (1, 2, "neq"), (2, 0, "neq")]), True),   # dashed only
        (make(3, [(0, 1, "lt"), (1, 2, "neq"), (2, 0, "lt")]), True),
        # a diamond whose edges fall in class order
        (make(4, [(3, 1, "lt"), (3, 2, "lt"), (1, 0, "lt"), (2, 0, "leq")]), True),
        # a cycle 1 -> 2 -> 3 -> 1 off a source
        (make(4, [(0, 1, "lt"), (1, 2, "lt"), (2, 3, "leq"), (3, 1, "lt")]), False),
        (parse_dsl("P(1000)"), True),
    ]
    for g, ordered in cases:
        assert LevelDP(contract(g)).ordered is ordered, g
        assert LevelDP(contract(g), twins=True).ordered is ordered, g
        assert LevelDP(contract(g), downward=True).ordered is ordered, g


def test_a_solid_two_cycle_visits_no_state():
    """A solid 2-cycle beside five isolated vertices has no colouring;
    both expansions say so without walking one state."""
    g = make(7, [(0, 1, "lt"), (1, 0, "lt")])
    stats = {}
    assert expand(g, stats) == QSymExpr()
    assert (stats["classes"], stats["states"], stats["transitions"], stats["terms"]) == (7, 0, 0, 0)
    stats = {}
    assert expand_nc(labelled(g), stats) == NCQSymExpr()
    assert (stats["classes"], stats["states"], stats["transitions"], stats["terms"]) == (7, 0, 0, 0)
    # the stack walk visited every state reachable through the isolated vertices
    ref_stats = {}
    dfs_expand_nc(labelled(g), ref_stats)
    assert ref_stats["states"] > 0


def test_zero_answers_take_no_move(monkeypatch):
    """With no colouring, expand, expand_nc and chromatic_number answer
    without asking LevelDP for a single move."""
    def no_moves(self, placed):
        raise AssertionError("a move was asked for")

    monkeypatch.setattr(LevelDP, "moves", no_moves)
    for g in (make(2, [(0, 1, "lt"), (1, 0, "lt")]),
              make(5, [(0, 1, "lt"), (1, 2, "leq"), (2, 0, "lt")]),
              make(3, [(0, 1, "leq"), (1, 0, "leq"), (0, 2, "lt"), (2, 1, "lt")]),
              make(3, [(0, 1, "leq"), (1, 2, "leq"), (2, 0, "leq"), (0, 2, "neq")])):
        assert expand(g) == QSymExpr()
        assert expand_nc(labelled(g)) == NCQSymExpr()
        assert chromatic_number(g) is None


def test_standardize_labels_returns_labels_one_to_n_as_they_are():
    rng = random.Random(3)
    for n in range(8):
        g = make(n, [(u, u + 1, "neq") for u in range(n - 1)])
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        lg = labelled(g, labels)
        assert standardize_labels(lg) is lg
        # other distinct positive labels are ranked onto 1..n
        other = labelled(g, [2 * lab + 1 for lab in labels])
        got = standardize_labels(other)
        assert got.graph is g and got.labels == lg.labels
        assert (got is other) == (n == 0)
