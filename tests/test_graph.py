import itertools
import random

import pytest

from chromexp import graph as gr
from chromexp.chromatic import expand
from chromexp.graph import (
    LEQ,
    LT,
    NEQ,
    LabelledDigraph,
    atom,
    atom_labelled,
    closed_subsets,
    colouring_orientation,
    combine,
    combine_chain,
    combine_labelled,
    comp_grid,
    contract,
    digraph_from_json,
    digraph_to_json,
    from_digraph_dashed,
    from_graph,
    from_poset,
    from_weighted,
    grid,
    induced,
    induced_labelled,
    is_k_balanced,
    labelled,
    make,
    orientations,
    parse_dsl,
    simple_cycles,
    simple_graph,
    underlying_graph,
)
from chromexp.qsym import QSymExpr, basis_sym
from reference import edges_of, mutual_reachability_contract

TRIANGLE = make(3, [(0, 1, NEQ), (1, 2, LT), (2, 0, LEQ)])


def random_digraph(rng, max_n):
    n = rng.randint(1, max_n)
    edges = [(u, v, rng.choice(("neq", "lt", "leq")))
             for u in range(n) for v in range(n)
             if u != v and rng.random() < 0.45]
    return make(n, edges)


# ---------------------------------------------------------------------------
# construction

def test_make_validates():
    make(1)
    with pytest.raises(ValueError):
        make(2, [(0, 0, NEQ)])
    with pytest.raises(ValueError):
        make(2, [(0, 1, LT), (0, 1, LEQ)])
    with pytest.raises(ValueError):
        make(2, [(0, 2, LT)])


def test_make_accepts_strings():
    g = make(2, [(0, 1, "lt")])
    assert g.edge_list() == [(0, 1, LT)]


@pytest.mark.parametrize("colour", [5, None, "LT", "dashed", 1.0, ["lt"], {}])
def test_make_refuses_an_unknown_colour(colour):
    with pytest.raises(ValueError, match="unknown edge colour"):
        make(2, [(0, 1, colour)])


@pytest.mark.parametrize("u, v", [(0.7, 1), (0, 1.0), (True, 0), (0, False), ("0", 1), (None, 1)])
def test_make_and_simple_graph_refuse_ids_that_are_not_ints(u, v):
    with pytest.raises(ValueError, match="vertex ids must be ints"):
        make(2, [(u, v, "lt")])
    with pytest.raises(ValueError, match="vertex ids must be ints"):
        simple_graph(2, [(u, v)])


def test_two_cycle_is_allowed():
    g = make(2, [(0, 1, LEQ), (1, 0, LEQ)])
    assert len(g.edges) == 2


def test_labels_validated():
    with pytest.raises(ValueError):
        LabelledDigraph(make(2), (1, 1))
    with pytest.raises(ValueError):
        LabelledDigraph(make(2), (1,))


# ---------------------------------------------------------------------------
# combination operators

def test_dashed_sum_adds_all_cross_edges():
    path2 = atom("P", 2)
    out = combine("dashed", TRIANGLE, path2)
    assert out.n == 5
    cross = [e for e in out.edges if e[2] is NEQ and e[0] < 3 <= e[1]]
    assert len(cross) == 6


def test_disjoint_with_empty_is_identity():
    assert combine("disjoint", TRIANGLE, make(0)) == TRIANGLE
    assert combine("disjoint", make(0), TRIANGLE) == TRIANGLE


def test_solid_sum_of_single_vertices():
    g = combine("solid", atom("C", 1), atom("C", 1))
    assert expand(g).at_t(1) == QSymExpr({(1, 1): 1})


def test_combine_is_associative_on_the_nose():
    rng = random.Random(5)
    for _ in range(12):
        g1, g2, g3 = (random_digraph(rng, 2) for _ in range(3))
        for kind in ("disjoint", "dashed", "solid", "double"):
            assert combine(kind, combine(kind, g1, g2), g3) == \
                combine(kind, g1, combine(kind, g2, g3))


def test_combine_labelled_requires_disjoint_labels():
    a = labelled(atom("C", 1), [1])
    b = labelled(atom("C", 1), [1])
    with pytest.raises(ValueError):
        combine_labelled("disjoint", a, b)
    merged = combine_labelled("disjoint", a, b, shift=True)
    assert merged.labels == (1, 2)


# ---------------------------------------------------------------------------
# atoms and grids

def test_atoms():
    c3 = atom("C", 3)
    assert sorted(c3.edges) == [(0, 1, LEQ), (1, 2, LEQ), (2, 0, LEQ)]
    for kind in "CPQK":
        assert atom(kind, 1) == make(1)
    assert edges_of(atom("P", 3), LT) == [(0, 1, LT), (1, 2, LT)]
    assert edges_of(atom("Q", 3), LEQ) == [(0, 1, LEQ), (1, 2, LEQ)]
    assert len(edges_of(atom("K", 4), NEQ)) == 6
    with pytest.raises(ValueError):
        atom("C", 0)


def test_atom_labelled():
    q = atom_labelled("Q", {2, 4, 7})
    assert q.labels == (2, 4, 7)
    assert q.graph == atom("Q", 3)


def test_grid_shapes():
    assert grid((1,)) == make(1)
    g = grid((2, 1))
    assert g.n == 3
    assert len(edges_of(g, LT)) == 1 and len(edges_of(g, LEQ)) == 1
    assert expand(g).at_t(1) == basis_sym("s", (2, 1))


def test_comp_grid_first_column_only():
    g = comp_grid((1, 2))
    # cells (0,0),(1,0),(1,1): strict down the first column, weak along row 2
    assert len(edges_of(g, LT)) == 1 and len(edges_of(g, LEQ)) == 1
    rs = comp_grid((1, 2), row_strict=True)
    assert len(edges_of(rs, LT)) == 1 and len(edges_of(rs, LEQ)) == 1
    assert edges_of(rs, LEQ)[0] != edges_of(g, LEQ)[0]


# ---------------------------------------------------------------------------
# posets and classical inputs

def test_from_poset_chains():
    lg = from_poset([(1, 2)])
    assert lg.graph.edge_list() == [(0, 1, LEQ)]
    lg = from_poset([(2, 1)])
    assert lg.graph.edge_list() == [(1, 0, LT)]
    lg = from_poset([], [1, 2])
    assert lg.graph.edges == frozenset()


def test_from_poset_covers_only():
    lg = from_poset([(1, 2), (2, 3), (1, 3)])
    assert len(lg.graph.edges) == 2


def test_from_poset_rejects_cycles():
    with pytest.raises(ValueError):
        from_poset([(1, 2), (2, 1)])


def test_from_graph_and_dashed():
    h = simple_graph(2, [(0, 1)])
    g = from_graph(h)
    assert g.edge_list() == [(0, 1, NEQ)]
    d = make(3, [(0, 1, LT), (2, 1, LEQ)])
    assert from_digraph_dashed(d).edge_list() == [(0, 1, NEQ), (2, 1, NEQ)]


def test_from_weighted_single_vertex():
    g = from_weighted(simple_graph(1, []), [2])
    assert g == atom("C", 2)
    assert expand(g).at_t(1) == basis_sym("p", (2,))


def test_from_weighted_edge():
    g = from_weighted(simple_graph(2, [(0, 1)]), [2, 1])
    assert g.n == 3
    assert (0, 2, NEQ) in g.edges


# ---------------------------------------------------------------------------
# contraction

def test_contract_seven_vertex_example():
    g = make(7, [(0, 1, LEQ), (1, 0, LEQ), (1, 2, NEQ), (2, 3, LT),
                 (3, 4, LEQ), (4, 3, LEQ), (4, 5, LEQ), (5, 6, LEQ), (6, 4, LEQ)])
    con = contract(g)
    assert con.classes == ((0, 1), (2,), (3, 4, 5, 6))
    assert con.weights == (2, 1, 4)
    assert con.feasible


def test_contract_infeasible_inside_class():
    g = make(2, [(0, 1, LEQ), (1, 0, LEQ)])
    assert contract(g).feasible
    # a double cycle forces 0,1,2 equal; the dashed chord contradicts it
    bad = make(3, [(0, 1, LEQ), (1, 2, LEQ), (2, 0, LEQ), (0, 2, NEQ)])
    assert not contract(bad).feasible
    worse = make(3, [(0, 1, LEQ), (1, 2, LEQ), (2, 0, LEQ), (0, 2, LT)])
    assert not contract(worse).feasible


def test_contract_all_dashed_gives_singletons():
    g = atom("K", 4)
    con = contract(g)
    assert con.classes == ((0,), (1,), (2,), (3,))
    assert con.feasible


def seeded_digraphs(double: bool):
    """Seeded digraphs of 0 to 8 vertices. With double, each also gets a
    double-edge cycle through a random run of its vertices (when it has
    two or more) besides its drawn double edges; without, it has none."""
    rng = random.Random(2027 if double else 2026)
    kinds = ("neq", "lt", "leq") if double else ("neq", "lt")
    for n in [*range(9)] * 25:
        edges = {(u, v): rng.choice(kinds)
                 for u in range(n) for v in range(n) if u != v and rng.random() < 0.4}
        if double and n >= 2:
            cycle = rng.sample(range(n), rng.randint(2, n))
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                edges[u, v] = "leq"
        yield make(n, [(u, v, kind) for (u, v), kind in edges.items()])


@pytest.mark.parametrize("double", [False, True], ids=["no-double-edge", "double-edge-cycles"])
def test_contract_matches_mutual_reachability(double, monkeypatch):
    if not double:  # no double edge leaves every class one vertex: no SCC search
        def no_sccs(n, arcs):
            raise AssertionError("_sccs called on a digraph with no double edge")
        monkeypatch.setattr(gr, "_sccs", no_sccs)
    for g in seeded_digraphs(double):
        assert contract(g) == mutual_reachability_contract(g), g


def test_contract_quotient_is_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        g = random_digraph(rng, 5)
        con = contract(g)
        if not con.feasible:
            continue
        quotient = make(len(con.classes), set(con.edges))
        again = contract(quotient)
        assert all(len(c) == 1 for c in again.classes)


# ---------------------------------------------------------------------------
# closed subsets

def test_closed_subsets_section_example():
    g = make(4, [(0, 1, LEQ), (1, 3, NEQ), (0, 2, LT)])
    subsets = closed_subsets(g)
    assert len(subsets) == 10
    assert () in subsets and (0, 1, 2, 3) in subsets
    assert (1, 3) in subsets and (0,) not in subsets


def test_closed_subsets_edgeless():
    g = make(3)
    assert len(closed_subsets(g)) == 8


def test_closed_subsets_path():
    g = atom("P", 2)
    assert closed_subsets(g) == [(), (1,), (0, 1)]


def test_closed_subsets_form_a_lattice():
    rng = random.Random(3)
    for _ in range(10):
        g = random_digraph(rng, 8)
        subsets = [frozenset(s) for s in closed_subsets(g)]
        family = set(subsets)
        for a, b in itertools.combinations(subsets, 2):
            assert a | b in family
            assert a & b in family


# ---------------------------------------------------------------------------
# induced subdigraphs and labels

def test_induced_renumbers():
    g = make(4, [(0, 1, LEQ), (1, 3, NEQ), (0, 2, LT)])
    sub = induced(g, [1, 3])
    assert sub == make(2, [(0, 1, NEQ)])


def test_induced_labelled_standardizes_like_worked_example():
    # labels: r,s,t,u,v,w -> 2,5,1,6,3,4; F = {r,s,u,w} -> std labels (1,3,4,2)
    g = make(6)
    lg = LabelledDigraph(g, (2, 5, 1, 6, 3, 4))
    sub = induced_labelled(lg, [0, 1, 3, 5])
    assert sub.labels == (1, 3, 4, 2)


# ---------------------------------------------------------------------------
# orientations and balance

def test_triangle_one_balanced_orientations():
    h = simple_graph(3, [(0, 1), (1, 2), (0, 2)])
    balanced = [o for o in orientations(h) if is_k_balanced(o, 1)]
    assert len(balanced) == 6


def test_forest_always_balanced():
    h = simple_graph(4, [(0, 1), (1, 2), (1, 3)])
    for o in orientations(h):
        for k in (1, 2, 5):
            assert is_k_balanced(o, k)


def test_four_cycle_two_balanced():
    h = simple_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    balanced = [o for o in orientations(h) if is_k_balanced(o, 2)]
    assert len(balanced) == 6


def test_simple_cycles_counts():
    triangle = simple_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert len(simple_cycles(triangle)) == 1
    k4 = simple_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert len(simple_cycles(k4)) == 7  # four triangles and three squares


def recursive_simple_cycles(h):
    """The recursive cycle search that graph.simple_cycles replaced: the
    reference for its order."""
    adj = {v: set(h.neighbours(v)) for v in range(h.n)}
    cycles = []

    def extend(path, allowed):
        last = path[-1]
        for nxt in sorted(adj[last] & allowed):
            if nxt == path[0] and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
                continue
            if nxt in path:
                continue
            extend(path + [nxt], allowed)

    for start in range(h.n):
        extend([start], {v for v in range(h.n) if v >= start})
    return cycles


def test_simple_cycles_match_the_recursive_search_in_order():
    graphs = [simple_graph(n, itertools.combinations(range(n), 2)) for n in (4, 5, 6)]
    rng = random.Random(20261019)
    for _ in range(40):
        n = rng.randint(0, 7)
        graphs.append(simple_graph(n, [p for p in itertools.combinations(range(n), 2)
                                       if rng.random() < 0.5]))
    for h in graphs:
        assert simple_cycles(h) == recursive_simple_cycles(h)
    assert len(simple_cycles(graphs[2])) == 197  # K6


def test_simple_cycles_of_a_cycle_longer_than_the_recursion_limit():
    n = 1100
    h = simple_graph(n, [(i, (i + 1) % n) for i in range(n)])
    assert simple_cycles(h) == [(0, 1, *range(2, n))]


def _proper_colourings(h, top):
    for colours in itertools.product(range(1, top + 1), repeat=h.n):
        if all(colours[a] != colours[b] for a, b in h.edge_list()):
            yield colours


def test_colouring_orientations_are_one_balanced_exhaustive():
    for n in range(2, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            h = simple_graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
            for colours in _proper_colourings(h, n):
                assert is_k_balanced(colouring_orientation(h, colours), 1)


def test_colouring_orientations_are_one_balanced_sampled_n5():
    rng = random.Random(17)
    pairs = list(itertools.combinations(range(5), 2))
    for _ in range(12):
        edges = [p for p in pairs if rng.random() < 0.5]
        h = simple_graph(5, edges)
        for colours in _proper_colourings(h, 5):
            assert is_k_balanced(colouring_orientation(h, colours), 1)


def test_edge_list_order_is_unchanged_on_mixed_colours():
    """Ordered pairs never repeat, so sorting on (u, v) alone gives the
    order of the old key (u, v, colour value)."""
    rng = random.Random(7)
    graphs = [random_digraph(rng, 7) for _ in range(60)]
    graphs.append(parse_dsl("S(D(C(2),U(C(1),C(1))),W(C(1),C(2)))"))
    mixed = 0
    for g in graphs:
        assert g.edge_list() == sorted(g.edges, key=lambda e: (e[0], e[1], e[2].value))
        mixed += {c for _, _, c in g.edges} == {NEQ, LT, LEQ}
    assert mixed >= 20


def test_underlying_graph():
    assert underlying_graph(TRIANGLE) == simple_graph(3, [(0, 1), (1, 2), (0, 2)])


# ---------------------------------------------------------------------------
# serialization and the DSL

def test_json_roundtrip():
    data = digraph_to_json(TRIANGLE)
    assert data == {"n": 3, "edges": [[0, 1, "neq"], [1, 2, "lt"], [2, 0, "leq"]]}
    assert digraph_from_json(data) == TRIANGLE


def test_json_roundtrip_labelled():
    lg = labelled(TRIANGLE, (3, 1, 2))
    data = digraph_to_json(lg)
    assert data["labels"] == [3, 1, 2]
    assert digraph_from_json(data) == lg


def test_dsl_atoms_and_operators():
    assert parse_dsl("C(3)") == atom("C", 3)
    assert parse_dsl("grid(2,1)") == grid((2, 1))
    assert parse_dsl("cgrid(1,2)") == comp_grid((1, 2))
    assert parse_dsl("rcgrid(1,2)") == comp_grid((1, 2), row_strict=True)
    assert parse_dsl("U(C(1),C(2))") == combine("disjoint", atom("C", 1), atom("C", 2))
    assert parse_dsl("W(C(2),C(1))") == combine("double", atom("C", 2), atom("C", 1))
    assert parse_dsl("Schain(Q(1),Q(2),Q(1))") == \
        combine_chain("solid", [atom("Q", 1), atom("Q", 2), atom("Q", 1)])
    assert parse_dsl(" S( P(2) , K(2) ) ") == combine("solid", atom("P", 2), atom("K", 2))


def test_dsl_rejects_garbage():
    for bad in ("", "C", "C(", "C(0)", "X(1)", "U(C(1))extra", "C(1))"):
        with pytest.raises(ValueError):
            parse_dsl(bad)
