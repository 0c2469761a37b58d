"""Edge-coloured digraphs: construction, the four combination sums,
named families, structural analyses, and serialization.

Edges carry one of three colour constraints on vertex colours:

* NEQ (dashed)  - endpoints get different colours,
* LT  (solid)   - source colour strictly below target colour,
* LEQ (double)  - source colour weakly below target colour.

Vertices are positional, 0..n-1; functions never test isomorphism.
Equality of the induced chromatic expansions is the observable.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .combinat import partition, composition


class EdgeConstraint(Enum):
    NEQ = "neq"
    LT = "lt"
    LEQ = "leq"

    @property
    def symbol(self) -> str:
        return {"neq": "-/->", "lt": "->", "leq": "=>"}[self.value]


NEQ = EdgeConstraint.NEQ
LT = EdgeConstraint.LT
LEQ = EdgeConstraint.LEQ

_CONSTRAINTS = {kind.value: kind for kind in EdgeConstraint}


def edge_constraint(c) -> EdgeConstraint:
    """c if it is an EdgeConstraint, else the member whose value it is
    ("neq", "lt" or "leq"); any other c raises ValueError."""
    if type(c) is EdgeConstraint:  # not hashed: an Enum member hashes in Python
        return c
    try:
        return _CONSTRAINTS[c]
    except (KeyError, TypeError):  # TypeError: c cannot be hashed
        raise ValueError(f"unknown edge colour {c!r}") from None


COMBINE_KINDS = ("disjoint", "dashed", "solid", "double")
_CROSS = {"dashed": NEQ, "solid": LT, "double": LEQ}


@dataclass(frozen=True)
class EdgeColouredDigraph:
    """A simple digraph (no loops, one edge per ordered pair) with edge colours."""

    n: int
    edges: frozenset

    def edge_list(self):
        """Edges sorted for deterministic iteration. make allows one edge
        per ordered pair, so (u, v) alone orders them."""
        return sorted(self.edges, key=itemgetter(0, 1))

    def __repr__(self):
        inner = ", ".join(f"{u}{c.symbol}{v}" for u, v, c in self.edge_list())
        return f"Digraph(n={self.n}; {inner})"


def make(n: int, edges=()) -> EdgeColouredDigraph:
    """Validate and build an edge-coloured digraph on vertices 0..n-1.

    Each edge is (u, v, colour): u and v are ints (a bool is refused),
    and the colour is read by edge_constraint.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    seen_pairs = set()
    out = set()
    for edge in edges:
        u, v, c = edge
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"vertex ids must be ints: {edge}")
        c = edge_constraint(c)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range in edge {edge}")
        if u == v:
            raise ValueError(f"loops are not allowed: {edge}")
        if (u, v) in seen_pairs:
            raise ValueError(f"duplicate ordered pair ({u}, {v})")
        seen_pairs.add((u, v))
        out.add((u, v, c))
    return EdgeColouredDigraph(n, frozenset(out))


@dataclass(frozen=True)
class LabelledDigraph:
    """An edge-coloured digraph plus a bijective vertex labelling.

    labels[v] is the label of vertex v; the label set is any finite set
    of distinct positive integers.
    """

    graph: EdgeColouredDigraph
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != self.graph.n:
            raise ValueError("one label per vertex required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"labels must be distinct: {self.labels}")
        if any(l < 1 for l in self.labels):
            raise ValueError("labels must be positive integers")

    def __repr__(self):
        return f"Labelled({self.graph!r}, labels={list(self.labels)})"


def labelled(graph: EdgeColouredDigraph, labels=None) -> LabelledDigraph:
    """Attach labels (default 1..n in vertex order)."""
    if labels is None:
        labels = range(1, graph.n + 1)
    return LabelledDigraph(graph, tuple(int(x) for x in labels))


def standardize_labels(lg: LabelledDigraph) -> LabelledDigraph:
    """Order-preserving relabelling onto 1..n; lg itself when its labels
    already are 1..n, which distinct positive labels are exactly when
    the largest is n."""
    if max(lg.labels, default=0) == len(lg.labels):
        return lg
    rank = {l: i + 1 for i, l in enumerate(sorted(lg.labels))}
    return LabelledDigraph(lg.graph, tuple(rank[l] for l in lg.labels))


# ---------------------------------------------------------------------------
# combination operators

def combine_chain(kind: str, graphs) -> EdgeColouredDigraph:
    """Disjoint union, or the dashed/solid/double sum, of a sequence of
    digraphs, in one pass.

    Each part's vertices follow those of the parts before it. The three
    sums additionally connect every earlier vertex to every vertex of
    the part with the respective edge colour. The sums are associative,
    so this is also the left fold of the two-part sum.
    """
    if kind not in COMBINE_KINDS:
        raise ValueError(f"unknown combination kind {kind!r}")
    cross = _CROSS.get(kind)
    edges = []
    n = 0
    for g in graphs:
        edges.extend((u + n, v + n, c) for u, v, c in g.edges)
        if cross is not None:
            edges.extend((a, b, cross) for a in range(n) for b in range(n, n + g.n))
        n += g.n
    return EdgeColouredDigraph(n, frozenset(edges))


def combine(kind: str, g1: EdgeColouredDigraph, g2: EdgeColouredDigraph) -> EdgeColouredDigraph:
    """The two-part case of combine_chain."""
    return combine_chain(kind, (g1, g2))


def combine_chain_labelled(kind: str, lgs) -> LabelledDigraph:
    """Labelled combine_chain: the labels concatenate in order, and the
    label sets must be pairwise disjoint."""
    lgs = list(lgs)
    labels = tuple(itertools.chain.from_iterable(lg.labels for lg in lgs))
    if len(set(labels)) != len(labels):
        raise ValueError("label sets overlap (pass shift=True to auto-shift)")
    return LabelledDigraph(combine_chain(kind, [lg.graph for lg in lgs]), labels)


def combine_labelled(kind: str, lg1: LabelledDigraph, lg2: LabelledDigraph,
                     shift: bool = False) -> LabelledDigraph:
    """Labelled combination; label sets must be disjoint unless shift is set,
    in which case |V(g1)| is added to every label of lg2."""
    if shift:
        lg2 = LabelledDigraph(lg2.graph, tuple(l + lg1.graph.n for l in lg2.labels))
    return combine_chain_labelled(kind, (lg1, lg2))


# ---------------------------------------------------------------------------
# named families

def atom(kind: str, n: int) -> EdgeColouredDigraph:
    """The building-block digraphs.

    C(n): directed cycle of double edges (C(1) is a bare vertex, C(2) has
    both ordered pairs); P(n): solid path; Q(n): double path; K(n):
    complete dashed digraph with edges oriented low to high.
    """
    if n < 1:
        raise ValueError("atoms need at least one vertex")
    if kind == "C":
        if n == 1:
            return make(1)
        edges = [(i, i + 1, LEQ) for i in range(n - 1)] + [(n - 1, 0, LEQ)]
        return make(n, edges)
    if kind == "P":
        return make(n, [(i, i + 1, LT) for i in range(n - 1)])
    if kind == "Q":
        return make(n, [(i, i + 1, LEQ) for i in range(n - 1)])
    if kind == "K":
        return make(n, [(i, j, NEQ) for i in range(n) for j in range(i + 1, n)])
    raise ValueError(f"unknown atom kind {kind!r}")


def atom_labelled(kind: str, label_set) -> LabelledDigraph:
    """Labelled atom on the given label set.

    P and Q carry increasing labels along the path (required); C and K
    accept any labelling, and the increasing one is the canonical choice.
    """
    labels = tuple(sorted(set(int(x) for x in label_set)))
    if not labels:
        raise ValueError("label set must be nonempty")
    return LabelledDigraph(atom(kind, len(labels)), labels)


def grid(lam) -> EdgeColouredDigraph:
    """Row/column digraph of a partition: solid edges down each column,
    double edges along each row. Its expansion is the Schur function."""
    lam = partition(lam)
    return _grid(lam, strict_first_column_only=False, row_strict=False)


def comp_grid(alpha, row_strict: bool = False) -> EdgeColouredDigraph:
    """Composition grid with the column condition kept only in the first
    column; row_strict swaps the roles of the two edge colours."""
    alpha = composition(alpha)
    return _grid(alpha, strict_first_column_only=True, row_strict=row_strict)


def _grid(rows, strict_first_column_only, row_strict):
    cells = [(i, j) for i, row_len in enumerate(rows) for j in range(row_len)]
    index = {cell: v for v, cell in enumerate(cells)}
    down, along = (LEQ, LT) if row_strict else (LT, LEQ)
    edges = []
    for (i, j), v in index.items():
        if (i, j + 1) in index:
            edges.append((v, index[(i, j + 1)], along))
        if (i + 1, j) in index and (j == 0 or not strict_first_column_only):
            edges.append((v, index[(i + 1, j)], down))
    return make(len(cells), edges)


def from_poset(relations, elements=None) -> LabelledDigraph:
    """Cover-edge digraph of a labelled poset.

    relations: pairs (a, b) meaning a < b in the poset; elements: the
    underlying label set (defaults to everything mentioned). A cover
    (a, b) becomes a double edge when a < b as integers and a solid edge
    when a > b, so proper colourings match the poset's partitions.
    """
    rel = [(int(a), int(b)) for a, b in relations]
    if elements is None:
        elements = {x for pair in rel for x in pair}
    elements = sorted(set(int(x) for x in elements))
    index = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    less = [[False] * n for _ in range(n)]
    for a, b in rel:
        if a not in index or b not in index:
            raise ValueError(f"relation ({a},{b}) mentions unknown element")
        less[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            if less[i][k]:
                for j in range(n):
                    if less[k][j]:
                        less[i][j] = True
    for i in range(n):
        if less[i][i]:
            raise ValueError("relations contain a cycle")
    edges = []
    for i in range(n):
        for j in range(n):
            if less[i][j] and not any(less[i][k] and less[k][j] for k in range(n)):
                kind = LEQ if elements[i] < elements[j] else LT
                edges.append((i, j, kind))
    return LabelledDigraph(make(n, edges), tuple(elements))


# ---------------------------------------------------------------------------
# simple graphs and the classical specializations

@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on 0..n-1."""

    n: int
    edges: frozenset

    def edge_list(self):
        return sorted(self.edges)

    def neighbours(self, v: int):
        return sorted(set(b for a, b in self.edges if a == v)
                      | set(a for a, b in self.edges if b == v))


def simple_graph(n: int, edges=()) -> SimpleGraph:
    out = set()
    for a, b in edges:
        if type(a) is not int or type(b) is not int:
            raise ValueError(f"vertex ids must be ints: ({a!r}, {b!r})")
        if a == b:
            raise ValueError("loops are not allowed")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"vertex out of range in edge ({a},{b})")
        out.add((min(a, b), max(a, b)))
    return SimpleGraph(n, frozenset(out))


def from_graph(h: SimpleGraph) -> EdgeColouredDigraph:
    """All-dashed digraph of a graph, each edge oriented low to high (the
    ascent convention for chromatic quasisymmetric functions of labelled
    graphs)."""
    return make(h.n, [(a, b, NEQ) for a, b in h.edge_list()])


def from_digraph_dashed(d: EdgeColouredDigraph) -> EdgeColouredDigraph:
    """Replace every edge's constraint with NEQ, keeping directions."""
    return make(d.n, [(u, v, NEQ) for u, v, _ in d.edge_list()])


def from_weighted(h: SimpleGraph, weights) -> EdgeColouredDigraph:
    """Cycle-blowup of a weighted graph: a double cycle per vertex, plus a
    dashed edge between fixed representatives of adjacent vertices."""
    weights = [int(weights[v]) for v in range(h.n)]
    if any(w < 1 for w in weights):
        raise ValueError("weights must be positive")
    g = combine_chain("disjoint", [atom("C", w) for w in weights])
    offsets = list(itertools.accumulate(weights, initial=0))
    edges = set(g.edges)
    edges.update((offsets[a], offsets[b], NEQ) for a, b in h.edge_list())
    return EdgeColouredDigraph(g.n, frozenset(edges))


def underlying_graph(d: EdgeColouredDigraph) -> SimpleGraph:
    return simple_graph(d.n, [(u, v) for u, v, _ in d.edges])


# ---------------------------------------------------------------------------
# structural analyses

@dataclass(frozen=True)
class Contraction:
    """Vertices forced equal by directed double-edge cycles.

    classes: strongly connected components of the double-edge subgraph,
    ordered by minimum vertex;  weights: class sizes;  feasible: False
    exactly when a dashed or solid edge joins two vertices of one class,
    which leaves no proper colouring (a feasible contraction may still
    have none: chromatic.LevelDP.ordered tells when the solid and double
    edges between classes form a cycle);  edges: the original edges
    between distinct classes, as (class_i, class_j, constraint) with
    original multiplicity.
    """

    classes: tuple
    weights: tuple[int, ...]
    feasible: bool
    edges: tuple


def contract(g: EdgeColouredDigraph) -> Contraction:
    double = [(u, v) for u, v, c in g.edges if c is LEQ]
    if not double:  # classes of one vertex each, and every edge between two
        return Contraction(tuple((v,) for v in range(g.n)), (1,) * g.n, True, tuple(g.edge_list()))
    comps = _sccs(g.n, double)
    comps.sort(key=min)
    class_of = [0] * g.n
    for i, comp in enumerate(comps):
        for v in comp:
            class_of[v] = i
    feasible = True
    class_edges = []
    for u, v, c in g.edge_list():
        cu, cv = class_of[u], class_of[v]
        if cu == cv:
            if c is not LEQ:
                feasible = False
        else:
            class_edges.append((cu, cv, c))
    return Contraction(
        classes=tuple(tuple(sorted(comp)) for comp in comps),
        weights=tuple(len(comp) for comp in comps),
        feasible=feasible,
        edges=tuple(class_edges),
    )


def _sccs(n: int, arcs) -> list[list[int]]:
    """Strongly connected components (Kosaraju, iterative)."""
    fwd = [[] for _ in range(n)]
    bwd = [[] for _ in range(n)]
    for u, v in arcs:
        fwd[u].append(v)
        bwd[v].append(u)
    order = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        stack = [(root, iter(fwd[root]))]
        seen[root] = True
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(fwd[w])))
                    advanced = True
                    break
            if not advanced:
                order.append(v)
                stack.pop()
    comp_of = [-1] * n
    comps = []
    for root in reversed(order):
        if comp_of[root] != -1:
            continue
        comp = []
        stack = [root]
        comp_of[root] = len(comps)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in bwd[v]:
                if comp_of[w] == -1:
                    comp_of[w] = len(comps)
                    stack.append(w)
        comps.append(comp)
    return comps


def induced(g: EdgeColouredDigraph, vertices) -> EdgeColouredDigraph:
    """Induced subdigraph, vertices renumbered 0..|S|-1 in sorted order."""
    verts = sorted(set(vertices))
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[v], c) for u, v, c in g.edges
             if u in index and v in index]
    return make(len(verts), edges)


def induced_labelled(lg: LabelledDigraph, vertices) -> LabelledDigraph:
    """Induced labelled subdigraph, labels standardized onto 1..|S|."""
    verts = sorted(set(vertices))
    return standardize_labels(
        LabelledDigraph(induced(lg.graph, verts), tuple(lg.labels[v] for v in verts)))


def closed_subsets(g: EdgeColouredDigraph):
    """All S with every solid or double edge out of S staying inside S.

    These index the digraph-side coproduct. The empty set and the full
    vertex set are always included. Enumeration is the plain 2^n sweep
    with an O(edges) closure test per subset.
    """
    forcing = [(u, v) for u, v, c in g.edge_list() if c is not NEQ]
    out = []
    for mask in range(1 << g.n):
        if all(not (mask >> u) & 1 or (mask >> v) & 1 for u, v in forcing):
            out.append(tuple(v for v in range(g.n) if (mask >> v) & 1))
    out.sort(key=lambda s: (len(s), s))
    return out


# ---------------------------------------------------------------------------
# orientations and balance

def _orientation_arcs(h: SimpleGraph):
    """The arc lists of all 2^|E| orientations of a graph: the edges run
    low to high, flipped as itertools.product counts through the flips."""
    pairs = h.edge_list()
    for flips in itertools.product((False, True), repeat=len(pairs)):
        yield [(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, flips)]


def orientations(h: SimpleGraph):
    """All 2^|E| orientations of a graph, as all-solid digraphs."""
    return [make(h.n, [(u, v, LT) for u, v in arcs]) for arcs in _orientation_arcs(h)]


def balanced_orientations(h: SimpleGraph, k: int):
    """The k-balanced orientations of a graph, in the order of
    `orientations`; the cycles of h are found once for all of them, and
    only the orientations kept are built."""
    if k < 1:
        raise ValueError("k must be positive")
    cycles = simple_cycles(h)
    return [make(h.n, [(u, v, LT) for u, v in arcs]) for arcs in _orientation_arcs(h)
            if _k_balanced(arcs, cycles, k)]


def simple_cycles(h: SimpleGraph):
    """Every cycle of the graph once, as a vertex tuple starting at its
    smallest vertex with the smaller neighbour second."""
    adj = {v: set(h.neighbours(v)) for v in range(h.n)}
    cycles = []
    for start in range(h.n):
        allowed = set(range(start, h.n))
        # a depth-first walk over the simple paths from start, with one
        # iterator of sorted neighbours per path vertex
        path, on_path = [start], {start}
        stack = [iter(sorted(adj[start] & allowed))]
        while stack:
            for nxt in stack[-1]:
                if nxt == start and len(path) >= 3:
                    if path[1] < path[-1]:
                        cycles.append(tuple(path))
                elif nxt not in on_path:
                    path.append(nxt)
                    on_path.add(nxt)
                    stack.append(iter(sorted(adj[nxt] & allowed)))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    return cycles


def is_k_balanced(orientation: EdgeColouredDigraph, k: int) -> bool:
    """Whether every weak cycle has at least k edges in each direction."""
    return _k_balanced([(u, v) for u, v, _ in orientation.edges],
                       simple_cycles(underlying_graph(orientation)), k)


def _k_balanced(arcs, cycles, k: int) -> bool:
    arcs = set(arcs)
    for cycle in cycles:
        forward = sum(1 for i in range(len(cycle))
                      if (cycle[i], cycle[(i + 1) % len(cycle)]) in arcs)
        if forward < k or len(cycle) - forward < k:
            return False
    return True


def colouring_orientation(h: SimpleGraph, colours) -> EdgeColouredDigraph:
    """Orientation induced by a proper colouring: edges point to the greater colour."""
    edges = []
    for a, b in h.edge_list():
        if colours[a] == colours[b]:
            raise ValueError("colouring is not proper")
        edges.append((a, b, LT) if colours[a] < colours[b] else (b, a, LT))
    return make(h.n, edges)


# ---------------------------------------------------------------------------
# digraphs realizing basis elements

# kind -> (combination, atom) for the bases whose element is one chain
# of atoms over the parts of its index
_QSYM_RECIPES = {"M": ("solid", "C"), "F": ("solid", "Q"), "Fbar": ("double", "C")}
_SYM_RECIPES = {"maug": ("dashed", "C"), "e": ("disjoint", "P"), "eaug": ("disjoint", "K"),
                "h": ("disjoint", "Q"), "p": ("disjoint", "C")}
_NCSYM_RECIPES = {"m": ("dashed", "C"), "p": ("disjoint", "C"), "e": ("disjoint", "K")}
# r-level kind -> (QSym kind of the composition side, Sym kind of the partition side)
_R_SIDES = {"M": ("M", "maug"), "S": ("M", "s"), "Fbar": ("Fbar", "maug"), "Sbar": ("Fbar", "s")}


def _recipe(table: dict, kind: str, unknown: str):
    if kind not in table:
        raise ValueError(f"{unknown} {kind!r}")
    return table[kind]


def sym_basis_digraph(kind: str, lam) -> EdgeColouredDigraph:
    """The digraph whose expansion is the given symmetric-function basis
    element: m, maug, e, eaug, h, p, or s."""
    lam = partition(lam)
    if kind == "m":  # solid chains over the runs of equal parts, in a dashed chain
        return combine_chain("dashed", [combine_chain("solid", [atom("C", p) for p in run])
                                        for _, run in itertools.groupby(lam)])
    if kind == "s":
        return grid(lam)
    combination, atom_kind = _recipe(_SYM_RECIPES, kind, "unknown symmetric basis kind")
    return combine_chain(combination, [atom(atom_kind, p) for p in lam])


def qsym_basis_digraph(kind: str, alpha) -> EdgeColouredDigraph:
    """The digraph whose expansion is M, F, or Fbar at the composition."""
    alpha = composition(alpha)
    combination, atom_kind = _recipe(_QSYM_RECIPES, kind, "unknown quasisymmetric basis kind")
    return combine_chain(combination, [atom(atom_kind, p) for p in alpha])


def r_basis_digraph(kind: str, beta, mu) -> EdgeColouredDigraph:
    """Digraph for an r-level basis element (kind M, S, Fbar, or Sbar):
    the dashed sum of a QSym and a Sym basis digraph (see _R_SIDES)."""
    beta = composition(beta)
    mu = partition(mu)
    left, right = _recipe(_R_SIDES, kind, "unknown r-basis kind")
    return combine("dashed", qsym_basis_digraph(left, beta), sym_basis_digraph(right, mu))


def ncqsym_basis_digraph(kind: str, phi) -> LabelledDigraph:
    """Labelled digraph for M, F, or Fbar at a set composition."""
    combination, atom_kind = _recipe(_QSYM_RECIPES, kind, "unknown noncommutative basis kind")
    return combine_chain_labelled(combination, [atom_labelled(atom_kind, b) for b in phi])


def ncsym_basis_digraph(kind: str, pi) -> LabelledDigraph:
    """Labelled digraph for the single-digraph NCSym bases: m, p, or e."""
    combination, atom_kind = _recipe(_NCSYM_RECIPES, kind,
                                     "no single digraph for NCSym basis kind")
    return combine_chain_labelled(combination, [atom_labelled(atom_kind, b) for b in pi])


# ---------------------------------------------------------------------------
# JSON and the builder DSL

def digraph_to_json(g) -> dict:
    if isinstance(g, LabelledDigraph):
        out = digraph_to_json(g.graph)
        out["labels"] = list(g.labels)
        return out
    return {
        "n": g.n,
        # each member's own _value_, not the per-call `value` property
        "edges": [[u, v, c._value_] for u, v, c in g.edge_list()],
    }


def _json_n_and_edges(data, what: str):
    """n and the edge list of a JSON object {"n": int >= 0, "edges": [...]};
    the edges themselves are checked by the caller."""
    if not isinstance(data, dict):
        raise ValueError(f"a {what} must be a JSON object, not {type(data).__name__}")
    n = data.get("n")
    if not _is_int(n) or n < 0:
        raise ValueError(f'"n" must be a nonnegative integer, not {n!r}')
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise ValueError(f'"edges" must be a list, not {type(edges).__name__}')
    return n, edges


def digraph_from_json(data):
    """The digraph (labelled when "labels" is given) of a JSON object
    {"n": int >= 0, "edges": [[u, v, kind], ...], "labels": [int, ...]};
    anything off that schema raises ValueError."""
    n, edges = _json_n_and_edges(data, "digraph")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 3 and _is_int(e[0]) and _is_int(e[1])
                and e[2] in _EDGE_KINDS):
            raise ValueError(f"an edge must be [int, int, kind] with kind one of "
                             f"{', '.join(_EDGE_KINDS)}, not {e!r}")
    g = make(n, edges)
    if "labels" in data:
        labels = data["labels"]
        if not isinstance(labels, list) or not all(map(_is_int, labels)):
            raise ValueError(f'"labels" must be a list of integers, not {labels!r}')
        return LabelledDigraph(g, tuple(labels))
    return g


def simple_graph_from_json(data) -> SimpleGraph:
    """The simple graph of a JSON object {"n": int >= 0, "edges": [[u, v], ...]};
    anything off that schema raises ValueError."""
    n, edges = _json_n_and_edges(data, "graph")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise ValueError(f"an edge must be [int, int], not {e!r}")
    return simple_graph(n, edges)


_EDGE_KINDS = tuple(_CONSTRAINTS)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_DSL_ATOMS = {"C", "P", "Q", "K"}
_DSL_OPS = {"U": "disjoint", "D": "dashed", "S": "solid", "W": "double"}
_DSL_OPS |= {name + "chain": kind for name, kind in _DSL_OPS.items()}
# a run of letters and digits, or any other single non-space character
_DSL_TOKEN = re.compile(r"[^\W_]+|\S")


def parse_dsl(text: str) -> EdgeColouredDigraph:
    """Evaluate a builder expression.

    Atoms: C(n) P(n) Q(n) K(n), grid(parts...), cgrid(parts...),
    rcgrid(parts...) for the row-strict grid. Operators: U (disjoint),
    D (dashed), S (solid), W (double), each folding one or more
    arguments left to right; Uchain/Dchain/Schain/Wchain are synonyms.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"unexpected end of expression: {text!r}")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r} in {text!r}")
        pos += 1
        return tok

    def parse_args(parse_item):
        take("(")
        args = [parse_item()]
        while peek() == ",":
            take(",")
            args.append(parse_item())
        take(")")
        return args

    def parse_int():
        tok = take()
        if not tok.isdigit():
            raise ValueError(f"expected an integer, found {tok!r}")
        return int(tok)

    def parse_expr():
        name = take()
        if name in _DSL_ATOMS:
            args = parse_args(parse_int)
            if len(args) != 1:
                raise ValueError(
                    f"{name} takes one vertex count, got {len(args)}, in {text!r}")
            return atom(name, args[0])
        if name == "grid":
            return grid(parse_args(parse_int))
        if name == "cgrid":
            return comp_grid(parse_args(parse_int))
        if name == "rcgrid":
            return comp_grid(parse_args(parse_int), row_strict=True)
        kind = _DSL_OPS.get(name)
        if kind is None:
            raise ValueError(f"unknown builder name {name!r}")
        return combine_chain(kind, parse_args(parse_expr))

    try:
        result = parse_expr()
    except RecursionError:  # the interpreter's own nesting limit
        raise ValueError("builder expression nested too deeply") from None
    finally:
        del parse_expr  # parse_expr calls itself through this name: free the cycle now
    if pos != len(tokens):
        raise ValueError(f"trailing input after expression: {text!r}")
    return result


def _tokenize(text: str):
    tokens = _DSL_TOKEN.findall(text)
    for tok in tokens:
        if not (tok.isalnum() or tok in "(),"):
            raise ValueError(f"bad character {tok!r} in {text!r}")
    return tokens
