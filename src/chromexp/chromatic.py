"""The core enumeration engine: from an edge-coloured digraph to its
exact monomial expansion with the ascent statistic, the digraph-side
coproduct, the least number of colours, and the classical chromatic
functions as adapters."""

from __future__ import annotations

import time
from math import comb

from . import graph as gr
from .combinat import composition
from .graph import (
    LEQ,
    LT,
    NEQ,
    Contraction,
    EdgeColouredDigraph,
    SimpleGraph,
    balanced_orientations,
    contract,
    closed_subsets,
    colouring_orientation,
    induced,
    is_k_balanced,
)
from .qsym import QSymExpr, QSymTensor
from .tpoly import TPoly


class LevelDP:
    """The transition rule shared by every expansion: colour the classes
    of a contraction level by level, from the lowest level up.

    A state is the bitmask of the classes already placed on lower
    levels. A move places a nonempty block of unplaced classes as the
    next level: no dashed or solid edge lies inside the block, every
    solid predecessor of the block is already placed, and every double
    predecessor is placed or in the block. The move records the block,
    the number of edges it receives from the placed classes (the
    ascents it adds), its total weight and the number of ways it stands
    for. The moves of a state are computed once per instance.

    With `twins`, classes that are false twins form a group (see
    _twin_groups). Twins are interchangeable in every colouring, so the
    walk keeps the placed members of each group a prefix of the group,
    in class order: a state records how many of each group are placed,
    and the states number the product of (group size + 1) over the
    groups. A move takes the next j of the u unplaced members of a group
    and stands for the C(u, j) ways to choose them; a block that takes
    from several groups stands for the product. Otherwise every class is
    a group of its own and every move stands for one way.

    `ordered` is False exactly when the solid and double edges between
    the classes form a cycle. Double-edge cycles are contracted, so such
    a cycle holds a solid edge and no colouring exists. When it is True,
    every state but the full one has a move (a class with no solid or
    double predecessor left unplaced can form the next level), so every
    path of moves ends at the full state.

    With `downward`, the levels are coloured from the highest down: every
    edge is read reversed, so a state holds the classes placed on higher
    levels and a move's ascents are the edges from its block to them.
    The colourings and their ascents are those of the upward walk, with
    the levels of each colouring read in the opposite order; `ordered`
    and the twin groups are the same, and when `ordered` is True so are
    the counts of states and moves.
    """

    __slots__ = ("full", "ordered", "moves_of", "_groups", "_clash", "_below", "_weak",
                 "_into", "_again", "_weights")

    def __init__(self, con: Contraction, twins: bool = False, downward: bool = False):
        s = len(con.classes)
        edges = [(cj, ci, kind) for ci, cj, kind in con.edges] if downward else con.edges
        self.full = (1 << s) - 1
        self.moves_of: dict[int, list] = {}
        self._clash = clash = [0] * s  # classes that may not share a level with it
        self._below = below = [0] * s  # solid predecessors: on a strictly lower level
        self._weak = weak = [0] * s    # double predecessors: on a lower or the same level
        self._into = into = [0] * s    # the classes with an edge into it
        self._again = again = [[] for _ in range(s)]  # the tail of each repeated edge into it
        self._weights = con.weights
        for ci, cj, kind in edges:
            bit = 1 << ci
            if into[cj] & bit:
                again[cj].append(ci)
            else:
                into[cj] |= bit
            if kind is LEQ:
                weak[cj] |= bit
            else:
                clash[ci] |= 1 << cj
                clash[cj] |= bit
                if kind is LT:
                    below[cj] |= bit
        # the double edges between classes alone form no cycle, and no
        # class edge is a loop: acyclic exactly when every class is its own
        # strongly connected component
        self.ordered = not any(below) or len(gr._sccs(
            s, [(ci, cj) for ci, cj, kind in con.edges if kind is not NEQ])) == s
        # each group as its first member and the bitmask of its members
        self._groups = [(v, 1 << v) for v in range(s)]
        # twins share their weight and their rules; most inputs already
        # differ in their clashes
        if twins and len(set(clash)) < s:
            keys = list(zip(con.weights, below, clash, weak, into, map(len, again)))
            if len(set(keys)) < s:
                self._groups = _twin_groups(con, keys)

    def moves(self, placed: int) -> list:
        """(block, ascents, weight, ways) for every move out of the state."""
        got = self.moves_of.get(placed)
        if got is None:
            got = self.moves_of[placed] = self._moves(placed)
        return got

    def _moves(self, placed: int) -> list:
        # grow every clash-free block over the groups in order, carrying
        # (block, ascents, weight, the classes that may not join it, double
        # predecessors, ways); twins share every edge, so the first member
        # speaks for all
        blocks = [(0, 0, 0, 0, 0, 1)]
        for v, members in self._groups:
            free = members & ~placed  # the unplaced members: the last ones
            if not free or self._below[v] & ~placed:
                continue
            up = (self._into[v] & placed).bit_count()
            for u in self._again[v]:
                up += placed >> u & 1
            weight, clash, weak = self._weights[v], self._clash[v], self._weak[v]
            # take the next j members for j = 1, 2, ... (no twin clashes
            # with another, so one member tests the clashes of all); a
            # block that took some members may take no more of the group
            unplaced, rest, taken, j = free.bit_count(), free, 0, 0
            while rest:
                taken |= rest & -rest
                rest &= rest - 1
                j += 1
                rises, mass, ways, shut = j * up, j * weight, comb(unplaced, j), clash | taken
                blocks += [(b | taken, a + rises, w + mass, c | shut, k | weak, n * ways)
                           for b, a, w, c, k, n in blocks if not c & free]
        return [(b, a, w, n) for b, a, w, _, k, n in blocks
                if b and not k & ~(placed | b)]

    def record(self, stats: dict, terms: int, start: float) -> None:
        """Fill `stats` for an expansion that began at perf_counter `start`:
        the class count, the states whose moves were visited, the moves
        out of them, the term count and the seconds taken."""
        stats.update(classes=self.full.bit_length(), states=len(self.moves_of),
                     transitions=sum(map(len, self.moves_of.values())),
                     terms=terms, seconds=time.perf_counter() - start)


def _twin_groups(con: Contraction, keys: list) -> list:
    """The classes of a contraction grouped into false twins: classes of
    equal weight with the same edges in and out, colour for colour and
    counted with multiplicity. No edge joins two twins, since a class
    has no edge to itself. keys[c] is a value that every twin of class c
    shares, so only classes of equal key are compared edge by edge.
    Each group is (its least class, the bitmask of its members), in
    order of the least class."""
    shared: dict = {}
    for key in keys:
        shared[key] = key in shared  # true once a second class has the key
    compare = [shared[key] for key in keys]
    ins = [[] for _ in keys]
    outs = [[] for _ in keys]
    for ci, cj, kind in con.edges:
        code = 2 if kind is LEQ else kind is LT  # not hashed: see graph.edge_constraint
        if compare[cj]:
            ins[cj].append(3 * ci + code)
        if compare[ci]:
            outs[ci].append(3 * cj + code)
    groups: dict = {}
    for c, key in enumerate(keys):
        ins[c].sort()
        outs[c].sort()
        groups.setdefault((key, tuple(ins[c]), tuple(outs[c])), [c, 0])[1] |= 1 << c
    return list(groups.values())


def expand(g: EdgeColouredDigraph, stats: dict | None = None) -> QSymExpr:
    """The exact monomial expansion of the digraph's colouring sum.

    Vertices forced equal by double-edge cycles are contracted first. The
    result is zero, with no state walked, when a dashed or solid edge
    sits inside a contraction class or the solid and double edges
    between the classes form a cycle (LevelDP.ordered). Otherwise every
    way to colour the classes level by level (see LevelDP) adds t^asc to
    the coefficient of the composition of level weights, where asc
    counts the original edges rising between levels.
    The sum is memoized on the state, which counts the placed classes of
    each group of false twins, so the cost grows with the states and
    moves, not with the colourings: a move that places j of the u
    unplaced twins of a group stands for its C(u, j) choices.

    When `stats` is a dict it is filled by LevelDP.record.
    """
    start = time.perf_counter() if stats is not None else 0.0
    con = contract(g)
    dp = LevelDP(con, twins=True)
    colourable = con.feasible and dp.ordered
    # compute the moves of every state reachable from the start
    stack = [0] if colourable and dp.full else []
    seen = {0, dp.full}
    while stack:
        placed = stack.pop()
        for block, _, _, _ in dp.moves(placed):
            reached = placed | block
            if reached not in seen:
                seen.add(reached)
                stack.append(reached)
    # a move places more classes, so states taken from the most placed
    # down find the suffixes of every move already summed
    states = sorted(dp.moves_of, key=int.bit_count, reverse=True)
    # t-polynomials with nonnegative coefficients, packed into one int:
    # t^k sits at bit k * width, and no coefficient overflows its digit
    # because none exceeds the number of colourings, the paths of moves
    # from the start each counted by its ways
    paths = {dp.full: 1}
    for placed in states:
        paths[placed] = sum([ways * paths[placed | block]
                             for block, _, _, ways in dp.moves_of[placed]])
    width = paths.get(0, 0).bit_length() or 1
    memo = {dp.full: {(): 1}}
    for placed in states:
        # sum the suffixes under each first part before prepending it
        by_weight: dict = {}
        for block, up, weight, ways in dp.moves_of[placed]:
            shift = up * width
            acc = by_weight.get(weight)
            if acc is None:
                acc = by_weight[weight] = {}
            suffix = memo[placed | block]
            if ways > 1:  # scaling every suffix by 1 too cost twin-free inputs ~3 %
                suffix = {comp: packed * ways for comp, packed in suffix.items()}
            for comp, packed in suffix.items():
                acc[comp] = acc.get(comp, 0) + (packed << shift)
        memo[placed] = {(weight,) + comp: packed
                        for weight, acc in by_weight.items()
                        for comp, packed in acc.items()}

    terms = {}
    for comp, packed in (memo[0] if colourable else {}).items():
        coeffs = _digits(packed, width, -(-packed.bit_length() // width))
        terms[comp] = TPoly._new(tuple(coeffs))  # the top digit is nonzero
    out = QSymExpr._of(terms)
    if stats is not None:
        dp.record(stats, len(out.terms), start)
    return out


def _digits(packed: int, width: int, count: int) -> list:
    """The count lowest digits of packed in base 2**width, lowest first.

    Above 64 digits the int is split in halves, recursively: shifting
    one digit off at a time copies the whole int per digit, which is
    quadratic in the count. At 64 or fewer the shifts are cheaper.
    """
    if count > 64:
        half = count // 2
        shift = half * width
        return (_digits(packed & ((1 << shift) - 1), width, half)
                + _digits(packed >> shift, width, count - half))
    digit = (1 << width) - 1
    out = []
    for _ in range(count):
        out.append(packed & digit)
        packed >>= width
    return out


def chromatic_number(g: EdgeColouredDigraph):
    """Least k admitting a proper colouring with k levels; 0 for the
    empty digraph. None, with no state searched, when no proper
    colouring exists: when the contraction is infeasible or
    LevelDP.ordered is False."""
    con = contract(g)
    dp = LevelDP(con)
    if not (con.feasible and dp.ordered):
        return None
    # breadth first over the states: the first level count that places
    # every class is the shortest chain of moves
    frontier, seen, k = {0}, {0}, 0
    while frontier:
        if dp.full in frontier:
            return k
        k += 1
        reached = {placed | block for placed in frontier
                   for block, _, _, _ in dp.moves(placed)}
        frontier = reached - seen
        seen |= frontier
    return None


def split_dashed(g: EdgeColouredDigraph, edge):
    """Replace a dashed edge by its two strict resolutions.

    The expansions of the two results sum to the expansion of g at t=1.
    When the reverse ordered pair already carries an edge, the strict
    constraint absorbs it (a strict edge implies all three kinds).
    """
    u, v, c = edge
    c = gr.edge_constraint(c)
    if (u, v, c) not in g.edges:
        raise ValueError(f"{edge} is not an edge of the digraph")
    if c is not NEQ:
        raise ValueError(f"{edge} is not a dashed edge")
    rest = [e for e in g.edges if e != (u, v, c)]
    g_lt = gr.make(g.n, rest + [(u, v, LT)])
    reverse_free = [e for e in rest if (e[0], e[1]) != (v, u)]
    g_gt = gr.make(g.n, reverse_free + [(v, u, LT)])
    return g_lt, g_gt


def closed_subset_sum(g: EdgeColouredDigraph, part, tensor_cls):
    """Digraph-side coproduct at t = 1: the sum in tensor_cls over the
    vertex subsets closed under outgoing solid and double edges of the
    tensor (expansion off the subset) (x) (expansion on the subset),
    where part(vertices) expands the part of the input induced on those
    vertices of g.

    A vertex set can be both some closed subset and the complement of
    another, so each distinct set is expanded once per call and kept
    until the call returns. Every part is expanded from its own induced
    digraph: no algebra-side coproduct or expansion of g is read.
    """
    at_one: dict = {}  # sorted vertex tuple -> part(vertices).at_t(1)

    def leg(vertices):
        got = at_one.get(vertices)
        if got is None:
            got = at_one[vertices] = part(vertices).at_t(1)
        return got

    return tensor_cls.sum_of(
        tensor_cls.of_legs(leg(tuple(v for v in range(g.n) if v not in subset)), leg(subset))
        for subset in closed_subsets(g))


def coproduct_digraph(g: EdgeColouredDigraph) -> QSymTensor:
    """Digraph-side coproduct at t = 1 (see closed_subset_sum)."""
    return closed_subset_sum(g, lambda part: expand(induced(g, part)), QSymTensor)


# ---------------------------------------------------------------------------
# adapters for the classical chromatic functions

def stanley(h: SimpleGraph) -> QSymExpr:
    """Chromatic symmetric function of a graph (t specialized to 1)."""
    return expand(gr.from_graph(h)).at_t(1)


def shareshian_wachs(h: SimpleGraph) -> QSymExpr:
    """Chromatic quasisymmetric function of a labelled graph: dashed
    edges oriented low to high, ascents graded by t."""
    return expand(gr.from_graph(h))


def ellzey(d: EdgeColouredDigraph) -> QSymExpr:
    """Chromatic quasisymmetric function of a digraph: every edge made
    dashed, ascents graded by t along the original directions."""
    return expand(gr.from_digraph_dashed(d))


def crew_spirkl(h: SimpleGraph, weights) -> QSymExpr:
    """Extended chromatic symmetric function of a weighted graph."""
    return expand(gr.from_weighted(h, weights)).at_t(1)


def p_partition_gf(relations, elements=None) -> QSymExpr:
    """Generating function of the partitions of a labelled poset."""
    lg = gr.from_poset(relations, elements)
    return expand(lg.graph).at_t(1)


def dual_immaculate(alpha) -> QSymExpr:
    """Expansion of the composition grid strict only in the first column."""
    return expand(gr.comp_grid(alpha)).at_t(1)


def row_strict_dual_immaculate(alpha) -> QSymExpr:
    return expand(gr.comp_grid(alpha, row_strict=True)).at_t(1)


def humpert(h: SimpleGraph, k: int) -> QSymExpr:
    """Balanced chromatic quasisymmetric function via orientations: the
    sum of expansions of the k-balanced all-solid orientations."""
    return QSymExpr.sum_of(expand(orientation).at_t(1)
                           for orientation in balanced_orientations(h, k))


def humpert_direct(h: SimpleGraph, k: int) -> QSymExpr:
    """The same function by brute force over k-balanced colourings with
    at most |V| levels."""
    if k < 1:
        raise ValueError("k must be positive")
    if h.n == 0:
        return QSymExpr.one()
    terms: dict = {}
    levels = [0] * h.n

    def record():
        top = max(levels)
        alpha = [0] * top
        for lv in levels:
            alpha[lv - 1] += 1
        if not all(alpha):
            return  # not surjective onto 1..top
        orientation = colouring_orientation(h, levels)
        if is_k_balanced(orientation, k):
            key = composition(alpha)
            terms[key] = terms.get(key, 0) + 1

    def walk(v: int):
        if v == h.n:
            record()
            return
        for level in range(1, h.n + 1):
            if any(levels[w] == level for w in h.neighbours(v) if w < v):
                continue
            levels[v] = level
            walk(v + 1)
            levels[v] = 0

    walk(0)
    del walk  # walk calls itself through this name: free the cycle now
    return QSymExpr(terms)
