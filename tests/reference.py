"""Reference definitions that only tests read.

Each is a plain statement of a definition from the paper's combinatorics
that some test checks live code against: `corrupts` checks
`reformations`, `dominance_leq` checks the order of `partitions`,
`standardize_word` and `permutation_inverse` check `mr_F`'s fibres,
`relabel` builds the relabellings that `symmetrize` must sum,
`fold_rho` checks `rho`'s grouped sums, `partition_row_to_sym_basis`
checks `to_sym_basis`, `mutual_reachability_contract` checks
`contract`, `subset_expand` checks `expand`'s twin groups, and
`dfs_expand_nc` checks `expand_nc`'s batched level walk.
No program path reads them, so
they live here rather than in `chromexp`. pytest does not collect this
module: its name does not match test_*.py.
"""

import itertools
import time
from fractions import Fraction

from chromexp.chromatic import LevelDP
from chromexp.combinat import (
    RSetComposition,
    corruptions,
    descent_set,
    ground_set,
    partitions,
    reformations,
    set_composition,
    set_composition_sort_key,
    shape,
)
from chromexp.graph import LEQ, LT, Contraction, LabelledDigraph, contract, standardize_labels
from chromexp.linalg import solve_combination
from chromexp.ncqsym import NCQSymExpr
from chromexp.qsym import SYM_KINDS, QSymExpr, _merge, basis_sym, is_symmetric
from chromexp.tpoly import TPoly, coefficients, tpoly_to_json

# ---------------------------------------------------------------------------
# compositions and partitions


def composition_from_descents(subset, n: int) -> tuple[int, ...]:
    """Inverse of descent_set for compositions of n."""
    cuts = sorted(subset)
    if any(not 1 <= s <= n - 1 for s in cuts):
        raise ValueError(f"{subset} is not a subset of [{n - 1}]")
    if n == 0:
        return ()
    return tuple(b - a for a, b in itertools.pairwise([0, *cuts, n]))


def coarsens(alpha, beta) -> bool:
    """True iff alpha coarsens beta, i.e. set(alpha) is a subset of set(beta)."""
    if sum(alpha) != sum(beta):
        raise ValueError(f"sizes differ: {alpha} vs {beta}")
    return descent_set(alpha) <= descent_set(beta)


def sort_to_partition(alpha) -> tuple[int, ...]:
    """The decreasing rearrangement of a composition."""
    return tuple(sorted(alpha, reverse=True))


def dominance_leq(mu, lam) -> bool:
    """Whether mu is dominated by lam (mu <= lam in dominance).

    Requires len(lam) <= len(mu) and every prefix sum of mu to be at most
    the corresponding prefix sum of lam.
    """
    if sum(mu) != sum(lam):
        raise ValueError(f"sizes differ: {mu} vs {lam}")
    if len(lam) > len(mu):
        return False
    acc_m = acc_l = 0
    for i in range(len(lam)):
        acc_m += mu[i]
        acc_l += lam[i]
        if acc_m > acc_l:
            return False
    return True


# ---------------------------------------------------------------------------
# permutations and words


def permutation_inverse(sigma) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v - 1] = i + 1
    return tuple(inv)


def standardize_word(word) -> tuple[int, ...]:
    """std(w): rank each letter, ties broken left to right."""
    w = tuple(word)
    if not w:
        raise ValueError("cannot standardize the empty word")
    out = [0] * len(w)
    for rank, i in enumerate(sorted(range(len(w)), key=w.__getitem__), 1):
        out[i] = rank  # the sort is stable, so ties rank left to right
    return tuple(out)


# ---------------------------------------------------------------------------
# set compositions and set partitions


def standardize_r_set_composition(rsc: RSetComposition) -> RSetComposition:
    """Order-preserving relabelling of both parts' ground set onto [n]."""
    rank = {x: i + 1 for i, x in enumerate(sorted(ground_set(rsc.phi) | ground_set(rsc.pi)))}
    return RSetComposition(
        rsc.r,
        tuple(tuple(rank[x] for x in b) for b in rsc.phi),
        tuple(tuple(rank[x] for x in b) for b in rsc.pi),
    )


def corrupts(psi, phi) -> bool:
    """Whether psi is phi with some bars removed.

    Removing a bar merges two adjacent blocks; the merged elements are
    rewritten in increasing order afterwards, so any run of adjacent
    blocks may merge.
    """
    if ground_set(psi) != ground_set(phi):
        raise ValueError("ground sets differ")
    return set_composition(psi) in corruptions(phi)


def reforms(phi, psi) -> bool:
    """Whether phi is psi with some bars added.

    A bar may only be inserted inside a block's increasing writing, so
    each block of psi must split into consecutive pieces of its sorted
    elements, in increasing order.
    """
    if ground_set(phi) != ground_set(psi):
        raise ValueError("ground sets differ")
    return set_composition(phi) in reformations(psi)


def restrict(phi, subset) -> tuple[tuple[int, ...], ...]:
    """Intersect each block with the subset and drop empty blocks."""
    subset = set(subset)
    return tuple(tuple(x for x in b if x in subset)
                 for b in phi if any(x in subset for x in b))


def partition_refines(pi, omega) -> bool:
    """Whether every block of pi is contained in some block of omega."""
    lookup = {}
    for i, block in enumerate(omega):
        for x in block:
            lookup[x] = i
    return all(len({lookup[x] for x in block}) == 1 for block in pi)


def r_coordinates_to_json(coords: dict) -> dict:
    """JSON form of r_regroup's coordinates, keyed by r-set-composition."""
    items = sorted(coords.items(),
                   key=lambda kv: (set_composition_sort_key(kv[0].phi), kv[0].pi))
    return {
        "terms": [{"comp_part": [list(b) for b in rsc.phi],
                   "part_part": [list(b) for b in rsc.pi],
                   "coeff_t": tpoly_to_json(coeff)}
                  for rsc, coeff in items],
    }


def fold_rho(f) -> QSymExpr:
    """rho as the left fold of _merge over the terms: each coefficient
    added to the running sum at its shape, which is dropped whenever it
    cancels to zero."""
    out: dict = {}
    for phi, coeff in f.terms.items():
        _merge(out, shape(phi), coeff)
    return QSymExpr._of(out)


def partition_row_to_sym_basis(f: QSymExpr, kind: str) -> dict:
    """Coordinates over a symmetric basis by one rational solve per
    degree and power of t: the columns are the basis elements of every
    kind, built from their definitions, on the partition rows. The
    output keeps to_sym_basis's order: powers of t as they first occur
    in f, then partitions(n)."""
    if kind not in SYM_KINDS:
        raise ValueError(f"unknown symmetric basis kind {kind!r}")
    if not is_symmetric(f):
        raise ValueError("expression is not symmetric")
    out: dict = {}
    for n in f.degrees():
        lams = list(partitions(n))
        row = {lam: i for i, lam in enumerate(lams)}
        columns = [{row[k]: c for k, c in basis_sym(kind, lam).terms.items() if k in row}
                   for lam in lams]
        slices: dict = {}
        for key, coeff in f.homogeneous_component(n).terms.items():
            for power, c in enumerate(coefficients(coeff)):
                if c:
                    slices.setdefault(power, {})[key] = Fraction(c)
        for power, coords in slices.items():
            solution = solve_combination(
                columns, {row[k]: c for k, c in coords.items() if k in row})
            if solution is None:
                raise ValueError(f"degree-{n} component is not in the {kind} span")
            for lam, value in zip(lams, solution):
                if value:
                    out.setdefault(lam, {})[power] = value
    return {lam: TPoly(tuple(int(v) if v.denominator == 1 else v
                             for v in (Fraction(powers.get(k, 0))
                                       for k in range(max(powers) + 1))))
            for lam, powers in out.items()}


# ---------------------------------------------------------------------------
# digraphs


def edges_of(g, kind):
    """The edges of g with colour kind, in edge_list order."""
    return [e for e in g.edge_list() if e[2] is kind]


def relabel(lg: LabelledDigraph, sigma) -> LabelledDigraph:
    """Compose the labelling with sigma (a mapping on the label set)."""
    if not isinstance(sigma, dict):
        sigma = {i + 1: v for i, v in enumerate(sigma)}
    return LabelledDigraph(lg.graph, tuple(sigma[l] for l in lg.labels))


def mutual_reachability_contract(g) -> Contraction:
    """contract by its definition: two vertices share a class when each
    reaches the other along double edges, read off the transitive
    closure of the double edges (Warshall)."""
    reach = [{v} for v in range(g.n)]
    for u, v, kind in g.edges:
        if kind is LEQ:
            reach[u].add(v)
    for k in range(g.n):
        for u in range(g.n):
            if k in reach[u]:
                reach[u] |= reach[k]
    classes = sorted({tuple(sorted(w for w in reach[v] if v in reach[w])) for v in range(g.n)})
    class_of = {v: i for i, members in enumerate(classes) for v in members}
    edges = sorted(g.edges, key=lambda e: (e[0], e[1]))
    return Contraction(
        classes=tuple(classes),
        weights=tuple(map(len, classes)),
        feasible=all(kind is LEQ for u, v, kind in edges if class_of[u] == class_of[v]),
        edges=tuple((class_of[u], class_of[v], kind) for u, v, kind in edges
                    if class_of[u] != class_of[v]))


def subset_expand(g) -> QSymExpr:
    """expand as a DP over every subset of the contraction's classes,
    with no twin groups: a state is the set of placed classes, and a
    move places any allowed nonempty block of unplaced classes as the
    next level (the rules of chromatic.LevelDP), so a state is reached
    once for each order in which twins can be placed."""
    con = contract(g)
    s = len(con.classes)
    full = (1 << s) - 1
    clash, below, weak = [0] * s, [0] * s, [0] * s
    into = [[] for _ in range(s)]
    for ci, cj, kind in con.edges:
        into[cj].append(ci)
        if kind is LEQ:
            weak[cj] |= 1 << ci
        else:
            clash[ci] |= 1 << cj
            clash[cj] |= 1 << ci
            if kind is LT:
                below[cj] |= 1 << ci

    def moves(placed):
        blocks = [(0, 0, 0, 0, 0)]
        for v, weight in enumerate(con.weights):
            bit = 1 << v
            if placed & bit or below[v] & ~placed:
                continue
            up = sum(placed >> u & 1 for u in into[v])
            blocks += [(b | bit, a + up, w + weight, c | clash[v], k | weak[v])
                       for b, a, w, c, k in blocks if not c & bit]
        return [(b, a, w) for b, a, w, _, k in blocks if b and not k & ~(placed | b)]

    moves_of = {}
    stack = [0] if con.feasible and full else []
    while stack:
        placed = stack.pop()
        if placed not in moves_of:
            moves_of[placed] = moves(placed)
            stack += [placed | b for b, _, _ in moves_of[placed] if placed | b != full]
    states = sorted(moves_of, key=int.bit_count, reverse=True)
    # t-polynomials packed into one int, t^k at bit k * width: no
    # coefficient exceeds the number of paths of moves from the start
    paths = {full: 1}
    for placed in states:
        paths[placed] = sum(paths[placed | b] for b, _, _ in moves_of[placed])
    width = paths.get(0, 0).bit_length() or 1
    memo = {full: {(): 1}}
    for placed in states:
        memo[placed] = out = {}
        for b, up, weight in moves_of[placed]:
            for comp, packed in memo[placed | b].items():
                key = (weight,) + comp
                out[key] = out.get(key, 0) + (packed << up * width)
    terms = {}
    for comp, packed in (memo[0] if con.feasible else {}).items():
        coeffs = []
        while packed:
            coeffs.append(packed & ((1 << width) - 1))
            packed >>= width
        terms[comp] = TPoly(coeffs)
    return QSymExpr(terms)


def dfs_expand_nc(lg: LabelledDigraph, stats: dict | None = None) -> NCQSymExpr:
    """expand_nc as a depth-first walk over the paths of moves, one stack
    entry per path node: every state reachable from the start is walked,
    whether or not a path from it reaches the full state, and only an
    infeasible contraction stops the walk before it starts. `stats` is
    filled as expand_nc fills it."""
    start = time.perf_counter()
    lg = standardize_labels(lg)
    con = contract(lg.graph)
    dp = LevelDP(con)
    class_labels = [[lg.labels[v] for v in cls] for cls in con.classes]
    block_labels: dict = {}
    terms: dict = {}
    stack = [(0, (), 0)] if con.feasible else []
    while stack:
        placed, prefix, asc = stack.pop()
        if placed == dp.full:
            terms[prefix] = TPoly.t_power(asc)
            continue
        for block, up, _, _ in reversed(dp.moves(placed)):
            labels = block_labels.get(block)
            if labels is None:
                labels = block_labels[block] = tuple(sorted(
                    lab for ci, labs in enumerate(class_labels) if block >> ci & 1
                    for lab in labs))
            stack.append((placed | block, prefix + (labels,), asc + up))
    out = NCQSymExpr._of(terms)
    if stats is not None:
        dp.record(stats, len(out.terms), start)
    return out
