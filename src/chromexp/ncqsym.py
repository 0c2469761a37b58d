"""Quasisymmetric functions in noncommuting variables: the labelled
chromatic expansion, the set-composition bases, symmetrization, the
permutation fundamental family, and the full r-level structure with
its regrouping check."""

from __future__ import annotations

import itertools
import time
from heapq import heappop, heappush

from . import combinat, graph as gr
from .chromatic import LevelDP, closed_subset_sum
from .combinat import (
    RSetComposition,
    bar_shuffle,
    partition_meet,
    permutation,
    r_split,
    runs_set_composition,
    set_composition,
    set_composition_sort_key,
    set_partition,
    shape,
    shape_partition,
    lambda_factorial,
    _corruptions,
    _initial_segment_size,
    _interleavings,
    _reformations,
    _shifted_quasi_shuffle,
    _standardized_splits,
)
from .graph import LabelledDigraph, contract, induced_labelled, standardize_labels
from .qsym import QSymExpr, TensorMap, TermMap, _coproduct, _merge
from .tpoly import TPoly, add_all, tpoly_from_json, tpoly_to_json


def _check_key(phi):
    phi = set_composition(phi)
    _initial_segment_size(phi)
    return phi


class NCQSymExpr(TermMap):
    """A finite sum of monomial functions M_Phi over set compositions of
    initial segments, with exact coefficients."""

    __slots__ = ()
    _key = staticmethod(_check_key)
    _sort_key = staticmethod(set_composition_sort_key)
    _splits = staticmethod(_standardized_splits)

    @staticmethod
    def _sorted(keys) -> list:
        """The keys grouped by their block sizes: the groups in order of
        degree, then of sizes, and each group in tuple order."""
        if len(keys) < 2:
            return list(keys)
        groups: dict = {}
        for phi in keys:
            groups.setdefault(tuple(map(len, phi)), []).append(phi)
        order = sorted(groups)
        order.sort(key=sum)
        return [phi for sizes in order for phi in sorted(groups[sizes])]

    @staticmethod
    def _name(phi) -> str:
        return "M" + combinat.format_set_composition(phi)

    @staticmethod
    def _shuffle_groups(phi, psi):
        """Shifted paths never repeat: one group of multiplicity 1."""
        return ((1, _shifted_quasi_shuffle(phi, psi)),)

    @staticmethod
    def _size(phi) -> int:
        return sum(map(len, phi))

    def coefficient(self, phi):
        return self.terms.get(set_composition(phi), 0)

    # bench/tracer.py traces a method through its owner's own __dict__
    __mul__ = TermMap.__mul__


class NCQSymTensor(TensorMap, leg=NCQSymExpr):
    """Two-fold tensors of noncommutative monomial terms."""

    __slots__ = ()

    # bench/tracer.py traces a method through its owner's own __dict__
    __mul__ = TensorMap.__mul__


# ---------------------------------------------------------------------------
# the labelled expansion and the commutation map

def expand_nc(lg: LabelledDigraph, stats: dict | None = None) -> NCQSymExpr:
    """Noncommutative chromatic expansion of a labelled digraph.

    Labels are standardized onto 1..n first. The moves are those of the
    commutative expansion (chromatic.LevelDP), walked without collapsing:
    each way to colour the classes level by level contributes t^asc to
    the set composition whose i-th block holds the labels coloured at
    level i. The result is zero, with no state walked, when the
    contraction is infeasible or LevelDP.ordered is False.

    The walk colours the levels from the highest down (LevelDP's
    `downward`) and goes over the states in increasing bitmask order.
    A move only adds classes, so when the least pending state is taken,
    every path into it has arrived: each state holds the (suffix,
    ascents) of those paths, each move puts its block in front of all of
    them at once, a move onto the full state writes their terms, and a
    state's paths are dropped once its moves are taken. Walking down
    writes the terms grouped by their first block, as a depth-first walk
    does, and NCQSymExpr._sorted sorts that order faster than the groups
    by last block that walking up writes. When `stats` is a dict it is
    filled by LevelDP.record.
    """
    start = time.perf_counter() if stats is not None else 0.0
    lg = standardize_labels(lg)
    con = contract(lg.graph)
    dp = LevelDP(con, downward=True)
    full = dp.full
    class_labels = [[lg.labels[v] for v in cls] for cls in con.classes]
    block_labels: dict = {}  # block mask -> (its sorted labels,)
    powers: dict = {}        # ascents -> t^ascents
    terms: dict = {}
    pending = {0: [((), 0)]}  # state -> the (suffix, ascents) of the paths into it
    heap = [0] if full and con.feasible and dp.ordered else []
    if not full:  # no vertices: one colouring, with no level
        terms[()] = TPoly.t_power(0)
    while heap:
        placed = heappop(heap)
        paths = pending.pop(placed)
        for block, up, _, _ in dp.moves(placed):
            labels = block_labels.get(block)
            if labels is None:
                labels = block_labels[block] = (tuple(sorted(
                    lab for ci, labs in enumerate(class_labels) if block >> ci & 1
                    for lab in labs)),)
            reached = placed | block
            if reached == full:
                for suffix, asc in paths:
                    asc += up
                    power = powers.get(asc)
                    if power is None:
                        power = powers[asc] = TPoly.t_power(asc)
                    terms[labels + suffix] = power
                continue
            got = pending.get(reached)
            if got is None:
                pending[reached] = [(labels + suffix, asc + up) for suffix, asc in paths]
                heappush(heap, reached)
            else:
                got += [(labels + suffix, asc + up) for suffix, asc in paths]
    out = NCQSymExpr._of(terms)
    if stats is not None:
        dp.record(stats, len(out.terms), start)
    return out


def rho(f: NCQSymExpr) -> QSymExpr:
    """Let the variables commute: M_Phi goes to M of the shape of Phi.

    The coefficients are grouped by shape, in the order each shape first
    occurs, and each group is totalled once (tpoly.add_all)."""
    groups: dict = {}
    for phi, coeff in f.terms.items():
        groups.setdefault(shape(phi), []).append(coeff)
    return QSymExpr._of({alpha: total for alpha, coeffs in groups.items()
                         if (total := add_all(coeffs))})


def coproduct_nc(f: NCQSymExpr) -> NCQSymTensor:
    """Split each index into a prefix and suffix and standardize both."""
    return _coproduct(f, NCQSymTensor)


def coproduct_nc_digraph(lg: LabelledDigraph) -> NCQSymTensor:
    """Digraph-side coproduct at t = 1, with labels standardized on both
    factors."""
    lg = standardize_labels(lg)
    return closed_subset_sum(lg.graph, lambda part: expand_nc(induced_labelled(lg, part)),
                             NCQSymTensor)


# ---------------------------------------------------------------------------
# bases

def basis_nc(kind: str, phi) -> NCQSymExpr:
    """M (indicator), F (sum over bar-addition refinements), or Fbar
    (sum over bar-removal coarsenings) at a set composition of [n]."""
    return _basis_nc(kind, _check_key(phi))


def _basis_nc(kind: str, phi) -> NCQSymExpr:
    """basis_nc at a canonical key. The keys that adding or removing
    bars makes from it are canonical too, so the element is built with
    the trusted constructor."""
    if kind == "M":
        members = (phi,)
    elif kind == "F":
        members = _reformations(phi)
    elif kind == "Fbar":
        members = _corruptions(phi)
    else:
        raise ValueError(f"unknown noncommutative basis kind {kind!r}")
    return NCQSymExpr._of(dict.fromkeys(members, 1))


def _ncsym_m_sum(weighted) -> NCQSymExpr:
    """The sum of c * m_sigma over (sigma, c) for distinct canonical set
    partitions of [n] and nonzero c: the block orders are distinct
    canonical keys."""
    return NCQSymExpr._of({order: c for sigma, c in weighted
                           for order in itertools.permutations(sigma)})


def basis_ncsym(kind: str, pi) -> NCQSymExpr:
    """NCSym bases at a set partition, its ground standardized onto [n]:
    pi is validated and canonicalized, then handed to _basis_ncsym."""
    return _basis_ncsym(kind, combinat.standardize_set_partition(set_partition(pi)))


def _basis_ncsym(kind: str, pi) -> NCQSymExpr:
    """basis_ncsym at a canonical set partition pi of [n] (not validated).

    m, p, e and h are closed forms (Rosas-Sagan 2006), which the table
    suite checks against their digraphs: p_pi sums m_sigma over the
    merges sigma of pi's blocks, and e_pi and h_pi weigh m_sigma by
    sigma ^ pi, with 1 if it is discrete and with the product of its
    block-size factorials. S symmetrizes the labelled partition grid.
    """
    if kind == "m":
        return _ncsym_m_sum(((pi, 1),))
    if kind == "p":
        # pi's blocks are ordered by minimum, and so are their merges
        return _ncsym_m_sum(
            (tuple(tuple(sorted(x for i in group for x in pi[i - 1])) for group in groups), 1)
            for groups in combinat.set_partitions(len(pi)))
    if kind in ("e", "h"):
        n = sum(map(len, pi))
        meets = ((sigma, partition_meet(sigma, pi)) for sigma in combinat.set_partitions(n))
        if kind == "e":
            return _ncsym_m_sum((sigma, 1) for sigma, meet in meets if len(meet) == n)
        return _ncsym_m_sum((sigma, lambda_factorial(shape_partition(meet)))
                            for sigma, meet in meets)
    if kind == "S":
        return symmetrize(gr.labelled(gr.grid(shape_partition(pi)))).at_t(1)
    raise ValueError(f"unknown NCSym basis kind {kind!r}")


def ncsym_basis(kind: str, n: int) -> dict:
    """Every degree-n element of an NCSym basis, by set partition in the
    order of set_partitions(n). S depends on the shape alone, so it is
    symmetrized once per shape and shared by the set partitions of the
    shape."""
    if kind != "S":
        return {pi: _basis_ncsym(kind, pi) for pi in combinat.set_partitions(n)}
    by_shape: dict = {}
    out = {}
    for pi in combinat.set_partitions(n):
        lam = shape_partition(pi)
        s = by_shape.get(lam)
        if s is None:
            s = by_shape[lam] = _basis_ncsym("S", pi)
        out[pi] = s
    return out


def basis_ncsym_e_paths(pi) -> NCQSymExpr:
    """The path realization of the elementary basis: blockwise
    symmetrized disjoint solid paths (must agree with the K route)."""
    return _blockwise_symmetrized(set_partition(pi), "P").at_t(1)


def _blockwise_symmetrized(pi, atom_kind: str) -> NCQSymExpr:
    """Sum of expansions over independent relabellings of each block's atom."""
    block_orders = [itertools.permutations(b) for b in pi]
    return NCQSymExpr.sum_of(
        expand_nc(gr.combine_chain_labelled("disjoint", [
            LabelledDigraph(gr.atom(atom_kind, len(labels)), labels) for labels in choice]))
        for choice in itertools.product(*block_orders))


def symmetrize(lg: LabelledDigraph, max_labels: int = 5) -> NCQSymExpr:
    """Sum of expansions over every relabelling of the label set.

    The |A|! blow-up is inherent; max_labels guards against runaway
    inputs and can be raised explicitly.

    The labelling is expanded once. Relabelling by a permutation of the
    standardized labels maps every block of every key and re-sorts it,
    and leaves each coefficient as it is (ascents follow the edges, not
    the labels), so each image is summed, in the order of the
    permutations, without expanding again.
    """
    n = len(lg.labels)
    if n > max_labels:
        raise ValueError(
            f"symmetrizing over {n}! relabellings exceeds the "
            f"max_labels={max_labels} guard")
    base = expand_nc(lg).terms
    blocks = {block for phi in base for block in phi}
    out: dict = {}
    for perm in itertools.permutations(range(1, n + 1)):
        image = (0, *perm).__getitem__
        moved = {block: tuple(sorted(map(image, block))) for block in blocks}.__getitem__
        for phi, coeff in base.items():
            _merge(out, tuple(map(moved, phi)), coeff)
    return NCQSymExpr._of(out)


# ---------------------------------------------------------------------------
# the permutation fundamental family

def mr_F(sigma) -> NCQSymExpr:
    """Fundamental element attached to a permutation: the F basis element
    of the set composition of its maximal increasing runs."""
    sigma = permutation(sigma)
    if not sigma:
        return NCQSymExpr.one()
    return basis_nc("F", runs_set_composition(sigma))


def mr_inject_check(sigma, tau) -> bool:
    """Whether the permutation-fundamental images multiply consistently:
    the word-level product of the realizations equals the realization of
    the shifted-shuffle product."""
    from .oracle import realize_nc

    sigma, tau = permutation(sigma), permutation(tau)
    k = len(sigma) + len(tau)
    f, g = mr_F(sigma), mr_F(tau)
    return realize_nc(f, k) * realize_nc(g, k) == realize_nc(f * g, k)


# ---------------------------------------------------------------------------
# the r-level structure

class RegroupError(ValueError):
    """Raised when a term map is not constant on some bar-shuffle fiber."""

    def __init__(self, fiber_index, details):
        self.fiber_index = fiber_index
        self.details = details
        super().__init__(f"coefficients not constant on the fiber of {fiber_index}: {details}")


def basis_ncr(kind: str, phi, pi, r) -> NCQSymExpr:
    """r-level bases at an r-set-composition (phi, pi) of [n]: the pair
    and its ground are validated and canonicalized, then handed to
    _basis_ncr."""
    rsc = RSetComposition(r, phi, pi)
    _initial_segment_size(rsc.phi + rsc.pi)
    return _basis_ncr(kind, rsc.phi, rsc.pi)


def _basis_ncr(kind: str, phi, pi) -> NCQSymExpr:
    """basis_ncr at a canonical r-set-composition (phi, pi) of [n] (not
    validated): the dominant monomial (M) sums M over the bar shuffles
    of phi and pi, and the upper fundamental (Fbar) sums the M of every
    bar removal of phi with pi. The interleavings of distinct removals
    keep distinct phi blocks, so every coefficient is 1."""
    if kind == "M":
        phis = (phi,)
    elif kind == "Fbar":
        phis = _corruptions(phi)
    else:
        raise ValueError(f"unknown r-basis kind {kind!r}")
    orders = list(itertools.permutations(pi))
    return NCQSymExpr._of({psi: 1 for fixed in phis for psi in _interleavings(fixed, orders)})


def r_regroup(f: NCQSymExpr, r) -> dict:
    """Collect an expression into r-level coordinates.

    Every term index is split at r; the coefficient must be constant
    across the full bar-shuffle fiber of the split (missing members
    count as zero), else RegroupError reports the offending fiber.
    """
    coords = f.collect(lambda psi: r_split(psi, r), lambda split: bar_shuffle(*split),
                       RegroupError)
    return {RSetComposition(r, *split): coeff for split, coeff in coords.items()}


def r_regroup_tensor(t: NCQSymTensor, r) -> dict:
    """Regroup both tensor legs; fibers are products of leg fibers."""
    coords = t.collect(lambda pair: (r_split(pair[0], r), r_split(pair[1], r)),
                       lambda splits: list(itertools.product(*(bar_shuffle(*s) for s in splits))),
                       RegroupError)
    return {(RSetComposition(r, *s1), RSetComposition(r, *s2)): coeff
            for (s1, s2), coeff in coords.items()}


def in_ncqsym_r(f: NCQSymExpr, r) -> bool:
    try:
        r_regroup(f, r)
    except RegroupError:
        return False
    return True


# ---------------------------------------------------------------------------
# coordinates in other bases

def to_ncqsym_basis(f: NCQSymExpr, kind: str) -> dict:
    """Expand f over the F or Fbar basis by triangular peeling: F
    elements add strictly finer monomial terms, Fbar elements strictly
    coarser ones."""
    if kind == "M":
        return dict(f.terms)
    if kind not in ("F", "Fbar"):
        raise ValueError(f"unknown noncommutative basis kind {kind!r}")
    return f.peel(lambda psi: _basis_nc(kind, psi), finer=kind == "F")


def to_ncsym_m(f: NCQSymExpr) -> dict:
    """Coordinates of f over the NCSym monomial basis.

    Requires the coefficients to be constant across every ordering of
    each underlying set partition; raises ValueError otherwise.
    """
    return f.collect(set_partition, lambda pi: list(itertools.permutations(pi)),
                     lambda pi, _: ValueError(
                         f"not symmetric in noncommuting variables at {pi}"))


# ---------------------------------------------------------------------------
# JSON forms

def ncqsym_to_json(f: NCQSymExpr) -> dict:
    """The terms of f in sort order: each set composition as a list of
    blocks, with its coefficient's list of powers of t.

    This lays out every shape of f, with plain lists: no terms, the key
    () (as an empty list) and several degrees in one term list. The CLI
    writes a nonempty f without the key () from its term map
    (cli._write_expansion), whose text this document is the reference
    for, and writes this document for the other shapes and inside the mr
    output.
    """
    return {"terms": [{"set_composition": [list(b) for b in phi],
                       "coeff_t": tpoly_to_json(coeff)}
                      for phi, coeff in f.items_sorted()]}


def _block_lists(phi, blocks: dict) -> list:
    """phi as a list of its blocks' lists, each taken from blocks (block
    -> list), or made and added there on its first occurrence."""
    out = []
    for b in phi:
        block = blocks.get(b)
        if block is None:
            block = blocks[b] = list(b)
        out.append(block)
    return out


def ncqsym_from_json(data) -> NCQSymExpr:
    return NCQSymExpr({
        tuple(tuple(b) for b in t["set_composition"]): tpoly_from_json(t["coeff_t"])
        for t in data["terms"]})


def ncqsym_tensor_to_json(t: NCQSymTensor) -> dict:
    """The terms of t in sort order: each leg as a list of blocks, with
    the coefficient's list of powers of t.

    The terms share one list per distinct leg, one per distinct block
    and one coeff_t list per distinct coefficient, so the returned lists
    are read-only.
    """
    blocks, legs, coeffs, terms = {}, {}, {}, []
    for (a, b_), coeff in t.items_sorted():
        left = legs.get(a)
        if left is None:
            left = legs[a] = _block_lists(a, blocks)
        right = legs.get(b_)
        if right is None:
            right = legs[b_] = _block_lists(b_, blocks)
        coeff_t = coeffs.get(coeff)
        if coeff_t is None:
            coeff_t = coeffs[coeff] = tpoly_to_json(coeff)
        terms.append({"left": left, "right": right, "coeff_t": coeff_t})
    return {"terms": terms}
