"""Indexing combinatorics: compositions, partitions, set compositions,
set partitions, their r-level pairs, standardization, and the three
shuffle products used by the expression algebras.

Conventions
-----------
* A composition is a tuple of positive ints; () is the empty composition.
* A partition is a weakly decreasing composition.
* A set composition is a tuple of blocks, each block a strictly
  increasing tuple of positive ints; block order is meaningful.
* A set partition is a tuple of blocks, each strictly increasing,
  with the blocks sorted by their minimum element.
* Permutations are one-line words: tuples that rearrange 1..n.

All values are immutable and hashable, so they can key term maps.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from math import factorial

#: Sentinel for the r = infinity level (all parts land on the partition side).
INFINITY = math.inf


# ---------------------------------------------------------------------------
# compositions and partitions

def composition(parts) -> tuple[int, ...]:
    """Validate and normalize a composition."""
    alpha = tuple(int(p) for p in parts)
    if any(p < 1 for p in alpha):
        raise ValueError(f"composition parts must be positive: {alpha}")
    return alpha


def partition(parts) -> tuple[int, ...]:
    """Validate a partition (weakly decreasing positive parts)."""
    lam = composition(parts)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"not weakly decreasing: {lam}")
    return lam


def descent_set(alpha) -> frozenset[int]:
    """Partial sums of all but the last part, a subset of [size-1]."""
    return frozenset(itertools.accumulate(alpha[:-1]))


def _with_cuts(n: int, fixed: tuple, optional):
    """The compositions of n whose cut set is `fixed` plus a subset of
    the sorted sequence `optional`, fewer added cuts first and each size
    in itertools.combinations order."""
    if n <= 0:
        if n == 0:
            yield ()
        return
    for size in range(len(optional) + 1):
        for chosen in itertools.combinations(optional, size):
            cuts = (0, *sorted(fixed + chosen), n) if fixed else (0, *chosen, n)
            yield tuple(b - a for a, b in itertools.pairwise(cuts))


def compositions(n: int):
    """All compositions of n, in graded-lex order of cut sets."""
    return _with_cuts(n, (), range(1, n))


def coarsenings(alpha):
    """All compositions gamma that coarsen alpha (merge runs of adjacent parts)."""
    return list(_with_cuts(sum(alpha), (), sorted(descent_set(alpha))))


def refinements(alpha):
    """All compositions beta refined by alpha (set(beta) contains set(alpha))."""
    n, base = sum(alpha), descent_set(alpha)
    return list(_with_cuts(n, tuple(base), [s for s in range(1, n) if s not in base]))


def partitions(n: int):
    """All partitions of n, largest part first, in reverse lex order."""
    return _partitions(n, n)


def _partitions(remaining, cap):
    """The partitions of remaining with no part above cap."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, cap), 0, -1):
        for rest in _partitions(remaining - first, first):
            yield (first,) + rest


def lambda_factorial(lam) -> int:
    """Product of the factorials of the parts."""
    out = 1
    for p in lam:
        out *= factorial(p)
    return out


def lambda_superfactorial(lam) -> int:
    """Product of the factorials of the part multiplicities."""
    out = 1
    for _, group in itertools.groupby(lam):
        out *= factorial(len(list(group)))
    return out


def distinct_rearrangements(lam):
    """All distinct compositions with the same multiset of parts, in
    lexicographic order: Knuth's Algorithm L (TAOCP 7.2.1.2), the next
    permutation of sorted(lam) until none is left."""
    a = sorted(lam)
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        m = max(i for i in range(j + 1, len(a)) if a[i] > a[j])
        a[j], a[m] = a[m], a[j]
        a[j + 1:] = a[:j:-1]


# ---------------------------------------------------------------------------
# permutations and words

def permutation(word) -> tuple[int, ...]:
    sigma = tuple(int(w) for w in word)
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValueError(f"not a permutation of 1..{len(sigma)}: {sigma}")
    return sigma


def runs_set_composition(sigma) -> tuple[tuple[int, ...], ...]:
    """Maximal increasing runs of the one-line word, as a set composition.

    The final run is always included.
    """
    sigma = permutation(sigma)
    if not sigma:
        return ()
    blocks = []
    current = [sigma[0]]
    for v in sigma[1:]:
        if v > current[-1]:
            current.append(v)
        else:
            blocks.append(tuple(current))
            current = [v]
    blocks.append(tuple(current))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# set compositions and set partitions

def set_composition(blocks) -> tuple[tuple[int, ...], ...]:
    """Canonical form: block order kept, block interiors sorted."""
    out = tuple(tuple(sorted(int(x) for x in b)) for b in blocks)
    _check_blocks(out)
    return out


def set_partition(blocks) -> tuple[tuple[int, ...], ...]:
    """Canonical form: interiors sorted, blocks ordered by minimum."""
    out = tuple(sorted((tuple(sorted(int(x) for x in b)) for b in blocks),
                       key=lambda b: b[0] if b else 0))
    _check_blocks(out)
    return out


def _check_blocks(blocks):
    seen = set()
    for b in blocks:
        if not b:
            raise ValueError("blocks must be nonempty")
        for x in b:
            if x < 1:
                raise ValueError(f"ground-set elements must be positive: {x}")
            if x in seen:
                raise ValueError(f"blocks must be disjoint; {x} repeats")
            seen.add(x)


def ground_set(blocks) -> frozenset[int]:
    return frozenset().union(*blocks)


def shape(blocks) -> tuple[int, ...]:
    """Block sizes in block order (a composition)."""
    return tuple(map(len, blocks))


def shape_partition(blocks) -> tuple[int, ...]:
    """Block sizes sorted decreasingly (a partition)."""
    return tuple(sorted((len(b) for b in blocks), reverse=True))


def set_compositions(n: int):
    """All set compositions of [n]."""
    return _set_compositions_of(tuple(range(1, n + 1)))


def set_partitions(n: int):
    """All set partitions of [n], in canonical order."""
    return _set_partitions_of(tuple(range(1, n + 1)))


def _set_compositions_of(elements):
    for pi in _set_partitions_of(elements):
        yield from itertools.permutations(pi)


def _set_partitions_of(elements):
    """All set partitions of an increasing tuple, in canonical order: the
    block of the first element takes its mates by their number, then in
    itertools.combinations order, and the rest is partitioned alike."""
    if len(elements) <= 1:
        yield (elements,) if elements else ()
        return
    first, rest = elements[:1], elements[1:]
    for size in range(len(rest) + 1):
        for mates in itertools.combinations(rest, size):
            block = (first + mates,)
            remaining = tuple(x for x in rest if x not in mates)
            for tail in _set_partitions_of(remaining):
                yield block + tail


def standardize_set_composition(phi):
    """Order-preserving relabelling of the ground set onto [n]."""
    phi = set_composition(phi)
    rank = _ranks(ground_set(phi))
    return tuple(tuple(rank[x] for x in b) for b in phi)


# _SPLIT_TABLES[i] splits a packed word, whose letter at x - 1 is the
# index of x's block, after its first i blocks: deleting the letters at
# or above i leaves the left side's word, and deleting the letters below
# i, then mapping v to v - i, leaves the right side's. Constants, made
# on demand, as most keys have a few blocks.
_SPLIT_TABLES: list = []


def _standardized_splits(phi, memo=None) -> list:
    """[(std(phi[:i]), std(phi[i:])) for i = 0..len(phi)] for a canonical
    phi covering [n] (not validated).

    phi is written once as its packed word, and each side of a split is
    the word with the other side's letters deleted, which keeps the
    order of the elements and so is already standardized. `memo`, shared
    by the keys of one coproduct, maps each word seen to the set
    composition it spells, and each block to itself, so that equal
    blocks are one tuple. The first and last splits need no word, as phi
    covers [n]. A key of more than 256 blocks does not fit a byte per
    letter; it takes a counting pass instead, where below[x] counts the
    prefix elements up to x, which is x's rank in the prefix and makes
    x - below[x] its rank in the suffix. Its blocks are interned too.
    """
    if memo is None:
        memo = {}
    k = len(phi)
    if k > 256:
        intern = memo.setdefault
        n = sum(map(len, phi))
        in_prefix = [0] * (n + 1)
        out = []
        for i in range(k + 1):
            below = list(itertools.accumulate(in_prefix))
            left = [tuple([below[x] for x in b]) for b in phi[:i]]
            right = [tuple([x - below[x] for x in b]) for b in phi[i:]]
            out.append((tuple(map(intern, left, left)), tuple(map(intern, right, right))))
            if i < k:
                for x in phi[i]:
                    in_prefix[x] = 1
        return out
    letters = [0] * sum(map(len, phi))
    for v, b in enumerate(phi):
        for x in b:
            letters[x - 1] = v
    word = bytes(letters)
    tables = _SPLIT_TABLES
    for i in range(len(tables), k):
        tables.append((bytes(range(i, 256)), bytes(range(i)), bytes(i) + bytes(range(256 - i))))
    get = memo.get
    out = [((), phi)]
    for i in range(1, k):
        upper, lower, down = tables[i]
        left = word.translate(None, upper)
        right = word.translate(down, lower)
        out.append((get(left) or _spell(left, i, memo),
                    get(right) or _spell(right, k - i, memo)))
    if phi:
        out.append((phi, ()))
    return out


def _spell(word, k, memo):
    """The set composition of k blocks that a packed word spells, kept
    in memo under the word, its blocks interned there."""
    blocks = [[] for _ in range(k)]
    for x, v in enumerate(word, 1):
        blocks[v].append(x)
    blocks = list(map(tuple, blocks))
    phi = memo[word] = tuple(map(memo.setdefault, blocks, blocks))
    return phi


def standardize_set_partition(pi):
    rank = _ranks(ground_set(pi))
    return set_partition(tuple(rank[x] for x in b) for b in pi)


def _ranks(elements) -> dict[int, int]:
    return {x: i + 1 for i, x in enumerate(sorted(elements))}


def corruptions(phi) -> set[tuple[tuple[int, ...], ...]]:
    """All set compositions obtained from phi by removing bars."""
    return set(_corruptions(set_composition(phi)))


def _corruptions(phi) -> list:
    """corruptions of a canonical phi, unchecked and without repeats.

    Each run of adjacent blocks is merged and sorted once, however many
    results share it. Distinct cut sequences give distinct results.
    """
    k = len(phi)
    runs = {}
    for i in range(k):
        run = ()
        for j in range(i, k):
            run = runs[i, j + 1] = tuple(sorted(run + phi[j]))
    out = []
    for cuts in _cut_choices(k):
        merged = []
        start = 0
        for end in cuts:
            merged.append(runs[start, end])
            start = end
        out.append(tuple(merged))
    return out


def reformations(psi) -> set[tuple[tuple[int, ...], ...]]:
    """All set compositions obtained from psi by adding bars."""
    psi = set_composition(psi)
    per_block = []
    for block in psi:
        pieces = []
        for cuts in _cut_choices(len(block)):
            start = 0
            split = []
            for end in cuts:
                split.append(block[start:end])
                start = end
            pieces.append(tuple(split))
        per_block.append(pieces)
    out = set()
    for choice in itertools.product(*per_block):
        out.add(tuple(piece for split in choice for piece in split))
    return out


def _cut_choices(k: int):
    """All increasing cut sequences of 1..k ending at k (k = 0 gives one empty way)."""
    if k == 0:
        yield ()
        return
    for inner in itertools.chain.from_iterable(
            itertools.combinations(range(1, k), size) for size in range(k)):
        yield inner + (k,)


# ---------------------------------------------------------------------------
# shuffle products

def _quasi_shuffles(a, b) -> list:
    """Every path of the overlapping shuffle of two sequences, repeats
    included: interleavings in which an entry x of a and an entry y of b
    may merge into x + y. Depth first with an explicit stack, so long
    inputs do not recurse; at each step the path takes a's next entry
    first, then b's, then their merge."""
    la, lb = len(a), len(b)
    out = []
    stack = [(0, 0, ())]
    while stack:
        i, j, prefix = stack.pop()
        if i == la:
            out.append(prefix + b[j:])
        elif j == lb:
            out.append(prefix + a[i:])
        else:
            x, y = a[i], b[j]
            stack.append((i + 1, j + 1, prefix + (x + y,)))
            stack.append((i, j + 1, prefix + (y,)))
            stack.append((i + 1, j, prefix + (x,)))
    return out


def _by_multiplicity(paths):
    """The distinct paths as (multiplicity, paths) groups, the groups and
    the paths in each in order of first occurrence. A plain dict counts
    them: most products shuffle short keys, where Counter's set-up costs
    more than the counting."""
    counts: dict = {}
    for path in paths:
        counts[path] = counts.get(path, 0) + 1
    groups: dict = {}
    for path, count in counts.items():
        groups.setdefault(count, []).append(path)
    return groups.items()


def quasi_shuffle(alpha, beta) -> dict[tuple[int, ...], int]:
    """Overlapping shuffle of two compositions, as a multiset.

    Interleavings in which one part of alpha and one part of beta may
    merge by addition; the multiplicities realize the product of
    monomial quasisymmetric functions.
    """
    return dict(Counter(_quasi_shuffles(tuple(alpha), tuple(beta))))


def shifted_quasi_shuffle(phi, psi) -> set[tuple[tuple[int, ...], ...]]:
    """All set compositions restricting to phi on [n] and to a shift of psi above.

    Ground sets must be initial segments [n] and [m]; the result lives
    on [n + m].
    """
    phi = set_composition(phi)
    psi = set_composition(psi)
    _initial_segment_size(phi)
    _initial_segment_size(psi)
    return set(_shifted_quasi_shuffle(phi, psi))


def _shifted_quasi_shuffle(phi, psi) -> list:
    """shifted_quasi_shuffle for canonical phi and psi covering initial
    segments (not validated). Every path of the interleaving gives a
    different result, and a merged block needs no sort: the elements of
    phi all lie below the shifted ones of psi."""
    n = sum(map(len, phi))
    return _quasi_shuffles(phi, tuple(tuple(x + n for x in b) for b in psi))


def _initial_segment_size(phi) -> int:
    ground = ground_set(phi)
    n = len(ground)
    if ground != frozenset(range(1, n + 1)):
        raise ValueError(f"ground set must be an initial segment: {sorted(ground)}")
    return n


def bar_shuffle(phi, pi) -> set[tuple[tuple[int, ...], ...]]:
    """Arrange the blocks of phi and pi into one sequence.

    The blocks of phi keep their relative order; the blocks of pi go
    anywhere in any order; no blocks merge.
    """
    phi = set_composition(phi)
    pi = set_partition(pi)
    if ground_set(phi) & ground_set(pi):
        raise ValueError("ground sets overlap")
    return set(_interleavings(phi, list(itertools.permutations(pi))))


def _interleavings(fixed, orders):
    """Every sequence that keeps the entries of `fixed` in order and fills
    the other slots with one of `orders`, all of one length: the slots of
    `fixed` in the outer loop, in itertools.combinations order."""
    size = len(fixed) + len(orders[0])
    for slots in itertools.combinations(range(size), len(fixed)):
        for order in orders:
            ins, outs = iter(fixed), iter(order)
            yield tuple([next(ins) if i in slots else next(outs) for i in range(size)])


def r_split(upsilon, r):
    """Split a set composition into its r-level pair.

    Blocks of size >= r, in order, form the set-composition part; the
    rest form the set-partition part. The input is recovered as an
    element of bar_shuffle of the output.
    """
    upsilon = set_composition(upsilon)
    phi = tuple(b for b in upsilon if len(b) >= r)
    pi = set_partition(b for b in upsilon if len(b) < r)
    return phi, pi


# ---------------------------------------------------------------------------
# the partition lattice

def partition_meet(pi, omega) -> tuple[tuple[int, ...], ...]:
    """Greatest lower bound of two set partitions of one ground set: the
    nonempty pairwise block intersections."""
    block_of = {x: j for j, b in enumerate(omega) for x in b}
    if block_of.keys() != ground_set(pi):
        raise ValueError("ground sets differ")
    meet: dict = {}
    for i, a in enumerate(pi):
        for x in a:
            meet.setdefault((i, block_of[x]), []).append(x)
    # disjoint sorted blocks sort by their minima
    return tuple(sorted(map(tuple, map(sorted, meet.values()))))


# ---------------------------------------------------------------------------
# r-compositions and r-set-compositions

def _check_r(r):
    if r is INFINITY:
        return
    if not (isinstance(r, int) and not isinstance(r, bool) and r >= 1):
        raise ValueError(f"r must be a positive integer or INFINITY: {r!r}")


@dataclass(frozen=True)
class RComposition:
    """A pair (beta, mu): beta with parts >= r, mu a partition with parts < r."""

    r: object
    beta: tuple[int, ...]
    mu: tuple[int, ...]

    def __post_init__(self):
        _check_r(self.r)
        object.__setattr__(self, "beta", composition(self.beta))
        object.__setattr__(self, "mu", partition(self.mu))
        if any(p < self.r for p in self.beta):
            raise ValueError(f"beta parts must be >= {self.r}: {self.beta}")
        if any(p >= self.r for p in self.mu):
            raise ValueError(f"mu parts must be < {self.r}: {self.mu}")


@dataclass(frozen=True)
class RSetComposition:
    """A pair (phi, pi) whose shapes form an r-composition."""

    r: object
    phi: tuple[tuple[int, ...], ...]
    pi: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "phi", set_composition(self.phi))
        object.__setattr__(self, "pi", set_partition(self.pi))
        if ground_set(self.phi) & ground_set(self.pi):
            raise ValueError("ground sets of phi and pi overlap")
        RComposition(self.r, shape(self.phi), shape_partition(self.pi))

    def ground(self) -> frozenset[int]:
        return ground_set(self.phi) | ground_set(self.pi)


def r_compositions(n: int, r):
    """All r-compositions of n."""
    _check_r(r)
    for mu_size in range(n + 1):
        beta_size = n - mu_size
        betas = [b for b in compositions(beta_size) if all(p >= r for p in b)]
        mus = [m for m in partitions(mu_size) if all(p < r for p in m)]
        for beta in betas:
            for mu in mus:
                yield RComposition(r, beta, mu)


def r_set_compositions(n: int, r):
    """All r-set-compositions of [n]."""
    _check_r(r)
    elements = tuple(range(1, n + 1))
    for a_size in range(n + 1):
        for a_set in itertools.combinations(elements, a_size):
            rest = tuple(x for x in elements if x not in a_set)
            phis = [phi for phi in _set_compositions_of(a_set)
                    if all(len(b) >= r for b in phi)]
            pis = [pi for pi in _set_partitions_of(rest)
                   if all(len(b) < r for b in pi)]
            for phi in phis:
                for pi in pis:
                    yield RSetComposition(r, phi, pi)


# ---------------------------------------------------------------------------
# tableaux

def tableau_contents(rows, admissible) -> dict[tuple[int, ...], int]:
    """Fillings of the diagram with rows[i] cells in row i, counted per
    content composition: values 1..n for n cells, every value up to the
    largest used. Cells fill row by row, and admissible(left, above,
    value) says whether value may go in a cell whose left and upper
    neighbours hold left and above (None where the diagram has none).

    verify's oracle for the composition grids (immaculate tableaux) is
    its caller. Semistandard tableaux, for basis_sym("s"), are counted
    by horizontal strips in qsym instead."""
    n = sum(rows)
    if n == 0:
        return {(): 1}
    index = {(i, j): None for i, row in enumerate(rows) for j in range(row)}
    for k, cell in enumerate(index):
        index[cell] = k
    neighbours = [(index.get((i, j - 1)), index.get((i - 1, j))) for i, j in index]
    values = [0] * n
    counts: dict[tuple[int, ...], int] = {}

    def rec(k):
        if k == n:
            content = [0] * max(values)
            for v in values:
                content[v - 1] += 1
            if all(content):
                key = tuple(content)
                counts[key] = counts.get(key, 0) + 1
            return
        left, above = (None if m is None else values[m] for m in neighbours[k])
        for value in range(1, n + 1):
            if admissible(left, above, value):
                values[k] = value
                rec(k + 1)

    rec(0)
    del rec  # rec calls itself through this name: free the cycle now
    return counts


# ---------------------------------------------------------------------------
# ordering and display

def composition_sort_key(alpha):
    """Graded lexicographic order for deterministic term iteration."""
    return (sum(alpha), alpha)


def set_composition_sort_key(phi):
    sizes = tuple(map(len, phi))
    return (sum(sizes), sizes, phi)


def format_composition(alpha) -> str:
    return "(" + ",".join(str(p) for p in alpha) + ")"


def format_block(block) -> str:
    if any(x > 9 for x in block):
        return ",".join(str(x) for x in block)
    return "".join(str(x) for x in block)


def format_set_composition(phi) -> str:
    return "(" + "|".join(format_block(b) for b in phi) + ")"


def format_set_partition(pi) -> str:
    return "/".join(format_block(b) for b in pi) if pi else "{}"


# ---------------------------------------------------------------------------
# JSON forms

def r_value_to_json(r):
    return "inf" if r is INFINITY else r


def r_value_from_json(value):
    if value == "inf":
        return INFINITY
    return int(value)


def r_composition_to_json(rc: RComposition) -> dict:
    return {"r": r_value_to_json(rc.r), "comp": list(rc.beta), "part": list(rc.mu)}


def r_set_composition_to_json(rsc: RSetComposition) -> dict:
    return {
        "r": r_value_to_json(rsc.r),
        "comp": [list(b) for b in rsc.phi],
        "part": [list(b) for b in rsc.pi],
    }
