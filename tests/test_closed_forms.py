"""Differential tests of the closed forms against the code they replaced.

`basis_ncsym` builds m, p, e and h from the lattice meet, `in_qsym_r`
(and `is_symmetric` through it) checks coefficients fiber by fiber, and
`bar_shuffle` shares its interleaving core with `in_qsym_r`. The
set-partition walkers recurse over the elements themselves. The earlier
implementations are kept here, and only here, as references: results
must agree, down to coefficient types and iteration order.
"""

import itertools
import random

import pytest

from chromexp import graph as gr, tpoly, verify
from chromexp.chromatic import expand
from chromexp.combinat import (
    INFINITY,
    RComposition,
    RSetComposition,
    bar_shuffle,
    distinct_rearrangements,
    r_compositions,
    r_composition_to_json,
    r_set_compositions,
    set_composition,
    set_compositions,
    set_partition,
    set_partitions,
)
from chromexp.linalg import solve_combination
from chromexp.ncqsym import _blockwise_symmetrized, basis_ncsym, expand_nc
from chromexp.qsym import QSymExpr, _t_slices, basis_r, in_qsym_r, is_symmetric
from reference import sort_to_partition

R_VALUES = (1, 2, 3, INFINITY)

# ---------------------------------------------------------------------------
# the earlier implementations


def ref_basis_ncsym(kind, pi):
    """m, p and e expanded from their labelled digraphs, h from
    blockwise-symmetrized double paths."""
    pi = set_partition(pi)
    if kind in ("m", "p", "e"):
        return expand_nc(gr.ncsym_basis_digraph(kind, pi)).at_t(1)
    return _blockwise_symmetrized(pi, "Q").at_t(1)


def ref_in_qsym_r(f, r):
    """Solve for f in the span of the engine-built r-level M elements,
    one power of t at a time."""
    if r == 1:
        return True
    for n in f.degrees():
        component = f.homogeneous_component(n)
        columns = [
            {k: tpoly.evaluate(c, 1) for k, c in basis_r("M", rc.beta, rc.mu, r).terms.items()}
            for rc in r_compositions(n, r)
        ]
        for _, coords in _t_slices(component.terms).items():
            if solve_combination(columns, coords) is None:
                return False
    return True


def ref_is_symmetric(f):
    try:
        f.collect(sort_to_partition, lambda lam: list(distinct_rearrangements(lam)),
                  ValueError)
    except ValueError:
        return False
    return True


def ref_bar_shuffle(phi, pi):
    phi = set_composition(phi)
    pi = set_partition(pi)
    k, l = len(phi), len(pi)
    out = set()
    for positions in itertools.combinations(range(k + l), k):
        pos_set = set(positions)
        rest = [i for i in range(k + l) if i not in pos_set]
        for order in itertools.permutations(pi):
            blocks = [None] * (k + l)
            for slot, block in zip(positions, phi):
                blocks[slot] = block
            for slot, block in zip(rest, order):
                blocks[slot] = block
            out.add(tuple(blocks))
    return out


def ref_set_partitions(n):
    def rec(elements):
        if not elements:
            yield ()
            return
        first, rest = elements[0], elements[1:]
        for size in range(len(rest) + 1):
            for mates in itertools.combinations(rest, size):
                block = (first,) + mates
                remaining = tuple(x for x in rest if x not in mates)
                for tail in rec(remaining):
                    yield (block,) + tail

    yield from rec(tuple(range(1, n + 1)))


def ref_set_compositions(n):
    for pi in ref_set_partitions(n):
        for order in itertools.permutations(pi):
            yield tuple(order)


def ref_set_partitions_of(elements):
    elements = tuple(sorted(elements))
    if not elements:
        yield ()
        return
    relabel = dict(enumerate(elements, start=1))
    for pi in ref_set_partitions(len(elements)):
        yield set_partition(tuple(relabel[x] for x in b) for b in pi)


def ref_r_set_compositions(n, r):
    elements = tuple(range(1, n + 1))
    for a_size in range(n + 1):
        for a_set in itertools.combinations(elements, a_size):
            rest = tuple(x for x in elements if x not in a_set)
            phis = [order for pi in ref_set_partitions_of(a_set)
                    for order in itertools.permutations(pi)
                    if all(len(b) >= r for b in order)]
            pis = [pi for pi in ref_set_partitions_of(rest) if all(len(b) < r for b in pi)]
            for phi in phis:
                for pi in pis:
                    yield RSetComposition(r, phi, pi)


# ---------------------------------------------------------------------------
# comparison


def perturbed(f, rng):
    """f with one coefficient raised by one."""
    key = rng.choice(sorted(f.terms, key=f._sort_key))
    return f + QSymExpr({key: 1})


def r_sum(rng, n, r):
    """A random integer combination of the r-level M elements of degree n."""
    rcs = list(r_compositions(n, r))
    return QSymExpr.sum_of(basis_r("M", rc.beta, rc.mu, r).scale(rng.choice((-2, -1, 1, 3)))
                           for rc in rng.sample(rcs, k=min(3, len(rcs))))


@pytest.mark.parametrize("kind,max_n", [("m", 6), ("p", 6), ("e", 5), ("h", 5)])
def test_ncsym_closed_forms_match_the_digraph_routes(kind, max_n):
    for n in range(max_n + 1):
        for pi in set_partitions(n):
            got = basis_ncsym(kind, pi)
            assert got == ref_basis_ncsym(kind, pi), (kind, pi)
            assert all(type(c) is int for c in got.terms.values()), (kind, pi)


def test_ncsym_closed_forms_standardize_the_ground_set():
    for kind in ("m", "p", "e", "h"):
        assert basis_ncsym(kind, [(7, 2), (5,)]) == ref_basis_ncsym(kind, [(7, 2), (5,)])


@pytest.mark.parametrize("r", R_VALUES)
def test_in_qsym_r_matches_the_linear_algebra_on_random_expansions(r):
    rng = random.Random(13)
    outcomes = set()
    for _ in range(40):
        f = expand(verify.random_digraph(rng, 5))
        for g in (f, f.at_t(1)):
            want = ref_in_qsym_r(g, r)
            assert in_qsym_r(g, r) == want, (g, r)
            outcomes.add(want)
            assert is_symmetric(g) == ref_is_symmetric(g)
    assert outcomes == ({True} if r == 1 else {True, False})


@pytest.mark.parametrize("r", R_VALUES)
def test_in_qsym_r_on_basis_sums_and_their_perturbations(r):
    rng = random.Random(29)
    broken_outcomes = set()
    for n in range(1, 6):
        for _ in range(4):
            f = r_sum(rng, n, r)
            g = f + expand(verify.random_digraph(rng, 3)).at_t(1).scale(rng.choice((0, 2)))
            assert in_qsym_r(f, r) and ref_in_qsym_r(f, r)
            if f:
                broken = perturbed(f, rng)
                want = ref_in_qsym_r(broken, r)
                assert in_qsym_r(broken, r) == want
                broken_outcomes.add(want)
            assert in_qsym_r(g, r) == ref_in_qsym_r(g, r)
    assert False in broken_outcomes or r == 1
    assert not in_qsym_r(QSymExpr({(2, 1): 1}), 2)
    assert in_qsym_r(QSymExpr({(2, 1): 1, (1, 2): 1}), 2)


def test_bar_shuffle_gives_the_same_set_in_the_same_order():
    for r in R_VALUES:
        for n in range(6):
            for rsc in r_set_compositions(n, r):
                got = bar_shuffle(rsc.phi, rsc.pi)
                want = ref_bar_shuffle(rsc.phi, rsc.pi)
                assert got == want and list(got) == list(want), rsc


def test_walkers_keep_their_order():
    for n in range(7):
        assert list(set_partitions(n)) == list(ref_set_partitions(n))
        assert list(set_compositions(n)) == list(ref_set_compositions(n))
    for r in R_VALUES:
        for n in range(6):
            assert list(r_set_compositions(n, r)) == list(ref_r_set_compositions(n, r))


# ---------------------------------------------------------------------------
# r validation


def test_r_rejects_a_bool():
    for r in (True, False):
        with pytest.raises(ValueError, match="r must be a positive integer"):
            RComposition(r, (1,), ())
    with pytest.raises(ValueError, match="r must be a positive integer"):
        r_composition_to_json(RComposition(True, (1,), ()))
    assert r_composition_to_json(RComposition(1, (1,), ())) == {"r": 1, "comp": [1], "part": []}


def test_in_qsym_r_checks_r_before_the_expression():
    for f in (QSymExpr(), QSymExpr({(1,): 1})):
        for r in (0, -1, True, 2.0):
            with pytest.raises(ValueError, match="r must be a positive integer"):
                in_qsym_r(f, r)
