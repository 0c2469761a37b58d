import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from chromexp.combinat import (
    INFINITY,
    RComposition,
    RSetComposition,
    bar_shuffle,
    compositions,
    corruptions,
    descent_set,
    lambda_factorial,
    lambda_superfactorial,
    partition_meet,
    partitions,
    quasi_shuffle,
    r_compositions,
    r_set_compositions,
    r_split,
    reformations,
    runs_set_composition,
    set_composition,
    set_compositions,
    set_partition,
    set_partitions,
    shifted_quasi_shuffle,
    standardize_set_composition,
    standardize_set_partition,
)
from reference import (
    coarsens,
    composition_from_descents,
    corrupts,
    dominance_leq,
    partition_refines,
    reforms,
    restrict,
    standardize_r_set_composition,
    standardize_word,
)


def sc(*blocks):
    return set_composition(blocks)


def sp(*blocks):
    return set_partition(blocks)


# ---------------------------------------------------------------------------
# descents, coarsening, dominance

def test_descent_set_worked_example():
    assert descent_set((2, 1, 2)) == {2, 3}


def test_descent_set_trivial():
    assert descent_set((5,)) == set()
    assert descent_set((1, 1, 1)) == {1, 2}


def test_descent_set_inverse():
    assert composition_from_descents({2, 3}, 5) == (2, 1, 2)
    for alpha in compositions(6):
        assert composition_from_descents(descent_set(alpha), 6) == alpha


def test_coarsens():
    assert coarsens((3,), (2, 1))
    assert not coarsens((2, 1), (1, 2))
    assert coarsens((1, 2), (1, 1, 1))
    with pytest.raises(ValueError):
        coarsens((2,), (1, 1, 1))


def test_dominance_worked_example():
    assert dominance_leq((3, 1, 1, 1), (3, 2, 1))
    assert not dominance_leq((3, 2, 1), (3, 1, 1, 1))


def test_dominance_reflexive_and_prefix():
    assert dominance_leq((4,), (4,))
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))


@pytest.mark.parametrize("n", range(1, 8))
def test_dominance_is_partial_order(n):
    lams = list(partitions(n))
    for a in lams:
        assert dominance_leq(a, a)
    for a, b in itertools.permutations(lams, 2):
        if dominance_leq(a, b) and dominance_leq(b, a):
            assert a == b
    for a, b, c in itertools.product(lams, repeat=3):
        if dominance_leq(a, b) and dominance_leq(b, c):
            assert dominance_leq(a, c)


def test_lambda_factorials():
    assert lambda_factorial((2, 2, 1)) == 4
    assert lambda_superfactorial((2, 2, 1)) == 2
    assert lambda_factorial(()) == 1
    assert lambda_superfactorial(()) == 1


# ---------------------------------------------------------------------------
# words and permutations

def test_standardize_word_worked_example():
    assert standardize_word((3, 5, 4, 4, 2, 3, 1)) == (3, 7, 5, 6, 2, 4, 1)


def test_standardize_word_trivial():
    assert standardize_word((1, 2, 3)) == (1, 2, 3)
    assert standardize_word((2, 2, 2)) == (1, 2, 3)


def test_runs_set_composition_worked_example():
    assert runs_set_composition((8, 3, 6, 7, 9, 1, 5, 2, 4)) == sc((8,), (3, 6, 7, 9), (1, 5), (2, 4))


def test_runs_set_composition_extremes():
    assert runs_set_composition((1, 2, 3, 4)) == sc((1, 2, 3, 4))
    assert runs_set_composition((4, 3, 2, 1)) == sc((4,), (3,), (2,), (1,))


# ---------------------------------------------------------------------------
# standardization

def test_standardize_set_composition_worked_example():
    assert standardize_set_composition(sc((3, 5), (9,), (6, 7))) == sc((1, 2), (5,), (3, 4))


def test_standardize_set_partition_worked_example():
    assert standardize_set_partition(sp((3, 5), (6, 7), (9,))) == sp((1, 2), (3, 4), (5,))


def test_standardize_r_set_composition_worked_example():
    rsc = RSetComposition(2, sc((3, 6), (2, 9)), sp((4,), (5,), (8,)))
    assert standardize_r_set_composition(rsc) == RSetComposition(2, sc((2, 5), (1, 7)), sp((3,), (4,), (6,)))


@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=8, unique=True),
       st.data())
def test_standardize_idempotent(elements, data):
    cuts = data.draw(st.sets(st.integers(min_value=1, max_value=len(elements) - 1))
                     if len(elements) > 1 else st.just(set()))
    ordered = sorted(elements)
    pieces = sorted(cuts) + [len(elements)]
    blocks, start = [], 0
    for end in pieces:
        if end > start:
            blocks.append(ordered[start:end])
            start = end
    phi = set_composition(blocks)
    once = standardize_set_composition(phi)
    assert standardize_set_composition(once) == once


# ---------------------------------------------------------------------------
# corrupts and reforms

def test_corrupts_worked_example():
    assert corrupts(sc((1, 3), (2,), (4, 5, 6)), sc((1, 3), (2,), (4,), (5, 6)))


def test_reforms_worked_examples():
    assert reforms(sc((1,), (3,), (2,), (4,), (5, 6)), sc((1, 3), (2,), (4,), (5, 6)))
    assert not reforms(sc((3,), (1,), (2,), (4,), (5, 6)), sc((1, 3), (2,), (4,), (5, 6)))


def test_corrupts_reflexive():
    phi = sc((1, 3), (2,), (4,))
    assert corrupts(phi, phi)
    assert reforms(phi, phi)


def test_corrupts_ignores_block_interleaving():
    # merging adjacent blocks is allowed even when their elements interleave
    assert corrupts(sc((1, 2, 3, 4),), sc((1, 3), (2, 4)))
    assert corrupts(sc((1, 2),), sc((2,), (1,)))


def test_reforms_implies_corrupts():
    for n in range(1, 5):
        for psi in set_compositions(n):
            for phi in reformations(psi):
                assert corrupts(psi, phi)


def test_reformations_and_corruptions_counts():
    # a single block of size n splits into increasing pieces in 2^(n-1) ways
    assert len(reformations(sc((1, 2, 3),))) == 4
    # a chain of k blocks merges in 2^(k-1) ways
    assert len(corruptions(sc((1,), (2,), (3,)))) == 4


# ---------------------------------------------------------------------------
# shuffles

def test_quasi_shuffle_worked_examples():
    assert quasi_shuffle((1,), (1,)) == {(1, 1): 2, (2,): 1}
    assert quasi_shuffle((), (2, 1)) == {(2, 1): 1}
    assert quasi_shuffle((2,), (1,)) == {(2, 1): 1, (1, 2): 1, (3,): 1}


def _delannoy(m, n, cache={}):
    if m == 0 or n == 0:
        return 1
    if (m, n) not in cache:
        cache[(m, n)] = (_delannoy(m - 1, n) + _delannoy(m, n - 1)
                         + _delannoy(m - 1, n - 1))
    return cache[(m, n)]


@given(st.lists(st.integers(min_value=1, max_value=4), max_size=4),
       st.lists(st.integers(min_value=1, max_value=4), max_size=4))
def test_quasi_shuffle_total_count(alpha, beta):
    total = sum(quasi_shuffle(tuple(alpha), tuple(beta)).values())
    assert total == _delannoy(len(alpha), len(beta))


def test_shifted_quasi_shuffle_worked_examples():
    assert shifted_quasi_shuffle(sc((1,)), sc((1,))) == {sc((1,), (2,)), sc((2,), (1,)), sc((1, 2))}
    assert shifted_quasi_shuffle(sc((1,)), ()) == {sc((1,))}
    assert shifted_quasi_shuffle((), sc((1,))) == {sc((1,))}


def test_shifted_quasi_shuffle_restriction_property():
    for phi in set_compositions(2):
        for psi in set_compositions(2):
            for gamma in shifted_quasi_shuffle(phi, psi):
                assert restrict(gamma, {1, 2}) == phi
                assert standardize_set_composition(restrict(gamma, {3, 4})) == psi


def test_bar_shuffle_single_block_against_two():
    # one ordered block and two free singletons: all 3! arrangements
    result = bar_shuffle(sc((2, 4)), sp((1,), (3,)))
    assert len(result) == 6
    assert sc((2, 4), (1,), (3,)) in result
    assert sc((1,), (3,), (2, 4)) in result


def test_bar_shuffle_units():
    assert bar_shuffle((), sp((1, 2))) == {sc((1, 2))}
    assert bar_shuffle(sc((1,), (2,)), ()) == {sc((1,), (2,))}


def test_bar_shuffle_keeps_phi_order():
    for gamma in bar_shuffle(sc((1,), (2,)), sp((3,))):
        positions = {b: i for i, b in enumerate(gamma)}
        assert positions[(1,)] < positions[(2,)]


def test_restrict_worked_example():
    phi = sc((3, 5, 7), (2, 6), (1, 4))
    assert restrict(phi, {1, 3, 4}) == sc((3,), (1, 4))
    assert restrict(phi, {1, 2, 3, 4, 5, 6, 7}) == phi
    assert restrict(phi, set()) == ()


def test_r_split_examples():
    assert r_split(sc((2, 4), (1,), (3,)), 2) == (sc((2, 4)), sp((1,), (3,)))
    assert r_split(sc((1,), (2,)), 2) == ((), sp((1,), (2,)))
    for upsilon in set_compositions(3):
        assert r_split(upsilon, 1) == (upsilon, ())


@pytest.mark.parametrize("n", range(0, 6))
@pytest.mark.parametrize("r", [1, 2, 3])
def test_r_split_unique_bar_shuffle_preimage(n, r):
    fibers = {}
    for rsc in r_set_compositions(n, r):
        fibers[(rsc.phi, rsc.pi)] = bar_shuffle(rsc.phi, rsc.pi)
    for upsilon in set_compositions(n):
        phi, pi = r_split(upsilon, r)
        assert upsilon in bar_shuffle(phi, pi)
        owners = [key for key, fiber in fibers.items() if upsilon in fiber]
        assert owners == [(phi, pi)]


# ---------------------------------------------------------------------------
# the partition lattice

def test_partition_meet_examples():
    assert partition_meet(sp((1, 3), (2, 4)), sp((1, 2), (3, 4))) == sp((1,), (2,), (3,), (4,))
    pi = sp((1, 2, 3), (4,))
    assert partition_meet(pi, pi) == pi


@pytest.mark.parametrize("n", range(1, 6))
def test_partition_meet_is_lattice_meet(n):
    pis = list(set_partitions(n))
    for a, b in itertools.combinations_with_replacement(pis, 2):
        m = partition_meet(a, b)
        assert partition_refines(m, a) and partition_refines(m, b)
        for c in pis:
            if partition_refines(c, a) and partition_refines(c, b):
                assert partition_refines(c, m)


# ---------------------------------------------------------------------------
# r-objects

def test_r_composition_validation():
    RComposition(4, (7, 4, 5), (3, 2))
    with pytest.raises(ValueError):
        RComposition(2, (1, 2), ())
    with pytest.raises(ValueError):
        RComposition(2, (), (2,))
    RComposition(INFINITY, (), (5, 1))
    with pytest.raises(ValueError):
        RComposition(INFINITY, (3,), ())


def test_r_composition_counts():
    assert sum(1 for _ in r_compositions(5, 2)) == 8
    assert sum(1 for _ in r_compositions(4, 1)) == 8  # compositions of 4
    # r = infinity leaves only (empty, mu): partitions of n
    assert sum(1 for _ in r_compositions(5, INFINITY)) == 7


def test_r_set_composition_counts():
    assert sum(1 for _ in r_set_compositions(4, 2)) == 18
    assert sum(1 for _ in r_set_compositions(3, 1)) == 13  # set compositions of [3]


def test_set_composition_validation():
    with pytest.raises(ValueError):
        set_composition(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        set_composition(((1,), ()))


def test_enumeration_sizes():
    assert sum(1 for _ in compositions(5)) == 16
    assert sum(1 for _ in partitions(6)) == 11
    assert sum(1 for _ in set_partitions(4)) == 15
    assert sum(1 for _ in set_compositions(3)) == 13
    counts = Counter(len(phi) for phi in set_compositions(4))
    assert sum(counts.values()) == 75


@given(st.lists(st.integers(min_value=1, max_value=4), max_size=4),
       st.lists(st.integers(min_value=1, max_value=4), max_size=4))
def test_quasi_shuffle_commutes(alpha, beta):
    assert quasi_shuffle(tuple(alpha), tuple(beta)) == quasi_shuffle(tuple(beta), tuple(alpha))


def test_r_split_at_infinity_sends_everything_to_the_partition():
    for upsilon in set_compositions(4):
        phi, pi = r_split(upsilon, INFINITY)
        assert phi == ()
        assert pi == sp(*upsilon)
