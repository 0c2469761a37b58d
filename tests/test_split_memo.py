"""Differential tests of the memoized coproduct splits.

`combinat._standardized_splits` shares one memo across the keys of a
coproduct: each block is standardized once per ground, a ground gets its
table the second time it occurs, and block masks and tables live in
separate dicts. The counting pass it replaced is kept here as the
reference: every split, and every coproduct built from them, must be
equal and come in the same order, whatever the memo has seen before.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from chromexp import combinat, verify
from chromexp.ncqsym import NCQSymExpr, NCQSymTensor, coproduct_nc, expand_nc
from chromexp.qsym import QSymExpr, _merge
from chromexp.tpoly import TPoly
from chromexp.verify import random_labelled_digraph

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def ref_standardized_splits(phi):
    """The counting pass without a memo, as it stood before."""
    n = sum(len(b) for b in phi)
    in_prefix = [0] * (n + 1)
    for i in range(len(phi) + 1):
        below = list(itertools.accumulate(in_prefix))
        above = [x - c for x, c in enumerate(below)]
        yield (tuple([tuple([below[x] for x in b]) for b in phi[:i]]),
               tuple([tuple([above[x] for x in b]) for b in phi[i:]]))
        if i < len(phi):
            for x in phi[i]:
                in_prefix[x] = 1


def ref_coproduct_nc(f):
    out = {}
    for phi, coeff in f.terms.items():
        for pair in ref_standardized_splits(phi):
            _merge(out, pair, coeff)
    return NCQSymTensor._of(out)


def mask_of(elements):
    return sum(1 << x for x in elements)


def assert_memo_holds_only_its_entries(memo):
    """Blocks map to their masks; each table belongs to a ground seen
    before and maps masks of subsets of that ground to their ranks in it."""
    masks, seen, tables = memo
    for block, mask in masks.items():
        assert isinstance(block, tuple) and mask == mask_of(block)
    assert set(tables) <= seen
    for ground, table in tables.items():
        assert isinstance(ground, int)
        elements = [x for x in range(ground.bit_length()) if ground >> x & 1]
        rank = {x: r for r, x in enumerate(elements, start=1)}
        for mask, block in table.items():
            assert mask & ground == mask
            assert block == tuple(rank[x] for x in range(mask.bit_length()) if mask >> x & 1)


@st.composite
def set_compositions(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=max(n - 1, 1)))) & set(range(1, n))
    bounds = [0, *sorted(cuts), n] if n else [0]
    return tuple(tuple(sorted(order[a:b])) for a, b in zip(bounds, bounds[1:]))


# Keys whose blocks, read as (mask, ground), name entries of a table:
# ground {1, 2} (mask 6) is tabled by the first two keys, with mask 2
# for (1,) and mask 4 for (2,); the blocks (2, 6) and (4, 6) come next.
PAIR_LIKE = [((1,), (2,), (3,)), ((2,), (1,), (3,)),
             ((2, 6), (1, 3, 4, 5, 7)), ((1, 3, 5, 7), (4, 6), (2,)),
             ((1,), (2,), (3, 4, 5, 6, 7)), ((2, 6), (1,), (3, 4, 5, 7))]


@settings(max_examples=200, deadline=None)
@given(st.lists(set_compositions(), max_size=12))
def test_one_memo_across_keys_gives_the_counting_pass(keys):
    memo = combinat._splits_memo()
    for phi in keys + PAIR_LIKE + keys:
        assert list(combinat._standardized_splits(phi, memo)) \
            == list(ref_standardized_splits(phi))
    assert_memo_holds_only_its_entries(memo)


@settings(max_examples=100, deadline=None)
@given(set_compositions())
def test_one_argument_and_a_fresh_memo_still_work(phi):
    want = list(ref_standardized_splits(phi))
    assert list(combinat._standardized_splits(phi)) == want
    assert list(NCQSymExpr._splits(phi)) == want
    assert list(NCQSymExpr._splits(phi, combinat._splits_memo())) == want


def test_pair_like_blocks_stay_blocks():
    memo = combinat._splits_memo()
    for phi in PAIR_LIKE:
        assert list(combinat._standardized_splits(phi, memo)) \
            == list(ref_standardized_splits(phi))
    masks, seen, tables = memo
    assert masks[(2, 6)] == mask_of((2, 6)) and tables[6] == {2: (1,), 4: (2,)}
    assert_memo_holds_only_its_entries(memo)


def test_a_single_long_key_leaves_no_table():
    phi = tuple((x,) for x in range(1, 1001))
    memo = combinat._splits_memo()
    splits = list(combinat._standardized_splits(phi, memo))
    assert len(splits) == 1001
    for i in (0, 1, 500, 999, 1000):
        assert splits[i] == (phi[:i], tuple((x,) for x in range(1, 1001 - i)))
    masks, seen, tables = memo
    assert tables == {}
    assert len(seen) == 2 * 999


def test_the_commutative_splits_ignore_a_memo():
    memo = combinat._splits_memo()
    assert QSymExpr._splits((2, 1), memo) == QSymExpr._splits((2, 1)) \
        == [((), (2, 1)), ((2,), (1,)), ((2, 1), ())]
    assert memo == ({}, set(), {})


def coefficient_forms(f):
    """f with TPoly, int and Fraction coefficients."""
    g = f.at_t(1)
    return [f, g, g.scale(Fraction(2, 3))]


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_coproduct_nc_matches_the_reference_loop(seed):
    rng = random.Random(seed)
    for _ in range(3):
        f = expand_nc(random_labelled_digraph(rng, 5, min_n=0))
        for x in coefficient_forms(f):
            delta, want = coproduct_nc(x), ref_coproduct_nc(x)
            assert list(delta.terms.items()) == list(want.terms.items())
            assert type(delta) is NCQSymTensor
        y = f.at_t(1)
        delta = coproduct_nc(y)
        for apply_left in (True, False):
            triples = {}
            for (a, b), c in delta.terms.items():
                target, fixed = (a, b) if apply_left else (b, a)
                for first, second in ref_standardized_splits(target):
                    pieces = (first, second, fixed) if apply_left else (fixed, first, second)
                    _merge(triples, pieces, c)
            got = verify._triple_splits(delta, apply_left)
            assert list(got.items()) == list(triples.items())


def test_tpoly_coefficients_ride_along():
    f = expand_nc(random_labelled_digraph(random.Random(7), 4, min_n=4))
    assert any(isinstance(c, TPoly) for c in f.terms.values())
    assert coproduct_nc(f) == ref_coproduct_nc(f)
