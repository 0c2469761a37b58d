"""Differential tests of the coproduct splits by packed-word filtering.

`combinat._standardized_splits` writes a key as its packed word and
filters it once per side, and shares one memo across the keys of a
coproduct: each word it splits off maps to the set composition it
spells, and each block to itself. Keys of more than 256 blocks take a
counting pass instead. The counting pass without a memo is kept here as
the reference: every split, and every coproduct built from them, must
be equal and come in the same order, whatever the memo has seen before.
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


def spelled(word):
    """The set composition a packed word spells, x in block word[x - 1]."""
    return tuple(tuple(x for x, v in enumerate(word, 1) if v == j)
                 for j in range(max(word) + 1))


def assert_memo_spells_its_words(memo):
    """Every word maps to the set composition it spells, with no empty
    block, and every block to itself; the blocks of each spelled set
    composition are the memo's own, so equal blocks are one object."""
    for key, value in memo.items():
        if isinstance(key, bytes):
            assert value == spelled(key) and all(value)
            assert all(memo[b] is b for b in value)
        else:
            assert isinstance(key, tuple) and value is key


@st.composite
def set_compositions(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=max(n - 1, 1)))) & set(range(1, n))
    bounds = [0, *sorted(cuts), n] if n else [0]
    return tuple(tuple(sorted(order[a:b])) for a, b in zip(bounds, bounds[1:]))


# Keys whose sides repeat across keys, within a key, and with other block
# counts: ((1,),) is the left side of the first and the right side of the
# second, and the block (1,) turns up in many sides.
PAIR_LIKE = [((1,), (2,), (3,)), ((2,), (1,), (3,)),
             ((2, 6), (1, 3, 4, 5, 7)), ((1, 3, 5, 7), (4, 6), (2,)),
             ((1,), (2,), (3, 4, 5, 6, 7)), ((2, 6), (1,), (3, 4, 5, 7))]


@settings(max_examples=200, deadline=None)
@given(st.lists(set_compositions(), max_size=12))
def test_one_memo_across_keys_gives_the_counting_pass(keys):
    memo = {}
    for phi in keys + PAIR_LIKE + keys:
        assert list(combinat._standardized_splits(phi, memo)) \
            == list(ref_standardized_splits(phi))
    assert_memo_spells_its_words(memo)


@settings(max_examples=100, deadline=None)
@given(set_compositions())
def test_one_argument_and_a_fresh_memo_still_work(phi):
    want = list(ref_standardized_splits(phi))
    assert combinat._standardized_splits(phi) == want
    assert NCQSymExpr._splits(phi) == want
    assert NCQSymExpr._splits(phi, {}) == want


def test_pair_like_blocks_stay_blocks():
    memo = {}
    splits = [combinat._standardized_splits(phi, memo) for phi in PAIR_LIKE]
    for phi, got in zip(PAIR_LIKE, splits):
        assert got == list(ref_standardized_splits(phi))
    assert memo[bytes([0])] == ((1,),) and memo[bytes([0, 1])] == ((1,), (2,))
    assert memo[bytes([1, 0, 0])] == ((2, 3), (1,))  # (4, 6), (2,) of the fourth key
    assert splits[0][1][0] is splits[1][2][1] is memo[bytes([0])]
    assert_memo_spells_its_words(memo)


def test_a_single_long_key_leaves_no_table():
    phi = tuple((x,) for x in range(1, 1001))
    memo = {}
    splits = list(combinat._standardized_splits(phi, memo))
    assert len(splits) == 1001
    for i in (0, 1, 500, 999, 1000):
        assert splits[i] == (phi[:i], tuple((x,) for x in range(1, 1001 - i)))
    # the counting pass keeps no word, only the blocks, each one object
    assert memo == {(x,): (x,) for x in range(1, 1001)}
    assert splits[500][1][0] is splits[999][0][0] is memo[(1,)]


def scrambled_key(blocks, rng):
    """A set composition of `blocks` blocks, sizes 1 to 3, in a shuffled
    ground order."""
    sizes = [rng.randint(1, 3) for _ in range(blocks)]
    order = list(range(1, sum(sizes) + 1))
    rng.shuffle(order)
    starts = list(itertools.accumulate(sizes, initial=0))
    return tuple(tuple(sorted(order[a:b])) for a, b in zip(starts, starts[1:]))


def test_keys_at_the_word_limit_split_like_the_counting_pass():
    rng = random.Random(256)
    for blocks in (255, 256, 257):
        phi = scrambled_key(blocks, rng)
        memo = {}
        assert combinat._standardized_splits(phi, memo) == list(ref_standardized_splits(phi))
        assert_memo_spells_its_words(memo)
        # up to 256 blocks every side is a word; past it, none is
        words = sum(isinstance(key, bytes) for key in memo)
        assert (words > 0) == (blocks <= 256)


def test_the_commutative_splits_ignore_a_memo():
    memo = {}
    assert QSymExpr._splits((2, 1), memo) == QSymExpr._splits((2, 1)) \
        == [((), (2, 1)), ((2,), (1,)), ((2, 1), ())]
    assert memo == {}


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
