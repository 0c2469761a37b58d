"""Differential checks of the display sort.

`_sort_key` defines each term-map class's display order one key at a
time; `_sorted(keys)` must list the keys in exactly that order. The
set-composition sort groups keys by their block sizes and the tensor
sort ranks the distinct legs once, so the draws cover empty and one-key
maps, mixed degrees, maps whose keys all share one size group, and maps
whose keys each have a group of their own.

The basis conversions that peel or collect in that order must give the
same coordinates, in the same dict order, as when the peel and the
collect sort with `_sort_key` itself.
"""

import contextlib
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from chromexp import combinat
from chromexp.chromatic import expand
from chromexp.ncqsym import (
    NCQSymExpr, NCQSymTensor, basis_ncsym, expand_nc, to_ncqsym_basis, to_ncsym_m)
from chromexp.qsym import QSymExpr, QSymTensor, basis_sym, to_qsym_basis, to_sym_basis
from chromexp.tpoly import TPoly
from chromexp.verify import random_digraph, random_labelled_digraph

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SIZES = st.lists(st.integers(min_value=1, max_value=3), max_size=4).map(tuple)


def set_compositions_with_sizes(sizes):
    """Set compositions of [sum(sizes)] whose blocks have these sizes."""
    bounds = [0]
    for size in sizes:
        bounds.append(bounds[-1] + size)
    return st.permutations(range(1, bounds[-1] + 1)).map(
        lambda order: tuple(tuple(sorted(order[a:b])) for a, b in zip(bounds, bounds[1:])))


COMPOSITIONS = st.lists(st.integers(min_value=1, max_value=4), max_size=5).map(tuple)
# per class: keys of mixed degrees and groups, keys of one group, keys
# of one group each (for compositions, a group is a degree)
KEY_LISTS = {
    QSymExpr: [
        st.lists(COMPOSITIONS, unique=True, max_size=40),
        st.integers(min_value=0, max_value=7).flatmap(lambda n: st.lists(
            st.sampled_from(list(combinat.compositions(n))), unique=True, max_size=40)),
        st.lists(COMPOSITIONS, unique_by=sum, max_size=12),
    ],
    NCQSymExpr: [
        st.lists(SIZES.flatmap(set_compositions_with_sizes), unique=True, max_size=40),
        SIZES.flatmap(lambda sizes: st.lists(
            set_compositions_with_sizes(sizes), unique=True, max_size=40)),
        st.lists(SIZES, unique=True, max_size=12).flatmap(
            lambda groups: st.tuples(*map(set_compositions_with_sizes, groups)).map(list)),
    ],
}


def reference_sorted(cls, keys):
    return sorted(keys, key=cls._sort_key)


def pairs_of(legs):
    """Distinct pairs of the drawn legs, so that legs repeat across pairs."""
    if not legs:
        return st.just([])
    leg = st.sampled_from(legs)
    return st.lists(st.tuples(leg, leg), unique=True, max_size=40)


def test_empty_and_one_key_maps():
    for cls, key in ((QSymExpr, (2, 1)), (NCQSymExpr, ((2,), (1, 3))),
                     (QSymTensor, ((1,), ())), (NCQSymTensor, ((), ((1,),)))):
        assert cls._sorted({}) == cls._sorted([]) == []
        assert cls._sorted({key: 1}) == [key]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([QSymExpr, NCQSymExpr]), st.integers(0, 2))
def test_leg_sort_matches_the_sort_key(data, cls, mode):
    keys = data.draw(KEY_LISTS[cls][mode])
    expected = reference_sorted(cls, keys)
    assert cls._sorted(keys) == expected
    assert cls._sorted(dict.fromkeys(keys, 1)) == expected
    for key in keys[:3]:
        assert cls._sorted([key]) == [key]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([QSymTensor, NCQSymTensor]), st.integers(0, 2))
def test_tensor_sort_matches_the_sort_key(data, cls, mode):
    legs = data.draw(KEY_LISTS[cls._leg][mode])
    pairs = data.draw(pairs_of(legs))
    expected = reference_sorted(cls, pairs)
    assert cls._sorted(pairs) == expected
    assert cls._sorted(dict.fromkeys(pairs, 1)) == expected


@contextlib.contextmanager
def sorting_by_the_sort_key(*classes):
    """Within the block, the classes' peel and collect sort with
    `_sort_key` itself."""
    saved = [(cls, cls.__dict__["_sorted"]) for cls in classes]
    try:
        for cls in classes:
            cls._sorted = staticmethod(lambda keys, cls=cls: reference_sorted(cls, keys))
        yield
    finally:
        for cls, hook in saved:
            cls._sorted = hook


def outcome(fn, *args):
    """A call's coordinates as a list of items, or its error as text."""
    try:
        return ("value", list(fn(*args).items()))
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_as_with_the_sort_key(fn, *args):
    got = outcome(fn, *args)
    with sorting_by_the_sort_key(QSymExpr, NCQSymExpr):
        assert outcome(fn, *args) == got


def perturbed(f, rng):
    """f with one coefficient raised by one, which breaks its symmetry
    unless the term's fiber is the term alone."""
    if not f.terms:
        return f
    key = rng.choice(reference_sorted(type(f), f.terms))
    return f + type(f)({key: 1})


COEFFS = [1, -2, Fraction(3, 2), TPoly((0, 1)), TPoly((1, -1, 2))]


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.booleans())
def test_basis_conversions_match_the_reference_order(seed, perturb):
    rng = random.Random(seed)
    # sums of two expansions, which may differ in degree
    f = expand(random_digraph(rng, 5, min_n=3)) + expand(random_digraph(rng, 4, min_n=2))
    y = (expand_nc(random_labelled_digraph(rng, 4, min_n=2))
         + expand_nc(random_labelled_digraph(rng, 3, min_n=1)))
    for kind in ("F", "Fbar"):
        assert_as_with_the_sort_key(to_qsym_basis, f, kind)
        assert_as_with_the_sort_key(to_ncqsym_basis, y, kind)
    degrees = {rng.randint(0, 5), rng.randint(0, 4)}
    sym = QSymExpr.sum_of(basis_sym(rng.choice(["m", "h", "p"]), lam).scale(rng.choice(COEFFS))
                          for n in degrees for lam in combinat.partitions(n)
                          if rng.random() < 0.7)
    ncsym = NCQSymExpr.sum_of(basis_ncsym("m", pi).scale(rng.choice(COEFFS))
                              for n in degrees for pi in combinat.set_partitions(n)
                              if rng.random() < 0.7)
    if perturb:
        sym, ncsym = perturbed(sym, rng), perturbed(ncsym, rng)
    for kind in ("m", "h", "s"):
        assert_as_with_the_sort_key(to_sym_basis, sym, kind)
    assert_as_with_the_sort_key(to_ncsym_m, ncsym)
    assert_as_with_the_sort_key(to_ncsym_m, y)
