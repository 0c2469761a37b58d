"""Differential tests of the folded cores against the code they replaced.

`TermMap.collect` now reads the fiber coordinates of `r_regroup`,
`r_regroup_tensor`, `to_ncsym_m` and `is_symmetric`, and
`combinat.tableau_contents` counts the tableaux of `_immaculate_contents`
(the reference `_ssyt_contents`, which counts Kostka numbers by
horizontal strips for `basis_sym`'s tests, is checked here too). The earlier, separate implementations are
kept here, and only here, as references: results must agree, and so
must the type, fiber index and details of every error.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from chromexp import verify
from chromexp.chromatic import expand
from chromexp.combinat import (
    INFINITY,
    RSetComposition,
    bar_shuffle,
    compositions,
    distinct_rearrangements,
    partitions,
    r_set_compositions,
    r_split,
    set_composition_sort_key,
    set_partition,
    set_partitions,
)
from chromexp.ncqsym import (
    NCQSymExpr,
    NCQSymTensor,
    RegroupError,
    basis_ncr,
    basis_ncsym,
    coproduct_nc,
    expand_nc,
    r_regroup,
    r_regroup_tensor,
    to_ncsym_m,
)
from chromexp.qsym import QSymExpr, is_symmetric
from chromexp.verify import _immaculate_contents
from reference import _ssyt_contents, sort_to_partition

# ---------------------------------------------------------------------------
# the earlier implementations


def ref_r_regroup(f, r):
    remaining = dict(f.terms)
    out = {}
    while remaining:
        psi = min(remaining, key=set_composition_sort_key)
        phi, pi = r_split(psi, r)
        coeff = remaining[psi]
        fiber = bar_shuffle(phi, pi)
        bad = {member: remaining.get(member, 0) for member in fiber
               if remaining.get(member, 0) != coeff}
        if bad:
            raise RegroupError((phi, pi), bad)
        for member in fiber:
            remaining.pop(member, None)
        out[RSetComposition(r, phi, pi)] = coeff
    return out


def ref_r_regroup_tensor(t, r):
    remaining = dict(t.terms)
    out = {}
    while remaining:
        psi1, psi2 = min(remaining, key=lambda k: (set_composition_sort_key(k[0]),
                                                   set_composition_sort_key(k[1])))
        s1, s2 = r_split(psi1, r), r_split(psi2, r)
        coeff = remaining[(psi1, psi2)]
        fiber = [(m1, m2) for m1 in bar_shuffle(*s1) for m2 in bar_shuffle(*s2)]
        bad = {member: remaining.get(member, 0) for member in fiber
               if remaining.get(member, 0) != coeff}
        if bad:
            raise RegroupError((s1, s2), bad)
        for member in fiber:
            remaining.pop(member, None)
        out[(RSetComposition(r, *s1), RSetComposition(r, *s2))] = coeff
    return out


def ref_to_ncsym_m(f):
    remaining = dict(f.terms)
    out = {}
    while remaining:
        phi = min(remaining, key=set_composition_sort_key)
        pi = set_partition(phi)
        coeff = remaining[phi]
        for order in itertools.permutations(pi):
            if remaining.get(order, 0) != coeff:
                raise ValueError(f"not symmetric in noncommuting variables at {pi}")
            remaining.pop(order, None)
        out[pi] = coeff
    return out


def ref_is_symmetric(f):
    for alpha, coeff in f.terms.items():
        for other in distinct_rearrangements(sort_to_partition(alpha)):
            if f.terms.get(other, 0) != coeff:
                return False
    return True


def ref_tableau_counts(shape, admissible):
    n = sum(shape)
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    counts = {}
    if n == 0:
        return {(): 1}
    filling = {}

    def rec(idx):
        if idx == len(cells):
            content = [0] * max(filling.values())
            for v in filling.values():
                content[v - 1] += 1
            if all(content):
                key = tuple(content)
                counts[key] = counts.get(key, 0) + 1
            return
        i, j = cells[idx]
        for value in range(1, n + 1):
            if admissible(filling, i, j, value):
                filling[(i, j)] = value
                rec(idx + 1)
                del filling[(i, j)]

    rec(0)
    return counts


def ref_ssyt_contents(lam):
    def admissible(filling, i, j, value):
        if j > 0 and value < filling[(i, j - 1)]:
            return False
        if i > 0 and value <= filling[(i - 1, j)]:
            return False
        return True

    return ref_tableau_counts(lam, admissible)


def ref_immaculate_contents(alpha, row_strict):
    def admissible(filling, i, j, value):
        if j > 0:
            prev = filling[(i, j - 1)]
            if (value <= prev) if row_strict else (value < prev):
                return False
        if i > 0 and j == 0:
            above = filling[(i - 1, 0)]
            if (value < above) if row_strict else (value <= above):
                return False
        return True

    return ref_tableau_counts(alpha, admissible)


# ---------------------------------------------------------------------------
# comparison


def outcome(fn, *args):
    """What a call gives: its coordinates in order, or the type, text and
    attributes of the error it raises."""
    try:
        return ("value", list(fn(*args).items()))
    except RegroupError as err:
        return ("RegroupError", str(err), err.fiber_index, err.details)
    except ValueError as err:
        return (type(err).__name__, str(err))


def perturbed(f, rng):
    """f with one coefficient raised by one, which breaks the fiber of
    that term unless the fiber is the term alone."""
    if not f.terms:
        return f
    key = rng.choice(sorted(f.terms, key=f._sort_key))
    return f + type(f)({key: 1})


def ncr_sum(draw, r, n):
    """An integer combination of r-level M and Fbar elements of degree n."""
    rscs = list(r_set_compositions(n, r))
    picks = draw(st.lists(st.tuples(st.sampled_from(rscs), st.sampled_from(("M", "Fbar")),
                                    st.integers(min_value=-3, max_value=3)),
                          max_size=4))
    out = NCQSymExpr()
    for rsc, kind, coeff in picks:
        if coeff:
            out = out + basis_ncr(kind, rsc.phi, rsc.pi, r).scale(coeff)
    return out


R_VALUES = st.sampled_from((1, 2, 3, INFINITY))


@settings(max_examples=60, deadline=None)
@given(st.data(), R_VALUES, st.integers(min_value=0, max_value=4),
       st.booleans(), st.integers(min_value=0, max_value=2**32))
def test_r_regroup_matches_the_reference_on_basis_sums(data, r, n, perturb, seed):
    f = ncr_sum(data.draw, r, n)
    if perturb:
        f = perturbed(f, random.Random(seed))
    assert outcome(r_regroup, f, r) == outcome(ref_r_regroup, f, r)
    assert outcome(to_ncsym_m, f) == outcome(ref_to_ncsym_m, f)


@settings(max_examples=60, deadline=None)
@given(st.data(), R_VALUES, st.integers(min_value=1, max_value=3),
       st.booleans(), st.integers(min_value=0, max_value=2**32))
def test_r_regroup_tensor_matches_the_reference_on_coproducts(data, r, n, perturb, seed):
    f = ncr_sum(data.draw, r, n)
    t = coproduct_nc(f)
    if perturb:
        t = perturbed(t, random.Random(seed))
    assert outcome(r_regroup_tensor, t, r) == outcome(ref_r_regroup_tensor, t, r)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), R_VALUES, st.booleans())
def test_folds_match_the_reference_on_random_digraphs(seed, r, perturb):
    rng = random.Random(seed)
    lg = verify.random_labelled_digraph(rng, 4)
    y = expand_nc(lg).at_t(1)
    t = coproduct_nc(y)
    g = verify.random_digraph(rng, 5)
    f = expand(g)
    if perturb:
        y, t, f = perturbed(y, rng), perturbed(t, rng), perturbed(f, rng)
    assert outcome(r_regroup, y, r) == outcome(ref_r_regroup, y, r)
    assert outcome(r_regroup_tensor, t, r) == outcome(ref_r_regroup_tensor, t, r)
    assert outcome(to_ncsym_m, y) == outcome(ref_to_ncsym_m, y)
    assert is_symmetric(f) == ref_is_symmetric(f)
    assert is_symmetric(f.at_t(1)) == ref_is_symmetric(f.at_t(1))


def test_fibers_that_hold_and_fibers_that_break():
    """Fixed cases on both sides of each check, so that neither outcome
    is left to the draw."""
    rng = random.Random(5)
    for pi in set_partitions(3):
        m = basis_ncsym("m", pi)
        assert outcome(to_ncsym_m, m) == outcome(ref_to_ncsym_m, m) == ("value", [(pi, 1)])
        if len(m.terms) > 1:
            broken = perturbed(m, rng)
            assert outcome(to_ncsym_m, broken)[0] == "ValueError"
            assert outcome(to_ncsym_m, broken) == outcome(ref_to_ncsym_m, broken)
    for rsc in r_set_compositions(3, 2):
        m = basis_ncr("M", rsc.phi, rsc.pi, 2)
        assert outcome(r_regroup, m, 2) == ("value", [(rsc, 1)])
        t = NCQSymTensor.of_legs(m, m)
        assert isinstance(t, NCQSymTensor)
        assert outcome(r_regroup_tensor, t, 2) == ("value", [((rsc, rsc), 1)])
        if len(m.terms) > 1:
            broken = perturbed(m, rng)
            assert outcome(r_regroup, broken, 2)[0] == "RegroupError"
            assert outcome(r_regroup, broken, 2) == outcome(ref_r_regroup, broken, 2)
            broken = perturbed(t, rng)
            assert outcome(r_regroup_tensor, broken, 2)[0] == "RegroupError"
            assert (outcome(r_regroup_tensor, broken, 2)
                    == outcome(ref_r_regroup_tensor, broken, 2))
    assert is_symmetric(QSymExpr({(1, 2): 1, (2, 1): 1}))
    assert not is_symmetric(QSymExpr({(1, 2): 1, (2, 1): 2}))


def test_tableau_counts_match_the_reference_up_to_degree_six():
    for n in range(7):
        for lam in partitions(n):
            assert _ssyt_contents(lam) == ref_ssyt_contents(lam), lam
        for alpha in compositions(n):
            for row_strict in (False, True):
                assert (_immaculate_contents(alpha, row_strict)
                        == ref_immaculate_contents(alpha, row_strict)), (alpha, row_strict)
