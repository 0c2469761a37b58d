"""Tests of the two sums on the Hopf check path.

`chromatic.closed_subset_sum` expands each distinct vertex set once per
call, whether it appears as a closed subset or as the complement of
one; the digraph-side coproducts it builds must still equal the
algebra-side coproducts of the whole expansion. `ncqsym.rho` totals the
coefficients of each shape in one step through `tpoly.add_all`; it must
give the value and the coefficient types of the term-by-term fold of
`_merge` (reference.fold_rho), and `add_all` those of the left fold of
`+`.
"""

import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chromexp import chromatic, graph as gr, ncqsym
from chromexp.chromatic import coproduct_digraph, expand
from chromexp.graph import LEQ, LT, NEQ, closed_subsets, parse_dsl
from chromexp.ncqsym import NCQSymExpr, coproduct_nc, coproduct_nc_digraph, expand_nc, rho
from chromexp.qsym import coproduct
from chromexp.tpoly import TPoly, add_all
from chromexp.verify import random_digraph, random_labelled_digraph

from reference import fold_rho, relabel

T = TPoly.t_power(1)

# ---------------------------------------------------------------------------
# the memo of closed_subset_sum


def distinct_parts(g) -> int:
    """The number of distinct sets among S and its complement, over the
    closed subsets S of g."""
    every = frozenset(range(g.n))
    return len({part for s in closed_subsets(g) for part in (frozenset(s), every - set(s))})


def counted(monkeypatch, module, name) -> list:
    """Record the argument of every call to module.name from now on."""
    calls, real = [], getattr(module, name)

    def counting(arg):
        calls.append(arg)
        return real(arg)

    monkeypatch.setattr(module, name, counting)
    return calls


def recoloured(g, kind):
    return gr.make(g.n, [(u, v, kind) for u, v, _ in g.edge_list()])


def seeded_digraphs(seed: int, count: int, max_n: int):
    """Seeded digraphs of up to max_n vertices, each as drawn and
    recoloured all dashed, all solid and all double, and the edgeless
    digraph on as many vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_digraph(rng, max_n)
        yield g
        yield gr.make(g.n)
        for kind in (NEQ, LT, LEQ):
            yield recoloured(g, kind)


@pytest.mark.parametrize("dsl, parts, closed", [
    ("U(C(1),C(1),C(1),C(1))", 16, 16),
    ("P(4)", 8, 5),
], ids=["edgeless-4", "solid-path-4"])
def test_each_distinct_part_is_expanded_once(monkeypatch, dsl, parts, closed):
    g = parse_dsl(dsl)
    assert distinct_parts(g) == parts and len(closed_subsets(g)) == closed
    commutative = counted(monkeypatch, chromatic, "expand")
    labelled = counted(monkeypatch, ncqsym, "expand_nc")
    coproduct_digraph(g)
    coproduct_nc_digraph(gr.labelled(g))
    assert len(commutative) == len(labelled) == parts < 2 * closed


def test_seeded_digraphs_expand_their_distinct_parts_once(monkeypatch):
    commutative = counted(monkeypatch, chromatic, "expand")
    labelled = counted(monkeypatch, ncqsym, "expand_nc")
    for g in seeded_digraphs(seed=25, count=8, max_n=5):
        del commutative[:], labelled[:]
        coproduct_digraph(g)
        coproduct_nc_digraph(gr.labelled(g))
        assert len(commutative) == len(labelled) == distinct_parts(g)


def test_the_memo_lives_for_one_call(monkeypatch):
    g = parse_dsl("U(K(2),P(2))")
    lg = gr.labelled(g, [3, 1, 4, 2])
    commutative = counted(monkeypatch, chromatic, "expand")
    labelled = counted(monkeypatch, ncqsym, "expand_nc")
    first, first_nc = coproduct_digraph(g), coproduct_nc_digraph(lg)
    assert len(commutative) == len(labelled) == distinct_parts(g)
    assert (coproduct_digraph(g), coproduct_nc_digraph(lg)) == (first, first_nc)
    assert len(commutative) == len(labelled) == 2 * distinct_parts(g)


def test_digraph_side_coproducts_match_the_algebra_side():
    rng = random.Random(2025)
    for g in seeded_digraphs(seed=2026, count=12, max_n=6):
        assert coproduct_digraph(g) == coproduct(expand(g).at_t(1))
        labels = list(range(1, g.n + 1))
        rng.shuffle(labels)
        lg = gr.labelled(g, labels)
        assert coproduct_nc_digraph(lg) == coproduct_nc(expand_nc(lg).at_t(1))


# ---------------------------------------------------------------------------
# the one-step total


SCALARS = st.integers(-3, 3) | st.fractions(min_value=-2, max_value=2, max_denominator=4)
POLYS = st.lists(SCALARS, max_size=4).map(TPoly)
COEFFS = st.lists(SCALARS | POLYS, min_size=1, max_size=7)


def assert_same_coefficient(got, want):
    """Equal in value and type; a TPoly also in its trimmed tuple."""
    assert type(got) is type(want) and got == want
    if isinstance(want, TPoly):
        assert got.coeffs == want.coeffs


def fold(values):
    return functools.reduce(operator.add, values)


@pytest.mark.parametrize("values", [
    [1, 2, -4],
    [Fraction(1, 2), 3, Fraction(-1, 3)],
    [Fraction(1, 2), Fraction(1, 2)],
    [TPoly((1, 2)), TPoly((0, 0, 5)), TPoly((3,))],
    [2, TPoly((0, 1)), Fraction(1, 3)],
    [TPoly((0, 1)), 2, TPoly((0, -1))],
], ids=["ints", "fractions", "fractions-to-whole", "tpolys-of-three-lengths",
        "mixed", "mixed-cancelling-columns"])
def test_add_all_is_the_left_fold_of_plus(values):
    assert_same_coefficient(add_all(values), fold(values))


@pytest.mark.parametrize("values", [
    [1, -1],
    [Fraction(1, 2), 1, Fraction(-3, 2)],
    [TPoly((1, 2)), TPoly((-1, -2))],
    [TPoly((0, 1)), 1, TPoly((-1, -1))],
], ids=["ints", "fractions", "tpolys", "mixed"])
def test_add_all_of_a_cancelling_list_is_falsy(values):
    total = add_all(values)
    assert not total
    assert_same_coefficient(total, fold(values))


@pytest.mark.parametrize("value", [7, Fraction(-2, 3), TPoly((0, 1)), TPoly((1, 0, 3))])
def test_add_all_of_one_value_returns_that_object(value):
    assert add_all([value]) is value


@settings(max_examples=300, deadline=None)
@given(COEFFS)
def test_add_all_matches_the_fold_on_drawn_lists(values):
    assert_same_coefficient(add_all(values), fold(values))


# ---------------------------------------------------------------------------
# rho


def assert_rho_is_the_fold(f, same_order=True):
    got, want = rho(f), fold_rho(f)
    assert got == want and set(got.terms) == set(want.terms)
    for alpha, coeff in want.terms.items():
        assert_same_coefficient(got.terms[alpha], coeff)
    if same_order:
        assert list(got.terms) == list(want.terms)


def test_rho_of_graded_expansions_and_their_products():
    rng = random.Random(7)
    for _ in range(12):
        lg1, lg2 = random_labelled_digraph(rng, 4), random_labelled_digraph(rng, 4)
        f, g = expand_nc(lg1), expand_nc(lg2)
        for x in (f, g, f * g, f.at_t(1) * g.at_t(1)):
            assert_rho_is_the_fold(x)
        for x in (f.scale(Fraction(2, 3)), (f * g).scale(Fraction(-1, 5)),
                  f.scale(Fraction(3, 7)).at_t(1), f.at_t(Fraction(1, 2))):
            assert_rho_is_the_fold(x)


def test_rho_of_cancelling_differences():
    rng = random.Random(8)
    for _ in range(12):
        lg = random_labelled_digraph(rng, 5)
        f = expand_nc(lg)
        diff = f - f.scale(T)
        assert_rho_is_the_fold(diff)
        assert not rho(diff).at_t(1) and not rho(diff.at_t(1))
        # relabelling keeps rho of the expansion: every shape cancels
        labels = list(range(1, lg.graph.n + 1))
        rng.shuffle(labels)
        other = f - expand_nc(relabel(lg, labels))
        assert_rho_is_the_fold(other, same_order=False)
        assert not rho(other)


def test_rho_of_the_empty_expression_and_the_empty_key():
    assert_rho_is_the_fold(NCQSymExpr())
    assert not rho(NCQSymExpr()).terms
    one = NCQSymExpr.one()
    assert_rho_is_the_fold(one)
    assert rho(one).terms == {(): 1}
    assert_rho_is_the_fold(one.scale(T) + NCQSymExpr({((1,), (2,)): 1, ((2,), (1,)): 2}))


def test_rho_of_mixed_scalar_and_tpoly_coefficients():
    f = NCQSymExpr({
        ((1,), (2,)): 1, ((2,), (1,)): T,                     # 1 + t
        ((1, 2),): Fraction(1, 2),                            # one coefficient
        ((1,), (2, 3)): TPoly((0, 2)), ((2,), (1, 3)): 3,
        ((3,), (1, 2)): Fraction(-1, 4),                      # 3 - 1/4 + 2t
        ((1, 2), (3,)): 2, ((1, 3), (2,)): TPoly((-2,)),      # cancels to zero
        ((1,), (2,), (3,)): TPoly((0, 0, 1)),
    })
    assert_rho_is_the_fold(f)
    got = rho(f).terms
    assert got[(1, 1)].coeffs == (1, 1) and got[(2,)] == Fraction(1, 2)
    assert got[(1, 2)].coeffs == (Fraction(11, 4), 2) and (2, 1) not in got
