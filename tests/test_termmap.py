"""Differential checks of the trusted term-map constructor.

Every algebra operation builds its result with `TermMap._of`, which does
not look at the keys. Each result must equal what the validating public
constructor builds from the same terms, and hold no zero coefficient:
then every key a trusted path made would have passed the public check.
The lean combinatorial cores behind those operations, and the basis
elements the nc basis peel builds, are checked against the validating
functions they replace, `TermMap.sum_of` against the fold of `+`, and
`TermMap.at_t` against evaluating term by term.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chromexp import combinat
from chromexp.chromatic import expand
from chromexp.graph import labelled
from chromexp.ncqsym import (
    NCQSymExpr, NCQSymTensor, _basis_nc, basis_nc, coproduct_nc, expand_nc, rho)
from chromexp.qsym import QSymExpr, QSymTensor, coproduct
from chromexp.tpoly import TPoly, evaluate
from chromexp.verify import random_digraph, random_labelled_digraph

T = TPoly.t_power(1)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def in_domain(c):
    """A nonzero exact coefficient: int but not bool, Fraction, or TPoly."""
    return (type(c) is int or isinstance(c, (Fraction, TPoly))) and bool(c)


def assert_canonical(x):
    assert type(x)(x.terms) == x
    assert all(in_domain(c) for c in x.terms.values())
    # specializing t leaves plain scalars only
    assert all(in_domain(c) and not isinstance(c, TPoly) for c in x.at_t(1).terms.values())


def ring_results(f, g):
    """Every ring operation on f and g, including those that cancel."""
    return [f * g, f + g, f - g, f - f, -f, f.scale(0), f.scale(T), 3 * f,
            f.at_t(1), f.at_t(-1), (f - f.scale(T)).at_t(1)]


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_commutative_results_pass_the_public_check(seed):
    rng = random.Random(seed)
    g1, g2 = random_digraph(rng, 4, min_n=0), random_digraph(rng, 4, min_n=0)
    f1, f2 = expand(g1), expand(g2)
    d1, d2 = coproduct(f1), coproduct(f2.at_t(1))
    results = [f1, f2, f1.homogeneous_component(g1.n), d1, d2, QSymTensor.of_legs(f1, f2)]
    results += ring_results(f1, f2) + ring_results(d1, d2)
    for x in results:
        assert_canonical(x)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_noncommutative_results_pass_the_public_check(seed):
    rng = random.Random(seed)
    lg1 = random_labelled_digraph(rng, 3, min_n=0)
    lg2 = random_labelled_digraph(rng, 3, min_n=0)
    # labels off an initial segment, which expand_nc standardizes
    lg2 = labelled(lg2.graph, [3 * x for x in lg2.labels])
    y1, y2 = expand_nc(lg1), expand_nc(lg2)
    d1, d2 = coproduct_nc(y1), coproduct_nc(y2.at_t(1))
    results = [y1, y2, y1.homogeneous_component(lg1.graph.n), rho(y1), rho(y1 * y2),
               d1, d2, NCQSymTensor.of_legs(y1, y2)]
    results += ring_results(y1, y2) + ring_results(d1, d2)
    for x in results:
        assert_canonical(x)


@st.composite
def set_compositions_of_n(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=max(n - 1, 1)),
                               max_size=max(n - 1, 0))) & set(range(1, n)))
    bounds = [0, *cuts, n] if n else [0]
    return tuple(tuple(sorted(order[a:b])) for a, b in zip(bounds, bounds[1:]))


@settings(max_examples=200, deadline=None)
@given(set_compositions_of_n())
def test_standardized_splits_match_standardize(phi):
    std = combinat.standardize_set_composition
    assert list(combinat._standardized_splits(phi)) == [
        (std(phi[:i]), std(phi[i:])) for i in range(len(phi) + 1)]


@settings(max_examples=100, deadline=None)
@given(set_compositions_of_n(max_n=4), set_compositions_of_n(max_n=4))
def test_lean_shifted_quasi_shuffle_is_canonical_and_repeat_free(phi, psi):
    out = combinat._shifted_quasi_shuffle(phi, psi)
    assert len(out) == len(set(out))
    assert all(combinat.set_composition(gamma) == gamma for gamma in out)
    assert set(out) == combinat.shifted_quasi_shuffle(phi, psi)


def test_peeled_nc_basis_elements_equal_the_validated_ones():
    for n in range(6):
        for psi in combinat.set_compositions(n):
            for kind in ("F", "Fbar"):
                trusted = _basis_nc(kind, psi)
                assert trusted == basis_nc(kind, psi)
                assert_canonical(trusted)


def test_lean_corruptions_match_the_public_ones():
    for n in range(6):
        for phi in combinat.set_compositions(n):
            lean = combinat._corruptions(phi)
            assert len(lean) == len(set(lean))
            assert set(lean) == combinat.corruptions(phi)


# ---------------------------------------------------------------------------
# sum_of against the fold of +

QSYM_KEYS = [alpha for n in range(4) for alpha in combinat.compositions(n)]
NC_KEYS = [phi for n in range(4) for phi in combinat.set_compositions(n)]
KEY_POOLS = [
    (QSymExpr, QSYM_KEYS),
    (NCQSymExpr, NC_KEYS),
    (QSymTensor, [(a, b) for a in QSYM_KEYS[:5] for b in QSYM_KEYS[:5]]),
    (NCQSymTensor, [(a, b) for a in NC_KEYS[:5] for b in NC_KEYS[:5]]),
]
COEFFS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.lists(st.integers(min_value=-2, max_value=2), max_size=3).map(TPoly))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sum_of_equals_the_fold_of_plus(data):
    cls, keys = data.draw(st.sampled_from(KEY_POOLS))
    exprs = data.draw(st.lists(
        st.lists(st.tuples(st.sampled_from(keys), COEFFS), max_size=6).map(cls), max_size=5))
    # negated copies cancel terms, some of them to zero
    exprs += [-e for e in data.draw(st.lists(st.sampled_from(exprs), max_size=3))] if exprs else []
    fold = cls()
    for e in exprs:
        fold = fold + e
    got = cls.sum_of(iter(exprs))
    assert type(got) is cls
    # the same terms, coefficient types and dict order
    assert list(got.terms.items()) == list(fold.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in fold.terms.values()]
    assert_canonical(got)


def test_sum_of_nothing_and_of_a_cancelling_pair_is_zero():
    f = QSymExpr({(1, 2): T, (3,): Fraction(1, 2)})
    y = NCQSymExpr({((1,), (2,)): 2})
    for x in (f, y, QSymTensor.of_legs(f, f), NCQSymTensor.of_legs(y, y)):
        cls = type(x)
        assert cls.sum_of([]).terms == {}
        assert cls.sum_of([x, -x]).terms == {}
        assert cls.sum_of([x]) == x
        assert cls.sum_of([x, x]) == x.scale(2)


def at_t_term_by_term(x, t) -> list:
    return [(k, v) for k, c in x.terms.items() if (v := evaluate(c, t))]


@pytest.mark.parametrize("t", [1, -1, 0, 2, Fraction(-1, 2)])
def test_at_t_evaluates_each_shared_coefficient_as_term_by_term(t):
    """Terms share coefficient objects, some equal but distinct, and
    some vanish at t = -1, 1, 2 or -1/2; the result keeps the term
    order and drops every term that became 0."""
    shared = [TPoly((1, 1)), TPoly((1, 1)), TPoly((2, -3, 1)), TPoly((Fraction(1, 2), 1)),
              T, 3, Fraction(-2, 3)]
    rng = random.Random(7)
    keys = combinat.compositions(6)
    f = QSymExpr._of({alpha: rng.choice(shared) for alpha in keys})
    y = expand_nc(labelled(random_digraph(random.Random(3), 5, min_n=5)))
    for x in (f, y, y.scale(TPoly((1, 1))), QSymTensor.of_legs(f, f)):
        got = x.at_t(t)
        assert type(got) is type(x)
        assert list(got.terms.items()) == at_t_term_by_term(x, t)
        assert_canonical(got)
