"""Differential tests of the one algebra core against the code it replaced.

Both leg classes now share one product (`TermMap.__mul__`), one tensor
product (`TensorMap.__mul__`), one coproduct loop, and one `one`,
`degrees` and `homogeneous_component`; each leg class supplies only its
key format: `_shuffle_groups`, `_splits` and `_size`. Both shuffles run on one
iterative core, `combinat._quasi_shuffles`. The earlier, separate
implementations are kept here, and only here, as references: the paths
must come in the same order, and every result must be equal.

The counting polynomial is now built in one pass; its earlier per-term
construction is kept here as its reference too.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from chromexp import combinat, graph as gr
from chromexp.chromatic import expand
from chromexp.combinat import _quasi_shuffles, _shifted_quasi_shuffle, quasi_shuffle
from chromexp.ncqsym import NCQSymExpr, NCQSymTensor, coproduct_nc, expand_nc
from chromexp.qsym import (
    QSymExpr, QSymTensor, RationalPoly, _fraction_or_int, _merge, chromatic_polynomial,
    coproduct)
from chromexp.tpoly import TPoly, evaluate
from chromexp.verify import random_digraph, random_labelled_digraph

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
COMPOSITIONS = st.lists(st.integers(min_value=1, max_value=3), max_size=5).map(tuple)

# ---------------------------------------------------------------------------
# the earlier implementations


def ref_quasi_shuffle(alpha, beta):
    alpha, beta = tuple(alpha), tuple(beta)
    out = {}

    def rec(a, b, prefix):
        if not a:
            key = prefix + b
            out[key] = out.get(key, 0) + 1
            return
        if not b:
            key = prefix + a
            out[key] = out.get(key, 0) + 1
            return
        rec(a[1:], b, prefix + (a[0],))
        rec(a, b[1:], prefix + (b[0],))
        rec(a[1:], b[1:], prefix + (a[0] + b[0],))

    rec(alpha, beta, ())
    return out


def ref_paths(a, b):
    """The recursion above, listing its paths in the order it takes them."""
    out = []

    def rec(a, b, prefix):
        if not a:
            out.append(prefix + b)
            return
        if not b:
            out.append(prefix + a)
            return
        rec(a[1:], b, prefix + (a[0],))
        rec(a, b[1:], prefix + (b[0],))
        rec(a[1:], b[1:], prefix + (a[0] + b[0],))

    rec(a, b, ())
    return out


def ref_shifted_quasi_shuffle(phi, psi):
    n = sum(len(b) for b in phi)
    return ref_paths(phi, tuple(tuple(x + n for x in b) for b in psi))


def ref_qsym_mul(f, g):
    out = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            coeff = ca * cb
            for gamma, mult in ref_quasi_shuffle(a, b).items():
                _merge(out, gamma, coeff * mult)
    return QSymExpr._of(out)


def ref_qsym_tensor_mul(s, t):
    out = {}
    for (a1, a2), ca in s.terms.items():
        for (b1, b2), cb in t.terms.items():
            coeff = ca * cb
            left = ref_quasi_shuffle(a1, b1)
            right = ref_quasi_shuffle(a2, b2)
            for g1, m1 in left.items():
                for g2, m2 in right.items():
                    _merge(out, (g1, g2), coeff * (m1 * m2))
    return QSymTensor._of(out)


def ref_nc_mul(f, g):
    out = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            coeff = ca * cb
            for gamma in ref_shifted_quasi_shuffle(a, b):
                _merge(out, gamma, coeff)
    return NCQSymExpr._of(out)


def ref_nc_tensor_mul(s, t):
    out = {}
    for (a1, a2), ca in s.terms.items():
        for (b1, b2), cb in t.terms.items():
            coeff = ca * cb
            right = ref_shifted_quasi_shuffle(a2, b2)
            for g1 in ref_shifted_quasi_shuffle(a1, b1):
                for g2 in right:
                    _merge(out, (g1, g2), coeff)
    return NCQSymTensor._of(out)


def ref_coproduct(f):
    out = {}
    for alpha, coeff in f.terms.items():
        for i in range(len(alpha) + 1):
            _merge(out, (alpha[:i], alpha[i:]), coeff)
    return QSymTensor._of(out)


def ref_coproduct_nc(f):
    out = {}
    for phi, coeff in f.terms.items():
        for pair in combinat._standardized_splits(phi):
            _merge(out, pair, coeff)
    return NCQSymTensor._of(out)


def ref_size(key):
    """The degree of a key of either leg class."""
    return sum(len(b) if isinstance(b, tuple) else b for b in key)


def ref_degrees(f):
    return tuple(sorted({ref_size(k) for k in f.terms}))


def ref_homogeneous_component(f, n):
    return type(f)._of({k: c for k, c in f.terms.items() if ref_size(k) == n})


def ref_chromatic_polynomial(f):
    def rational_poly(coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return RationalPoly(tuple(_fraction_or_int(c) for c in cs))

    def add(p, q):
        n = max(len(p.coeffs), len(q.coeffs))
        get = lambda r, k: r.coeffs[k] if k < len(r.coeffs) else 0  # noqa: E731
        return rational_poly([get(p, k) + get(q, k) for k in range(n)])

    def binomial_poly(k):
        coeffs = [Fraction(1)]
        for i in range(k):
            shifted = [Fraction(0)] + coeffs
            coeffs = [s - i * c for s, c in zip(shifted, coeffs + [Fraction(0)])]
        return rational_poly([c / math.factorial(k) for c in coeffs])

    out = rational_poly([])
    for alpha, coeff in f.terms.items():
        term = binomial_poly(len(alpha))
        out = add(out, rational_poly([c * Fraction(evaluate(coeff, 1)) for c in term.coeffs]))
    return out


# ---------------------------------------------------------------------------
# inputs


def expansions(seed):
    """Two expansions in each algebra, with TPoly coefficients, plus a
    mixed-degree sum in each."""
    rng = random.Random(seed)
    f1, f2 = (expand(random_digraph(rng, 4, min_n=0)) for _ in range(2))
    y1, y2 = (expand_nc(random_labelled_digraph(rng, 3, min_n=0)) for _ in range(2))
    return f1, f2, f1 + f2, y1, y2, y1 + y2


def coefficient_forms(f):
    """f with TPoly coefficients, with int ones, and with Fraction ones."""
    return [f, f.at_t(1), f.at_t(-1).scale(Fraction(1, 3))]


def assert_same(x, y):
    assert type(x) is type(y)
    assert x.terms == y.terms


# ---------------------------------------------------------------------------
# the shuffle core


@settings(max_examples=200, deadline=None)
@given(COMPOSITIONS, COMPOSITIONS)
def test_quasi_shuffle_paths_come_in_the_recursions_order(alpha, beta):
    assert _quasi_shuffles(alpha, beta) == ref_paths(alpha, beta)
    assert list(quasi_shuffle(alpha, beta).items()) == list(ref_quasi_shuffle(alpha, beta).items())


@st.composite
def set_compositions_of_n(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=max(n - 1, 1)),
                               max_size=max(n - 1, 0))) & set(range(1, n)))
    bounds = [0, *cuts, n] if n else [0]
    return tuple(tuple(sorted(order[a:b])) for a, b in zip(bounds, bounds[1:]))


@settings(max_examples=200, deadline=None)
@given(set_compositions_of_n(), set_compositions_of_n())
def test_shifted_quasi_shuffle_paths_come_in_the_recursions_order(phi, psi):
    assert _shifted_quasi_shuffle(phi, psi) == ref_shifted_quasi_shuffle(phi, psi)


def test_each_leg_class_names_its_shuffle_splits_and_size():
    assert list(QSymExpr._shuffle_groups((2,), (1,))) == [(1, [(2, 1), (1, 2), (3,)])]
    assert list(QSymExpr._shuffle_groups((1,), (1,))) == [(2, [(1, 1)]), (1, [(2,)])]
    assert list(NCQSymExpr._shuffle_groups(((1,),), ((1,),))) == [
        (1, [((1,), (2,)), ((2,), (1,)), ((1, 2),)])]
    assert QSymExpr._splits((2, 1)) == [((), (2, 1)), ((2,), (1,)), ((2, 1), ())]
    assert list(NCQSymExpr._splits(((2,), (1, 3)))) == [
        ((), ((2,), (1, 3))), (((1,),), ((1, 2),)), (((2,), (1, 3)), ())]
    assert QSymExpr._size((2, 1)) == NCQSymExpr._size(((2,), (1, 3))) == 3
    assert QSymTensor._leg is QSymExpr and NCQSymTensor._leg is NCQSymExpr


# ---------------------------------------------------------------------------
# products, coproducts and degrees


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_products_match_the_four_earlier_bodies(seed):
    f1, f2, f, y1, y2, y = expansions(seed)
    for a, b in [(f1, f2), (f, f1)]:
        for x, z in zip(coefficient_forms(a), coefficient_forms(b)):
            assert_same(x * z, ref_qsym_mul(x, z))
    for a, b in [(y1, y2), (y, y1)]:
        for x, z in zip(coefficient_forms(a), coefficient_forms(b)):
            assert_same(x * z, ref_nc_mul(x, z))
    for x, z in zip(coefficient_forms(f1), coefficient_forms(f2)):
        dx, dz = coproduct(x), coproduct(z)
        assert_same(dx * dz, ref_qsym_tensor_mul(dx, dz))
        xz = QSymTensor.of_legs(x, z)
        assert_same(xz * dz, ref_qsym_tensor_mul(xz, dz))
    for x, z in zip(coefficient_forms(y1), coefficient_forms(y2)):
        dx, dz = coproduct_nc(x), coproduct_nc(z)
        assert_same(dx * dz, ref_nc_tensor_mul(dx, dz))
        xz = NCQSymTensor.of_legs(x, z)
        assert_same(xz * dz, ref_nc_tensor_mul(xz, dz))


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_coproducts_and_degrees_match_the_earlier_code(seed):
    for e in expansions(seed):
        for x in coefficient_forms(e):
            ref = ref_coproduct if isinstance(x, QSymExpr) else ref_coproduct_nc
            delta = coproduct(x) if isinstance(x, QSymExpr) else coproduct_nc(x)
            assert_same(delta, ref(x))
            assert x.degrees() == ref_degrees(x)
            for n in range(-1, 9):
                assert_same(x.homogeneous_component(n), ref_homogeneous_component(x, n))


def test_one_is_the_unit_of_both_products():
    for cls, f in [(QSymExpr, expand(gr.parse_dsl("D(K(2),P(2))"))),
                   (NCQSymExpr, expand_nc(gr.labelled(gr.parse_dsl("D(K(2),P(2))"))))]:
        one = cls.one()
        assert one.terms == {(): 1} and one.degrees() == (0,)
        assert one * f == f * one == f


def test_scalars_and_mismatched_operands():
    f = expand(gr.parse_dsl("K(2)"))
    y = expand_nc(gr.labelled(gr.parse_dsl("K(2)")))
    assert f * 3 == 3 * f == f.scale(3)
    assert y * Fraction(1, 2) == y.scale(Fraction(1, 2))
    for bad in [(f, y), (y, f), (f, coproduct(f)), (coproduct(f), f),
                (coproduct(f), coproduct_nc(y)), (coproduct_nc(y), 2)]:
        try:
            bad[0] * bad[1]
        except TypeError:
            continue
        raise AssertionError(f"{bad} multiplied")
    assert QSymTensor.__mul__(coproduct(f), f) is NotImplemented
    assert NCQSymTensor.__mul__(coproduct_nc(y), y) is NotImplemented


# ---------------------------------------------------------------------------
# long products, which used to recurse once per part


def test_long_commutative_product():
    f = expand(gr.parse_dsl("P(1000)")) * expand(gr.parse_dsl("C(1)"))
    assert len(f.terms) == 1001
    assert f.coefficient((1,) * 1001) == TPoly.t_power(999) * 1001
    assert f.coefficient((1,) * 499 + (2,) + (1,) * 500) == TPoly.t_power(999)


def test_long_noncommutative_product():
    y = (expand_nc(gr.labelled(gr.parse_dsl("P(1000)")))
         * expand_nc(gr.labelled(gr.parse_dsl("C(1)"))))
    assert len(y.terms) == 2001
    assert all(c == TPoly.t_power(999) for c in y.terms.values())
    assert y.coefficient(tuple((i,) for i in range(1, 1001)) + ((1001,),)) == TPoly.t_power(999)


# ---------------------------------------------------------------------------
# the counting polynomial


@st.composite
def specialized_expressions(draw):
    coeffs = st.one_of(st.integers(min_value=-5, max_value=5),
                       st.fractions(min_value=-3, max_value=3, max_denominator=6))
    terms = draw(st.lists(st.tuples(COMPOSITIONS, coeffs), max_size=6))
    return QSymExpr({alpha: c for alpha, c in terms if c})


@settings(max_examples=200, deadline=None)
@given(specialized_expressions())
def test_chromatic_polynomial_matches_the_per_term_construction(f):
    poly = chromatic_polynomial(f)
    ref = ref_chromatic_polynomial(f)
    assert poly == ref
    assert [type(c) for c in poly.coeffs] == [type(c) for c in ref.coeffs]
    for p in range(4):
        assert poly(p) == sum(c * math.comb(p, len(alpha)) for alpha, c in f.terms.items())


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_chromatic_polynomial_matches_on_expansions(seed):
    f = expand(random_digraph(random.Random(seed), 5, min_n=0)).at_t(1)
    assert chromatic_polynomial(f) == ref_chromatic_polynomial(f)


# ---------------------------------------------------------------------------
# the tensor product shuffles each pair of legs once


def ref_pair_groups_mul(s, t):
    """The tensor product as one product body over the pair form of the
    leg's _shuffle_groups, which shuffled both legs for every pair of
    terms."""
    groups = s._leg._shuffle_groups

    def pair_groups(a, b):
        right = groups(a[1], b[1])
        return [(count1 * count2, [(g1, g2) for g1 in left_paths for g2 in right_paths])
                for count1, left_paths in groups(a[0], b[0])
                for count2, right_paths in right]

    out = {}
    for a, ca in s.terms.items():
        for b, cb in t.terms.items():
            coeff = ca * cb
            for count, paths in pair_groups(a, b):
                c = coeff * count if count > 1 else coeff
                for gamma in paths:
                    _merge(out, gamma, c)
    return type(s)._of(out)


def assert_same_in_order(x, y):
    assert type(x) is type(y)
    assert list(x.terms.items()) == list(y.terms.items())


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_tensor_products_match_the_pair_groups_body_in_order(seed):
    f1, f2, f, y1, y2, y = expansions(seed)
    for a, b, delta, of_legs in [(f1, f2, coproduct, QSymTensor.of_legs),
                                 (f, f1, coproduct, QSymTensor.of_legs),
                                 (y1, y2, coproduct_nc, NCQSymTensor.of_legs),
                                 (y, y1, coproduct_nc, NCQSymTensor.of_legs)]:
        for x, z in zip(coefficient_forms(a), coefficient_forms(b)):
            dx, dz = delta(x), delta(z)
            for s, t in [(dx, dz), (dz, dx), (dx - dz, dx + dz), (of_legs(x, z), dz)]:
                assert_same_in_order(s * t, ref_pair_groups_mul(s, t))


def test_tensor_products_with_repeated_paths_empty_legs_and_cancellation():
    one, two = (1,), (1, 1)
    t = TPoly.t_power(1)
    for c in (1, Fraction(2, 3), t + 1):
        s = QSymTensor._of({(one, one): 2 * c, ((), two): c, ((), ()): 3 * c,
                            ((2,), ()): -c})
        r = QSymTensor._of({(one, one): c, (one, ()): c, ((), one): -c, ((), ()): c})
        for x, z in [(s, s), (s, r), (r, s), (r, r), (s - r, s + r)]:
            assert_same_in_order(x * z, ref_pair_groups_mul(x, z))
    # (1) x (1) squared: each leg's shuffle has a path of multiplicity 2
    square = QSymTensor._of({(one, one): 1}) * QSymTensor._of({(one, one): 1})
    assert square.terms[two, two] == 4 and square.terms[(2,), two] == 2
    block = ((1,),)
    for c in (1, Fraction(-1, 2), t):
        s = NCQSymTensor._of({(block, block): c, ((), ((1, 2),)): -c, ((), ()): 2 * c})
        r = NCQSymTensor._of({(block, ()): c, ((), block): c})
        for x, z in [(s, s), (s, r), (r, s), (r - s, r + s)]:
            assert_same_in_order(x * z, ref_pair_groups_mul(x, z))


# ---------------------------------------------------------------------------
# repeated shuffle paths


def counted_merges(monkeypatch, product):
    calls = []

    def counting_merge(terms, key, coeff):
        calls.append(key)
        _merge(terms, key, coeff)

    monkeypatch.setattr("chromexp.qsym._merge", counting_merge)
    result = product()
    monkeypatch.undo()
    return result, calls


def test_each_distinct_commutative_path_is_merged_once(monkeypatch):
    f = expand(gr.parse_dsl("K(4)"))
    g = expand(gr.parse_dsl("U(P(2),C(1))"))
    for x, y in [(f, f), (f, g), (g, g), (f.at_t(1), g.at_t(1))]:
        product, calls = counted_merges(monkeypatch, lambda: x * y)
        assert_same(product, ref_qsym_mul(x, y))
        assert len(calls) == sum(
            len(quasi_shuffle(a, b)) for a in x.terms for b in y.terms)
        dx, dy = coproduct(x), coproduct(y)
        product, calls = counted_merges(monkeypatch, lambda: dx * dy)
        assert_same(product, ref_qsym_tensor_mul(dx, dy))
        assert len(calls) == sum(
            len(quasi_shuffle(a1, b1)) * len(quasi_shuffle(a2, b2))
            for a1, a2 in dx.terms for b1, b2 in dy.terms)


def test_noncommutative_paths_keep_their_coefficient_objects(monkeypatch):
    t = TPoly.t_power(1)
    y = NCQSymExpr._of({((2,), (1, 3)): t})
    z = NCQSymExpr._of({((1, 2),): t + TPoly.t_power(0)})
    product, calls = counted_merges(monkeypatch, lambda: y * z)
    assert_same(product, ref_nc_mul(y, z))
    assert calls == _shifted_quasi_shuffle(((2,), (1, 3)), ((1, 2),))
    coeffs = list(product.terms.values())
    assert len(coeffs) == len(calls) and all(c is coeffs[0] for c in coeffs)
