"""Differential checks of the coefficient domain.

Once t is specialized a term-map coefficient is a plain exact scalar;
where the t-grading survives it is a TPoly. Every operation on scalar
coefficients must give what it gives on the same coefficients wrapped
as constant TPolys: equal term maps, and the same JSON and text. The
public constructors accept nothing outside the exact domain.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chromexp import tpoly
from chromexp.chromatic import expand
from chromexp.ncqsym import (
    NCQSymExpr, NCQSymTensor, coproduct_nc, expand_nc, ncqsym_from_json, ncqsym_tensor_to_json,
    ncqsym_to_json, rho, to_ncqsym_basis)
from chromexp.qsym import (
    QSymExpr, QSymTensor, coproduct, qsym_from_json, qsym_tensor_to_json, qsym_to_json,
    to_qsym_basis)
from chromexp.tpoly import TPoly
from chromexp.verify import random_digraph, random_labelled_digraph

T = TPoly.t_power(1)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
FACTORS = (3, -1, Fraction(2, 3), T)


def wrapped(x):
    """x with every scalar coefficient as a constant TPoly."""
    return type(x)({k: TPoly.of(c) for k, c in x.terms.items()})


def scalar_only(x):
    return all(type(c) in (int, Fraction) for c in x.terms.values())


def same(x, y, to_json):
    assert x == y and y == x
    assert x.pretty() == y.pretty()
    assert json.dumps(to_json(x)) == json.dumps(to_json(y))


def ring_pairs(f, g):
    """(operation on scalars, the same on wrapped coefficients)."""
    F, G = wrapped(f), wrapped(g)
    pairs = [(f, F), (f * g, F * G), (f + g, F + G), (f - g, F - G), (f - f, F - F),
             (-f, -F), (f.at_t(1), F.at_t(1)), (f.at_t(-2), F.at_t(-2))]
    pairs += [(f.scale(c), F.scale(c)) for c in FACTORS]
    return pairs


def same_coordinates(a, b):
    assert a == b
    assert {k: tpoly.tpoly_to_json(c) for k, c in a.items()} \
        == {k: tpoly.tpoly_to_json(c) for k, c in b.items()}
    assert {k: tpoly.pretty(c) for k, c in a.items()} \
        == {k: tpoly.pretty(c) for k, c in b.items()}


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_commutative_scalars_match_wrapped_coefficients(seed):
    rng = random.Random(seed)
    full = expand(random_digraph(rng, 4, min_n=0))
    f, g = full.at_t(1), expand(random_digraph(rng, 4, min_n=0)).at_t(1)
    assert scalar_only(f) and scalar_only(g)
    assert f == full.at_t(1) and scalar_only(f + g) and scalar_only(f * g)
    for x, y in ring_pairs(f, g):
        same(x, y, qsym_to_json)
    F, G = wrapped(f), wrapped(g)
    d, D = coproduct(f), coproduct(F)
    assert scalar_only(d)
    for x, y in ((d, D), (QSymTensor.of_legs(f, g), QSymTensor.of_legs(F, G)),
                 (d * coproduct(g), D * coproduct(G)),
                 (d.at_t(1), D.at_t(1)), (d.scale(T), D.scale(T))):
        same(x, y, qsym_tensor_to_json)
    for kind in ("M", "F", "Fbar"):
        same_coordinates(to_qsym_basis(f, kind), to_qsym_basis(F, kind))


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_noncommutative_scalars_match_wrapped_coefficients(seed):
    rng = random.Random(seed)
    y1 = expand_nc(random_labelled_digraph(rng, 3, min_n=0)).at_t(1)
    y2 = expand_nc(random_labelled_digraph(rng, 3, min_n=0)).at_t(1)
    assert scalar_only(y1) and scalar_only(y1 * y2)
    for x, y in ring_pairs(y1, y2):
        same(x, y, ncqsym_to_json)
    Y1, Y2 = wrapped(y1), wrapped(y2)
    same(rho(y1 * y2), rho(Y1 * Y2), qsym_to_json)
    d, D = coproduct_nc(y1), coproduct_nc(Y1)
    assert scalar_only(d)
    for x, y in ((d, D), (NCQSymTensor.of_legs(y1, y2), NCQSymTensor.of_legs(Y1, Y2)),
                 (d * coproduct_nc(y2), D * coproduct_nc(Y2)), (d.scale(T), D.scale(T))):
        same(x, y, ncqsym_tensor_to_json)
    for kind in ("M", "F", "Fbar"):
        same_coordinates(to_ncqsym_basis(y1, kind), to_ncqsym_basis(Y1, kind))


BAD = (0.5, True, "3", None)
MAKERS = {
    "QSymExpr": lambda c: QSymExpr({(1,): c}),
    "QSymTensor": lambda c: QSymTensor({((1,), ()): c}),
    "NCQSymExpr": lambda c: NCQSymExpr({((1,),): c}),
    "NCQSymTensor": lambda c: NCQSymTensor({(((1,),), ()): c}),
    "scale": lambda c: QSymExpr({(1,): 1}).scale(c),
}


@pytest.mark.parametrize("maker", MAKERS, ids=list(MAKERS))
@pytest.mark.parametrize("coeff", BAD, ids=["float", "bool", "str", "none"])
def test_public_constructors_reject_inexact_coefficients(maker, coeff):
    with pytest.raises(TypeError):
        MAKERS[maker](coeff)


def test_public_constructors_keep_exact_scalars():
    f = QSymExpr({(1,): 2, (2,): Fraction(1, 2), (1, 1): T, (3,): 0})
    assert f.terms == {(1,): 2, (2,): Fraction(1, 2), (1, 1): T}
    assert type(f.terms[(1,)]) is int


def test_json_readers_reject_a_bool_coefficient():
    with pytest.raises(ValueError):
        qsym_from_json({"degree": 1, "terms": [{"composition": [1], "coeff_t": [True]}]})
    with pytest.raises(ValueError):
        ncqsym_from_json({"terms": [{"set_composition": [[1]], "coeff_t": [True]}]})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=4), st.lists(st.integers(-3, 3), max_size=4),
       st.integers(-3, 3))
def test_lean_tpoly_arithmetic_matches_the_dense_definition(a, b, c):
    p, q = TPoly(a), TPoly(b)

    def get(xs, k):
        return xs[k] if k < len(xs) else 0

    n = max(len(a), len(b))
    assert p + q == TPoly([get(a, k) + get(b, k) for k in range(n)])
    assert p + c == TPoly([get(a, 0) + c] + a[1:]) == c + p
    assert p * c == TPoly([x * c for x in a]) == c * p
    product = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    assert p * q == TPoly(product)
    assert -p == TPoly([-x for x in a])
    for r in (p + q, p + c, p * c, p * q, -p):
        assert not r.coeffs or r.coeffs[-1] != 0  # trimmed
        assert hash(r) == hash(TPoly(r.coeffs))
    assert (TPoly.of(c) == c) and hash(TPoly.of(c)) == hash(c)


@pytest.mark.parametrize("c", [0, 1, -1, 7, Fraction(-3, 2), Fraction(4, 1)])
def test_protocol_reads_a_scalar_as_its_constant_tpoly(c):
    p = TPoly.of(c)
    for fn in (tpoly.coefficients, tpoly.degree, tpoly.pretty, tpoly.tpoly_to_json):
        assert fn(c) == fn(p)
    assert tpoly.evaluate(c, 5) == tpoly.evaluate(p, 5) == c
