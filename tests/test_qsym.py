import math
import random

import pytest

from chromexp import combinat
from chromexp.chromatic import expand
from chromexp.combinat import INFINITY, compositions, partitions, r_compositions
from chromexp.graph import atom, combine, make, sym_basis_digraph
from chromexp.qsym import (
    QSymExpr,
    QSymTensor,
    basis_F,
    basis_Fbar,
    basis_M,
    basis_r,
    basis_sym,
    chromatic_polynomial,
    coproduct,
    family_basis,
    in_qsym_r,
    is_symmetric,
    qsym_from_json,
    qsym_to_json,
    to_qsym_basis,
    to_sym_basis,
)
from chromexp.oracle import assert_equal, count_colourings, realize
from chromexp.tpoly import TPoly


# ---------------------------------------------------------------------------
# ring structure

def test_monomial_product():
    assert basis_M((1,)) * basis_M((1,)) == QSymExpr({(1, 1): 2, (2,): 1})


def test_unit():
    f = QSymExpr({(2, 1): TPoly((0, 3))})
    assert f * QSymExpr.one() == f
    assert QSymExpr.one() * f == f


def test_power_sum_product_matches_disjoint_cycles():
    p2p3 = basis_sym("p", (2,)) * basis_sym("p", (3,))
    assert p2p3 == expand(combine("disjoint", atom("C", 2), atom("C", 3))).at_t(1)
    assert p2p3 == basis_sym("p", (3, 2))


def test_product_matches_realization():
    f, g = basis_F((2, 1)), basis_Fbar((1, 2))
    report = assert_equal(realize(f * g, 6), realize(f, 6) * realize(g, 6))
    assert report.ok, report.detail


def test_quasi_shuffle_against_realization_oracle():
    small = [alpha for n in range(4) for alpha in compositions(n)]
    for a in small:
        for b in small:
            lhs = realize(basis_M(a) * basis_M(b), 6)
            rhs = realize(basis_M(a), 6) * realize(basis_M(b), 6)
            assert lhs == rhs, (a, b)


def test_coproduct_coassociative_at_degree_five():
    rng = random.Random(21)
    from chromexp.chromatic import expand
    from chromexp.graph import make

    def triple(tensor_terms, left_first):
        out = {}
        for (a, b), coeff in tensor_terms.items():
            target, fixed = (a, b) if left_first else (b, a)
            for i in range(len(target) + 1):
                key = ((target[:i], target[i:], fixed) if left_first
                       else (fixed, target[:i], target[i:]))
                out[key] = out.get(key, TPoly()) + coeff
        return {k: v for k, v in out.items() if v}

    for _ in range(10):
        n = 5
        edges = [(u, v, rng.choice(("neq", "lt", "leq")))
                 for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.35]
        f = expand(make(n, edges)).at_t(1)
        delta = coproduct(f)
        assert triple(delta.terms, True) == triple(delta.terms, False)


def test_coproduct_deconcatenates():
    got = coproduct(basis_M((2, 1)))
    assert got == QSymTensor({((), (2, 1)): 1, ((2,), (1,)): 1, ((2, 1), ()): 1})
    assert coproduct(QSymExpr.one()) == QSymTensor({((), ()): 1})


# ---------------------------------------------------------------------------
# bases

def test_fbar_merges_adjacent_parts():
    assert basis_Fbar((2, 1)) == QSymExpr({(2, 1): 1, (3,): 1})


def test_fundamental_small_values():
    assert basis_F((1, 1)) == QSymExpr({(1, 1): 1})
    assert basis_F((2,)) == QSymExpr({(2,): 1, (1, 1): 1})


def test_fundamental_is_sum_over_refinements():
    for n in range(7):
        for alpha in compositions(n):
            want = QSymExpr({beta: 1 for beta in combinat.refinements(alpha)})
            assert basis_F(alpha) == want


def test_schur_worked_value():
    assert basis_sym("s", (2, 1)) == QSymExpr({(2, 1): 1, (1, 2): 1, (1, 1, 1): 2})


def test_augmented_monomial_scaling():
    for n in range(7):
        for lam in partitions(n):
            assert basis_sym("maug", lam) == \
                basis_sym("m", lam).scale(combinat.lambda_superfactorial(lam))


def test_bases_match_their_digraphs_through_degree_six():
    from chromexp.graph import qsym_basis_digraph
    for n in range(7):
        for lam in partitions(n):
            for kind in ("m", "maug", "e", "eaug", "h", "p", "s"):
                assert basis_sym(kind, lam) == expand(sym_basis_digraph(kind, lam)).at_t(1)
        for alpha in compositions(n):
            for kind, maker in (("M", basis_M), ("F", basis_F), ("Fbar", basis_Fbar)):
                assert maker(alpha) == expand(qsym_basis_digraph(kind, alpha)).at_t(1)


# ---------------------------------------------------------------------------
# r-bases

def test_r_basis_fbar_expansion():
    f = basis_r("Fbar", (2, 2), (1,), 2)
    want = QSymExpr()
    for gamma in combinat.coarsenings((2, 2)):
        want = want + basis_r("M", gamma, (1,), 2)
    assert f == want


def test_r_basis_monomial_oracle():
    f = basis_r("M", (2,), (1, 1), 2)
    k = 4
    direct = {}
    for i1 in range(1, k + 1):
        for i2 in range(1, k + 1):
            for i3 in range(1, k + 1):
                if len({i1, i2, i3}) == 3:
                    e = [0] * k
                    e[i1 - 1] += 2
                    e[i2 - 1] += 1
                    e[i3 - 1] += 1
                    key = tuple(e)
                    direct[key] = direct.get(key, TPoly()) + TPoly.of(1)
    from chromexp.oracle import TruncPoly
    assert assert_equal(realize(f, k), TruncPoly(k, direct)).ok


def test_r_basis_schur_with_empty_composition_side():
    assert basis_r("S", (), (2, 1), 3) == basis_sym("s", (2, 1))
    assert basis_r("S", (), (2, 1), INFINITY) == basis_sym("s", (2, 1))


def test_in_qsym_r():
    assert in_qsym_r(basis_sym("p", (3, 1)), 2)
    assert in_qsym_r(basis_sym("p", (3, 1)), INFINITY)
    assert not in_qsym_r(basis_M((1, 2)), 2)
    assert in_qsym_r(basis_M((1, 2)), 1)


def test_qsym_r_chain_on_generators():
    for n in range(6):
        for big_r in (2, 3):
            for rc in r_compositions(n, big_r):
                f = basis_r("M", rc.beta, rc.mu, big_r)
                for small_r in range(1, big_r + 1):
                    assert in_qsym_r(f, small_r)


def test_infinity_r_composition_is_augmented_monomial():
    for lam in partitions(4):
        assert basis_r("M", (), lam, INFINITY) == basis_sym("maug", lam)


# ---------------------------------------------------------------------------
# symmetry and conversion

def test_is_symmetric():
    assert is_symmetric(basis_sym("s", (2, 1)))
    assert not is_symmetric(basis_M((1, 2)))
    assert is_symmetric(QSymExpr())


def test_to_sym_basis_triangle():
    f = expand(atom("K", 3)).at_t(1)
    assert to_sym_basis(f, "e") == {(3,): TPoly.of(6)}
    assert to_sym_basis(f, "eaug") == {(3,): TPoly.of(1)}
    assert to_sym_basis(f, "p")[(1, 1, 1)] == TPoly.of(1)


def test_to_sym_basis_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        to_sym_basis(basis_M((1, 2)), "m")


def test_to_sym_basis_keeps_t_grading():
    f = expand(atom("K", 2))  # (1+t) M(1,1)
    coords = to_sym_basis(f, "m")
    assert coords == {(1, 1): TPoly((1, 1))}


def test_to_qsym_basis_roundtrip():
    f = expand(make(3, [(0, 1, "neq"), (1, 2, "leq")])).at_t(1)
    for kind, maker in (("F", basis_F), ("Fbar", basis_Fbar)):
        coords = to_qsym_basis(f, kind)
        rebuilt = QSymExpr()
        for alpha, coeff in coords.items():
            rebuilt = rebuilt + maker(alpha).scale(coeff)
        assert rebuilt == f


# ---------------------------------------------------------------------------
# the counting polynomial

def test_falling_factorial_for_complete_digraphs():
    for n in range(1, 5):
        poly = chromatic_polynomial(expand(atom("K", n)).at_t(1))
        for p in range(0, n + 4):
            assert poly(p) == math.perm(p, n)


def test_cycle_polynomial_is_p():
    for n in (1, 2, 3, 5):
        poly = chromatic_polynomial(expand(atom("C", n)).at_t(1))
        assert [poly(p) for p in range(4)] == [0, 1, 2, 3]


def test_path_pairs():
    poly = chromatic_polynomial(expand(atom("P", 2)).at_t(1))
    assert all(poly(p) == math.comb(p, 2) for p in range(7))


def test_polynomial_matches_direct_counts():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(1, 4)
        edges = [(u, v, rng.choice(("neq", "lt", "leq")))
                 for u in range(n) for v in range(n) if u != v and rng.random() < 0.4]
        g = make(n, edges)
        poly = chromatic_polynomial(expand(g).at_t(1))
        for p in range(0, 6):
            value = poly(p)
            assert isinstance(value, int)
            assert value == count_colourings(g, p)


# ---------------------------------------------------------------------------
# families of bases

def test_family_basis_cycles_give_monomials():
    elements, report = family_basis(4, lambda i: atom("C", i))
    assert report.unitriangular
    assert all(elements[a] == basis_M(a) for a in report.compositions)


def test_family_basis_paths_give_fundamentals():
    elements, report = family_basis(4, lambda i: atom("Q", i))
    assert report.unitriangular
    assert all(elements[a] == basis_F(a) for a in report.compositions)


def test_family_basis_double_stars():
    def star(i):
        return make(i, [(0, j, "leq") for j in range(1, i)])

    for n in range(1, 6):
        _, report = family_basis(n, star)
        assert report.unitriangular, report.failures


def test_family_basis_rejects_wrong_edges():
    with pytest.raises(ValueError):
        family_basis(2, lambda i: atom("P", i))


# ---------------------------------------------------------------------------
# serialization

def test_json_roundtrip():
    f = expand(make(2, [(0, 1, "neq")]))
    data = qsym_to_json(f)
    assert data == {"degree": 2, "terms": [{"composition": [1, 1], "coeff_t": [1, 1]}]}
    assert qsym_from_json(data) == f


def test_json_mixed_degrees():
    f = basis_M((1,)) + basis_M((2, 1))
    data = qsym_to_json(f)
    assert "components" in data
    assert qsym_from_json(data) == f


def test_pretty():
    f = expand(make(2, [(0, 1, "neq")]))
    assert f.pretty() == "(1+t)*M(1,1)"
    assert QSymExpr().pretty() == "0"
