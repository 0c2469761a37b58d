"""Acceptance gate: the ten criteria, each with its exact expected
values and stated wall-clock budget. Run with `pytest -s` to see one
pass/fail line per criterion."""

import itertools
import math
import random
import time

from chromexp.chromatic import (
    coproduct_digraph,
    ellzey,
    expand,
    humpert,
    humpert_direct,
    stanley,
)
from chromexp.combinat import RSetComposition, set_composition, set_partition
from chromexp.graph import from_digraph_dashed, make, simple_graph, underlying_graph
from chromexp.ncqsym import (
    basis_nc,
    basis_ncr,
    basis_ncsym,
    coproduct_nc,
    mr_inject_check,
    r_regroup_tensor,
    to_ncsym_m,
)
from chromexp.oracle import count_colourings
from chromexp.qsym import QSymExpr, QSymTensor, chromatic_polynomial
from chromexp.tpoly import TPoly
from chromexp.verify import (
    verify_hopf,
    verify_oracle,
    verify_r_closure,
    verify_tables,
)


class _gate:
    """Times a criterion, prints its pass/fail line, enforces the budget."""

    def __init__(self, number, description, budget):
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2}: {status} "
              f"({elapsed:.2f}s / {self.budget:.0f}s) {self.description}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget")
        return False


def sc(*blocks):
    return set_composition(blocks)


def sp(*blocks):
    return set_partition(blocks)


def test_criterion_01_complete_homogeneous_worked_example():
    with _gate(1, "h_{13/24} in monomial coordinates", 1.0):
        coords = to_ncsym_m(basis_ncsym("h", sp((1, 3), (2, 4))))
        expected = {
            sp((1,), (2,), (3,), (4,)): 1, sp((1, 2), (3,), (4,)): 1,
            sp((1, 3), (2,), (4,)): 2, sp((1, 4), (2,), (3,)): 1,
            sp((1,), (2, 3), (4,)): 1, sp((1,), (2, 4), (3,)): 2,
            sp((1,), (2,), (3, 4)): 1, sp((1, 2), (3, 4)): 1,
            sp((1, 3), (2, 4)): 4, sp((1, 4), (2, 3)): 1,
            sp((1, 2, 3), (4,)): 2, sp((1, 2, 4), (3,)): 2,
            sp((1, 3, 4), (2,)): 2, sp((1,), (2, 3, 4)): 2,
            sp((1, 2, 3, 4),): 4,
        }
        assert len(coords) == 15
        assert coords == {k: TPoly.of(v) for k, v in expected.items()}


def test_criterion_02_fundamental_worked_examples():
    with _gate(2, "F and Fbar at (13|24)", 1.0):
        phi = sc((1, 3), (2, 4))
        assert basis_nc("F", phi) == type(basis_nc("F", phi))({
            sc((1, 3), (2, 4)): 1, sc((1,), (3,), (2, 4)): 1,
            sc((1, 3), (2,), (4,)): 1, sc((1,), (3,), (2,), (4,)): 1})
        assert basis_nc("Fbar", phi) == type(basis_nc("F", phi))({
            sc((1, 3), (2, 4)): 1, sc((1, 2, 3, 4)): 1})


def test_criterion_03_r_level_coproduct_worked_example():
    with _gate(3, "coproduct of M_((24),1/3) in level-2 coordinates", 1.0):
        m = basis_ncr("M", sc((2, 4)), sp((1,), (3,)), 2)
        grouped = r_regroup_tensor(coproduct_nc(m), 2)

        def key(phi, pi, psi, omega):
            return (RSetComposition(2, phi, pi), RSetComposition(2, psi, omega))

        one = TPoly.of(1)
        expected = {
            key((), (), sc((2, 4)), sp((1,), (3,))): one,
            key((), sp((1,)), sc((1, 3)), sp((2,))): one,
            key((), sp((1,)), sc((2, 3)), sp((1,))): one,
            key(sc((2, 3)), sp((1,)), (), sp((1,))): one,
            key(sc((1, 3)), sp((2,)), (), sp((1,))): one,
            key(sc((1, 2)), (), (), sp((1,), (2,))): one,
            key((), sp((1,), (2,)), sc((1, 2)), ()): one,
            key(sc((2, 4)), sp((1,), (3,)), (), ()): one,
        }
        assert grouped == expected


def test_criterion_04_coproduct_of_the_four_vertex_example():
    with _gate(4, "digraph-side coproduct, ten displayed tensor terms", 5.0):
        g = make(4, [(0, 1, "leq"), (1, 3, "neq"), (0, 2, "lt")])
        got = coproduct_digraph(g)

        def x(n, edges=()):
            return expand(make(n, edges)).at_t(1)

        one = QSymExpr.one()
        whole = x(4, [(0, 1, "leq"), (1, 3, "neq"), (0, 2, "lt")])
        want = (QSymTensor.of_legs(one, whole)
                + QSymTensor.of_legs(x(1), x(3, [(0, 1, "leq"), (0, 2, "lt")]))
                + QSymTensor.of_legs(x(1), x(3, [(0, 2, "neq")]))
                + QSymTensor.of_legs(x(2, [(0, 1, "lt")]), x(2, [(0, 1, "neq")]))
                + QSymTensor.of_legs(x(2), x(2))
                + QSymTensor.of_legs(x(2, [(0, 1, "leq")]), x(2))
                + QSymTensor.of_legs(x(3, [(0, 1, "lt")]), x(1))
                + QSymTensor.of_legs(x(3, [(0, 1, "leq"), (1, 2, "neq")]), x(1))
                + QSymTensor.of_legs(x(3, [(0, 1, "leq"), (0, 2, "lt")]), x(1))
                + QSymTensor.of_legs(whole, one))
        assert got == want
        # and the digraph side agrees with deconcatenation
        from chromexp.qsym import coproduct
        assert got == coproduct(expand(g).at_t(1))


def test_criterion_05_oracle_suite():
    with _gate(5, "200 seeded digraphs vs direct enumeration, full t", 60.0):
        result = verify_oracle(trials=200, max_n=5, seed=20260810)
        assert result.ok, result.counterexample
        assert result.checks >= 200


def test_criterion_06_hopf_suite():
    with _gate(6, "product/coproduct identities on 50 seeded pairs", 120.0):
        result = verify_hopf(trials=50, max_n=4, seed=20260810)
        assert result.ok, result.counterexample
        assert result.checks >= 500


def test_criterion_07_table_suite():
    with _gate(7, "every basis-table row identity up to degree 5", 300.0):
        result = verify_tables(n=5)
        assert result.ok, result.counterexample
        assert result.checks > 2000


def test_criterion_08_polynomiality():
    with _gate(8, "counting polynomial integral and equal to counts", 60.0):
        rng = random.Random(20260810)
        for _ in range(25):
            n = rng.randint(1, 4)
            edges = [(u, v, rng.choice(("neq", "lt", "leq")))
                     for u in range(n) for v in range(n)
                     if u != v and rng.random() < 0.45]
            g = make(n, edges)
            poly = chromatic_polynomial(expand(g).at_t(1))
            for p in range(0, n + 4):
                value = poly(p)
                assert isinstance(value, int)
                if p <= 5:
                    assert value == count_colourings(g, p)
        for n in range(1, 5):
            kn = make(n, [(i, j, "neq") for i in range(n) for j in range(i + 1, n)])
            poly = chromatic_polynomial(expand(kn).at_t(1))
            assert all(poly(p) == math.perm(p, n) for p in range(n + 4))
            path = make(n, [(i, i + 1, "neq") for i in range(n - 1)])
            poly = chromatic_polynomial(expand(path).at_t(1))
            assert all(poly(p) == p * (p - 1) ** (n - 1) for p in range(1, n + 4))


def test_criterion_09_r_structure():
    with _gate(9, "r-level bases and Hopf closure", 180.0):
        result = verify_r_closure(n_qsym=5, n_nc=4, r=2, seed=20260810, trials=20)
        assert result.ok, result.counterexample


def test_criterion_10_specializations():
    with _gate(10, "classical specializations and the fundamental injection", 120.0):
        rng = random.Random(20260810)
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                h = simple_graph(n, [pairs[i] for i in range(len(pairs))
                                     if (mask >> i) & 1])
                st = stanley(h)
                assert humpert(h, 1) == st
                for k in (1, 2):
                    assert humpert(h, k) == humpert_direct(h, k)
                oriented = make(n, [(a, b, "neq") for a, b in h.edge_list()])
                assert ellzey(oriented).at_t(1) == st
        for _ in range(20):
            n = rng.randint(1, 4)
            edges = [(u, v, rng.choice(("neq", "lt", "leq")))
                     for u in range(n) for v in range(n)
                     if u != v and rng.random() < 0.4]
            d = make(n, edges)
            assert ellzey(d).at_t(1) == stanley(underlying_graph(from_digraph_dashed(d)))
        for s in itertools.permutations((1, 2)):
            for t in itertools.permutations((1, 2)):
                assert mr_inject_check(s, t)
        perms = list(itertools.permutations((1, 2, 3)))
        for _ in range(20):
            assert mr_inject_check(rng.choice(perms), rng.choice(perms))
