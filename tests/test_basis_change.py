"""Differential tests of basis change by triangular peeling.

`to_qsym_basis` reads F and Fbar coordinates off by peeling. The dense
rational solve it replaced, one square system per degree and power of
t over the columns of every basis element, is kept here, and only here,
as the reference. Its F columns come from the defining digraphs through
the engine, so the closed-form `basis_F` is not used by the reference.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from chromexp.chromatic import expand
from chromexp.combinat import compositions
from chromexp.graph import qsym_basis_digraph
from chromexp.linalg import solve_combination
from chromexp.ncqsym import NCQSymExpr, basis_nc, expand_nc, to_ncqsym_basis
from chromexp.qsym import QSymExpr, basis_F, basis_Fbar, to_qsym_basis
from chromexp.tpoly import TPoly, coefficients, evaluate
from chromexp.verify import random_digraph, random_labelled_digraph

T = TPoly.t_power(1)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def dense_to_qsym_basis(f, kind):
    """F or Fbar coordinates of f by one rational solve per degree and
    power of t."""
    if kind == "F":
        def maker(alpha):
            return expand(qsym_basis_digraph("F", alpha)).at_t(1)
    else:
        maker = basis_Fbar
    out = {}
    for n in f.degrees():
        alphas = list(compositions(n))
        columns = [{k: evaluate(c, 1) for k, c in maker(a).terms.items()} for a in alphas]
        slices = {}
        for key, coeff in f.homogeneous_component(n).terms.items():
            for power, c in enumerate(coefficients(coeff)):
                if c:
                    slices.setdefault(power, {})[key] = Fraction(c)
        for power, coords in slices.items():
            solution = solve_combination(columns, coords)
            assert solution is not None
            for alpha, value in zip(alphas, solution):
                if value:
                    out.setdefault(alpha, {})[power] = value
    return {a: TPoly(powers.get(k, 0) for k in range(max(powers) + 1))
            for a, powers in out.items()}


def rebuild(coords, element, zero):
    out = zero
    for key, coeff in coords.items():
        out = out + element(key).scale(coeff)
    return out


def expansions(seed):
    """A t-graded expansion and a mixed-degree sum with a t-graded part."""
    rng = random.Random(seed)
    f = expand(random_digraph(rng, 6))
    g = expand(random_digraph(rng, 5)).at_t(1)
    return [f, f.scale(T) + g.scale(Fraction(3, 2)) - f.at_t(1)]


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_peeling_matches_the_dense_solve(seed):
    for f in expansions(seed):
        for kind, maker in (("F", basis_F), ("Fbar", basis_Fbar)):
            coords = to_qsym_basis(f, kind)
            assert coords == dense_to_qsym_basis(f, kind)
            assert all(coords.values())
            assert rebuild(coords, maker, QSymExpr()) == f


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_nc_peeling_rebuilds_its_input(seed):
    rng = random.Random(seed)
    f = expand_nc(random_labelled_digraph(rng, 5))
    for kind in ("F", "Fbar"):
        coords = to_ncqsym_basis(f, kind)
        assert all(coords.values())
        assert rebuild(coords, lambda phi: basis_nc(kind, phi), NCQSymExpr()) == f

