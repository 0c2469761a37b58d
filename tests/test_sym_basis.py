"""Differential tests of symmetric-basis conversion on partition rows.

`to_sym_basis` solves one square system per degree and power of t on
the partition rows, and `basis_sym("s")` counts Kostka numbers by
chains of horizontal strips. The dense solve over every composition row
that they replaced is kept here, and only here, as the reference, next
to a brute-force count of semistandard fillings and the permutation
walk with a seen-set that `distinct_rearrangements` replaced.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chromexp.combinat import compositions, distinct_rearrangements, partitions
from chromexp.linalg import solve_combination
from chromexp.qsym import SYM_KINDS, QSymExpr, _ssyt_contents, basis_M, basis_sym, to_sym_basis
from chromexp.tpoly import TPoly, coefficients, evaluate
from reference import dominance_leq, sort_to_partition


def ref_rearrangements(lam):
    seen = set()
    for perm in itertools.permutations(lam):
        if perm not in seen:
            seen.add(perm)
            yield perm


def dense_to_sym_basis(f, kind):
    """Coordinates over a symmetric basis by one rational solve per
    degree and power of t over every composition row."""
    for alpha, coeff in f.terms.items():
        for other in ref_rearrangements(sort_to_partition(alpha)):
            if f.terms.get(other, 0) != coeff:
                raise ValueError("expression is not symmetric")
    out = {}
    for n in f.degrees():
        lams = list(partitions(n))
        columns = [{k: evaluate(c, 1) for k, c in basis_sym(kind, lam).terms.items()}
                   for lam in lams]
        slices = {}
        for key, coeff in f.homogeneous_component(n).terms.items():
            for power, c in enumerate(coefficients(coeff)):
                if c:
                    slices.setdefault(power, {})[key] = Fraction(c)
        for power, coords in slices.items():
            solution = solve_combination(columns, coords)
            assert solution is not None
            for lam, value in zip(lams, solution):
                if value:
                    out.setdefault(lam, {})[power] = value
    return {lam: TPoly(tuple(int(v) if v.denominator == 1 else v
                             for v in (Fraction(powers.get(k, 0))
                                       for k in range(max(powers) + 1))))
            for lam, powers in out.items()}


def shape_of(coords):
    """Each coordinate's coefficients with their types, in dict order."""
    return [(lam, [(type(c), c) for c in tpoly.coeffs]) for lam, tpoly in coords.items()]


COEFFS = st.one_of(
    st.integers(-5, 5).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
    st.tuples(st.integers(-3, 3),
              st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)).map(TPoly),
)
TERMS = st.lists(
    st.tuples(st.sampled_from(SYM_KINDS),
              st.integers(0, 6).flatmap(lambda n: st.sampled_from(list(partitions(n)))),
              COEFFS),
    min_size=1, max_size=4)


def combination(terms):
    out = QSymExpr()
    for kind, lam, coeff in terms:
        out = out + basis_sym(kind, lam).scale(coeff)
    return out


@settings(max_examples=30, deadline=None)
@given(TERMS)
def test_partition_rows_match_the_dense_solve(terms):
    f = combination(terms)
    for kind in SYM_KINDS:
        coords = to_sym_basis(f, kind)
        assert shape_of(coords) == shape_of(dense_to_sym_basis(f, kind))


@settings(max_examples=15, deadline=None)
@given(TERMS, st.sampled_from([(1, 2), (2, 1, 1), (1, 3, 2)]))
def test_nonsymmetric_input_raises_the_same_error(terms, alpha):
    f = combination(terms) + basis_M(alpha)
    for kind in SYM_KINDS:
        with pytest.raises(ValueError) as new:
            to_sym_basis(f, kind)
        with pytest.raises(ValueError) as ref:
            dense_to_sym_basis(f, kind)
        assert str(new.value) == str(ref.value) == "expression is not symmetric"


def test_coordinates_come_in_the_dense_solves_order():
    # t first occurs on (1, 2), before the constant term of (3,)
    t = TPoly.t_power(1)
    f = QSymExpr({(1, 2): t, (3,): 1, (2, 1): t})
    for kind in SYM_KINDS:
        assert shape_of(to_sym_basis(f, kind)) == shape_of(dense_to_sym_basis(f, kind))
    assert list(to_sym_basis(f, "m")) == [(2, 1), (3,)]


@pytest.mark.parametrize("n", range(11))
def test_partitions_list_each_partition_after_all_that_dominate_it(n):
    """to_sym_basis keys its rows by the place in partitions(n), which
    keeps the Schur system triangular with no fill only if no partition
    comes before one that strictly dominates it."""
    lams = list(partitions(n))
    for i, j in itertools.combinations(range(len(lams)), 2):
        assert not dominance_leq(lams[i], lams[j]), (lams[i], lams[j])


def test_unknown_kind_is_refused_before_any_work():
    for f in (QSymExpr(), basis_M((1, 2))):
        with pytest.raises(ValueError, match="unknown symmetric basis kind 'zzz'"):
            to_sym_basis(f, "zzz")


def brute_ssyt_contents(lam):
    """Every filling of lam with values 1..n, rows weakly increasing and
    columns strictly increasing, counted per content with no value
    skipped; a partial filling stops once it has more skipped values
    than cells left."""
    n = sum(lam)
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    counts = Counter()
    filling = {}
    used = Counter()

    def fill(k, top):
        if k == n:
            counts[tuple(used[v] for v in range(1, top + 1))] += 1
            return
        i, j = cells[k]
        low = max(filling.get((i, j - 1), 1), filling.get((i - 1, j), 0) + 1)
        for value in range(low, n + 1):
            new_top = max(top, value)
            if new_top - len(used) - (value not in used) > n - k - 1:
                if value > top:
                    break
                continue
            filling[i, j] = value
            used[value] += 1
            fill(k + 1, new_top)
            used[value] -= 1
            if not used[value]:
                del used[value]
        filling.pop((i, j), None)

    fill(0, 0)
    return dict(counts)


def test_kostka_counts_match_brute_force_through_degree_eight():
    for n in range(9):
        for lam in partitions(n):
            assert _ssyt_contents(lam) == brute_ssyt_contents(lam), lam


def test_rearrangements_come_in_lexicographic_order():
    for n in range(8):
        for alpha in compositions(n):
            got = list(distinct_rearrangements(alpha))
            assert got == sorted(set(got)), alpha
            assert set(got) == set(ref_rearrangements(alpha)), alpha
    assert list(distinct_rearrangements(iter([3, 1, 3]))) == [(1, 3, 3), (3, 1, 3), (3, 3, 1)]
