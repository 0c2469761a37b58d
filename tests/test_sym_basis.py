"""Differential tests of symmetric-basis conversion.

`to_sym_basis` reads the m coordinates off the partition rows and the
others by triangular substitution through one prefix table per degree
(`_prefix_table`): the Kostka table for s, h and e, and the power-sum
table for p. `basis_sym` and `sym_basis` read their elements off the
same tables. The references build every element from its definition
(`reference.definition_basis_sym`): products of one-part elements, and
one chain of horizontal strips per (lam, mu) pair for s, which is
checked against a brute-force count of semistandard fillings. The
coordinates are checked against the partition-row solve over those
columns (`reference.partition_row_to_sym_basis`) and the dense solve
over every composition row that came before it, kept here, and
`distinct_rearrangements` against the permutation walk with a seen-set
that it replaced.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chromexp import qsym
from chromexp.chromatic import expand
from chromexp.combinat import (
    compositions, distinct_rearrangements, lambda_superfactorial, partitions)
from chromexp.graph import parse_dsl
from chromexp.linalg import solve_combination
from chromexp.qsym import (
    SYM_KINDS,
    QSymExpr,
    _add_part,
    _horizontal_strips,
    _prefix_table,
    basis_M,
    basis_sym,
    sym_basis,
    to_sym_basis,
)
from chromexp.tpoly import TPoly, coefficients, evaluate
from reference import (
    _kostka,
    _ssyt_contents,
    definition_basis_sym,
    dominance_leq,
    partition_row_to_sym_basis,
    sort_to_partition,
)


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
        columns = [{k: evaluate(c, 1)
                    for k, c in definition_basis_sym(kind, lam).terms.items()}
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


# t-graded expansions of degree 8 (grid(4,3,1) is symmetric only at t = 1),
# of degree 0, and of several degrees
EXPANSIONS = {dsl: expand(parse_dsl(dsl)) for dsl in ("P(8)", "K(8)", "grid(4,3,1)", "D(P(3),P(5))")}
EXPANSIONS["one"] = QSymExpr.one()
EXPANSIONS["zero"] = QSymExpr()
EXPANSIONS["K(1)+P(3)+K(4)"] = QSymExpr.sum_of(
    expand(parse_dsl(dsl)) for dsl in ("K(1)", "P(3)", "K(4)")) + QSymExpr.one().scale(3)


@pytest.mark.parametrize("t", [True, False], ids=["t", "t=1"])
@pytest.mark.parametrize("name", EXPANSIONS)
def test_substitution_matches_the_partition_row_solve_on_expansions(name, t):
    f = EXPANSIONS[name] if t else EXPANSIONS[name].at_t(1)
    for kind in SYM_KINDS:
        try:
            want = shape_of(partition_row_to_sym_basis(f, kind))
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{err}$"):
                to_sym_basis(f, kind)
        else:
            assert shape_of(to_sym_basis(f, kind)) == want, kind


DEGREE_8_TERMS = st.lists(
    st.tuples(st.sampled_from(SYM_KINDS),
              st.integers(7, 8).flatmap(lambda n: st.sampled_from(list(partitions(n)))),
              COEFFS),
    min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(st.one_of(TERMS, DEGREE_8_TERMS))
def test_substitution_matches_the_partition_row_solve_on_combinations(terms):
    f = combination(terms)
    for kind in SYM_KINDS:
        assert shape_of(to_sym_basis(f, kind)) == shape_of(partition_row_to_sym_basis(f, kind))


@pytest.mark.parametrize("n", range(9))
def test_kostka_table_matches_the_bounded_strip_count(n):
    table = _prefix_table(n, _horizontal_strips)
    assert list(table) == list(partitions(n))
    for mu in partitions(n):
        assert table[mu] == {lam: k for lam in partitions(n) if (k := _kostka(lam, mu))}, mu


@pytest.mark.parametrize("n", range(11))
def test_kostka_table_is_unitriangular_in_partition_order(n):
    place = {lam: i for i, lam in enumerate(partitions(n))}
    for mu, column in _prefix_table(n, _horizontal_strips).items():
        assert column[mu] == 1
        assert all(place[lam] <= place[mu] and k > 0 for lam, k in column.items()), mu


@pytest.mark.parametrize("n", range(11))
def test_power_sum_table_is_triangular_with_the_superfactorial_diagonal(n):
    place = {lam: i for i, lam in enumerate(partitions(n))}
    table = _prefix_table(n, _add_part)
    assert list(table) == list(partitions(n))
    for mu, row in table.items():
        assert row[mu] == lambda_superfactorial(mu), mu
        assert all(place[lam] <= place[mu] and k > 0 for lam, k in row.items()), mu


def typed_terms(f):
    return {k: (type(c), c) for k, c in f.terms.items()}


def test_elements_match_their_definitions_through_degree_eight():
    for n in range(9):
        for lam in partitions(n):
            for kind in SYM_KINDS:
                want = typed_terms(definition_basis_sym(kind, lam))
                assert typed_terms(basis_sym(kind, lam)) == want, (kind, lam)


def test_a_listing_holds_the_elements_one_at_a_time():
    for n in range(9):
        for kind in SYM_KINDS:
            listing = sym_basis(kind, n)
            assert list(listing) == list(partitions(n))
            for lam, f in listing.items():
                assert typed_terms(f) == typed_terms(basis_sym(kind, lam)), (kind, lam)
    for make in (lambda: sym_basis("zzz", 2), lambda: basis_sym("zzz", (2,))):
        with pytest.raises(ValueError, match="unknown symmetric basis kind 'zzz'"):
            make()


def refuse(*args, **kwargs):
    raise AssertionError("the substitution path built a column or ran a solve")


def test_substitution_builds_no_column_and_runs_no_solve(monkeypatch):
    inputs = [EXPANSIONS["K(8)"], EXPANSIONS["grid(4,3,1)"].at_t(1),
              EXPANSIONS["K(1)+P(3)+K(4)"],
              combination([("h", (3, 2, 1), Fraction(2, 3)), ("e", (4, 1), 5),
                           ("p", (2, 2), TPoly((1, Fraction(-1, 2))))])]
    want = {(i, kind): partition_row_to_sym_basis(f, kind)
            for i, f in enumerate(inputs) for kind in SYM_KINDS}
    monkeypatch.setattr(qsym, "basis_sym", refuse)
    monkeypatch.setattr(qsym, "sym_basis", refuse)
    monkeypatch.setattr("chromexp.linalg.solve_combination", refuse)
    for (i, kind), coords in want.items():
        assert shape_of(to_sym_basis(inputs[i], kind)) == shape_of(coords)


@pytest.mark.parametrize("n", range(11))
def test_partitions_list_each_partition_after_all_that_dominate_it(n):
    """to_sym_basis substitutes through the prefix tables in the order of
    partitions(n), which reads each coordinate after those it depends on
    only if no partition comes before one that strictly dominates it."""
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
