from fractions import Fraction

from chromexp.linalg import exact_rank, solve_combination


def test_unique_solution():
    columns = [{"a": 1, "b": 1}, {"a": 1, "b": -1}]
    assert solve_combination(columns, {"a": 3, "b": 1}) == [2, 1]


def test_fractional_solution_is_exact():
    columns = [{"a": 2}, {"b": 3}]
    solution = solve_combination(columns, {"a": 1, "b": 1})
    assert solution == [Fraction(1, 2), Fraction(1, 3)]
    assert all(isinstance(x, Fraction) for x in solution)


def test_underdetermined_system_sets_free_coefficients_to_zero():
    columns = [{"a": 1}, {"a": 2}, {"b": 1}]
    assert solve_combination(columns, {"a": 4, "b": 5}) == [4, 0, 5]


def test_inconsistent_system_has_no_solution():
    columns = [{"a": 1, "b": 1}]
    assert solve_combination(columns, {"a": 1, "b": 2}) is None
    assert solve_combination(columns, {"c": 1}) is None


def test_no_columns():
    assert solve_combination([], {}) == []
    assert solve_combination([], {"a": 0}) == []
    assert solve_combination([], {"a": 1}) is None


def test_rank_of_dependent_vectors():
    vectors = [{"a": 1, "b": 2}, {"a": 2, "b": 4}, {"b": 1}, {"a": 1, "b": 3}]
    assert exact_rank(vectors) == 2


def test_rank_of_zero_vectors():
    assert exact_rank([{}, {"a": 0}]) == 0
    assert exact_rank([{"a": 0}, {"a": Fraction(1, 3)}]) == 1


def test_rank_of_the_empty_list():
    assert exact_rank([]) == 0


def test_rank_of_independent_vectors_beyond_the_row_count():
    assert exact_rank([{"a": 1}, {"b": 1}, {"a": 1, "b": 1}, {"a": 5}]) == 2
    assert exact_rank([{"a": 1}, {"b": 1}, {"c": 1}]) == 3
