"""Small exact linear algebra over the rationals, for basis conversions,
membership tests, and rank reports. Vectors are dicts keyed by basis
indices; everything is done with fractions.Fraction."""

from __future__ import annotations

from fractions import Fraction


def _reduce(rows, ncols) -> list[int]:
    """Gauss-Jordan elimination of the first ncols columns of rows, in
    place; returns the pivot columns, one per leading row."""
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        # zero entries stay as they are: about half of them on the
        # symmetric-basis systems
        rows[rank] = [x * inv if x else x for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y if y else x for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return pivots


def exact_rank(vectors) -> int:
    """Rank of the span of the given coordinate dicts."""
    keys = sorted({k for vec in vectors for k in vec})
    rows = [[Fraction(vec.get(k, 0)) for vec in vectors] for k in keys]
    return len(_reduce(rows, len(vectors)))


def solve_combination(columns, target):
    """Coefficients x with sum(x_j * columns[j]) == target, or None.

    columns and target are coordinate dicts. When the system is
    underdetermined the free coefficients are set to zero.
    """
    keys = sorted(set(target) | {k for col in columns for k in col})
    rows = [[Fraction(col.get(k, 0)) for col in columns] + [Fraction(target.get(k, 0))]
            for k in keys]
    ncols = len(columns)
    pivots = _reduce(rows, ncols)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        return None
    solution = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        solution[col] = row[ncols]
    return solution
