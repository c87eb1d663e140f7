"""Small exact linear algebra over the integers.

Rows are sparse dicts {column key: nonzero int}; column keys are ints
ordered naturally.  Matrices are lists of int rows.  Callers with rational
entries clear the denominators first.  Nothing here knows about blades —
callers map blade masks to columns.
"""

from __future__ import annotations

from math import gcd


class RowBasis:
    """Incremental row-echelon basis for sparse integer vectors.

    Rows are {column: nonzero int}; callers clear denominators.  Elimination
    is fraction-free, as in Bareiss, Math. Comp. 22 (1968), but keeps entries
    small by primitive parts instead of exact division: each pivot row is
    kept primitive (content 1, positive leading entry), and a row is reduced
    against a pivot by integer cross-multiplication scaled down by the gcd
    of the two leading entries.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        row = dict(row)  # the copy keeps the caller's row intact
        while row:
            lead = min(row)
            pivot = self._pivots.get(lead)
            if pivot is None:
                return row
            a, p = row[lead], pivot[lead]
            g = gcd(a, p)
            a //= g
            p //= g
            if p != 1:
                row = {k: v * p for k, v in row.items()}
            for col, val in pivot.items():
                new = row.get(col, 0) - a * val
                if new:
                    row[col] = new
                else:
                    row.pop(col, None)
            if p != 1 and row:
                # the scaling may have left a common factor behind
                content = gcd(*row.values())
                if content != 1:
                    row = {k: v // content for k, v in row.items()}
        return row

    def add(self, row: dict[int, int]) -> bool:
        """Insert a vector; True iff it enlarged the span."""
        residue = self._reduce(row)
        if not residue:
            return False
        lead = min(residue)
        content = gcd(*residue.values())
        if residue[lead] < 0:
            content = -content
        self._pivots[lead] = {k: v // content for k, v in residue.items()}
        return True

    def contains(self, row: dict[int, int]) -> bool:
        return not self._reduce(row)


def det(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination with row pivoting.

    Every division inside the elimination is exact (Bareiss, Math. Comp. 22,
    1968).
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for i in range(n):
        pivot_row = next((r for r in range(i, n) if m[r][i]), None)
        if pivot_row is None:
            return 0
        if pivot_row != i:
            m[i], m[pivot_row] = m[pivot_row], m[i]
            sign = -sign
        top = m[i]
        lead = top[i]
        for r in range(i + 1, n):
            row = m[r]
            factor = row[i]
            for c in range(i + 1, n):
                row[c] = (lead * row[c] - factor * top[c]) // prev
        prev = lead
    return sign * prev


def leading_principal_minors(matrix: list[list[int]]) -> list[int]:
    """Determinants of the upper-left k x k blocks, k = 1..n."""
    n = len(matrix)
    return [det([row[: k + 1] for row in matrix[: k + 1]]) for k in range(n)]
