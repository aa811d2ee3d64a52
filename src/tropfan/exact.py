"""Exact integer linear algebra.

Everything downstream (circuits, fan cones, ray shooting) depends on exact
zero tests, so no operation here ever touches a float.  Every routine is a
few lines over one elimination core, `gauss_jordan`: Montante's fraction-free
Gauss-Jordan scheme (Bareiss 1968, applied to the rows above the pivot as
well as below), where cross-multiplication is followed by an exact division
by the previous pivot, so every intermediate entry is an integer minor of the
input.  Its step, `pivot_step`, also drives the trie walks of
`Matroid.enumerate_bases`, `Matroid.cyclic_flats` and `discriminant.setup`,
and the fresh basis reduction of `Matroid.fundamental_circuit_masks`.  The
one exception is `integer_kernel_basis`, which needs a basis of the integer
kernel lattice, not only of its span, and so takes unimodular Euclid steps to
a Hermite form.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import index

from .util import primitive


class IntMat(namedtuple("IntMat", "rows cols entries")):
    """Immutable integer matrix, row-major: rows x cols int tuples in entries."""

    # no __slots__ = (): the instance dict holds the cached columns

    @classmethod
    def from_rows(cls, rows) -> "IntMat":
        """Raises TypeError on an entry that is not an integer (a float, a Fraction)."""
        data = tuple(tuple(map(index, row)) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        for row in data:
            if len(row) != width:
                raise ValueError("ragged rows")
        return cls(len(data), width, data)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.entries))

    def row_lists(self) -> list[list[int]]:
        """Mutable copy for elimination routines."""
        return [list(row) for row in self.entries]


def pivot_step(m: list[list[int]], r: int, c: int, prev: int) -> int:
    """One fraction-free Gauss-Jordan step: pivot on column c in row r.

    The first row from r on that is nonzero in column c is swapped into row
    r; every other row i becomes (p * m[i] - m[i][c] * m[r]) / prev, in
    place, with p = m[r][c] and prev the previous pivot.  Returns -1 after a
    swap, else 1 (the determinant's sign), or 0 if column c is zero from r on.
    """
    pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
    if pivot_row is None:
        return 0
    m[r], m[pivot_row] = m[pivot_row], m[r]
    row_r = m[r]
    piv = row_r[c]
    ncols = len(row_r)
    for i, row_i in enumerate(m):
        mic = row_i[c]
        if i != r and mic:
            for j in range(ncols):
                row_i[j] = (row_i[j] * piv - mic * row_r[j]) // prev
        elif i != r and piv != prev:  # otherwise the update leaves the row as it is
            for j in range(ncols):
                row_i[j] = row_i[j] * piv // prev
    return -1 if pivot_row != r else 1


def gauss_jordan(m: list[list[int]]) -> tuple[list[int], int]:
    """Destructive fraction-free Gauss-Jordan reduction of integer rows.

    Each pivot is the first column with a nonzero entry in the rows not yet
    used, as in the reduced row echelon form.  Returns (pivots, d): the pivot
    columns and the determinant of the pivot minor, signed by the row swaps.

    Afterwards row r < len(pivots) has zeros in every other pivot column,
    every pivot entry m[r][pivots[r]] equals the last pivot value p (1 if
    there is none), and row r is p times row r of the reduced row echelon
    form; the remaining rows are zero.
    """
    pivots = []
    prev = sign = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if step := pivot_step(m, r, c, prev):
            sign *= step
            prev = m[r][c]
            pivots.append(c)
    return pivots, sign * prev


def rank(A: IntMat) -> int:
    """Rank over the rationals, computed fraction-free."""
    return len(gauss_jordan(A.row_lists())[0])


def det(A: IntMat) -> int:
    """Exact determinant of a square matrix."""
    if A.rows != A.cols:
        raise ValueError("determinant requires a square matrix")
    pivots, d = gauss_jordan(A.row_lists())
    return d if len(pivots) == A.rows else 0


def integer_kernel_basis(A: IntMat) -> IntMat:
    """A Z-basis of ker A ∩ Z^n: primitive rows K with A @ K^T = 0, first nonzero entry positive.

    Unimodular Euclid steps bring [A^T | I_n] to Hermite form (Cohen, A Course
    in Computational Algebraic Number Theory, §2.4.3), pivoting on the A^T
    columns, then on the identity columns of A's free rref columns, then on
    those of its pivot columns; the rows whose A^T part is zero are the basis.
    So when the rref's kernel vectors, one per free column, span ker A ∩ Z^n,
    they are what comes out.
    """
    m, n = A.rows, A.cols
    pivots, _ = gauss_jordan(A.row_lists())
    if len(pivots) == n:
        raise ValueError("kernel is trivial; matrix has full column rank")
    h = [[*col, *(int(i == j) for j in range(n))] for i, col in enumerate(A.columns)]
    r = 0
    for c in [*range(m), *(m + f for f in range(n) if f not in pivots), *(m + p for p in pivots)]:
        while rest := [i for i in range(r, n) if h[i][c]]:
            i = min(rest, key=lambda i: abs(h[i][c]))
            h[i], h[r] = h[r], [x if h[i][c] > 0 else -x for x in h[i]]  # h[r] last: i may be r
            for i in range(n):  # the other rows' entries into [0, pivot)
                if i != r and (q := h[i][c] // h[r][c]):
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
            if len(rest) == 1:
                r += 1
                break
    return IntMat.from_rows(primitive(row[m:]) for row in h[len(pivots) :])

