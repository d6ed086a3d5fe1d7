"""
Dense exact linear algebra over the rationals.

Matrices are lists of row tuples/lists of rationals.  One echelon routine,
``rref``, runs fraction free over the integers and returns integer rows with
one denominator; ``nullspace`` reads its basis off that integer form, so no
rational is built.  These routines back the geometric primitives (orthogonal
complements, the hull equations of a chart, the initial simplex of a hull);
the simplex solver has its own fraction-free kernel and does not use this
module for pivoting.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .rationals import Vector, is_zero_vector, scale_to_coprime_ints


def rref(rows: Sequence[Sequence]) -> Tuple[List[List[int]], List[int], int]:
    """
    Reduced row echelon form, fraction free: returns (integer rows, pivot
    columns, det) with det > 0, where the reduced nonzero rows are the
    integer rows divided by det.

    Gauss-Jordan elimination over the integers (Bareiss, 1968): each row is
    scaled to integers, and a pivot on (r, c) replaces every other row by
    ``(row * piv - row[c] * pivot_row) / det``, where ``det`` is the previous
    pivot and the division is exact.  Every pivot row then holds ``det`` in
    its pivot column.
    """
    mat = [list(scale_to_coprime_ints(r)) for r in rows]
    pivots: List[int] = []
    det = 1
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        prow = mat[r]
        piv = prow[c]
        for i, row in enumerate(mat):
            if i == r:
                continue
            f = row[c]
            if f:
                mat[i] = [(a * piv - f * b) // det for a, b in zip(row, prow)]
            elif piv != det:
                mat[i] = [a * piv // det for a in row]
        det = piv
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    if det < 0:
        return [[-x for x in row] for row in mat[:r]], pivots, -det
    return mat[:r], pivots, det


def nullspace(rows: Sequence[Sequence], ncols: Optional[int] = None) -> List[Vector]:
    """Basis of {x : rows @ x = 0}, entries scaled to coprime integers."""
    if not rows:
        if ncols is None:
            raise ValueError("need ncols for empty matrix")
        return [tuple(1 if j == i else 0 for j in range(ncols)) for i in range(ncols)]
    n = len(rows[0])
    reduced, pivots, det = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [0] * n
        vec[free] = det
        for row, c in zip(reduced, pivots):
            vec[c] = -row[free]
        basis.append(scale_to_coprime_ints(vec))
    return basis


def orthogonal_complement(vectors: Sequence[Sequence], dim: int) -> List[Vector]:
    """Basis of the orthogonal complement of span(vectors) inside R^dim."""
    vecs = [v for v in vectors if not is_zero_vector(v)]
    if not vecs:
        return [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    return nullspace(vecs, dim)
