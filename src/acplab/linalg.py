"""Exact elimination over the rationals: RREF, rank, solve, nullspace, inverse.

Matrices are lists of integer rows, and results are integer numerators over
one positive denominator d; a caller with rational data scales it to
integers first.  Elimination is fraction-free Gauss-Jordan (Bareiss 1968;
Cohen, A Course in Computational Algebraic Number Theory, 2.2): every step
divides exactly by the previous pivot, and `rref` returns integer rows with
rows == d * RREF for one common d > 0, the last pivot up to sign.
Everything is deterministic (no pivot heuristics beyond first-nonzero), so
downstream callers get reproducible kernels and solutions.
"""

from __future__ import annotations


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def rref(matrix):
    """Fraction-free reduced row echelon form of an integer matrix.

    Returns (rows, pivot_columns, d): integer rows with rows == d * RREF of
    the matrix, where d > 0 is the common value of every pivot entry (1
    when there is no pivot).  A non-integer entry is a TypeError: the
    exact divisions below would silently floor it.
    """
    rows = [list(row) for row in matrix]
    if not all(isinstance(a, int) for row in rows for a in row):
        raise TypeError("linalg takes integer rows; scale rational data first")
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        # Bareiss step: every entry stays a minor of the input, so the
        # division by the previous pivot is exact, and the earlier pivot
        # entries all become pv
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [(pv * a - f * b) // prev for a, b in zip(rows[i], prow)]
            elif pv != prev:
                rows[i] = [pv * a // prev for a in rows[i]]
        prev = pv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if prev < 0:
        return [[-a for a in row] for row in rows], pivots, -prev
    return rows, pivots, prev


def rank(matrix):
    return len(rref(matrix)[1])


def nullspace(matrix):
    """Basis of the right kernel, one vector per free column, in column
    order, as (vectors, d): the basis vectors are vectors[i] / d, d > 0."""
    if not matrix:
        return [], 1
    ncols = len(matrix[0])
    rows, pivots, d = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = d
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(v)
    return basis, d


def solve(matrix, rhs):
    """One solution of matrix @ x = rhs as (nums, d): x = nums / d with
    d > 0; or None if the system is inconsistent."""
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    rows, pivots, d = rref(aug)
    ncols = len(matrix[0])
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    return x, d


def invert(matrix):
    """The inverse as (rows, d): the inverse is rows / d with d > 0; or
    None if the matrix is singular."""
    n = len(matrix)
    aug = [list(matrix[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    rows, pivots, d = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rows[:n]], d
