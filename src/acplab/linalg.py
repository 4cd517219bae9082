"""Exact linear algebra over rationals: RREF, rank, solve, nullspace, inverse.

Matrices are lists of lists of Fraction; vectors are lists of Fraction.
Everything is deterministic (no pivot heuristics beyond first-nonzero), so
downstream callers get reproducible kernels and solutions.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_vec(m, v):
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), ZERO) for row in m]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[ZERO] * cols for _ in range(rows)]
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            aik = arow[k]
            if not aik:
                continue
            brow = b[k]
            for j in range(cols):
                if brow[j]:
                    orow[j] += aik * brow[j]
    return out


def mat_pow(m, k):
    n = len(m)
    out = identity(n)
    base = m
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base) if k > 1 else base
        k >>= 1
    return out


def rref(matrix):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
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
        pv = rows[r][c]
        if pv != ONE:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(matrix):
    return len(rref(matrix)[1])


def nullspace(matrix):
    """Basis of the right kernel, one vector per free column, in column order."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(v)
    return basis


def solve(matrix, rhs):
    """One solution of matrix @ x = rhs, or None if inconsistent."""
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    rows, pivots = rref(aug)
    ncols = len(matrix[0])
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    return x


def invert(matrix):
    """Matrix inverse, or None if singular."""
    n = len(matrix)
    aug = [list(matrix[i]) + identity(n)[i] for i in range(n)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rows[:n]]
