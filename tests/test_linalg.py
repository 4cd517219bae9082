"""The fraction-free elimination kernel against a plain Fraction reference.

The reference below is a textbook Gauss-Jordan over Fractions with the same
first-nonzero pivot rule.  The reduced row echelon form is unique, so rref,
rank, nullspace, solve and invert, which take integer rows and return
integer numerators over one d > 0, must all agree with it exactly after
division by d.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from acplab import linalg

F = Fraction


def ref_rref(matrix):
    rows = [[F(x) for x in row] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def ref_nullspace(matrix):
    ncols = len(matrix[0])
    rows, pivots = ref_rref(matrix)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [F(0)] * ncols
        v[free] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(v)
    return basis


def ref_solve(matrix, rhs):
    ncols = len(matrix[0])
    rows, pivots = ref_rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    return x


def ref_invert(matrix):
    n = len(matrix)
    rows, pivots = ref_rref([list(row) + [F(int(i == j)) for j in range(n)]
                             for i, row in enumerate(matrix)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rows]


ENTRY = st.integers(-9, 9)


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(1, 8))
    ncols = nrows if square else draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(ENTRY, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows > 1 and draw(st.booleans()):
        # rank deficiency: one row is a combination of the others
        i = draw(st.integers(0, nrows - 1))
        coeffs = draw(st.lists(ENTRY, min_size=nrows, max_size=nrows))
        rows[i] = [sum(coeffs[k] * rows[k][j] for k in range(nrows) if k != i)
                   for j in range(ncols)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = 0
    return rows


def _apply(matrix, x):
    return [sum(a * b for a, b in zip(row, x)) for row in matrix]


def _over(nums, d):
    """nums / d as Fractions, after checking the integer result format."""
    assert type(d) is int and d > 0
    assert all(type(v) is int for v in nums)
    return [F(v, d) for v in nums]


SINGULAR = [[3, 2], [9, 6]]
ONE_ROW = [[0, 10, -3, 0]]
ONE_COLUMN = [[0], [-3], [8]]
ZERO = [[0] * 3 for _ in range(2)]


@settings(max_examples=100, deadline=None)
@given(matrices())
@example(SINGULAR)
@example(ONE_ROW)
@example(ONE_COLUMN)
@example(ZERO)
def test_rref_rank_nullspace_match_reference(matrix):
    expected, expected_pivots = ref_rref(matrix)
    rows, pivots, d = linalg.rref(matrix)
    assert pivots == expected_pivots
    assert all(type(x) is int for row in rows for x in row)
    assert all(rows[r][c] == d for r, c in enumerate(pivots))
    assert [[F(x, d) for x in row] for row in rows] == expected
    assert linalg.rank(matrix) == len(expected_pivots)
    vectors, d = linalg.nullspace(matrix)
    kernel = [_over(v, d) for v in vectors]
    assert kernel == ref_nullspace(matrix)
    assert all(_apply(matrix, v) == [0] * len(matrix) for v in kernel)


@st.composite
def systems(draw):
    matrix = draw(matrices())
    if draw(st.booleans()):
        x = draw(st.lists(ENTRY, min_size=len(matrix[0]), max_size=len(matrix[0])))
        rhs = _apply(matrix, x)            # consistent
    else:
        rhs = draw(st.lists(ENTRY, min_size=len(matrix), max_size=len(matrix)))
    return matrix, rhs


@settings(max_examples=100, deadline=None)
@given(systems())
@example((SINGULAR, [1, 2]))            # inconsistent
@example((SINGULAR, [1, 3]))            # consistent, singular
@example((ONE_ROW, [-7]))
@example((ONE_COLUMN, [0, 1, 1]))       # inconsistent
@example((ZERO, [0, 1]))                # inconsistent
def test_solve_matches_reference(system):
    matrix, rhs = system
    sol = linalg.solve(matrix, rhs)
    x = None if sol is None else _over(*sol)
    assert x == ref_solve(matrix, rhs)
    if x is not None:
        assert _apply(matrix, x) == rhs


@settings(max_examples=100, deadline=None)
@given(matrices(square=True))
@example(SINGULAR)
@example([[0]])
@example([[-3]])
@example([[0, 1], [2, 0]])              # needs a row swap
def test_invert_matches_reference(matrix):
    inv = linalg.invert(matrix)
    inverse = None if inv is None else [_over(row, inv[1]) for row in inv[0]]
    assert inverse == ref_invert(matrix)
    if inverse is not None:
        n = len(matrix)
        columns = list(zip(*inverse))
        assert [_apply(matrix, col) for col in columns] == [
            [F(int(i == j)) for i in range(n)] for j in range(n)]


def test_rational_entries_are_a_type_error():
    """Floor division would eliminate Fraction rows wrongly: this system
    would come out as x = (2, 0), where its solution is (-40, 63)."""
    rational = [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]
    with pytest.raises(TypeError):
        linalg.solve(rational, [1, 1])
    for op in (linalg.rref, linalg.rank, linalg.nullspace, linalg.invert):
        with pytest.raises(TypeError):
            op(rational)
    with pytest.raises(TypeError):
        linalg.solve([[2, 1], [1, 1]], [F(1, 2), 1])
    # the same system with both rows scaled by 210
    assert linalg.solve([[105, 70], [42, 30]], [210, 210]) == ([-8400, 13230], 210)
