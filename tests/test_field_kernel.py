"""The integer field kernel against a plain Fraction reference.

The reference below reads the presentation data straight from the shipped
JSON documents (or builds it here), multiplies with dense Fraction loops
and never calls the package's arithmetic, so it checks the product,
apply_automorphism and trace independently of the code under test.  The
composite maps (embed_element, orbit_product, relative_norm) are checked
the same way against dense Fraction matrix products written here.
"""

import json
import pathlib
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from acplab import extension_lab as xl
from acplab import fixtures
from acplab.extension_lab import validate_composite
from acplab.field_core import GaloisExtensionPresentation, validate_galois_data

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _raw(doc):
    """(orders, labels, structure constants, unit, sigma) as Fractions."""
    def vec(v):
        return [Fraction(x) for x in v]

    return (tuple(doc["orders"]), tuple(doc["basis"]),
            [[vec(v) for v in row] for row in doc["structure_constants"]],
            vec(doc["unit"]), [[vec(r) for r in mat] for mat in doc["sigma"]])


def _inverse(c):
    n = len(c)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(c)]
    for col in range(n):
        p = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[p] = rows[p], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i in range(n):
            if i != col:
                rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[col])]
    return [r[n:] for r in rows]


def _rebased(data, c):
    """The same field on the basis f_j = sum_a c[a][j] * e_a."""
    orders, labels, sc, unit, sigma = data
    n = len(labels)
    ci = _inverse(c)

    def to_f(v):
        return [sum((ci[k][a] * v[a] for a in range(n)), Fraction(0)) for k in range(n)]

    def product(i, j):     # f_i * f_j in e-coordinates
        return [sum((c[a][i] * c[b][j] * sc[a][b][k] for a in range(n) for b in range(n)),
                    Fraction(0)) for k in range(n)]

    sc2 = [[to_f(product(i, j)) for j in range(n)] for i in range(n)]
    sigma2 = []
    for s in sigma:
        cols = [to_f([sum((s[a][b] * c[b][j] for b in range(n)), Fraction(0))
                      for a in range(n)]) for j in range(n)]
        sigma2.append([[cols[j][k] for j in range(n)] for k in range(n)])
    return orders, labels, sc2, to_f(unit), sigma2


def _load(path, *keys):
    doc = json.loads((FIXTURE_DIR / path).read_text())
    for key in keys:
        doc = doc[key]
    return _raw(doc)


B = _load("instance-b.json", "extension")
CASES = {
    "instance-b3": _load("instance-b3.json", "extension"),
    "b3-sqrt5": _load("composite-b3-sqrt5.json", "composite"),
    # non-integer structure constants, sigma entries and unit coordinates
    "instance-b-rebased": _rebased(B, [[Fraction(2), Fraction(0), Fraction(0), Fraction(-1, 3)],
                                       [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(0)],
                                       [Fraction(0), Fraction(0), Fraction(3), Fraction(0)],
                                       [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]]),
}
PRESENTATIONS = {name: GaloisExtensionPresentation(*data, name=name)
                 for name, data in CASES.items()}


def ref_mul(data, x, y):
    sc = data[2]
    n = len(x)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            if x[i] and y[j]:
                for k in range(n):
                    out[k] += x[i] * y[j] * sc[i][j][k]
    return out


def ref_matmul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]


def ref_sigma_powers(data):
    orders, labels, _sc, _unit, sigma = data
    n = len(labels)
    powers = {(): [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]}
    for s, order in zip(sigma, orders):
        powers = {m + (e,): mat for m, mat in powers.items() for e in range(order)}
        for m in powers:
            for _ in range(m[-1]):
                powers[m] = ref_matmul(s, powers[m])
    return powers


SIGMA_POWERS = {name: ref_sigma_powers(data) for name, data in CASES.items()}


def ref_trace(data, x):
    """The trace of y -> x*y: the diagonal entries sum_i x_i sc[i][j][j]."""
    sc = data[2]
    n = len(x)
    return sum((x[i] * sc[i][j][j] for j in range(n) for i in range(n)), Fraction(0))


def coords(n):
    # about half the coordinates zero, the rest small rationals
    return st.lists(st.one_of(st.just(Fraction(0)),
                              st.fractions(-20, 20, max_denominator=12)),
                    min_size=n, max_size=n)


def test_rebased_presentation_is_a_galois_extension():
    p = PRESENTATIONS["instance-b-rebased"]
    assert any(c.denominator > 1 for row in p.structure_constants for vec in row for c in vec)
    assert any(c.denominator > 1 for s in p.sigma for row in s for c in row)
    assert validate_galois_data(p).ok


def test_trivial_composite_with_unit_off_the_first_basis_vector():
    p = PRESENTATIONS["instance-b-rebased"]
    assert p.unit_coords != (1, 0, 0, 0)
    comp = fixtures.trivial_composite(p)
    assert comp.composite.unit_coords == p.unit_coords
    assert validate_composite(comp.base, comp.ext_field, comp.composite,
                              comp.embed, comp.rel_gal).ok


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernel_matches_fraction_reference(name, data):
    p, raw = PRESENTATIONS[name], CASES[name]
    xc = data.draw(coords(p.dim), label="x")
    yc = data.draw(coords(p.dim), label="y")
    x, y = p.element(xc), p.element(yc)

    xy = x * y
    assert list(xy.coords) == ref_mul(raw, xc, yc)
    assert xy == y * x and hash(xy) == hash(y * x)
    same = p.element(ref_mul(raw, xc, yc))
    assert xy.coords == same.coords and hash(xy) == hash(same)
    assert all(type(c) is Fraction for c in xy.coords)

    for m, mat in SIGMA_POWERS[name].items():
        image = p.apply_automorphism(m, x)
        expected = [sum((mat[i][j] * xc[j] for j in range(p.dim)), Fraction(0))
                    for i in range(p.dim)]
        assert list(image.coords) == expected, m
        assert hash(image) == hash(p.element(expected))

    assert p.trace(x) == ref_trace(raw, xc)


def ref_apply(mat, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in mat]


def ref_kron_identity(n, mat):
    """1 (x) mat on the product basis, left index slowest."""
    d = len(mat)
    return [[mat[i % d][j % d] if i // d == j // d else Fraction(0)
             for j in range(n * d)] for i in range(n * d)]


def _composite_reference(comp, embed, tau):
    """(composite, dense embed, dense powers of tau over one full orbit)."""
    powers = [tau]
    while powers[-1] != [[Fraction(int(i == j)) for j in range(len(tau))]
                         for i in range(len(tau))]:
        powers.append(ref_matmul(tau, powers[-1]))
    assert len(powers) == comp.t
    return comp, embed, powers


@lru_cache(maxsize=None)
def _b3_sqrt5():
    doc = json.loads((FIXTURE_DIR / "composite-b3-sqrt5.json").read_text())
    embed = [[Fraction(x) for x in row] for row in doc["embed"]]
    tau = [[Fraction(x) for x in row] for row in doc["rel_gal"][0]]
    return _composite_reference(fixtures.composite_b3_sqrt5(), embed, tau)


@lru_cache(maxsize=None)
def _rebased_cubic7():
    """The cyclic cubic field of conductor 7 over the rebased instance-b: K
    at the basis positions 3a, the relative group generated by 1 (x) tau."""
    base = PRESENTATIONS["instance-b-rebased"]
    cubic = fixtures._cubic_factors()[0]
    comp = fixtures._tensor_composite(base, cubic, "rebased-cubic7")
    embed = [[Fraction(int(i == 3 * a)) for a in range(base.dim)] for i in range(3 * base.dim)]
    tau = ref_kron_identity(base.dim, [[Fraction(x) for x in row] for row in cubic.automorphism()])
    return _composite_reference(comp, embed, tau)


COMPOSITES = {"b3-sqrt5": _b3_sqrt5, "instance-b-rebased-cubic7": _rebased_cubic7}


@pytest.mark.parametrize("name", sorted(COMPOSITES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_composite_maps_match_fraction_reference(name, data):
    comp, embed, powers = COMPOSITES[name]()
    k, big = comp.base, comp.composite
    xc = data.draw(coords(k.dim), label="x")
    yc = data.draw(coords(big.dim), label="y")

    up = xl.embed_element(comp, k.element(xc))
    assert list(up.coords) == ref_apply(embed, xc)
    assert hash(up) == hash(big.element(ref_apply(embed, xc)))

    expected = big.one()
    for mat in powers:
        expected = expected * big.element(ref_apply(mat, yc))
    y = big.element(yc)
    assert xl.orbit_product(comp, y) == expected
    assert xl.embed_element(comp, xl.relative_norm(comp, y)) == expected
