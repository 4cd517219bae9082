"""The integer field kernel against a plain Fraction reference.

The reference below reads the presentation data straight from the shipped
JSON documents (or builds it here), multiplies with dense Fraction loops
and never calls the package's arithmetic, so it checks the product,
apply_automorphism and trace independently of the code under test.  The
composite maps (embed_element, orbit_product, relative_norm) are checked
the same way against dense Fraction matrix products written here.
"""

import gc
import json
import pathlib
import random
import weakref
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from acplab import cli, fixtures, linalg, serialize
from acplab import extension_lab as xl
from acplab.crossed_product import validate_relations
from acplab.extension_lab import validate_composite
from acplab.field_core import (GaloisExtensionPresentation, _eliminate_inverse,
                               validate_galois_data)

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


def scalars(nonzero=False):
    # negative and non-integral values included
    out = st.fractions(-9, 9, max_denominator=7)
    return out.filter(bool) if nonzero else out


def ref_scalar_part(unit, x):
    pivot = next(k for k, u in enumerate(unit) if u)
    q = x[pivot] / unit[pivot]
    return q if all(c == q * u for c, u in zip(x, unit)) else None


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_element_operations_match_fraction_reference(name, data):
    p, raw = PRESENTATIONS[name], CASES[name]
    unit = raw[3]
    xc = data.draw(coords(p.dim).filter(any), label="x")
    yc = data.draw(coords(p.dim), label="y")
    q = data.draw(scalars(), label="q")
    r = data.draw(scalars(nonzero=True), label="r")
    x, y = p.element(xc), p.element(yc)

    assert list((x + y).coords) == [a + b for a, b in zip(xc, yc)]
    assert list((x - y).coords) == [a - b for a, b in zip(xc, yc)]
    assert list((-x).coords) == [-a for a in xc]
    assert list((x * q).coords) == list((q * x).coords) == [q * a for a in xc]
    assert list((x / r).coords) == [a / r for a in xc]
    assert list((x + q).coords) == list((q + x).coords) == [a + q * u for a, u in zip(xc, unit)]
    assert list((x - q).coords) == [a - q * u for a, u in zip(xc, unit)]
    assert list(p.scalar(q).coords) == [q * u for u in unit]

    inverse = p.inv(x)
    assert ref_mul(raw, list(inverse.coords), xc) == unit
    assert list((y / x).coords) == ref_mul(raw, yc, list(inverse.coords))
    assert list((x ** -2).coords) == ref_mul(raw, list(inverse.coords), list(inverse.coords))
    assert x ** -1 == inverse and x ** 0 == p.one()

    assert p.scalar_part(x) == ref_scalar_part(unit, xc)
    assert x.is_scalar() == (ref_scalar_part(unit, xc) is not None)
    assert p.scalar_part(p.scalar(q)) == q and p.scalar(q).is_scalar()
    assert p.scalar_part(p.zero()) == 0


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_equal_values_are_equal_across_construction_routes(name, data):
    p = PRESENTATIONS[name]
    xc = data.draw(coords(p.dim), label="x")
    yc = data.draw(coords(p.dim), label="y")
    r = data.draw(scalars(nonzero=True), label="r")
    x, y = p.element(xc), p.element(yc)

    routes = [
        (p.element([a / 2 for a in xc]), x * Fraction(1, 2)),
        (p.element([a / 2 for a in xc]), x / 2),
        (x, (x + y) - y),
        (x, (x * r) / r),
        (x, -(-x)),
        (p.zero(), x - x),
        (p.zero(), x * 0),
        (p.zero(), p.element([0] * p.dim)),
        (p.scalar(r), p.one() * r),
        (p.scalar(r), r * p.one()),
        (p.one(), p.scalar(1)),
        (p.one(), p.element(p.unit_coords)),
        (p.basis_element(0), p.element([1] + [0] * (p.dim - 1))),
        (x + y, y + x),
    ]
    for a, b in routes:
        assert a == b and hash(a) == hash(b) and a.coords == b.coords
    assert (x + p.one() == x) is False


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_results_are_in_normal_form(name, data):
    """nums / den with den > 0 and gcd(den, *nums) == 1, so zero is 0/1."""
    p = PRESENTATIONS[name]
    xc = data.draw(coords(p.dim).filter(any), label="x")
    yc = data.draw(coords(p.dim), label="y")
    r = data.draw(scalars(nonzero=True), label="r")
    x, y = p.element(xc), p.element(yc)
    m = p.unit_exponent(0)
    results = [x, y, x + y, x - y, y - y, -x, x * r, x * 0, r * x, x / r, x + r, x - r,
               x * y, y / x, x ** -2, p.inv(x), p.zero(), p.one(), p.scalar(r),
               p.basis_element(0), p.random_element(random.Random(1)),
               p.apply_automorphism(m, x), p.hilbert90_solve(m, p.apply_automorphism(m, x) / x),
               *p.fixed_subspace(m)]
    for z in results:
        assert type(z.nums) is tuple and all(type(v) is int for v in z.nums)
        assert type(z.den) is int and z.den > 0
        assert gcd(z.den, *z.nums) == 1
    assert (y - y).nums == (0,) * p.dim and (y - y).den == 1


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


@lru_cache(maxsize=None)
def _rescaled_cubic7():
    """The rebased cubic composite on the composite basis f_j = scale[j] * e_j,
    so that the embedding has non-integral entries too."""
    comp, embed, powers = _rebased_cubic7()
    big = comp.composite
    n = big.dim
    scale = [Fraction(2 + j % 4, 1 + j % 3) for j in range(n)]

    def on_f(mat):      # the same linear map, on the f basis
        return [[mat[k][j] * scale[j] / scale[k] for j in range(n)] for k in range(n)]

    sc = [[[c * scale[i] * scale[j] / scale[k]
            for k, c in enumerate(big.structure_constants[i][j])] for j in range(n)]
          for i in range(n)]
    unit = [c / scale[k] for k, c in enumerate(big.unit_coords)]
    composite = GaloisExtensionPresentation(big.orders, big.basis_labels, sc, unit,
                                            [on_f(s) for s in big.sigma], name="rescaled")
    embed = [[x / scale[k] for x in row] for k, row in enumerate(embed)]
    tau = on_f(powers[0])
    rescaled = xl.build_tensor_extension(comp.base, comp.ext_field, composite, embed, [tau])
    return _composite_reference(rescaled, embed, tau)


COMPOSITES = {"b3-sqrt5": _b3_sqrt5, "instance-b-rebased-cubic7": _rebased_cubic7,
              "instance-b-rebased-cubic7-rescaled": _rescaled_cubic7}


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


@pytest.mark.parametrize("name", ["instance-b-rebased-cubic7",
                                  "instance-b-rebased-cubic7-rescaled"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_restrict_inverts_embed_on_non_integral_composites(name, data):
    comp = COMPOSITES[name]()[0]
    x = comp.base.element(data.draw(coords(comp.base.dim), label="x"))
    up = xl.embed_element(comp, x)
    assert xl.restrict_element(comp, up) == x
    with pytest.raises(ValueError):
        xl.restrict_element(comp, up + comp.composite.basis_element(1))


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_group_inverse_matches_elimination(name, data):
    """Inversion through the group (through the minimal polynomial of the
    norm on the composite) gives the value elimination gives."""
    p = PRESENTATIONS[name]
    x = p.element(data.draw(coords(p.dim).filter(any), label="x"))
    assert p.inv(x) == _eliminate_inverse(p, x)


def test_inversion_elimination_counts(monkeypatch):
    """Counts that do not depend on the machine: an inverse in instance-b3
    eliminates nothing, one in the b3-sqrt5 composite eliminates at most
    one matrix of at most 3 columns, and a relative norm down from that
    composite inverts once."""
    comp = fixtures.composite_b3_sqrt5()
    k, big = comp.base, comp.composite
    widths = []
    rref = linalg.rref

    def counted_rref(matrix):
        widths.append(len(matrix[0]))
        return rref(matrix)

    monkeypatch.setattr(linalg, "rref", counted_rref)
    rng = random.Random(7)
    for x in [k.random_element(rng) for _ in range(10)]:
        widths.clear()
        assert k.inv(x) * x == k.one()
        assert widths == []
    for y in [big.random_element(rng) for _ in range(10)]:
        widths.clear()
        assert big.inv(y) * y == big.one()
        assert len(widths) <= 1 and all(w <= 3 for w in widths)

    inverted = []
    inv = GaloisExtensionPresentation.inv

    def counted_inv(p, x):
        inverted.append(p)
        return inv(p, x)

    monkeypatch.setattr(GaloisExtensionPresentation, "inv", counted_inv)
    for y in [big.random_element(rng) for _ in range(10)]:
        inverted.clear()
        xl.relative_norm(comp, y)
        assert inverted == [k]


def test_elimination_sees_only_integer_rows(monkeypatch, capsys):
    """Every matrix that reaches linalg.rref holds ints only: in acplab demo,
    and in building, restricting to and norming down from a composite whose
    presentation and embedding are non-integral."""
    rref = linalg.rref

    def integer_rref(matrix):
        assert all(type(x) is int for row in matrix for x in row)
        return rref(matrix)

    monkeypatch.setattr(linalg, "rref", integer_rref)
    assert cli.main(["demo"]) == cli.EXIT_PASS
    capsys.readouterr()
    comp, _embed, powers = _rescaled_cubic7.__wrapped__()     # a fresh, uncached build
    k, big = comp.base, comp.composite
    assert comp.embed_columns[1] > 1
    y = big.element([Fraction(j - 5, j + 1) for j in range(big.dim)])
    expected = big.one()
    for mat in powers:
        expected = expected * big.element(ref_apply(mat, y.coords))
    assert xl.embed_element(comp, xl.relative_norm(comp, y)) == expected
    x = k.element([Fraction(1, 3), 0, Fraction(-5, 2), 7])
    assert xl.restrict_element(comp, xl.embed_element(comp, x)) == x


def _parse_validate_and_compute():
    """Parse instance-b3 and the b3-sqrt5 composite over it, validate both,
    invert and multiply a few elements; return weak references to the
    presentations, the algebra and the composite."""
    alg = serialize.algebra_from_doc(serialize.load_document(FIXTURE_DIR / "instance-b3.json"))
    comp = serialize.composite_from_doc(
        serialize.load_document(FIXTURE_DIR / "composite-b3-sqrt5.json"), base=alg.ext)
    k, big = alg.ext, comp.composite
    assert validate_galois_data(k).ok and validate_relations(k, alg.data).ok
    assert validate_composite(comp.base, comp.ext_field, big, comp.embed, comp.rel_gal).ok
    x = k.basis_element(1) + 2
    y = big.basis_element(3) - Fraction(1, 3)
    assert k.inv(x) * x == k.one() and x ** -2 * x * x == k.one()
    assert big.inv(y) * y == big.one()
    assert xl.embed_element(comp, xl.relative_norm(comp, y)) == xl.orbit_product(comp, y)
    assert alg.gen(1) * alg.gen(0) * x != x * alg.gen(0) * alg.gen(1)
    return [weakref.ref(obj) for obj in (k, big, comp.ext_field, alg, comp)]


def test_elements_hold_no_reference_cycles():
    """Everything parsed for one job is freed by reference counting alone
    once the last reference goes, as in a CLI run: no element is cached on
    the presentation it refers to."""
    gc.collect()
    gc.disable()
    try:
        refs = _parse_validate_and_compute()
        assert [r() is None for r in refs] == [True] * len(refs)
    finally:
        gc.enable()
