"""Value vectors, the residue action map, homogeneous arithmetic, audits."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from acplab import crossed_product as cp
from acplab import fixtures
from acplab import graded_val as gv
from acplab import twisted_poly as tp
from acplab.field_core import GaloisExtensionPresentation


@pytest.fixture(scope="module")
def b_graded(b_algebra):
    return gv.GradedCrossedProduct(b_algebra)


@pytest.fixture(scope="module")
def b3_graded(b3_algebra):
    return gv.GradedCrossedProduct(b3_algebra)


def test_value_vector_arithmetic():
    v = gv.ValueVector((0, 0), (1, 1), (2, 2))
    w = gv.ValueVector((1, 0), (1, 0), (2, 2))
    assert (v + w).fractions() == (2, Fraction(1, 2))
    assert (-v).fractions() == (Fraction(-1, 2), Fraction(-1, 2))
    assert not v.in_base_lattice
    assert gv.ValueVector((3, -2), (0, 0), (2, 2)).in_base_lattice
    with pytest.raises(ValueError):
        gv.ValueVector((0, 0), (2, 0), (2, 2))


small = st.tuples(st.integers(-4, 4), st.integers(0, 1),
                  st.integers(-4, 4), st.integers(0, 2))


@given(small, small)
def test_value_vector_addition_laws(a, b):
    orders = (2, 3)
    va = gv.ValueVector((a[0], a[2]), (a[1], a[3]), orders)
    vb = gv.ValueVector((b[0], b[2]), (b[1], b[3]), orders)
    assert (va + vb).fractions() == tuple(
        x + y for x, y in zip(va.fractions(), vb.fractions()))
    assert (va + -va).fractions() == (0, 0)


def test_values_of_generators(b_graded):
    k = b_graded.ext
    z1 = b_graded.gen(0)
    assert b_graded.value_of(z1).fractions() == (Fraction(1, 2), 0)
    x1 = b_graded.central_generator(0)
    assert b_graded.value_of(x1).fractions() == (1, 0)
    assert b_graded.value_of(x1).in_base_lattice
    h = b_graded.homog(k.basis_element(2), (1, 1))
    assert b_graded.value_of(h).fractions() == (Fraction(1, 2), Fraction(1, 2))
    assert not b_graded.value_of(h).in_base_lattice


def test_value_additive_under_products(b_graded, b3_graded, rng):
    for g in (b_graded, b3_graded):
        exps = g.ext.exponents()
        for _ in range(20):
            h1 = g.homog(g.ext.random_element(rng),
                         exps[rng.randrange(len(exps))],
                         tuple(rng.randint(-2, 2) for _ in range(g.ext.rank)))
            h2 = g.homog(g.ext.random_element(rng),
                         exps[rng.randrange(len(exps))],
                         tuple(rng.randint(-2, 2) for _ in range(g.ext.rank)))
            left = g.value_of(g.mul(h1, h2)).fractions()
            right = tuple(a + b for a, b in zip(
                g.value_of(h1).fractions(), g.value_of(h2).fractions()))
            assert left == right


def test_graded_products_match_the_generic_model(b_graded, b3_graded, rng):
    """g(z^m)*g(x^w) is the monomial z^m*X^w of the generic model, so a
    graded product is the single term of the generic product."""
    for g in (b_graded, b3_graded):
        generic = tp.GenericCrossedProduct(g.algebra)
        exps = g.ext.exponents()
        for _ in range(20):
            parts = [(g.ext.random_element(rng), exps[rng.randrange(len(exps))],
                      tuple(rng.choice((-2, -1, 1, 2)) for _ in range(g.ext.rank)))
                     for _ in range(2)]
            h1, h2 = (g.homog(c, m, w) for c, m, w in parts)
            x1, x2 = (generic.monomial(c, m, w) for c, m, w in parts)
            prod = g.mul(h1, h2)
            ((m, w), c), = (x1 * x2).terms()
            assert (prod.coeff, prod.exponent, prod.central) == (c, m, w)


def test_zero_homogeneous_product_is_an_error():
    """Over K = Q[y]/(y^2 - 1), not a field, (1 + y)(1 - y) = 0: the
    product of two homogeneous elements can vanish, and zero is not
    homogeneous."""
    split = fixtures.SimpleExtension("y", 2, (Fraction(1), Fraction(0)))
    pres = split.presentation(name="split")
    sigma = [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]]
    k = GaloisExtensionPresentation(
        (2,), pres.basis_labels, pres.structure_constants, pres.unit_coords,
        sigma, name="split")
    graded = gv.GradedCrossedProduct(
        cp.CrossedProductAlgebra(k, fixtures.trivial_cocycle(k)))
    y = k.basis_element(1)
    with pytest.raises(ValueError):
        graded.mul(graded.homog(k.one() + y), graded.homog(k.one() - y))
    with pytest.raises(ValueError):
        graded.homog(k.zero())


def test_residue_action_map(b_graded):
    base = b_graded.value_vector((1, -2))
    assert b_graded.theta(base) == (0, 0)
    assert b_graded.theta(b_graded.value_vector((Fraction(1, 2), 0))) == (1, 0)
    assert b_graded.theta(
        b_graded.value_vector((Fraction(3, 2), Fraction(1, 2)))) == (1, 1)


def test_residue_action_is_isomorphism(b_graded, b3_graded):
    for g in (b_graded, b3_graded):
        table = g.theta_table()
        images = {img for _v, img in table}
        assert len(images) == g.ext.group_order
        for v1, m1 in table:
            for v2, m2 in table:
                assert g.theta(v1 + v2) == g.ext.exp_add(m1, m2)


def test_homogeneous_commutation(b_graded):
    k = b_graded.ext
    sqrt2, sqrt3 = k.basis_element(2), k.basis_element(1)
    central = b_graded.central_generator(0)
    z1, z2 = b_graded.gen(0), b_graded.gen(1)
    assert b_graded.commute(central, z1)
    assert not b_graded.commute(z1, z2)
    prod = b_graded.mul(z1, z2)
    swap = b_graded.mul(z2, z1)
    assert prod.coeff == -swap.coeff
    h1 = b_graded.homog(sqrt3, (1, 0))
    h2 = b_graded.homog(sqrt2, (0, 1))
    assert not b_graded.commute(h1, h2)


def test_homogeneous_inverse(b_graded, b3_graded, rng):
    for g in (b_graded, b3_graded):
        exps = g.ext.exponents()
        for _ in range(10):
            h = g.homog(g.ext.random_element(rng),
                        exps[rng.randrange(len(exps))],
                        tuple(rng.randint(-1, 1) for _ in range(g.ext.rank)))
            assert g.mul(h, g.inv(h)) == g.one() == g.mul(g.inv(h), h)


def test_power_central_criterion(b_graded, b_witness):
    k = b_graded.ext
    h = b_graded.from_witness(b_witness)
    out = b_graded.qpower_central_check(h, 2)
    assert out.power_central
    assert not out.value_in_base_lattice
    sq = b_graded.power(h, 2)
    assert sq == b_graded.homog(k.scalar(30), (0, 0), (1, 1))

    central = b_graded.homog(k.scalar(3), (0, 0), (2, 1))
    out = b_graded.qpower_central_check(central, 5)
    assert out.power_central
    assert out.value_in_base_lattice

    z1 = b_graded.gen(0)
    out = b_graded.qpower_central_check(z1, 2)
    assert out.power_central
    assert not out.value_in_base_lattice


def test_witness_extraction_from_homogeneous(b_graded, b_witness,
                                             b3_graded, b3_witness):
    for g, w in ((b_graded, b_witness), (b3_graded, b3_witness)):
        h = g.from_witness(w)
        back = g.to_strong_witness(h)
        assert cp.check_strong_witness(g.algebra, back)


def test_pair_degeneracy_check(b_graded):
    k = b_graded.ext
    sqrt2 = k.basis_element(2)
    h1 = b_graded.homog(k.one(), (1, 0))
    h2 = b_graded.homog(sqrt2, (0, 1))
    out = b_graded.pair_degeneracy_check(h1, h2)
    assert out.commute and out.noncyclic
    assert cp.check_pair_witness(b_graded.algebra, out.witness)
    # cyclic span never counts, commuting or not
    out = b_graded.pair_degeneracy_check(h1, h1)
    assert not out.noncyclic and out.witness is None
    same = b_graded.pair_degeneracy_check(
        b_graded.homog(k.one(), (1, 1)), b_graded.homog(k.one(), (1, 1)))
    assert not same.noncyclic


def test_pair_witness_round_trip(b_graded, b_witness):
    pair = cp.strong_to_pair_witness(b_graded.algebra, b_witness)
    h1, h2 = b_graded.witness_pair_elements(pair)
    assert b_graded.commute(h1, h2)
    out = b_graded.pair_degeneracy_check(h1, h2)
    assert bool(out)


def test_residue_cocycle_round_trip(b_graded, b3_graded):
    for g in (b_graded, b3_graded):
        out = g.residue_cocycle()
        assert out.report.ok
        assert out.data.twists == g.algebra.data.twists
        assert out.data.powers == g.algebra.data.powers


def test_residue_cocycle_power_scaling(b_graded):
    k = b_graded.ext
    scalings = tuple(
        gv.CentralScaling(b_graded.algebra.data.powers[i], k.unit_exponent(i))
        for i in range(2))
    out = b_graded.residue_cocycle(scalings=scalings)
    assert all(p == k.one() for p in out.data.powers)


def test_residue_cocycle_value_mismatch(b_graded):
    k = b_graded.ext
    bad = (gv.CentralScaling(k.one(), (0, 1)),
           gv.CentralScaling(k.one(), (0, 1)))
    with pytest.raises(ValueError):
        b_graded.residue_cocycle(scalings=bad)


def test_semiramification(b_graded, b3_graded):
    rep = b_graded.semiramification_report()
    assert rep.ok
    rep3 = b3_graded.semiramification_report()
    assert rep3.ok


def test_semiramification_on_extended_instance(b3_composite, b3_algebra):
    """Coprime-degree extension preserves the semi-ramified shape."""
    from acplab import extension_lab as xl

    extended = xl.extended_algebra(b3_composite, b3_algebra.data)
    graded = gv.GradedCrossedProduct(extended)
    rep = graded.semiramification_report()
    assert rep.ok


def test_semiramification_rejects_cyclic_group():
    # a genuinely cyclic group: single generator of order 2
    from acplab.field_core import GaloisExtensionPresentation

    ext = fixtures.SimpleExtension(
        "r", 2, (Fraction(2), Fraction(0)), auto_image=(Fraction(0), Fraction(-1)))
    pres = ext.presentation(name="rank1")
    sigma = [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]]
    rank1 = GaloisExtensionPresentation(
        (2,), pres.basis_labels, pres.structure_constants, pres.unit_coords,
        sigma, name="rank1")
    alg = cp.CrossedProductAlgebra(rank1, fixtures.trivial_cocycle(rank1))
    graded = gv.GradedCrossedProduct(alg)
    with pytest.raises(ValueError):
        graded.semiramification_report()


def test_absence_audit(b_graded):
    found = b_graded.absence_audit(2)
    assert found.found is not None
    empty = b_graded.absence_audit(2, budget=0)
    assert empty.found is None
    assert "NOT a proof" in empty.message
    assert empty.strong_search is not None
