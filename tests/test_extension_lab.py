"""Composite verification, relative norms, and the descent chain."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from acplab import crossed_product as cp
from acplab import extension_lab as xl
from acplab import fixtures
from acplab.errors import PresentationError, WitnessError


def test_composites_accepted(b_composite, b3_composite):
    assert b_composite.t == 3
    assert b_composite.composite.dim == 12
    assert b3_composite.t == 2
    assert b3_composite.composite.dim == 18


def test_trivial_composite(b_field):
    comp = fixtures.trivial_composite(b_field)
    assert comp.t == 1
    assert comp.composite.dim == b_field.dim


def test_singular_module_data_is_a_presentation_error(monkeypatch, b_composite):
    comp = dataclasses.replace(b_composite, _module=())     # no cached module data
    monkeypatch.setattr(xl.linalg, "invert", lambda rows: None)
    with pytest.raises(PresentationError, match="singular"):
        xl.relative_norm(comp, comp.composite.one())


def test_rejects_bad_relative_automorphism(b_field):
    comp = fixtures.trivial_composite(b_field)
    # sigma_1 itself does not fix K, so it is not a relative automorphism
    with pytest.raises(PresentationError):
        xl.build_tensor_extension(comp.base, comp.ext_field, comp.composite,
                                  comp.embed, [b_field.sigma[0]])


def test_embed_restrict_round_trip(b_composite, rng):
    k = b_composite.base
    for _ in range(5):
        x = k.random_element(rng)
        up = xl.embed_element(b_composite, x)
        assert xl.restrict_element(b_composite, up) == x
    outside = b_composite.composite.basis_element(1)
    with pytest.raises(ValueError):
        xl.restrict_element(b_composite, outside)


def test_norm_is_power_on_base_images(b_composite, b3_composite):
    for comp in (b_composite, b3_composite):
        for a in comp.base.basis():
            expected = a ** comp.t
            assert xl.relative_norm(comp, xl.embed_element(comp, a)) == expected


def test_norm_cube_root_value(b_composite):
    k = b_composite.base
    sqrt2 = k.basis_element(2)
    assert xl.relative_norm(b_composite, xl.embed_element(b_composite, sqrt2)) \
        == 2 * sqrt2


def test_norm_multiplicative(b_composite, rng):
    for _ in range(6):
        a = b_composite.composite.random_element(rng)
        b = b_composite.composite.random_element(rng)
        assert xl.relative_norm(b_composite, a * b) == \
            xl.relative_norm(b_composite, a) * xl.relative_norm(b_composite, b)


def test_norm_commutes_with_group_action(b_composite, b3_composite, rng):
    for comp in (b_composite, b3_composite):
        big, k = comp.composite, comp.base
        for i in range(k.rank):
            y = big.random_element(rng)
            lhs = xl.relative_norm(
                comp, big.apply_automorphism(big.unit_exponent(i), y))
            rhs = k.apply_automorphism(
                k.unit_exponent(i), xl.relative_norm(comp, y))
            assert lhs == rhs


def test_orbit_product_cross_check(b3_composite, rng):
    assert len(xl.relative_group(b3_composite)) == b3_composite.t
    for _ in range(4):
        y = b3_composite.composite.random_element(rng)
        assert xl.orbit_product(b3_composite, y) == \
            xl.embed_element(b3_composite, xl.relative_norm(b3_composite, y))


def test_nonnormal_composite_has_trivial_relative_group(b_composite):
    assert len(xl.relative_group(b_composite)) == 1


def test_extend_cocycle(b_composite, b_algebra):
    data = xl.extend_cocycle(b_composite, b_algebra.data)
    report = cp.validate_relations(b_composite.composite, data)
    assert report.ok


def test_descend_chain(b_composite, b_algebra, b_witness):
    w_up = xl.embed_witness(b_composite, b_witness)
    powered, descended = xl.norm_descend_witness(b_composite, b_algebra, w_up)
    assert cp.check_strong_witness(powered, descended)
    k = b_algebra.ext
    assert descended.coeff == 2 * k.basis_element(2)
    # entries are signs, so the cubed data equals the original data
    assert powered.data.twists == b_algebra.data.twists


def test_descend_trivial_composite(b_algebra, b_witness):
    comp = fixtures.trivial_composite(b_algebra.ext)
    powered, descended = xl.norm_descend_witness(
        comp, b_algebra, xl.embed_witness(comp, b_witness))
    assert descended.coeff.coords == xl.embed_element(
        comp, b_witness.coeff).coords
    assert powered.data.twists == b_algebra.data.twists


def test_descend_trivial_data(b_field):
    alg = cp.CrossedProductAlgebra(b_field, fixtures.trivial_cocycle(b_field))
    comp = fixtures.trivial_composite(b_field)
    one = b_field.one()
    w = cp.StrongDegeneracyWitness((1, 0), one, (one, one))
    powered, descended = xl.norm_descend_witness(
        comp, alg, xl.embed_witness(comp, w))
    assert cp.check_strong_witness(powered, descended)


def test_descend_rejects_invalid_witness(b_composite, b_algebra):
    k = b_composite.composite
    bad = cp.StrongDegeneracyWitness((1, 1), k.one(), (k.one(), k.one()))
    with pytest.raises(WitnessError):
        xl.norm_descend_witness(b_composite, b_algebra, bad)


def test_power_witness(b_algebra, b_witness):
    same, w1 = xl.power_witness(b_algebra, b_witness, 1)
    assert w1 == b_witness
    target, w3 = xl.power_witness(b_algebra, b_witness, 3)
    assert cp.check_strong_witness(target, w3)
    assert w3.coeff == b_witness.coeff ** 3
    # chaining: a cubed-data witness powers again to the ninth-power data
    target9, w9 = xl.power_witness(target, w3, 3)
    assert cp.check_strong_witness(target9, w9)
    assert target9.data.twists == b_algebra.data.twists
    with pytest.raises(ValueError):
        xl.power_witness(b_algebra, b_witness, 0)


def test_power_witness_trivial_data(b_field):
    alg = cp.CrossedProductAlgebra(b_field, fixtures.trivial_cocycle(b_field))
    one = b_field.one()
    w = cp.StrongDegeneracyWitness((1, 0), one, (one, one))
    target, out = xl.power_witness(alg, w, 5)
    assert out.coeff == one
    assert cp.check_strong_witness(target, out)


def test_bezout_examples():
    assert xl.bezout_certificate(3, 2) == (1, -1)
    assert xl.bezout_certificate(1, 5) == (1, 0)
    assert xl.bezout_certificate(5, 4) == (1, -1)
    with pytest.raises(ValueError):
        xl.bezout_certificate(4, 2)
    with pytest.raises(ValueError):
        xl.bezout_certificate(0, 3)


@given(st.integers(1, 400), st.integers(1, 400))
def test_bezout_property(t, e):
    from math import gcd

    assume(gcd(t, e) == 1)
    k, l = xl.bezout_certificate(t, e)
    assert t * k + e * l == 1
    assert k >= 1


def test_descent_report_full_chain(b_composite, b_algebra, b_witness):
    report = xl.descent_report(b_composite, b_algebra, b_witness, 2)
    assert report.ok
    names = [c.name for c in report.checks]
    assert any("norm descent" in n for n in names)
    assert any("Bezout" in n for n in names)


def test_descent_report_aborts_on_bad_witness(b_composite, b_algebra):
    k = b_algebra.ext
    bad = cp.StrongDegeneracyWitness((1, 1), k.one() + k.basis_element(1),
                                     (k.one(), k.one()))
    report = xl.descent_report(b_composite, b_algebra, bad, 2)
    assert not report.ok
    assert any("stage 2" in c.name for c in report.failures())
