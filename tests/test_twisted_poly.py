"""Twisted polynomial arithmetic, leading monomials, generic-model reduction."""

import pytest

from acplab import crossed_product as cp
from acplab import fixtures
from acplab import twisted_poly as tp
from acplab.errors import MixedContextError


@pytest.fixture(scope="module")
def b_ring(b_algebra):
    return tp.TwistedPolyRing(b_algebra.ext, b_algebra.data)


@pytest.fixture(scope="module")
def b_generic(b_algebra):
    return tp.GenericCrossedProduct(b_algebra)


@pytest.fixture(scope="module")
def b3_generic(b3_algebra):
    return tp.GenericCrossedProduct(b3_algebra)


def test_twisting_rules(b_ring):
    k = b_ring.ext
    sqrt2 = k.basis_element(2)
    s1, s2 = b_ring.gen(0), b_ring.gen(1)
    assert s1 * sqrt2 == (-sqrt2) * s1
    assert s2 * s1 == -(s1 * s2)
    t = b_ring.random_poly(__import__("random").Random(1))
    assert b_ring.one() * t == t


def test_no_carry_in_products(b_ring):
    s1 = b_ring.gen(0)
    sq = s1 * s1
    assert sq.support() == [(2, 0)]


def test_leading_monomial_order(b_ring):
    k = b_ring.ext
    a, b = k.scalar(5), k.scalar(7)
    t = b_ring.poly({(1, 0): a, (1, 1): b})
    assert tp.leading_monomial(t) == ((1, 0), a)
    t = b_ring.poly({(0, 1): a, (1, 0): b})
    assert tp.leading_monomial(t) == ((1, 0), b)
    single = b_ring.monomial(a, (2, 1))
    assert tp.leading_monomial(single) == ((2, 1), a)
    with pytest.raises(ValueError):
        tp.leading_monomial(b_ring.zero())


def test_leading_monomial_power_law(b_ring, b3_algebra, rng):
    s1 = b_ring.gen(0)
    assert tp.leading_monomial_power_property(s1, 5)
    for q in (2, 3):
        for _ in range(25):
            t = b_ring.random_poly(rng)
            if not t.is_zero():
                assert tp.leading_monomial_power_property(t, q)
    ring3 = tp.TwistedPolyRing(b3_algebra.ext, b3_algebra.data)
    for _ in range(10):
        t = ring3.random_poly(rng, terms=4)
        if not t.is_zero():
            assert tp.leading_monomial_power_property(t, 3)


def test_reduce_examples(b_ring, b_generic):
    k = b_ring.ext
    s1, s2 = b_ring.gen(0), b_ring.gen(1)
    r = b_generic.reduce(s1 * s1)
    assert r == b_generic.monomial(k.scalar(3), (0, 0), (1, 0))
    r = b_generic.reduce((s1 * s2) ** 2)
    assert r == b_generic.monomial(k.scalar(-15), (0, 0), (1, 1))
    mono = b_ring.monomial(k.basis_element(2), (1, 1))
    assert b_generic.reduce(mono) == b_generic.monomial(
        k.basis_element(2), (1, 1), (0, 0))


def test_reduce_is_multiplicative(b_ring, b_generic, b3_algebra, rng):
    for _ in range(30):
        s = b_ring.random_poly(rng)
        t = b_ring.random_poly(rng)
        assert b_generic.reduce(s * t) == \
            b_generic.reduce(s) * b_generic.reduce(t)
    ring3 = tp.TwistedPolyRing(b3_algebra.ext, b3_algebra.data)
    gcp3 = tp.GenericCrossedProduct(b3_algebra)
    for _ in range(10):
        s = ring3.random_poly(rng)
        t = ring3.random_poly(rng)
        assert gcp3.reduce(ring3.mul(s, t)) == gcp3.mul(gcp3.reduce(s), gcp3.reduce(t))


def test_tpoly_associative_and_unital(b_ring, rng):
    one = b_ring.one()
    for _ in range(200):
        x = b_ring.random_poly(rng, terms=2)
        y = b_ring.random_poly(rng, terms=2)
        z = b_ring.random_poly(rng, terms=2)
        assert (x * y) * z == x * (y * z)
        assert one * x == x and x * one == x


def test_power_central_examples(b_ring, b_generic, b_witness):
    k = b_ring.ext
    sqrt2, sqrt3 = k.basis_element(2), k.basis_element(1)
    s1, s2 = b_ring.gen(0), b_ring.gen(1)
    assert b_generic.is_p_power_central(b_generic.witness_monomial(b_witness), 2)
    assert b_generic.is_p_power_central(s1, 2)
    # center image: powers of a central monomial stay central
    central = b_ring.monomial(k.scalar(5), (2, 0))
    assert b_generic.is_p_power_central(central, 2)
    # cross terms reinforce here, so the square keeps a noncentral term
    assert not b_generic.is_p_power_central(sqrt3 * s1 + s2, 2)
    # but they can also cancel: this one squares into the center
    assert b_generic.is_p_power_central(sqrt2 * s1 + s2, 2)
    assert not b_generic.is_p_power_central(sqrt2 * s1 + b_ring.one(), 2)


def test_monomial_search_trivial_data(b_field):
    alg = cp.CrossedProductAlgebra(b_field, fixtures.trivial_cocycle(b_field))
    gcp = tp.GenericCrossedProduct(alg)
    out = gcp.monomial_power_central_search(candidates=[b_field.one()])
    assert out.found
    assert gcp.is_p_power_central(out.monomial, 2)


def test_monomial_search(b_generic, b3_generic, b3_witness):
    out = b_generic.monomial_power_central_search()
    assert out.found
    assert b_generic.is_p_power_central(out.monomial, out.prime)
    # with an unfound strong search and no usable candidates the space is empty
    unfound = cp.SearchOutcome(None, 0, 0, cp.EXHAUSTION_DISCLAIMER)
    empty = b_generic.monomial_power_central_search(candidates=[], strong=unfound)
    assert not empty.found
    assert "NOT a proof" in empty.message
    # the b3 witness coefficient is reachable when supplied as a candidate
    out3 = b3_generic.monomial_power_central_search(
        candidates=[b3_witness.coeff], strong=unfound)
    assert out3.found
    assert out3.prime == 3


def test_monomial_search_reuses_the_strong_outcome(monkeypatch, b_generic):
    strong = cp.search_strong_degeneracy(b_generic.algebra)
    fresh = b_generic.monomial_power_central_search()

    def no_search(*args, **kwargs):
        raise AssertionError("the strong search ran again")

    monkeypatch.setattr(cp, "search_strong_degeneracy", no_search)
    out = b_generic.monomial_power_central_search(strong=strong)
    assert out == fresh
    assert out.monomial == b_generic.witness_monomial(strong.witness)


def test_monomial_centrality_matches_crossed_product(b_generic, b3_generic,
                                                     b_witness, b3_witness):
    """Power centrality of the monomial agrees between the generic model and
    the underlying crossed product, both directions, on stored monomials."""
    k = b_generic.ext
    b_cases = [
        (b_witness.coeff, b_witness.exponent),
        (k.one(), (0, 1)),
        (k.basis_element(1), (1, 0)),
        (k.one() + k.basis_element(1), (1, 0)),
        (k.basis_element(2) + k.basis_element(3), (1, 1)),
    ]
    k3 = b3_generic.ext
    b3_cases = [
        (b3_witness.coeff, b3_witness.exponent),
        (k3.one(), (0, 1)),
        (k3.basis_element(3) + k3.basis_element(1), (1, 0)),
    ]
    for gcp, cases, p in ((b_generic, b_cases, 2), (b3_generic, b3_cases, 3)):
        seen = set()
        for coeff, m in cases:
            generic = gcp.is_p_power_central(gcp.ring.monomial(coeff, m), p)
            mono = gcp.algebra.monomial(coeff, m)
            crossed = gcp.algebra.is_central(mono ** p)
            assert generic == crossed
            seen.add(generic)
        assert seen == {True, False}


def test_mixed_ring_rejected(b_ring, b3_algebra):
    ring3 = tp.TwistedPolyRing(b3_algebra.ext, b3_algebra.data)
    with pytest.raises(MixedContextError):
        b_ring.mul(b_ring.one(), ring3.one())


def test_reduce_rejects_foreign_presentation(b_generic, b_algebra):
    other = tp.TwistedPolyRing(
        b_algebra.ext, fixtures.trivial_cocycle(b_algebra.ext))
    with pytest.raises(MixedContextError):
        b_generic.reduce(other.one())


def test_group_prime(b_generic, b3_generic):
    assert b_generic.group_prime() == 2
    assert b3_generic.group_prime() == 3
