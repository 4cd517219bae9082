"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line; time limits are asserted where
stated.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from acplab import crossed_product as cp
from acplab import extension_lab as xl
from acplab import fixtures
from acplab import graded_val as gv
from acplab import twisted_poly as tp
from acplab.field_core import GaloisExtensionPresentation, validate_galois_data


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {description}")
        raise
    print(f"criterion {number:2d} PASS: {description}")


def test_criterion_1_fixture_validation(b_algebra, b3_algebra):
    with criterion(1, "fixture validation with named perturbation failures, "
                      "< 1 s each"):
        for alg in (b_algebra, b3_algebra):
            start = time.perf_counter()
            assert validate_galois_data(alg.ext).ok
            assert cp.validate_relations(alg.ext, alg.data).ok
            assert time.perf_counter() - start < 1.0

        k = b_algebra.ext
        import acplab.linalg as linalg

        broken = GaloisExtensionPresentation(
            k.orders, k.basis_labels, k.structure_constants, k.unit_coords,
            [linalg.identity(k.dim), k.sigma[1]], name="perturbed")
        report = validate_galois_data(broken)
        assert not report.ok
        assert any(c.name == "sigma[0] order == 2" for c in report.failures())

        sqrt2 = k.basis_element(2)
        bad = cp.CocycleData(
            ((k.one(), sqrt2), (k.inv(sqrt2), k.one())),
            b_algebra.data.powers)
        rel = cp.validate_relations(k, bad)
        assert not rel.ok
        assert any(c.name == "power action rule" for c in rel.failures())


def test_criterion_2_cocycle_soundness(b_algebra, b3_algebra):
    with criterion(2, "2-cocycle identity on all 64 and 729 triples, exact, "
                      "< 5 s"):
        start = time.perf_counter()
        rep_b = b_algebra.cocycle_identity_report()
        rep_b3 = b3_algebra.cocycle_identity_report()
        elapsed = time.perf_counter() - start
        assert rep_b.ok
        assert rep_b3.ok
        assert "64" in rep_b.checks[0].name
        assert "729" in rep_b3.checks[0].name
        assert elapsed < 5.0


def test_criterion_3_witness_round_trip(b_algebra, b_witness):
    with criterion(3, "witness round trip: central monomial with exact square "
                      "30, re-extraction passes, < 1 s"):
        start = time.perf_counter()
        k = b_algebra.ext
        assert b_witness.exponent == (1, 1)
        assert b_witness.coeff == k.basis_element(2)
        assert cp.check_strong_witness(b_algebra, b_witness)
        elem = cp.witness_to_central_element(b_algebra, b_witness)
        assert elem == b_algebra.monomial(k.basis_element(2), (1, 1))
        assert elem ** 2 == b_algebra.scalar_element(k.scalar(30))
        back = cp.central_element_to_witness(b_algebra, b_witness.coeff,
                                             b_witness.exponent)
        assert cp.check_strong_witness(b_algebra, back)
        assert time.perf_counter() - start < 1.0


def test_criterion_4_powered_tables(b_algebra, b3_algebra):
    with criterion(4, "powered data tables equal entrywise powers of the "
                      "tables, t in {2, 3}, both fixtures, exact"):
        for alg in (b_algebra, b3_algebra):
            for t in (2, 3):
                powered = cp.CrossedProductAlgebra(
                    alg.ext, cp.power_cocycle(alg.data, t))
                assert all(powered.table[key] == value ** t
                           for key, value in alg.table.items())


def test_criterion_5_leading_monomial_power_law(b_algebra, b3_algebra):
    with criterion(5, "(t^v)^q = (t^q)^v for 100 random polynomials per "
                      "fixture, q in {2, 3}, exact, < 10 s"):
        start = time.perf_counter()
        rng = random.Random(5125)
        for alg in (b_algebra, b3_algebra):
            ring = tp.TwistedPolyRing(alg.ext, alg.data)
            done = 0
            while done < 100:
                t = ring.random_poly(rng, terms=3, max_exp=2)
                if t.is_zero():
                    continue
                for q in (2, 3):
                    assert tp.leading_monomial_power_property(t, q)
                done += 1
        assert time.perf_counter() - start < 10.0


def test_criterion_6_monomial_equivalence(b_algebra, b_witness,
                                          b3_algebra, b3_witness):
    with criterion(6, "witness image power-central by full reduction; "
                      "monomial centrality agrees across models, both "
                      "directions"):
        generic = tp.GenericCrossedProduct(b_algebra)
        image = generic.witness_monomial(b_witness)
        assert generic.is_p_power_central(image, 2)

        k = b_algebra.ext
        cases_b = [
            (b_witness.coeff, b_witness.exponent),
            (k.one(), (1, 0)),
            (k.one(), (0, 1)),
            (k.basis_element(1), (1, 1)),
            (k.one() + k.basis_element(1), (1, 0)),
            (k.basis_element(2) + k.one(), (1, 1)),
        ]
        k3 = b3_algebra.ext
        generic3 = tp.GenericCrossedProduct(b3_algebra)
        cases_b3 = [
            (b3_witness.coeff, b3_witness.exponent),
            (k3.one(), (0, 1)),
            (k3.basis_element(3) + k3.basis_element(1), (1, 0)),
            (k3.basis_element(1), (0, 1)),
        ]
        for gcp, cases, p in ((generic, cases_b, 2), (generic3, cases_b3, 3)):
            verdicts = set()
            for coeff, m in cases:
                in_generic = gcp.is_p_power_central(gcp.ring.monomial(coeff, m), p)
                in_crossed = gcp.algebra.is_central(
                    gcp.algebra.monomial(coeff, m) ** p)
                assert in_generic == in_crossed
                verdicts.add(in_generic)
            assert verdicts == {True, False}


def test_criterion_7_graded_correspondences(b_algebra, b_witness):
    with criterion(7, "graded criteria: witness image power-central off the "
                      "base lattice; commuting noncyclic pairs emit passing "
                      "witnesses and conversely"):
        graded = gv.GradedCrossedProduct(b_algebra)
        k = b_algebra.ext
        h = graded.from_witness(b_witness)
        out = graded.qpower_central_check(h, 2)
        assert out.power_central
        assert graded.value_of(h).fractions() == (Fraction(1, 2), Fraction(1, 2))
        assert not out.value_in_base_lattice

        coeffs = [k.one(), k.basis_element(1), k.basis_element(2),
                  k.basis_element(3)]
        exps = [m for m in k.exponents() if any(m)]
        emitted = 0
        for m in exps:
            for n in exps:
                for c1 in coeffs:
                    for c2 in coeffs:
                        h1 = graded.homog(c1, m)
                        h2 = graded.homog(c2, n)
                        res = graded.pair_degeneracy_check(h1, h2)
                        if res:
                            emitted += 1
                            assert cp.check_pair_witness(b_algebra, res.witness)
        assert emitted > 0

        pair = cp.strong_to_pair_witness(b_algebra, b_witness)
        h1, h2 = graded.witness_pair_elements(pair)
        assert graded.commute(h1, h2)
        assert graded.pair_degeneracy_check(h1, h2)


def test_criterion_8_descent(b_composite, b_algebra, b_witness):
    with criterion(8, "descent along the degree-3 composite: powered-data "
                      "witness checks at t=3 and t*k with Bezout(3,2), "
                      "exact, < 5 s"):
        start = time.perf_counter()
        assert b_composite.t == 3
        assert b_composite.composite.dim == 12
        w_up = xl.embed_witness(b_composite, b_witness)
        powered, descended = xl.norm_descend_witness(
            b_composite, b_algebra, w_up)
        assert cp.check_strong_witness(powered, descended)
        k_bez, _l = xl.bezout_certificate(3, 2)
        target, final = xl.power_witness(powered, descended, k_bez)
        assert cp.check_strong_witness(target, final)
        assert time.perf_counter() - start < 5.0


def test_criterion_9_twisted_ratio_solver(b_algebra, b3_algebra):
    with criterion(9, "norm-one twisted ratios and solver recovery for 100 "
                      "random elements per fixture at every prime-order "
                      "exponent"):
        rng = random.Random(919)
        for alg in (b_algebra, b3_algebra):
            k = alg.ext
            exps = k.prime_order_exponents()
            samples = [k.random_element(rng) for _ in range(100)]
            for m in exps:
                for x in samples:
                    c = k.apply_automorphism(m, x) / x
                    assert k.norm_along(m, c) == k.one()
                    y = k.hilbert90_solve(m, c)
                    assert y is not None
                    assert k.apply_automorphism(m, y) == c * y


def test_criterion_10_performance_floor():
    with criterion(10, "fresh 81-entry table build plus full identity scan "
                       "for the bicubic fixture, < 5 s"):
        ext = fixtures.instance_b3_field()
        data = fixtures.instance_b3_algebra().data
        start = time.perf_counter()
        fresh = cp.CrossedProductAlgebra(ext, data)
        report = fresh.cocycle_identity_report()
        elapsed = time.perf_counter() - start
        assert report.ok
        assert len(fresh.table) == 81
        assert elapsed < 5.0
