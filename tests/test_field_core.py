"""Field presentation arithmetic, Galois action, norms, twisted-ratio solver."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from acplab import field_core, fixtures
from acplab.errors import MixedContextError, PresentationError
from acplab.field_core import (GaloisExtensionPresentation, _eliminate_inverse,
                               plain_field_presentation, validate_field_data,
                               validate_galois_data)


def sqrt_elements(k):
    return k.basis_element(2), k.basis_element(1), k.basis_element(3)


def test_hand_verified_multiplication_table(b_field):
    sqrt2, sqrt3, sqrt6 = sqrt_elements(b_field)
    assert sqrt2 * sqrt3 == sqrt6
    assert sqrt2 * sqrt2 == b_field.scalar(2)
    assert sqrt3 * sqrt6 == 3 * sqrt2
    assert sqrt6 * sqrt6 == b_field.scalar(6)


def test_inversion(b_field):
    sqrt2, _, _ = sqrt_elements(b_field)
    assert b_field.inv(b_field.one()) == b_field.one()
    assert b_field.inv(sqrt2) == sqrt2 / 2
    x = b_field.element([1, 2, Fraction(-1, 3), 5])
    assert x * b_field.inv(x) == b_field.one()
    with pytest.raises(ZeroDivisionError):
        b_field.inv(b_field.zero())


def test_inverse_in_a_split_algebra():
    """Q(sqrt2) (x) Q[y]/(y^2 - 4) has the shape of a Galois extension but
    is not a field: y - 2 has norm 0, so its inversion falls back to
    elimination and reports the zero divisor, while the unit sqrt2 - 2
    inverts through the group to the same value elimination gives."""
    sqrt2 = fixtures.SimpleExtension("sqrt2", 2, (Fraction(2), Fraction(0)),
                                     auto_image=(Fraction(0), Fraction(-1)))
    p = fixtures.tensor_galois_presentation(
        [sqrt2, fixtures.SimpleExtension("y", 2, (4, 0), (0, -1))], (2, 2))
    y, root = p.basis_element(1), p.basis_element(2)
    with pytest.raises(PresentationError,
                       match=r"^multiplication by -2 \+ y is singular: presentation is not a field$"):
        p.inv(y - 2)
    assert p.inv(root - 2) == _eliminate_inverse(p, root - 2)


def test_inverse_with_a_wrong_unit_matches_elimination(b_field, rng):
    """With unit vector 2*1, as in test_validation_pins_a_unit_failure,
    both routes solve x * y = the supplied unit."""
    broken = GaloisExtensionPresentation(
        b_field.orders, b_field.basis_labels, b_field.structure_constants,
        [2, 0, 0, 0], b_field.sigma, name="bad-unit")
    for x in broken.basis() + [broken.random_element(rng) for _ in range(8)]:
        assert broken.inv(x) == _eliminate_inverse(broken, x)


def test_rank_zero_inverse_is_elimination(monkeypatch, b_composite):
    """A presentation without automorphisms has no group to invert through."""
    field = b_composite.ext_field
    assert field.rank == 0
    eliminate = field_core._eliminate_inverse
    calls = []

    def counted(p, x):
        calls.append(x)
        return eliminate(p, x)

    monkeypatch.setattr(field_core, "_eliminate_inverse", counted)
    x = field.basis_element(1) + 1
    assert field.inv(x) * x == field.one()
    assert calls == [x]


def test_automorphism_action(b_field):
    sqrt2, sqrt3, sqrt6 = sqrt_elements(b_field)
    assert b_field.apply_automorphism((1, 0), sqrt2) == -sqrt2
    assert b_field.apply_automorphism((1, 0), sqrt3) == sqrt3
    assert b_field.apply_automorphism((0, 0), sqrt6) == sqrt6
    assert b_field.apply_automorphism((1, 1), sqrt6) == sqrt6


def test_automorphism_multiplicative_on_basis_pairs(b_field, b3_field):
    for k in (b_field, b3_field):
        for g in k.exponents():
            for a in k.basis():
                for b in k.basis():
                    assert k.apply_automorphism(g, a * b) == \
                        k.apply_automorphism(g, a) * k.apply_automorphism(g, b)


def test_norm_along(b_field):
    sqrt2, _, _ = sqrt_elements(b_field)
    assert b_field.norm_along((1, 0), sqrt2) == b_field.scalar(-2)
    assert b_field.norm_along((1, 1), sqrt2) == b_field.scalar(-2)
    assert b_field.norm_along((0, 1), b_field.one()) == b_field.one()
    with pytest.raises(ValueError):
        b_field.norm_along((0, 0), sqrt2)


def test_norm_multiplicative(b_field, b3_field, rng):
    for k in (b_field, b3_field):
        for m in k.prime_order_exponents():
            for _ in range(10):
                x = k.random_element(rng)
                y = k.random_element(rng)
                assert k.norm_along(m, x * y) == \
                    k.norm_along(m, x) * k.norm_along(m, y)


def test_fixed_subspaces(b_field):
    _, sqrt3, sqrt6 = sqrt_elements(b_field)
    span11 = b_field.fixed_subspace((1, 1))
    assert span11 == [b_field.one(), sqrt6]
    span10 = b_field.fixed_subspace((1, 0))
    assert span10 == [b_field.one(), sqrt3]
    assert len(b_field.fixed_subspace((0, 0))) == b_field.dim


def test_fixed_subspace_dimensions_multiply(b_field, b3_field):
    for k in (b_field, b3_field):
        for m in k.exponents():
            dim = len(k.fixed_subspace(m))
            assert dim * k.exp_order(m) == k.group_order


def test_twisted_ratio_solver(b_field):
    sqrt2, _, _ = sqrt_elements(b_field)
    x = b_field.hilbert90_solve((1, 0), b_field.scalar(-1))
    assert x == sqrt2
    # any nonzero solution is acceptable; the defining identity is what counts
    y = b_field.hilbert90_solve((1, 1), b_field.scalar(-1))
    assert not y.is_zero()
    assert b_field.apply_automorphism((1, 1), y) == -y
    assert b_field.hilbert90_solve((1, 0), b_field.one()) is not None
    # norm of 2 along sigma_1 is 4, not 1: no solution
    assert b_field.hilbert90_solve((1, 0), b_field.scalar(2)) is None
    with pytest.raises(ValueError):
        b_field.hilbert90_solve((1, 0), b_field.zero())
    with pytest.raises(ValueError):
        b_field.hilbert90_solve((0, 0), b_field.one())


def test_twisted_ratios_have_norm_one_and_solve_back(b_field, b3_field, rng):
    for k in (b_field, b3_field):
        for m in k.prime_order_exponents():
            for _ in range(5):
                x = k.random_element(rng)
                c = k.apply_automorphism(m, x) / x
                assert k.norm_along(m, c) == k.one()
                y = k.hilbert90_solve(m, c)
                assert y is not None
                assert k.apply_automorphism(m, y) == c * y


def _resolvent_solution(k, m, c, theta):
    """Classical averaging construction: f = sum_k b_k s^{mk}(theta) with
    b_0 = 1, b_{k+1} = c^{-1} s^m(b_k) satisfies s^m(f) = c f when nonzero."""
    q = k.exp_order(m)
    cinv = k.inv(c)
    out = k.zero()
    b = k.one()
    cur = k.identity_exponent()
    for _ in range(q):
        out = out + b * k.apply_automorphism(cur, theta)
        b = cinv * k.apply_automorphism(m, b)
        cur = k.exp_add(cur, m)
    return out


def test_resolvent_cross_checks_kernel_solver(b_field, b3_field, rng):
    """The kernel method and the averaging resolvent solve the same
    twisted-ratio equation (independent routes)."""
    for k in (b_field, b3_field):
        for m in k.prime_order_exponents():
            x = k.random_element(rng)
            c = k.apply_automorphism(m, x) / x
            kernel_sol = k.hilbert90_solve(m, c)
            assert k.apply_automorphism(m, kernel_sol) == c * kernel_sol
            for theta in k.basis():
                f = _resolvent_solution(k, m, c, theta)
                if not f.is_zero():
                    assert k.apply_automorphism(m, f) == c * f
                    break
            else:
                raise AssertionError("resolvent vanished on every basis element")


def test_validation_passes_on_fixtures(b_field, b3_field):
    assert validate_galois_data(b_field).ok
    assert validate_galois_data(b3_field).ok


def test_validation_names_broken_generator_order(b_field):
    import acplab.linalg as linalg

    sigma = [linalg.identity(b_field.dim), b_field.sigma[1]]
    broken = GaloisExtensionPresentation(
        b_field.orders, b_field.basis_labels, b_field.structure_constants,
        b_field.unit_coords, sigma, name="broken")
    report = validate_galois_data(broken)
    assert not report.ok
    failed = {c.name for c in report.failures()}
    assert "sigma[0] order == 2" in failed


def test_validation_names_broken_structure_constant(b_field):
    sc = [[list(vec) for vec in row] for row in b_field.structure_constants]
    sc[1][2][0] += 1
    broken = GaloisExtensionPresentation(
        b_field.orders, b_field.basis_labels, sc, b_field.unit_coords,
        b_field.sigma, name="broken-sc")
    report = validate_galois_data(broken)
    assert not report.ok


@pytest.mark.parametrize("i, j, k, detail", [
    (1, 2, 0, "fails at basis triple (1,1,2)"),
    (4, 7, 3, "fails at basis triple (1,3,7)"),
    (8, 8, 5, "fails at basis triple (1,7,8)"),
])
def test_validation_names_first_nonassociative_triple(b3_field, i, j, k, detail):
    """A symmetric perturbation keeps the table commutative, so only the
    associativity check fails, at the lexicographically first bad triple."""
    sc = [[list(vec) for vec in row] for row in b3_field.structure_constants]
    sc[i][j][k] += 1
    if i != j:
        sc[j][i][k] += 1
    broken = GaloisExtensionPresentation(
        b3_field.orders, b3_field.basis_labels, sc, b3_field.unit_coords,
        b3_field.sigma, name="nonassociative")
    checks = {c.name: c for c in validate_galois_data(broken).checks}
    assert checks["commutativity"].passed and checks["unit element"].passed
    assert not checks["associativity"].passed
    assert checks["associativity"].detail == detail


def test_presentation_shape_errors(b_field):
    with pytest.raises(PresentationError):
        GaloisExtensionPresentation((2,), ("1", "x"), [[[1, 0]]], [1, 0],
                                    [[[1, 0], [0, 1]]])
    with pytest.raises(PresentationError):
        GaloisExtensionPresentation((2,), ("1", "x"),
                                    [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                                    [1, 0, 0], [[[1, 0], [0, 1]]])
    with pytest.raises(PresentationError):
        b_field.element([1, 2])


def test_mixed_field_operands_rejected(b_field, b3_field):
    with pytest.raises(MixedContextError):
        b_field.one() + b3_field.one()


def test_plain_field_presentation_validates():
    ext = fixtures.SimpleExtension("c", 3, (Fraction(2), Fraction(0), Fraction(0)))
    pres = ext.presentation(name="cuberoot")
    assert pres.rank == 0
    assert validate_field_data(pres).ok
    c = pres.basis_element(1)
    assert c ** 3 == pres.scalar(2)


def test_tensor_of_one_factor_is_that_factor():
    zero, one = Fraction(0), Fraction(1)
    sqrt2 = fixtures.SimpleExtension("r", 2, (Fraction(2), zero), auto_image=(zero, -one))
    k = fixtures.tensor_galois_presentation([sqrt2], (2,), name="rank1")
    assert k.orders == (2,)
    assert k.basis_labels == ("1", "r")
    assert k.structure_constants == [[(one, zero), (zero, one)], [(zero, one), (2 * one, zero)]]
    assert k.unit_coords == (one, zero)
    assert k.sigma == [[[one, zero], [zero, -one]]]


def test_tensor_of_mixed_degrees_validates():
    cubic7 = fixtures._cubic_factors()[0]
    sqrt5 = fixtures.SimpleExtension("sqrt5", 2, (Fraction(5), Fraction(0)),
                                     auto_image=(Fraction(0), Fraction(-1)))
    k = fixtures.tensor_galois_presentation([cubic7, sqrt5], (3, 2), name="c7-sqrt5")
    assert k.dim == 6
    assert k.basis_labels == ("1", "sqrt5", "a", "a*sqrt5", "a^2", "a^2*sqrt5")
    assert validate_galois_data(k).ok


def test_scalar_detection(b_field):
    assert b_field.scalar(7).is_scalar()
    assert not b_field.basis_element(2).is_scalar()
    assert b_field.scalar_part(b_field.scalar(Fraction(3, 4))) == Fraction(3, 4)


exp_pairs = st.tuples(st.integers(-10, 10), st.integers(-10, 10))


@given(exp_pairs, exp_pairs)
def test_exponent_group_laws(m, n):
    k = fixtures.instance_b3_field()
    assert k.exp_add(k.exp_canon(m), k.exp_canon(n)) == k.exp_canon(
        tuple(a + b for a, b in zip(m, n)))
    assert k.exp_add(k.exp_canon(m), k.exp_neg(m)) == k.identity_exponent()


def test_exponent_orders(b3_field):
    assert b3_field.exp_order((0, 0)) == 1
    assert b3_field.exp_order((1, 0)) == 3
    assert b3_field.exp_order((2, 1)) == 3
    assert len(b3_field.prime_order_exponents()) == 8
    assert not b3_field.subgroup_is_cyclic((1, 0), (0, 1))
    assert b3_field.subgroup_is_cyclic((1, 0), (2, 0))


def _pairs(report):
    return [(c.name, c.passed, c.detail) for c in report.checks]


SIGMA_PASS = [
    ("sigma[0] is a ring automorphism", True, ""),
    ("sigma[0] order == 2", True, ""),
    ("sigma[1] is a ring automorphism", True, ""),
    ("sigma[1] order == 2", True, ""),
    ("sigma[0] and sigma[1] commute", True, ""),
]


def test_validation_pins_a_commutativity_failure(b_field):
    """An asymmetric perturbation stops the ring checks at the first
    asymmetric basis pair; the Galois checks still run."""
    sc = [[list(vec) for vec in row] for row in b_field.structure_constants]
    sc[1][2][0] += 1
    broken = GaloisExtensionPresentation(
        b_field.orders, b_field.basis_labels, sc, b_field.unit_coords,
        b_field.sigma, name="noncommutative")
    assert _pairs(validate_galois_data(broken)) == [
        ("commutativity", False, "basis sqrt3 * sqrt2 asymmetric"),
        ("sigma[0] is a ring automorphism", False, ""),
        ("sigma[0] order == 2", True, ""),
        ("sigma[1] is a ring automorphism", False, ""),
        ("sigma[1] order == 2", True, ""),
        ("sigma[0] and sigma[1] commute", True, ""),
        ("joint fixed subspace is the scalar line", True, "fixed dimension 1"),
    ]


def test_validation_pins_a_unit_failure(b_field):
    """With unit vector 2*1 the table is still a commutative ring, but the
    supplied unit is not its unit."""
    broken = GaloisExtensionPresentation(
        b_field.orders, b_field.basis_labels, b_field.structure_constants,
        [2, 0, 0, 0], b_field.sigma, name="bad-unit")
    assert _pairs(validate_galois_data(broken)) == [
        ("commutativity", True, ""),
        ("unit element", False, ""),
        ("associativity", True, ""),
        ("invertibility (basis + sampled elements)", True,
         "4 basis + 8 sampled elements invert"),
        ("trace form nondegenerate", True, ""),
        *SIGMA_PASS,
        ("joint fixed subspace is the scalar line", True, "fixed dimension 1"),
    ]


def test_validation_pins_a_trace_form_failure():
    """The dual numbers Q[x]/(x^2): commutative, associative and unital,
    but x is nilpotent, so x has no inverse and the trace form is
    degenerate."""
    one, zero = Fraction(1), Fraction(0)
    dual = plain_field_presentation(("1", "x"), [[(one, zero), (zero, one)],
                                                 [(zero, one), (zero, zero)]],
                                    (one, zero), name="dual")
    assert _pairs(validate_field_data(dual)) == [
        ("commutativity", True, ""),
        ("unit element", True, ""),
        ("associativity", True, ""),
        ("invertibility (basis + sampled elements)", False, "no inverse for x"),
        ("trace form nondegenerate", False, ""),
    ]
