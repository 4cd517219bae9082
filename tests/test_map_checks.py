"""Pinned check lists of the automorphism and embedding validators.

Each case mutates one input of a passing presentation or composite and
pins the full (name, passed, detail) list that validate_galois_data or
validate_composite reports, so the order, verdict and detail of every
check stay fixed whatever the validators use to apply and compose maps.
"""

from fractions import Fraction

import pytest

from acplab import fixtures
from acplab.extension_lab import validate_composite
from acplab.field_core import GaloisExtensionPresentation, validate_galois_data

ZERO, ONE = Fraction(0), Fraction(1)


def _pairs(report):
    return [(c.name, c.passed, c.detail) for c in report.checks]


def _diag(*entries):
    return [[Fraction(x) if i == j else ZERO for j in range(len(entries))]
            for i, x in enumerate(entries)]


def _permutation(images):
    """The matrix sending basis vector j to basis vector images[j]."""
    n = len(images)
    return [[ONE if images[j] == i else ZERO for j in range(n)] for i in range(n)]


def _with_sigma(p, sigma):
    """p with the given generators, keeping the first len(sigma) orders."""
    return GaloisExtensionPresentation(p.orders[:len(sigma)], p.basis_labels,
                                       p.structure_constants, p.unit_coords, sigma,
                                       name=p.name)


def _b():
    return fixtures.instance_b_field()


# basis 1, sqrt3, sqrt2, sqrt6; sigma = [diag(1, 1, -1, -1), diag(1, -1, 1, -1)]
GALOIS_CASES = {
    # negates sqrt2 but not sqrt6: order 2, commutes, not multiplicative
    "sigma-automorphism": lambda: _with_sigma(_b(), [_diag(1, 1, -1, 1), _b().sigma[1]]),
    "sigma-order": lambda: _with_sigma(_b(), [_diag(1, 1, 1, 1), _b().sigma[1]]),
    # swaps sqrt3 and sqrt2: order 2, does not commute with sigma[1]
    "sigma-commutation": lambda: _with_sigma(_b(), [_permutation([0, 2, 1, 3]), _b().sigma[1]]),
}


def _b_cubic7():
    return fixtures._tensor_composite(_b(), fixtures._cubic_factors()[0], "b-cubic7")


def _composite_case(embed=None, rel_gal=None, sigma=None):
    """validate_composite arguments for instance-b (x) the cyclic cubic
    field of conductor 7 (dim 12, K at the basis positions 3a) with one
    input replaced."""
    def build():
        comp = _b_cubic7()
        big = comp.composite if sigma is None else _with_sigma(comp.composite, sigma(comp))
        return (comp.base, comp.ext_field, big,
                comp.embed if embed is None else embed(comp),
                comp.rel_gal if rel_gal is None else rel_gal(comp))
    return build


def _columns_swapped(m, a, b):
    out = [list(row) for row in m]
    for row in out:
        row[a], row[b] = row[b], row[a]
    return out


COMPOSITE_CASES = {
    "unchanged": _composite_case(),
    "embed-unit": _composite_case(embed=lambda c: [[2 * x for x in row] for row in c.embed]),
    "embed-injective": _composite_case(
        embed=lambda c: [row[:3] + [ZERO] for row in c.embed]),
    "embed-multiplicative": _composite_case(embed=lambda c: _columns_swapped(c.embed, 1, 2)),
    "embed-group-action": _composite_case(
        sigma=lambda c: [c.composite.sigma[1], c.composite.sigma[1]]),
    "rel-gal-fixes": _composite_case(rel_gal=lambda c: [c.composite.sigma[0]]),
    # fixes K (x) 1, doubles the rest
    "rel-gal-automorphism": _composite_case(rel_gal=lambda c: [_diag(*[1, 2, 2] * 4)]),
    "rel-gal-shape": _composite_case(rel_gal=lambda c: [c.rel_gal[0][:-1], c.rel_gal[0]]),
    # one generator fewer than the base: validation stops at the signature
    "smaller-group": _composite_case(sigma=lambda c: c.composite.sigma[:1]),
}


def _with(base, changes):
    """base with the (passed, detail) of each named check replaced."""
    assert set(changes) <= {name for name, _p, _d in base}
    return [(name, *changes.get(name, (passed, detail))) for name, passed, detail in base]


GALOIS_PASSING = [
    ("commutativity", True, ""),
    ("unit element", True, ""),
    ("associativity", True, ""),
    ("invertibility (basis + sampled elements)", True, "4 basis + 8 sampled elements invert"),
    ("trace form nondegenerate", True, ""),
    ("sigma[0] is a ring automorphism", True, ""),
    ("sigma[0] order == 2", True, ""),
    ("sigma[1] is a ring automorphism", True, ""),
    ("sigma[1] order == 2", True, ""),
    ("sigma[0] and sigma[1] commute", True, ""),
    ("joint fixed subspace is the scalar line", True, "fixed dimension 1"),
]

EXPECTED_GALOIS = {
    "sigma-automorphism": _with(GALOIS_PASSING, {
        "sigma[0] is a ring automorphism": (False, "")}),
    "sigma-order": _with(GALOIS_PASSING, {
        "sigma[0] order == 2": (False, "sigma[0] order != 2"),
        "joint fixed subspace is the scalar line": (False, "fixed dimension 2")}),
    "sigma-commutation": _with(GALOIS_PASSING, {
        "sigma[0] is a ring automorphism": (False, ""),
        "sigma[0] and sigma[1] commute": (False, "")}),
}

COMPOSITE_HEAD = [
    ("dimension bookkeeping", True, "12 != 4 * 3"),
    ("same group signature", True, ""),
    ("coefficient field axioms", True, ""),
    ("composite field axioms (semi-verified)", True, ""),
    ("embedding preserves the unit", True, ""),
    ("embedding injective", True, ""),
    ("embedding is a ring homomorphism", True, ""),
    ("embedding commutes with the group action", True, ""),
    ("composite sigma[0] is a ring automorphism", True, ""),
    ("composite sigma[0] order == 2", True, ""),
    ("composite sigma[1] is a ring automorphism", True, ""),
    ("composite sigma[1] order == 2", True, ""),
    ("composite sigma[0] and sigma[1] commute", True, ""),
    ("joint fixed subspace has the coefficient degree", True, "dim 3 != 3"),
]
REL_GAL_0 = [
    ("rel_gal[0] fixes the embedded subfield", True, ""),
    ("rel_gal[0] is a ring automorphism", True, ""),
]
COPRIME = [("degree prime to 2", True, "t = 3")]
COMPOSITE_PASSING = COMPOSITE_HEAD + REL_GAL_0 + COPRIME

EXPECTED_COMPOSITE = {
    "unchanged": COMPOSITE_PASSING,
    "embed-unit": _with(COMPOSITE_PASSING, {
        "embedding preserves the unit": (False, ""),
        "embedding is a ring homomorphism": (False, "")}),
    "embed-injective": _with(COMPOSITE_PASSING, {
        "embedding injective": (False, ""),
        "embedding is a ring homomorphism": (False, "")}),
    "embed-multiplicative": _with(COMPOSITE_PASSING, {
        "embedding is a ring homomorphism": (False, ""),
        "embedding commutes with the group action": (False, "")}),
    "embed-group-action": _with(COMPOSITE_PASSING, {
        "embedding commutes with the group action": (False, ""),
        "joint fixed subspace has the coefficient degree": (False, "dim 6 != 3")}),
    "rel-gal-fixes": _with(COMPOSITE_PASSING, {
        "rel_gal[0] fixes the embedded subfield": (False, "")}),
    "rel-gal-automorphism": _with(COMPOSITE_PASSING, {
        "rel_gal[0] is a ring automorphism": (False, "")}),
    "rel-gal-shape": COMPOSITE_HEAD + [
        ("rel_gal[0] shape", False, ""),
        ("rel_gal[1] fixes the embedded subfield", True, ""),
        ("rel_gal[1] is a ring automorphism", True, ""),
    ] + COPRIME,
    "smaller-group": [
        ("dimension bookkeeping", True, "12 != 4 * 3"),
        ("same group signature", False, ""),
    ],
}


@pytest.mark.parametrize("case", sorted(GALOIS_CASES))
def test_galois_checks_pinned(case):
    assert _pairs(validate_galois_data(GALOIS_CASES[case]())) == EXPECTED_GALOIS[case]


@pytest.mark.parametrize("case", sorted(COMPOSITE_CASES))
def test_composite_checks_pinned(case):
    assert _pairs(validate_composite(*COMPOSITE_CASES[case]())) == EXPECTED_COMPOSITE[case]
