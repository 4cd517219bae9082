"""Composite extensions coprime to the group prime, and witness descent.

A composite is supplied as explicit data and verified, never discovered:
the coefficient field E over the rationals, the composite presentation KE
carrying the same group action, a linear embedding of K, and optional
relative automorphisms fixing K.  The relative norm from KE down to K is
the determinant of multiplication viewed K-linearly; when the supplied
relative automorphisms generate a full group of order [KE:K] the orbit
product is available as an independent cross-check (the two agree exactly
in that case, and the determinant definition also covers non-normal
composites such as adjoining a real cube root).

Descent: a strong witness over the composite maps, coefficientwise under
the relative norm, to a strong witness for the entrywise t-th power of the
original presentation data; Bezout powering then reaches exponent tk + el = 1
territory.  The final passage back to the original data is non-constructive
and deliberately not implemented; reports end at the powered data and say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from . import linalg
from .crossed_product import (CocycleData, CrossedProductAlgebra,
                              StrongDegeneracyWitness, check_strong_witness,
                              power_cocycle, validate_relations)
from .errors import MixedContextError, PresentationError, WitnessError
from .field_core import (FieldElement, GaloisExtensionPresentation, _apply_columns,
                         _columns, _compose, _dense_matrix, _identity, _image,
                         _integer_rows, _is_multiplicative, _make, _rational,
                         common_prime, require_automorphisms, validate_field_data)
from .reporting import Report


@dataclass
class CompositeExtension:
    """Verified composite data: K inside KE with the group acting, E the
    degree-t coefficient field, rel_gal automorphisms of KE fixing K.  The
    maps are held as columns (field_core._sparse_integer); embed and rel_gal
    read them back as dense Fraction matrices."""

    base: GaloisExtensionPresentation
    ext_field: GaloisExtensionPresentation
    composite: GaloisExtensionPresentation
    embed_columns: tuple
    rel_gal_columns: tuple
    t: int
    _module: tuple = field(default=(), repr=False, compare=False)

    @property
    def embed(self):
        return _dense_matrix(self.embed_columns, self.composite.dim)

    @property
    def rel_gal(self):
        return [_dense_matrix(tau, self.composite.dim) for tau in self.rel_gal_columns]


def validate_composite(base, ext_field, composite, embed, rel_gal,
                       samples=6, seed=0) -> Report:
    report = Report(f"composite checks: {composite.name or 'unnamed'}")
    n, big = base.dim, composite.dim
    t = ext_field.dim

    if not report.require("dimension bookkeeping", big == n * t,
                          f"{big} != {n} * {t}"):
        return report
    if not report.require("same group signature", composite.orders == base.orders):
        return report

    efield = validate_field_data(ext_field, samples=samples, seed=seed)
    report.require("coefficient field axioms", efield.ok,
                   "; ".join(c.name for c in efield.failures()))
    cfield = validate_field_data(composite, samples=samples, seed=seed)
    report.require("composite field axioms (semi-verified)", cfield.ok,
                   "; ".join(c.name for c in cfield.failures()))

    if len(embed) != big or any(len(row) != n for row in embed):
        report.require("embedding shape", False, f"need {big} x {n}")
        return report
    emb_map = _columns([[_rational(x) for x in row] for row in embed])
    report.require("embedding preserves the unit",
                   _image(emb_map, base.one(), composite) == composite.one())
    report.require("embedding injective", linalg.rank(_integer_rows(emb_map, big)) == n)
    report.require("embedding is a ring homomorphism",
                   _is_multiplicative(base, composite, emb_map))
    report.require("embedding commutes with the group action", all(
        _compose(s, emb_map) == _compose(emb_map, r)
        for s, r in zip(composite._generators, base._generators)))
    require_automorphisms(report, composite, dict(enumerate(composite._generators)),
                          "composite sigma", composite.orders)

    fixed = composite.joint_fixed_subspace()
    report.require("joint fixed subspace has the coefficient degree",
                   len(fixed) == t, f"dim {len(fixed)} != {t}")

    for idx, tau in enumerate(rel_gal):
        if len(tau) != big or any(len(row) != big for row in tau):
            report.require(f"rel_gal[{idx}] shape", False)
            continue
        tau_map = _columns([[_rational(x) for x in row] for row in tau])
        report.require(f"rel_gal[{idx}] fixes the embedded subfield",
                       _compose(tau_map, emb_map) == emb_map)
        require_automorphisms(report, composite, {idx: tau_map}, "rel_gal")

    p = common_prime(base.orders)
    if p is None:
        report.note("generator orders are not powers of a single prime; "
                    "coprimality not applicable")
    else:
        report.require(f"degree prime to {p}", gcd(t, p) == 1, f"t = {t}")
    return report


def build_tensor_extension(base, ext_field, composite, embed, rel_gal) -> CompositeExtension:
    """Verify the supplied composite data and package it; any failing
    invariant rejects the whole composite with the failing check names."""
    report = validate_composite(base, ext_field, composite, embed, rel_gal)
    if not report.ok:
        raise PresentationError(
            "composite rejected: " + "; ".join(c.name for c in report.failures()))
    return CompositeExtension(base, ext_field, composite, _columns(embed),
                              tuple(_columns(tau) for tau in rel_gal), ext_field.dim)


# ---------------------------------------------------------------------- #
# moving elements around


def embed_element(comp: CompositeExtension, x: FieldElement) -> FieldElement:
    if x.field is not comp.base:
        raise MixedContextError("element is not over the base field")
    return _image(comp.embed_columns, x, comp.composite)


def restrict_element(comp: CompositeExtension, y: FieldElement) -> FieldElement:
    if y.field is not comp.composite:
        raise MixedContextError("element is not over the composite")
    # (columns / den) x = nums / y.den exactly when columns (y.den x) = den * nums
    den = comp.embed_columns[1]
    sol = linalg.solve(_integer_rows(comp.embed_columns, comp.composite.dim),
                       [den * v for v in y.nums])
    if sol is None:
        raise ValueError("element lies outside the embedded subfield")
    nums, d = sol
    return _make(comp.base, nums, d * y.den)


def _module_data(comp: CompositeExtension):
    """A K-basis v_1..v_t of the composite plus the inverse of the change
    of coordinates as a linear map (columns); cached on the composite."""
    if comp._module:
        return comp._module
    n, big, t = comp.base.dim, comp.composite.dim, comp.t
    images = [embed_element(comp, comp.base.basis_element(a)) for a in range(n)]
    vs = []
    span_rows: list = []
    for cand_idx in range(big):
        if len(vs) == t:
            break
        cand = comp.composite.basis_element(cand_idx)
        if span_rows and linalg.rank(span_rows + [list(cand.nums)]) == linalg.rank(span_rows):
            continue
        vs.append(cand)
        for img in images:
            span_rows.append(list((img * cand).nums))
    if len(vs) != t:
        raise PresentationError("failed to build a module basis")
    # column (b*n + a) holds embed(e_a) * v_b, times the lcm den of the
    # denominators; the inverse is then den * rows / d, stored canonically
    prods = [images[a] * vs[b] for b in range(t) for a in range(n)]
    den = lcm(*[p.den for p in prods])
    inverse = linalg.invert([[p.nums[i] * (den // p.den) for p in prods] for i in range(big)])
    if inverse is None:
        raise PresentationError("module coordinate matrix is singular")
    rows, d = inverse
    g = gcd(d, den * gcd(*[v for row in rows for v in row]))
    columns = tuple(tuple((k, den * v // g) for k, v in enumerate(col) if v)
                    for col in zip(*rows))
    comp._module = (tuple(vs), (columns, d // g))
    return comp._module


def relative_norm(comp: CompositeExtension, y: FieldElement) -> FieldElement:
    """Norm from the composite down to K: the determinant of multiplication
    by y as a K-linear map."""
    if y.field is not comp.composite:
        raise MixedContextError("element is not over the composite")
    vs, inverse = _module_data(comp)
    n, t = comp.base.dim, comp.t
    # column b holds the K-coordinates of y * v_b, as numerators over den
    cols = []
    for v in vs:
        yv = y * v
        cols.append((_apply_columns(inverse, yv.nums, n * t), inverse[1] * yv.den))
    matrix = [[_make(comp.base, c[b2 * n:(b2 + 1) * n], den) for c, den in cols]
              for b2 in range(t)]
    return _det_over_field(comp.base, matrix)


def _det_over_field(fld, rows):
    t = len(rows)
    rows = [list(r) for r in rows]
    out = fld.one()
    negate = False
    for c in range(t):
        pivot = next((i for i in range(c, t) if not rows[i][c].is_zero()), None)
        if pivot is None:
            return fld.zero()
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            negate = not negate
        pv = rows[c][c]
        out = out * pv
        # no inversion when no row below needs clearing, as after the last pivot
        below = [i for i in range(c + 1, t) if not rows[i][c].is_zero()]
        if below:
            inv_pv = fld.inv(pv)
        for i in below:
            f = rows[i][c] * inv_pv
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return -out if negate else out


def relative_group(comp: CompositeExtension):
    """Closure of rel_gal under composition, as linear maps (columns)."""
    ident = _identity(comp.composite.dim)
    seen = {ident}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for g in comp.rel_gal_columns:
            nxt = _compose(g, cur)
            if nxt not in seen:
                if len(seen) > 4 * comp.t + 4:
                    raise PresentationError("relative automorphisms do not close up")
                seen.add(nxt)
                frontier.append(nxt)
    return list(seen)


def orbit_product(comp: CompositeExtension, y: FieldElement) -> FieldElement:
    """Product of y over the group generated by rel_gal (the norm whenever
    that group has full order t)."""
    out = comp.composite.one()
    for tau in relative_group(comp):
        out = out * _image(tau, y, comp.composite)
    return out


# ---------------------------------------------------------------------- #
# cocycle extension and descent


def extend_cocycle(comp: CompositeExtension, data: CocycleData) -> CocycleData:
    """Images of the presentation data over the composite."""
    return CocycleData(
        tuple(tuple(embed_element(comp, u) for u in row) for row in data.twists),
        tuple(embed_element(comp, b) for b in data.powers))


def extended_algebra(comp: CompositeExtension, data: CocycleData) -> CrossedProductAlgebra:
    return CrossedProductAlgebra(comp.composite, extend_cocycle(comp, data))


def embed_witness(comp: CompositeExtension, w: StrongDegeneracyWitness) -> StrongDegeneracyWitness:
    return StrongDegeneracyWitness(
        w.exponent, embed_element(comp, w.coeff),
        tuple(embed_element(comp, x) for x in w.solutions))


def norm_descend_witness(comp: CompositeExtension, base_alg: CrossedProductAlgebra,
                         w: StrongDegeneracyWitness, ext_alg=None):
    """Descend a witness over the composite to one for the entrywise t-th
    power of the base data.  Returns (powered algebra, witness)."""
    if base_alg.ext is not comp.base:
        raise MixedContextError("algebra is not over the composite's base")
    if ext_alg is None:
        ext_alg = extended_algebra(comp, base_alg.data)
    if not check_strong_witness(ext_alg, w):
        raise WitnessError("input witness fails the checker over the composite")
    coeff = relative_norm(comp, w.coeff)
    solutions = tuple(relative_norm(comp, x) for x in w.solutions)
    powered = CrossedProductAlgebra(comp.base, power_cocycle(base_alg.data, comp.t))
    return powered, StrongDegeneracyWitness(w.exponent, coeff, solutions)


def power_witness(alg: CrossedProductAlgebra, w: StrongDegeneracyWitness, k: int):
    """Raise a witness for the presented data to one for its entrywise k-th
    power.  Returns (powered algebra, witness)."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("witness powering requires a positive integer")
    if not check_strong_witness(alg, w):
        raise WitnessError("input witness fails the checker")
    target = CrossedProductAlgebra(alg.ext, power_cocycle(alg.data, k))
    return target, StrongDegeneracyWitness(
        w.exponent, w.coeff ** k, tuple(x ** k for x in w.solutions))


def bezout_certificate(t: int, e: int):
    """(k, l) with t*k + e*l = 1 and k the least positive representative."""
    if t < 1 or e < 1:
        raise ValueError("certificate arguments must be positive")
    if gcd(t, e) != 1:
        raise ValueError(f"gcd({t}, {e}) != 1")
    k = pow(t, -1, e) if e > 1 else 1
    return k, (1 - t * k) // e


def descent_report(comp: CompositeExtension, base_alg: CrossedProductAlgebra,
                   w: StrongDegeneracyWitness, exponent: int) -> Report:
    """The full chain: extend, check over the composite, norm-descend,
    Bezout-power.  Each stage's verdict is a line computed here from the
    stage's result; the first failure aborts."""
    report = Report(f"descent chain: {comp.composite.name or 'composite'}, "
                    f"t={comp.t}, e={exponent}")
    stage = "stage 1: extend data to the composite"
    try:
        data = extend_cocycle(comp, base_alg.data)
        failures = validate_relations(comp.composite, data).failures()
    except PresentationError as exc:
        report.require(stage, False, str(exc))
        return report
    if not report.require(stage, not failures, "; ".join(c.name for c in failures)):
        return report
    ext_alg = CrossedProductAlgebra(comp.composite, data)

    if w.coeff.field is comp.base:
        w = embed_witness(comp, w)
    if not report.require("stage 2: witness valid over the composite",
                          check_strong_witness(ext_alg, w), str(w)):
        return report

    group = relative_group(comp)
    if len(group) == comp.t:
        agree = orbit_product(comp, w.coeff) == embed_element(
            comp, relative_norm(comp, w.coeff))
        report.warn("relative norm agrees with the automorphism orbit product",
                    agree)
    else:
        report.note(f"relative automorphism group has order {len(group)} < t; "
                    "orbit cross-check not applicable (norm is the K-linear "
                    "determinant)")

    stage = "stage 3: norm descent to the powered data"
    try:
        powered, descended = norm_descend_witness(comp, base_alg, w, ext_alg)
    except WitnessError as exc:
        report.require(stage, False, str(exc))
        return report
    if not report.require(stage, check_strong_witness(powered, descended),
                          f"t={comp.t}; descended witness {descended}"):
        return report

    stage = "stage 4: Bezout certificate"
    try:
        k, l = bezout_certificate(comp.t, exponent)
    except ValueError as exc:
        report.require(stage, False, str(exc))
        return report
    total = comp.t * k + exponent * l
    if not report.require(stage, total == 1, f"{comp.t}*{k} + {exponent}*{l} = {total}"):
        return report

    stage = "stage 5: witness powering"
    try:
        target, powered_witness = power_witness(powered, descended, k)
    except WitnessError as exc:
        report.require(stage, False, str(exc))
        return report
    if not report.require(stage, check_strong_witness(target, powered_witness),
                          f"witness for the entrywise power t*k = {comp.t * k}: "
                          f"{powered_witness}"):
        return report
    report.note("the passage from the powered data back to the original data "
                "uses a non-constructive equivalence and is not implemented; "
                "the chain ends here by design")
    return report
