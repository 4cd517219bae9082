"""Built-in fixtures.

instance-b   : K generated over the rationals by square roots of 2 and 3,
               group C2 x C2, twist -1, generator squares (3, 5).
instance-b3  : K the compositum of the real cubic subfields of the 7th and
               9th cyclotomic fields (minimal polynomials x^3+x^2-2x-1 and
               x^3-3x+1, generator action g -> g^2-2 on each), group C3 x C3,
               with a nontrivial strongly degenerate twist built from a
               telescoping coefficient, generator cubes (2, 3).

Structure constants are produced by exact univariate polynomial reduction
and re-verified by validate_galois_data before tests rely on them.  All
builders are cached so elements from repeated calls share one presentation
object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .crossed_product import CocycleData, CrossedProductAlgebra, StrongDegeneracyWitness
from .field_core import GaloisExtensionPresentation, plain_field_presentation

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class SimpleExtension:
    """The rational field with one generator c, c^deg = tail polynomial in c;
    auto_image, when present, gives the c-image of a field automorphism."""

    label: str
    deg: int
    tail: tuple            # coords of c^deg in 1, c, ..., c^(deg-1)
    auto_image: tuple | None = None

    def power_coords(self, d):
        """Coordinates of c^d, reducing by the defining relation."""
        coords = [_ZERO] * self.deg
        coords[0] = _ONE
        for _ in range(d):
            coords = self._shift(coords)
        return coords

    def _shift(self, coords):
        out = [_ZERO] + [Fraction(x) for x in coords[:-1]]
        top = coords[-1]
        if top:
            for k, t in enumerate(self.tail):
                out[k] += top * Fraction(t)
        return out

    def mul_coords(self, x, y):
        prod = [_ZERO] * (2 * self.deg - 1)
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if yj:
                    prod[i + j] += xi * yj
        out = prod[:self.deg]
        for d in range(self.deg, len(prod)):
            if prod[d]:
                pw = self.power_coords(d)
                out = [a + prod[d] * b for a, b in zip(out, pw)]
        return out

    def eval_poly(self, image, coords):
        """coords(c) evaluated at the polynomial image(c)."""
        out = [_ZERO] * self.deg
        power = [_ZERO] * self.deg
        power[0] = _ONE
        for x in coords:
            if x:
                out = [a + Fraction(x) * b for a, b in zip(out, power)]
            power = self.mul_coords(power, list(image))
        return out

    def labels(self):
        out = []
        for j in range(self.deg):
            if j == 0:
                out.append("1")
            elif j == 1:
                out.append(self.label)
            else:
                out.append(f"{self.label}^{j}")
        return out

    def presentation(self, name=""):
        """Plain (rank-0) field presentation on the power basis."""
        basis = [self.power_coords(j) for j in range(self.deg)]
        sc = [[self.mul_coords(basis[i], basis[j]) for j in range(self.deg)]
              for i in range(self.deg)]
        unit = [_ONE] + [_ZERO] * (self.deg - 1)
        return plain_field_presentation(self.labels(), sc, unit, name=name)


def tensor_galois_presentation(factors, orders, name="", labels=None):
    """Tensor of simple extensions on the product power basis, with the
    automorphism of each factor acting on its own tensor slot."""
    import itertools
    from math import prod

    factors = list(factors)
    degs = [f.deg for f in factors]
    n = prod(degs)
    multis = list(itertools.product(*(range(d) for d in degs)))
    position = {m: i for i, m in enumerate(multis)}

    def tensor_vec(parts):
        vec = [_ZERO] * n
        for m in multis:
            coeff = _ONE
            for f, mf in enumerate(m):
                coeff *= parts[f][mf]
                if not coeff:
                    break
            if coeff:
                vec[position[m]] += coeff
        return vec

    sc = [[None] * n for _ in range(n)]
    for a in multis:
        for b in multis:
            parts = [factors[f].mul_coords(factors[f].power_coords(a[f]),
                                           factors[f].power_coords(b[f]))
                     for f in range(len(factors))]
            sc[position[a]][position[b]] = tensor_vec(parts)

    unit = [_ZERO] * n
    unit[0] = _ONE

    sigma = []
    for slot, f in enumerate(factors):
        mat = [[_ZERO] * n for _ in range(n)]
        for a in multis:
            img = f.eval_poly(f.auto_image, f.power_coords(a[slot]))
            for k, v in enumerate(img):
                if v:
                    target = a[:slot] + (k,) + a[slot + 1:]
                    mat[position[target]][position[a]] += v
        sigma.append(mat)

    if labels is None:
        factor_labels = [f.labels() for f in factors]
        labels = []
        for m in multis:
            parts = [factor_labels[f][mf] for f, mf in enumerate(m)
                     if factor_labels[f][mf] != "1"]
            labels.append("*".join(parts) if parts else "1")

    return GaloisExtensionPresentation(orders, labels, sc, unit, sigma, name=name)


# ---------------------------------------------------------------------- #
# instance-b


@lru_cache(maxsize=None)
def instance_b_field() -> GaloisExtensionPresentation:
    sqrt2 = SimpleExtension("sqrt2", 2, (Fraction(2), _ZERO), auto_image=(_ZERO, Fraction(-1)))
    sqrt3 = SimpleExtension("sqrt3", 2, (Fraction(3), _ZERO), auto_image=(_ZERO, Fraction(-1)))
    return tensor_galois_presentation(
        (sqrt2, sqrt3), (2, 2), name="instance-b",
        labels=("1", "sqrt3", "sqrt2", "sqrt6"))


@lru_cache(maxsize=None)
def instance_b_algebra() -> CrossedProductAlgebra:
    k = instance_b_field()
    minus_one = k.scalar(-1)
    twists = ((k.one(), minus_one), (minus_one, k.one()))
    powers = (k.scalar(3), k.scalar(5))
    return CrossedProductAlgebra(k, CocycleData(twists, powers))


def instance_b_witness() -> StrongDegeneracyWitness:
    k = instance_b_field()
    sqrt2 = k.basis_element(2)
    return StrongDegeneracyWitness((1, 1), sqrt2, (k.one(), sqrt2))


# ---------------------------------------------------------------------- #
# instance-b3


def _cubic_factors():
    # x^3 + x^2 - 2x - 1 -> a^3 = 1 + 2a - a^2 ; action a -> a^2 - 2
    cubic7 = SimpleExtension("a", 3, (Fraction(1), Fraction(2), Fraction(-1)),
                             auto_image=(Fraction(-2), _ZERO, _ONE))
    # x^3 - 3x + 1 -> b^3 = -1 + 3b ; action b -> b^2 - 2
    cubic9 = SimpleExtension("b", 3, (Fraction(-1), Fraction(3), _ZERO),
                             auto_image=(Fraction(-2), _ZERO, _ONE))
    return cubic7, cubic9


@lru_cache(maxsize=None)
def instance_b3_field() -> GaloisExtensionPresentation:
    cubic7, cubic9 = _cubic_factors()
    return tensor_galois_presentation((cubic7, cubic9), (3, 3), name="instance-b3")


@lru_cache(maxsize=None)
def _instance_b3_coeff():
    """The telescoping coefficient l = s2(w)/w for w = a + b; its subgroup
    norms are 1 by construction, which makes the derived twist satisfy all
    relations with rational generator cubes."""
    k = instance_b3_field()
    w = k.basis_element(3) + k.basis_element(1)      # a + b
    return k.apply_automorphism((0, 1), w) / w


@lru_cache(maxsize=None)
def instance_b3_algebra() -> CrossedProductAlgebra:
    k = instance_b3_field()
    l = _instance_b3_coeff()
    u12 = l / k.apply_automorphism((1, 0), l)
    twists = ((k.one(), u12), (k.inv(u12), k.one()))
    powers = (k.scalar(2), k.scalar(3))
    return CrossedProductAlgebra(k, CocycleData(twists, powers))


def instance_b3_witness() -> StrongDegeneracyWitness:
    k = instance_b3_field()
    l = _instance_b3_coeff()
    return StrongDegeneracyWitness((0, 1), l, (k.one(), l))


# ---------------------------------------------------------------------- #
# helpers shared by tests and the CLI


def trivial_cocycle(ext, powers=None) -> CocycleData:
    """Twist-free data: all twists 1, generator powers rational (default 1)."""
    one = ext.one()
    twists = tuple(tuple(one for _ in range(ext.rank)) for _ in range(ext.rank))
    if powers is None:
        powers = tuple(one for _ in range(ext.rank))
    else:
        powers = tuple(ext.scalar(p) if not hasattr(p, "coords") else p
                       for p in powers)
    return CocycleData(twists, powers)


@lru_cache(maxsize=None)
def composite_b_cuberoot2():
    """instance-b extended by the real cube root of 2 (degree 3, not normal:
    the composite has no nontrivial automorphisms over K)."""
    cbrt = SimpleExtension("crt2", 3, (Fraction(2), _ZERO, _ZERO))
    return _tensor_composite(instance_b_field(), cbrt, "b-cuberoot2")


@lru_cache(maxsize=None)
def composite_b3_sqrt5():
    """instance-b3 extended by a square root of 5 (degree 2, Galois; the
    relative group is generated by the sign flip)."""
    cbrt = SimpleExtension("sqrt5", 2, (Fraction(5), _ZERO),
                           auto_image=(_ZERO, Fraction(-1)))
    return _tensor_composite(instance_b3_field(), cbrt, "b3-sqrt5")


def trivial_composite(base):
    """The degree-1 composite: E = F, KE = K."""
    unit_ext = SimpleExtension("t", 1, (_ONE,))
    return _tensor_composite(base, unit_ext, f"{base.name}-trivial")


def _tensor_composite(base, ext: SimpleExtension, name):
    from .extension_lab import build_tensor_extension

    n, t = base.dim, ext.deg
    big = n * t

    def idx(k, j):
        return k * t + j

    base_sc = base.structure_constants
    sc = [[None] * big for _ in range(big)]
    for k1 in range(n):
        for j1 in range(t):
            for k2 in range(n):
                for j2 in range(t):
                    kvec = base_sc[k1][k2]
                    evec = ext.mul_coords(ext.power_coords(j1), ext.power_coords(j2))
                    vec = [_ZERO] * big
                    for k, kv in enumerate(kvec):
                        if not kv:
                            continue
                        for j, ev in enumerate(evec):
                            if ev:
                                vec[idx(k, j)] += kv * ev
                    sc[idx(k1, j1)][idx(k2, j2)] = vec

    unit = [_ZERO] * big
    for k, u in enumerate(base.unit_coords):
        unit[idx(k, 0)] = u

    labels = []
    elabels = ext.labels()
    for k in range(n):
        for j in range(t):
            parts = [p for p in (base.basis_labels[k], elabels[j]) if p != "1"]
            labels.append("*".join(parts) if parts else "1")

    sigma = []
    for s in base.sigma:
        mat = [[_ZERO] * big for _ in range(big)]
        for k1 in range(n):
            for k2 in range(n):
                if s[k1][k2]:
                    for j in range(t):
                        mat[idx(k1, j)][idx(k2, j)] = s[k1][k2]
        sigma.append(mat)

    composite = GaloisExtensionPresentation(
        base.orders, labels, sc, unit, sigma, name=f"{name}-composite")

    embed = [[_ZERO] * n for _ in range(big)]
    for k in range(n):
        embed[idx(k, 0)][k] = _ONE

    rel_gal = []
    if ext.auto_image is not None and ext.deg > 1:
        mat = [[_ZERO] * big for _ in range(big)]
        for k in range(n):
            for j in range(t):
                img = ext.eval_poly(ext.auto_image, ext.power_coords(j))
                for jj, v in enumerate(img):
                    if v:
                        mat[idx(k, jj)][idx(k, j)] += v
        rel_gal.append(mat)

    ext_pres = ext.presentation(name=f"{name}-coefficients")
    return build_tensor_extension(base, ext_pres, composite, embed, rel_gal)


# ---------------------------------------------------------------------- #
# registry


BUILTIN_ALGEBRAS = {
    "instance-b": instance_b_algebra,
    "instance-b3": instance_b3_algebra,
}

BUILTIN_WITNESSES = {
    "instance-b": instance_b_witness,
    "instance-b3": instance_b3_witness,
}

BUILTIN_COMPOSITES = {
    "b-cuberoot2": composite_b_cuberoot2,
    "b3-sqrt5": composite_b3_sqrt5,
}


def write_fixture_files(directory):
    """Serialize the builtins into a directory of schema-tagged documents."""
    import pathlib

    from . import serialize

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in BUILTIN_ALGEBRAS.items():
        alg = build()
        path = directory / f"{name}.json"
        serialize.save(path, serialize.algebra_to_doc(alg))
        written.append(path)
        wpath = directory / f"{name}-witness.json"
        serialize.save(wpath, serialize.witness_to_doc(alg, BUILTIN_WITNESSES[name]()))
        written.append(wpath)
    for name, build in BUILTIN_COMPOSITES.items():
        path = directory / f"composite-{name}.json"
        serialize.save(path, serialize.composite_to_doc(build()))
        written.append(path)
    return written


if __name__ == "__main__":  # pragma: no cover
    import sys

    for p in write_fixture_files(sys.argv[1] if len(sys.argv) > 1 else "fixtures"):
        print(p)
