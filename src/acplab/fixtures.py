"""Built-in presentations, algebras, witnesses and composites.

Every built-in field is a tensor product of simple extensions Q[c]/(f),
each given by the reduction c^deg = tail(c) and, when it is Galois, by the
image of c under a generating automorphism:

instance-b   : Q(sqrt2) (x) Q(sqrt3), group C2 x C2, twist -1, generator
               squares (3, 5).
instance-b3  : the real cubic subfields of the 7th and 9th cyclotomic fields
               (x^3+x^2-2x-1 and x^3-3x+1, action g -> g^2-2 on each), group
               C3 x C3, with a nontrivial strongly degenerate twist built
               from a telescoping coefficient, generator cubes (2, 3).
b-cuberoot2  : instance-b (x) Q(cube root of 2), no relative automorphisms.
b3-sqrt5     : instance-b3 (x) Q(sqrt5), relative group generated by 1 (x) tau.

tensor_presentation is the one construction behind all of them: the
structure constants, unit and labels of left (x) right on the product basis,
left index slowest, with automorphisms supplied as Kronecker products.  The
data are re-verified by validate_galois_data (fields) and validate_composite
(composites) before anything relies on them.  All builders are cached so
elements from repeated calls share one presentation object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .crossed_product import CocycleData, CrossedProductAlgebra, StrongDegeneracyWitness
from .field_core import GaloisExtensionPresentation, plain_field_presentation
from .linalg import identity

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
        coords = [_ONE] + [_ZERO] * (self.deg - 1)
        for _ in range(d):
            top = coords[-1]
            coords = [a + top * Fraction(t) for a, t in zip([_ZERO] + coords[:-1], self.tail)]
        return coords

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
        sc = [[self.power_coords(i + j) for j in range(self.deg)] for i in range(self.deg)]
        return plain_field_presentation(self.labels(), sc, self.power_coords(0), name=name)

    def automorphism(self):
        """Matrix of c -> auto_image on the power basis: column j holds
        auto_image^j, multiplied out in the presentation."""
        image = self.presentation().element(self.auto_image)
        return [list(row) for row in zip(*((image ** j).coords for j in range(self.deg)))]


def _kron(a, b):
    """Kronecker product of two matrices given as lists of rows, left index
    slowest; zero products are the shared _ZERO."""
    return [[x * y if x and y else _ZERO for x in ra for y in rb] for ra in a for rb in b]


def tensor_presentation(left, right, orders, sigma, name="", labels=None):
    """left (x) right on the basis e_i (x) f_j at index i * right.dim + j.

    The structure constants, unit and (unless given) labels are those of
    the tensor product; the group orders and one automorphism matrix per
    generator on the product basis come from the caller."""
    lsc, rsc = left.structure_constants, right.structure_constants
    sc = [[_kron([lsc[i1][j1]], [rsc[i2][j2]])[0]
           for j1 in range(left.dim) for j2 in range(right.dim)]
          for i1 in range(left.dim) for i2 in range(right.dim)]
    unit = _kron([left.unit_coords], [right.unit_coords])[0]
    if labels is None:
        labels = ["*".join(p for p in (a, b) if p != "1") or "1"
                  for a in left.basis_labels for b in right.basis_labels]
    return GaloisExtensionPresentation(orders, labels, sc, unit, sigma, name=name)


_RATIONALS = plain_field_presentation(["1"], [[[_ONE]]], [_ONE])


def tensor_galois_presentation(factors, orders, name="", labels=None):
    """Tensor of simple extensions on the product power basis, with the
    automorphism of each factor acting on its own tensor slot:
    s_slot = 1 (x) ... (x) tau (x) ... (x) 1."""
    *init, last = factors
    left = tensor_galois_presentation(init, orders[:-1]) if init else _RATIONALS
    sigma = [_kron(s, identity(last.deg)) for s in left.sigma]
    sigma.append(_kron(identity(left.dim), last.automorphism()))
    return tensor_presentation(left, last.presentation(), orders, sigma, name, labels)


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
    """base (x) E with the group acting on the base slot, K embedded as
    1 (x) e_0 and the relative automorphism 1 (x) tau when E is Galois."""
    from .extension_lab import build_tensor_extension

    ext_pres = ext.presentation(name=f"{name}-coefficients")
    sigma = [_kron(s, identity(ext.deg)) for s in base.sigma]
    composite = tensor_presentation(base, ext_pres, base.orders, sigma,
                                    name=f"{name}-composite")
    embed = _kron(identity(base.dim), [[_ONE]] + [[_ZERO]] * (ext.deg - 1))
    rel_gal = []
    if ext.auto_image is not None and ext.deg > 1:
        rel_gal.append(_kron(identity(base.dim), ext.automorphism()))
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
