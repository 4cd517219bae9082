"""Exact arithmetic in explicitly presented abelian Galois extensions.

A field K of finite dimension n over the rationals F is described by
structure constants on a fixed basis together with r commuting ring
automorphism matrices generating an abelian group
G = <s_1> x ... x <s_r> with |s_i| = orders[i].  The same class also
carries plain commutative field presentations (r = 0), used for the
non-normal coefficient fields of composite extensions.

Group exponents are plain tuples m = (m_1, ..., m_r) with
0 <= m_i < orders[i]; composition is componentwise addition modulo the
orders.  All scalars are Fractions, so every identity in this package is
checked exactly.

Multiplication and the Galois action run on integers: the structure
constants and each automorphism power are stored once as sparse integer
numerators over one common denominator, each operand is scaled by the lcm
of its coordinate denominators, products are accumulated in Python ints,
and the result is divided once and handed back as normalised Fractions.
Every linear map (here and in extension_lab) is held that way, as canonical
sparse integer columns (_sparse_integer) that compare and hash by value,
applied by _apply_columns and composed by _compose; dense Fraction matrices
are only constructor input, serialized output and elimination input.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod

from . import linalg
from .errors import MixedContextError, PresentationError
from .reporting import Report

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FieldElement:
    """An element of a presented field, stored as basis coordinates."""

    __slots__ = ("field", "coords", "_hash")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(coords)
        self._hash = None

    def is_zero(self):
        return not any(self.coords)

    def is_scalar(self):
        """True when the element lies on the line F*1."""
        return self.field.scalar_part(self) is not None

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        self.field._check(other)
        return FieldElement(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        self.field._check(other)
        return FieldElement(self.field, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FieldElement(self.field, [q * a for a in self.coords])
        if not isinstance(other, FieldElement):
            return NotImplemented
        self.field._check(other)
        return FieldElement(self.field, self.field._mul_coords(self.coords, other.coords))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FieldElement(self.field, [a / q for a in self.coords])
        if not isinstance(other, FieldElement):
            return NotImplemented
        self.field._check(other)
        return self * self.field.inv(other)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.field.inv(self)
        out = self.field.one()
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field is other.field and self.coords == other.coords

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coords)
        return self._hash

    def __repr__(self):
        return f"<{self} in {self.field.name or 'field'}>"

    def __str__(self):
        labels = self.field.basis_labels
        parts = []
        for c, lab in zip(self.coords, labels):
            if not c:
                continue
            if lab == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(lab)
            elif c == -1:
                parts.append(f"-{lab}")
            else:
                parts.append(f"{c}*{lab}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


class GaloisExtensionPresentation:
    """K/F via structure constants plus commuting automorphism generators.

    structure_constants[i][j] is the coordinate vector of basis_i * basis_j.
    sigma[i] is an n x n matrix acting on coordinate column vectors; it is
    held as columns (see _sparse_integer) and read back densely.
    Shape problems raise PresentationError immediately; the mathematical
    invariants (field axioms, automorphism laws, fixed-line condition) are
    the job of validate_galois_data, which reports rather than raises.
    """

    def __init__(self, orders, basis_labels, structure_constants, unit, sigma, name=""):
        self.name = name
        self.orders = tuple(int(n) for n in orders)
        self.rank = len(self.orders)
        if any(n < 2 for n in self.orders):
            raise PresentationError("generator orders must all be >= 2")
        self.basis_labels = tuple(basis_labels)
        self.dim = len(self.basis_labels)
        if self.dim == 0:
            raise PresentationError("empty basis")

        if len(structure_constants) != self.dim or any(len(row) != self.dim for row in structure_constants):
            raise PresentationError("structure constants must form an n x n table")
        if any(len(v) != self.dim for row in structure_constants for v in row):
            raise PresentationError("structure constant vectors must have length n")
        # basis_i * basis_j = sum(s * basis_k for k, s in _table[i][j]) / _table_den
        entries, self._table_den = _sparse_integer(
            [[Fraction(x) for x in vec] for row in structure_constants for vec in row])
        self._table = tuple(entries[i * self.dim:(i + 1) * self.dim] for i in range(self.dim))
        # trace(basis_i) * _table_den: the trace is a linear functional
        self._trace_nums = tuple(sum(s for j, entry in enumerate(row) for k, s in entry if k == j)
                                 for row in self._table)

        self.unit_coords = tuple(Fraction(x) for x in unit)
        if len(self.unit_coords) != self.dim:
            raise PresentationError("unit vector has wrong length")
        if not any(self.unit_coords):
            raise PresentationError("unit vector is zero")

        if any(len(mat) != self.dim or any(len(row) != self.dim for row in mat)
               for mat in sigma):
            raise PresentationError("automorphism matrices must be n x n")
        if len(sigma) != self.rank:
            raise PresentationError("need one automorphism matrix per generator")
        self._generators = tuple(_columns([[Fraction(x) for x in row] for row in mat])
                                 for mat in sigma)
        self._sigma_cache = {self.unit_exponent(i): s for i, s in enumerate(self._generators)}
        self._exp_order_cache: dict[tuple, int] = {}

    @property
    def structure_constants(self):
        """structure_constants[i][j]: the coordinate tuple of basis_i * basis_j,
        derived from the integer table on each access."""
        return [[_dense_vector(entry, self._table_den, self.dim) for entry in row]
                for row in self._table]

    @property
    def sigma(self):
        """sigma[i]: the dense matrix of generator i, derived on each access."""
        return [_dense_matrix(s, self.dim) for s in self._generators]

    # ------------------------------------------------------------------ #
    # element constructors

    def element(self, coords) -> FieldElement:
        coords = [Fraction(x) for x in coords]
        if len(coords) != self.dim:
            raise PresentationError(f"expected {self.dim} coordinates, got {len(coords)}")
        return FieldElement(self, coords)

    def zero(self):
        return FieldElement(self, (_ZERO,) * self.dim)

    def one(self):
        return FieldElement(self, self.unit_coords)

    def scalar(self, q) -> FieldElement:
        q = Fraction(q)
        return FieldElement(self, [q * u for u in self.unit_coords])

    def basis_element(self, k) -> FieldElement:
        coords = [_ZERO] * self.dim
        coords[k] = _ONE
        return FieldElement(self, coords)

    def basis(self):
        return [self.basis_element(k) for k in range(self.dim)]

    def random_element(self, rng, span=3, nonzero=True) -> FieldElement:
        while True:
            coords = [Fraction(rng.randint(-span, span)) for _ in range(self.dim)]
            if not nonzero or any(coords):
                return FieldElement(self, coords)

    def scalar_part(self, x: FieldElement):
        """The q with x = q*1, or None when x is off the scalar line."""
        unit = self.unit_coords
        pivot = next(k for k, u in enumerate(unit) if u)
        q = x.coords[pivot] / unit[pivot]
        if all(c == q * u for c, u in zip(x.coords, unit)):
            return q
        return None

    # ------------------------------------------------------------------ #
    # ring arithmetic

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field is not self:
            raise MixedContextError("operands belong to different fields")

    def _mul_coords(self, x, y):
        xs, xden = _scale(x)
        ys, yden = _scale(y)
        y_terms = [(j, b) for j, b in enumerate(ys) if b]
        acc = [0] * self.dim
        table = self._table
        for i, a in enumerate(xs):
            if not a:
                continue
            row = table[i]
            for j, b in y_terms:
                c = a * b
                for k, s in row[j]:
                    acc[k] += c * s
        return _unscale(acc, xden * yden * self._table_den)

    def multiplication_matrix(self, x: FieldElement):
        """Matrix of y -> x*y on coordinate columns."""
        cols = [self._mul_coords(x.coords, self.basis_element(j).coords) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def inv(self, x: FieldElement) -> FieldElement:
        if x.is_zero():
            raise ZeroDivisionError("inversion of 0")
        sol = linalg.solve(self.multiplication_matrix(x), list(self.unit_coords))
        if sol is None:
            raise PresentationError(
                f"multiplication by {x} is singular: presentation is not a field")
        return FieldElement(self, sol)

    def trace(self, x: FieldElement) -> Fraction:
        nums, den = _scale(x.coords)
        return Fraction(sum(a * t for a, t in zip(nums, self._trace_nums)),
                        den * self._table_den)

    # ------------------------------------------------------------------ #
    # group exponents

    @property
    def group_order(self) -> int:
        return prod(self.orders) if self.orders else 1

    def exp_canon(self, m):
        if len(m) != self.rank:
            raise ValueError(f"exponent needs {self.rank} entries, got {len(m)}")
        return tuple(int(mi) % ni for mi, ni in zip(m, self.orders))

    def exp_add(self, m, n):
        return tuple((a + b) % ni for a, b, ni in zip(m, n, self.orders))

    def exp_neg(self, m):
        return tuple((-a) % ni for a, ni in zip(m, self.orders))

    def exp_order(self, m) -> int:
        m = self.exp_canon(m)
        if m not in self._exp_order_cache:
            # components act independently, so the order is the lcm
            self._exp_order_cache[m] = (
                lcm(*(ni // gcd(mi, ni) for mi, ni in zip(m, self.orders)))
                if self.rank else 1)
        return self._exp_order_cache[m]

    def exponents(self):
        """All canonical exponents of G, lexicographically."""
        return [tuple(m) for m in itertools.product(*(range(n) for n in self.orders))]

    def identity_exponent(self):
        return (0,) * self.rank

    def unit_exponent(self, i):
        e = [0] * self.rank
        e[i] = 1
        return tuple(e)

    def prime_order_exponents(self):
        return [m for m in self.exponents() if is_prime(self.exp_order(m))]

    def subgroup_exponents(self, gens):
        """All exponents of the subgroup generated by the given exponents."""
        seen = {self.identity_exponent()}
        frontier = [self.identity_exponent()]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.exp_add(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def subgroup_is_cyclic(self, m, n) -> bool:
        sub = self.subgroup_exponents([self.exp_canon(m), self.exp_canon(n)])
        size = len(sub)
        return any(self.exp_order(g) == size for g in sub)

    # ------------------------------------------------------------------ #
    # Galois action

    def sigma_matrix(self, m):
        """s^m as (columns, den): column j is the sparse integer entry of
        s^m(basis_j) over the common den, see _sparse_integer."""
        m = self.exp_canon(m)
        cached = self._sigma_cache.get(m)
        if cached is None:
            cached = _identity(self.dim)
            for s, mi in zip(self._generators, m):
                for _ in range(mi):
                    cached = _compose(s, cached)
            self._sigma_cache[m] = cached
        return cached

    def apply_automorphism(self, m, x: FieldElement) -> FieldElement:
        self._check(x)
        return FieldElement(self, _apply_columns(self.sigma_matrix(m), x.coords, self.dim))

    def norm_along(self, m, x: FieldElement) -> FieldElement:
        """N_m(x): the product of x over the cyclic group generated by s^m."""
        m = self.exp_canon(m)
        if not any(m):
            raise ValueError("norm along the identity exponent is degenerate")
        q = self.exp_order(m)
        out = x
        cur = m
        for _ in range(q - 1):
            out = out * self.apply_automorphism(cur, x)
            cur = self.exp_add(cur, m)
        return out

    def norm_subgroup(self, gens, x: FieldElement) -> FieldElement:
        """Product of x over the subgroup generated by the given exponents."""
        out = self.one()
        for g in sorted(self.subgroup_exponents([self.exp_canon(g) for g in gens])):
            out = out * self.apply_automorphism(g, x)
        return out

    def fixed_subspace(self, m):
        """F-basis of the kernel of (s^m - id), as field elements."""
        return self._fixed_by([self.sigma_matrix(m)])

    def joint_fixed_subspace(self):
        return self._fixed_by(self._generators)

    def _fixed_by(self, maps):
        """F-basis of the elements that every map fixes (all of K for none)."""
        rows = [[a - (_ONE if i == j else _ZERO) for j, a in enumerate(row)]
                for s in maps for i, row in enumerate(_dense_matrix(s, self.dim))]
        return [FieldElement(self, v) for v in linalg.nullspace(rows or [[_ZERO] * self.dim])]

    def hilbert90_solve(self, m, c: FieldElement):
        """Some x with s^m(x) = c*x, or None when no solution exists.

        A nonzero solution exists exactly when N_m(c) = 1; the kernel method
        needs no nonvanishing search.  The returned element is verified
        before being handed back.
        """
        self._check(c)
        if c.is_zero():
            raise ValueError("hilbert90_solve requires c != 0")
        m = self.exp_canon(m)
        if not any(m):
            raise ValueError("hilbert90_solve requires a nontrivial exponent")
        s = _dense_matrix(self.sigma_matrix(m), self.dim)
        mc = self.multiplication_matrix(c)
        delta = [[s[i][j] - mc[i][j] for j in range(self.dim)] for i in range(self.dim)]
        kernel = linalg.nullspace(delta)
        if not kernel:
            return None
        x = FieldElement(self, kernel[0])
        if self.apply_automorphism(m, x) != c * x:
            raise PresentationError("kernel vector failed verification; presentation inconsistent")
        return x

    def __repr__(self):
        return (f"GaloisExtensionPresentation({self.name or 'unnamed'}: dim {self.dim}, "
                f"orders {self.orders})")


# ---------------------------------------------------------------------- #
# integer kernel


def _scale(coords):
    """(numerators, den): coords == [v / den for v in numerators], with den
    the lcm of the coordinate denominators."""
    # unpack a list, not a generator: the argument tuple built from a
    # generator is resized, and each one freed stays on the tuple free list
    # (measured: +0.2 MB retained by one `validate` run on instance-b3)
    den = lcm(*[c.denominator for c in coords])
    if den == 1:
        return [c.numerator for c in coords], 1
    return [c.numerator * (den // c.denominator) for c in coords], den


def _unscale(nums, den):
    """Normalised Fraction coordinates nums / den; zeros are the shared _ZERO."""
    return [Fraction(v, den) if v else _ZERO for v in nums]


def _sparse_integer(vectors):
    """Fraction vectors as (entries, den): entry ((k, s), ...) stands for the
    vector sum(s * e_k) / den, zeros dropped, with one den for all of them.
    Equal entries are one shared tuple."""
    den = lcm(*[c.denominator for vec in vectors for c in vec])
    shared = {}
    entries = tuple(
        shared.setdefault(entry, entry) for entry in (
            tuple((k, c.numerator * (den // c.denominator)) for k, c in enumerate(vec) if c)
            for vec in vectors))
    return entries, den


def _dense_vector(entry, den, n):
    out = [_ZERO] * n
    for k, s in entry:
        out[k] = Fraction(s, den)
    return tuple(out)


def _columns(matrix):
    """A dense matrix, given as a list of rows, as a linear map (columns, den)."""
    return _sparse_integer(list(zip(*matrix)))


def _identity(n):
    return tuple(((j, 1),) for j in range(n)), 1


def _dense_matrix(columns, rows):
    """The Fraction matrix, as a list of rows, of a linear map with that
    many rows."""
    cols, den = columns
    return [list(row) for row in zip(*(_dense_vector(col, den, rows) for col in cols))]


def _apply_columns(columns, coords, rows):
    """Coordinates of M x for the linear map M with that many rows."""
    cols, den = columns
    nums, xden = _scale(coords)
    acc = [0] * rows
    for j, a in enumerate(nums):
        if a:
            for k, s in cols[j]:
                acc[k] += a * s
    return _unscale(acc, den * xden)


def _compose(a, b):
    """The linear map A B, in the same canonical form as _sparse_integer."""
    acols, aden = a
    bcols, bden = b
    out = []
    for col in bcols:
        acc = {}
        for j, s in col:
            for k, t in acols[j]:
                acc[k] = acc.get(k, 0) + s * t
        out.append([(k, v) for k, v in sorted(acc.items()) if v])
    den = aden * bden
    g = gcd(den, *[v for col in out for _k, v in col])
    return tuple(tuple((k, v // g) for k, v in col) for col in out), den // g


def plain_field_presentation(basis_labels, structure_constants, unit, name=""):
    """A commutative field presentation with no Galois data (rank 0)."""
    return GaloisExtensionPresentation((), basis_labels, structure_constants, unit, [], name)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def common_prime(orders):
    """The prime p when every order is a power of p, else None."""
    primes = set()
    for n in orders:
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            d = n
        primes.add(d)
    if len(primes) != 1:
        return None
    p = primes.pop()
    for n in orders:
        while n % p == 0:
            n //= p
        if n != 1:
            return None
    return p


# ---------------------------------------------------------------------- #
# validation


def _validate_ring_axioms(p: GaloisExtensionPresentation, report: Report, rng, samples):
    basis = p.basis()
    for i in range(p.dim):
        for j in range(i + 1, p.dim):
            if basis[i] * basis[j] != basis[j] * basis[i]:
                report.require("commutativity", False,
                               f"basis {p.basis_labels[i]} * {p.basis_labels[j]} asymmetric")
                return
    report.require("commutativity", True)

    one = p.one()
    unit_ok = all(one * b == b for b in basis)
    report.require("unit element", unit_ok)

    # with commutativity, (i,j,k) fails exactly when (k,j,i) does, so the
    # first failing triple in lexicographic order has i <= k
    for i in range(p.dim):
        for j in range(p.dim):
            left = (basis[i] * basis[j])
            for k in range(i, p.dim):
                if (left * basis[k]) != basis[i] * (basis[j] * basis[k]):
                    report.require("associativity", False,
                                   f"fails at basis triple ({i},{j},{k})")
                    return
    report.require("associativity", True)

    bad = None
    for x in basis + [p.random_element(rng) for _ in range(samples)]:
        if x.is_zero():
            continue
        try:
            y = p.inv(x)
        except PresentationError:
            bad = x
            break
        if x * y != one:
            bad = x
            break
    report.require("invertibility (basis + sampled elements)", bad is None,
                   f"no inverse for {bad}" if bad is not None else
                   f"{p.dim} basis + {samples} sampled elements invert")

    gram = [[p.trace(basis[a] * basis[b]) for b in range(p.dim)] for a in range(p.dim)]
    report.require("trace form nondegenerate", linalg.rank(gram) == p.dim)


def _is_multiplicative(source, target, columns):
    """True when the linear map source -> target is multiplicative on
    unordered basis pairs, which suffices when source is commutative."""
    basis = source.basis()
    image = lambda x: FieldElement(target, _apply_columns(columns, x.coords, target.dim))
    images = [image(b) for b in basis]
    return all(image(basis[a] * basis[b]) == images[a] * images[b]
               for a in range(source.dim) for b in range(a, source.dim))


def require_automorphisms(report: Report, p: GaloisExtensionPresentation, maps,
                          label, orders=None):
    """Require each linear map maps[i], given as columns, to be a ring
    automorphism of p (1 -> 1 and multiplicative) under the check name
    f"{label}[i]"; with orders, also require that maps[i] has exact order
    orders[i] and that the maps commute pairwise."""
    ident = _identity(p.dim)
    for i, s in maps.items():
        hom_ok = (_apply_columns(s, p.unit_coords, p.dim) == list(p.unit_coords)
                  and _is_multiplicative(p, p, s))
        report.require(f"{label}[{i}] is a ring automorphism", hom_ok)
        if orders is None:
            continue
        power, k = s, 1
        while power != ident and k < orders[i]:
            power, k = _compose(s, power), k + 1
        order_exact = power == ident and k == orders[i]
        report.require(f"{label}[{i}] order == {orders[i]}", order_exact,
                       "" if order_exact else f"{label}[{i}] order != {orders[i]}")
    if orders is not None:
        for i, j in itertools.combinations(maps, 2):
            report.require(f"{label}[{i}] and sigma[{j}] commute",
                           _compose(maps[i], maps[j]) == _compose(maps[j], maps[i]))


def validate_galois_data(p: GaloisExtensionPresentation, samples=8, seed=0) -> Report:
    """Check the presentation invariants exactly; field-ness is semi-verified.

    Invertibility is checked for every basis element plus `samples` seeded
    random nonzero elements, and trace-form nondegeneracy is reported; full
    field verification over an infinite field is deliberately out of reach.
    """
    import random

    rng = random.Random(seed)
    report = Report(f"galois presentation checks: {p.name or 'unnamed'}")
    report.note(f"field axioms semi-verified: invertibility sampled with seed={seed}")
    _validate_ring_axioms(p, report, rng, samples)

    require_automorphisms(report, p, dict(enumerate(p._generators)), "sigma", p.orders)
    fixed = p.joint_fixed_subspace()
    line_ok = len(fixed) == 1 and p.scalar_part(fixed[0]) is not None
    report.require("joint fixed subspace is the scalar line", line_ok,
                   f"fixed dimension {len(fixed)}")
    return report


def validate_field_data(p: GaloisExtensionPresentation, samples=8, seed=0) -> Report:
    """Ring/field axioms only (no Galois conditions); for rank-0 presentations."""
    import random

    rng = random.Random(seed)
    report = Report(f"field presentation checks: {p.name or 'unnamed'}")
    _validate_ring_axioms(p, report, rng, samples)
    return report
