"""Exact arithmetic in explicitly presented abelian Galois extensions.

A field K of finite dimension n over the rationals F is described by
structure constants on a fixed basis together with r commuting ring
automorphism matrices generating an abelian group
G = <s_1> x ... x <s_r> with |s_i| = orders[i].  The same class also
carries plain commutative field presentations (r = 0), used for the
non-normal coefficient fields of composite extensions.

Group exponents are plain tuples m = (m_1, ..., m_r) with
0 <= m_i < orders[i]; composition is componentwise addition modulo the
orders.  Methods that cache by exponent take any integer tuple, keyed as
given, and run exp_canon only on a cache miss.

An element holds integer numerators over one positive denominator,
(nums, den), in normal form: gcd(den, *nums) == 1, and zero is
(0, ..., 0)/1.  Equal values therefore have equal fields, so equality and
hashing compare tuples and ints, and every identity in this package is
checked exactly.  Fractions appear only at the edges: the coords and
unit_coords accessors, construction from Fraction or int coordinates, the
values of trace and scalar_part, and element strings.

Arithmetic runs on those integers: the structure constants and each
automorphism power are stored once as sparse integer numerators over one
common denominator, products are accumulated in Python ints, and each
result is normalised once (_make).  Every linear map (here and in
extension_lab) is held that way, as canonical sparse integer columns
(_sparse_integer) that compare and hash by value, applied by _apply_columns
and composed by _compose.  The ring axioms are checked on the integer
table.  Inversion goes through the group, x^-1 = adj(x) / N_G(x) with
adj(x) the product of the conjugates g(x), g != 1, and eliminates integer
rows (_eliminate_inverse) only as the fallback and in the validator, which
must not rely on the automorphisms it has yet to check; Hilbert 90
eliminates integer rows.  Dense Fraction matrices are only constructor
input and serialized output.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod

from . import linalg
from .errors import MixedContextError, PresentationError
from .reporting import Report

_ZERO = Fraction(0)


class FieldElement:
    """An element of a presented field: basis coordinates nums / den, in
    the normal form of the module docstring."""

    __slots__ = ("field", "nums", "den", "_hash")

    def __init__(self, field, coords):
        """The element with the given int or Fraction coordinates."""
        nums, den = _scale([_rational(c) for c in coords])
        self.field = field
        self.nums = tuple(nums)
        self.den = den
        self._hash = None

    @property
    def coords(self):
        """The coordinates as a tuple of Fractions."""
        return tuple(_unscale(self.nums, self.den))

    def is_zero(self):
        return not any(self.nums)

    def is_scalar(self):
        """True when the element lies on the line F*1."""
        return self.field.scalar_part(self) is not None

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign * other, for an element or a number other."""
        if isinstance(other, FieldElement):
            self.field._check(other)
        elif isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        else:
            return NotImplemented
        d, e = self.den, other.den
        if d == e:
            return _make(self.field, [a + sign * b for a, b in zip(self.nums, other.nums)], d)
        return _make(self.field, [a * e + sign * b * d for a, b in zip(self.nums, other.nums)],
                     d * e)

    def __neg__(self):
        return _make(self.field, [-a for a in self.nums], self.den)

    def __mul__(self, other):
        # the element test first: isinstance against Fraction is an ABC check
        if isinstance(other, FieldElement):
            field = self.field
            field._check(other)
            return _make(field, field._mul_nums(self.nums, other.nums),
                         self.den * other.den * field._table_den)
        if isinstance(other, (int, Fraction)):
            q = other.numerator
            return _make(self.field, [q * a for a in self.nums], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FieldElement):
            self.field._check(other)
            return self * self.field.inv(other)
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of a field element by 0")
            n, d = other.numerator, other.denominator
            if n < 0:
                n, d = -n, -d
            return _make(self.field, [d * a for a in self.nums], self.den * n)
        return NotImplemented

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
        return (self.field is other.field and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nums, self.den))
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


_new_element = object.__new__


def _make(field, nums, den):
    """The element nums / den (den > 0) of field, brought to normal form."""
    x = _new_element(FieldElement)
    x.field = field
    g = gcd(den, *nums) if den != 1 else 1
    if g == 1:
        x.nums = tuple(nums)
        x.den = den
    else:
        x.nums = tuple([v // g for v in nums])
        x.den = den // g
    x._hash = None
    return x


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
            [[_rational(x) for x in vec] for row in structure_constants for vec in row])
        self._table = tuple(entries[i * self.dim:(i + 1) * self.dim] for i in range(self.dim))
        # trace(basis_i) * _table_den: the trace is a linear functional
        self._trace_nums = tuple(sum(s for j, entry in enumerate(row) for k, s in entry if k == j)
                                 for row in self._table)

        unit = [_rational(x) for x in unit]
        if len(unit) != self.dim:
            raise PresentationError("unit vector has wrong length")
        if not any(unit):
            raise PresentationError("unit vector is zero")
        # the unit as plain (nums, den), not as an element, which would
        # refer back to the presentation and make a reference cycle
        nums, den = _scale(unit)
        self._unit = (tuple(nums), den)

        if any(len(mat) != self.dim or any(len(row) != self.dim for row in mat)
               for mat in sigma):
            raise PresentationError("automorphism matrices must be n x n")
        if len(sigma) != self.rank:
            raise PresentationError("need one automorphism matrix per generator")
        self._generators = tuple(_columns([[_rational(x) for x in row] for row in mat])
                                 for mat in sigma)
        self._sigma_cache = {self.unit_exponent(i): s for i, s in enumerate(self._generators)}
        self._exp_order_cache: dict[tuple, int] = {}
        self._cyclic_cache: dict[tuple, bool] = {}

    @property
    def structure_constants(self):
        """structure_constants[i][j]: the coordinate tuple of basis_i * basis_j,
        derived from the integer table on each access."""
        return [[_dense_vector(entry, self._table_den, self.dim) for entry in row]
                for row in self._table]

    @property
    def unit_coords(self):
        """The coordinates of 1 as a tuple of Fractions."""
        return tuple(_unscale(*self._unit))

    @property
    def sigma(self):
        """sigma[i]: the dense matrix of generator i, derived on each access."""
        return [_dense_matrix(s, self.dim) for s in self._generators]

    # ------------------------------------------------------------------ #
    # element constructors

    def element(self, coords) -> FieldElement:
        coords = list(coords)
        if len(coords) != self.dim:
            raise PresentationError(f"expected {self.dim} coordinates, got {len(coords)}")
        return FieldElement(self, coords)

    def zero(self):
        return _make(self, (0,) * self.dim, 1)

    def one(self):
        return _make(self, *self._unit)

    def scalar(self, q) -> FieldElement:
        q = _rational(q)
        nums, den = self._unit
        return _make(self, [q.numerator * u for u in nums], q.denominator * den)

    def basis_element(self, k) -> FieldElement:
        nums = [0] * self.dim
        nums[k] = 1
        return _make(self, nums, 1)

    def basis(self):
        return [self.basis_element(k) for k in range(self.dim)]

    def random_element(self, rng, span=3, nonzero=True) -> FieldElement:
        while True:
            nums = [rng.randint(-span, span) for _ in range(self.dim)]
            if not nonzero or any(nums):
                return _make(self, nums, 1)

    def scalar_part(self, x: FieldElement):
        """The q with x = q*1, or None when x is off the scalar line."""
        unit, uden = self._unit
        pivot = next(k for k, u in enumerate(unit) if u)
        a, u0 = x.nums[pivot], unit[pivot]
        if all(c * u0 == a * u for c, u in zip(x.nums, unit)):
            return Fraction(a * uden, x.den * u0)
        return None

    # ------------------------------------------------------------------ #
    # ring arithmetic

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field is not self:
            raise MixedContextError("operands belong to different fields")

    def _mul_nums(self, xs, ys):
        """Numerators of the product of the elements with numerators xs and
        ys, over the product of their denominators and _table_den."""
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
        return acc

    def multiplication_matrix(self, x: FieldElement):
        """(rows, den): the integer rows, over den, of the matrix of
        y -> x*y on coordinate columns."""
        rows = [[0] * self.dim for _ in range(self.dim)]
        for i, a in enumerate(x.nums):
            if a:
                for j, entry in enumerate(self._table[i]):
                    for k, s in entry:
                        rows[k][j] += a * s
        return rows, x.den * self._table_den

    def inv(self, x: FieldElement) -> FieldElement:
        """x^-1 through the group: adj = prod_{g != 1} g(x), built down the
        generator chain, makes x * adj = N_G(x) fixed by G.  A nonzero
        scalar q gives adj / q, and that product x * adj is itself the
        check.  Otherwise (a composite, whose group fixes a larger field)
        N_G(x) is inverted from its minimal polynomial and the result is
        checked with one product.  Rank 0 and every case these do not
        settle (a zero divisor, say) fall back to _eliminate_inverse."""
        if x.is_zero():
            raise ZeroDivisionError("inversion of 0")
        if self.rank:
            adj = None
            y = x
            for s, n in zip(self._generators, self.orders):
                conj = _image(s, y, self)
                p = conj
                for _ in range(n - 2):
                    conj = _image(s, conj, self)
                    p = p * conj
                adj = p if adj is None else adj * p
                y = x * adj
            q = self.scalar_part(y)
            if q:
                return adj / q
            if q is None:
                y_inv = self._invert_fixed(y)
                if y_inv is not None:
                    out = adj * y_inv
                    if x * out == self.one():
                        return out
        return _eliminate_inverse(self, x)

    def _invert_fixed(self, y):
        """y^-1 from the first F-linear relation among 1, y, ..., y^f with
        f = dim / |G|, the dimension of the fixed field when the group acts
        faithfully; None when there is no relation or its constant term is 0."""
        powers = [self.one()]
        for _ in range(self.dim // self.group_order):
            powers.append(powers[-1] * y)
        den = lcm(*[v.den for v in powers])
        krylov = [[v.nums[k] * (den // v.den) for v in powers] for k in range(self.dim)]
        relations, _d = linalg.nullspace(krylov)
        if not relations or not relations[0][0]:
            return None
        # sum_j c_j y^j = 0 with c_0 != 0, so y^-1 = -sum_{j>=1} c_j y^(j-1) / c_0
        c = relations[0]
        return sum((v * cj for cj, v in zip(c[1:], powers)), self.zero()) / -c[0]

    def trace(self, x: FieldElement) -> Fraction:
        return Fraction(sum(a * t for a, t in zip(x.nums, self._trace_nums)),
                        x.den * self._table_den)

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
        order = self._exp_order_cache.get(m)
        if order is None:
            # components act independently, so the order is the lcm
            order = lcm(*[ni // gcd(mi, ni) for mi, ni in zip(self.exp_canon(m), self.orders)])
            self._exp_order_cache[m] = order
        return order

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
        cyclic = self._cyclic_cache.get((m, n))
        if cyclic is None:
            sub = self.subgroup_exponents((self.exp_canon(m), self.exp_canon(n)))
            cyclic = any(self.exp_order(g) == len(sub) for g in sub)
            self._cyclic_cache[(m, n)] = cyclic
        return cyclic

    # ------------------------------------------------------------------ #
    # Galois action

    def sigma_matrix(self, m):
        """s^m as (columns, den): column j is the sparse integer entry of
        s^m(basis_j) over the common den, see _sparse_integer."""
        cached = self._sigma_cache.get(m)
        if cached is None:
            cached = _identity(self.dim)
            for s, mi in zip(self._generators, self.exp_canon(m)):
                for _ in range(mi):
                    cached = _compose(s, cached)
            self._sigma_cache[m] = cached
        return cached

    def apply_automorphism(self, m, x: FieldElement) -> FieldElement:
        self._check(x)
        return _image(self.sigma_matrix(m), x, self)

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
        rows = []
        for s in maps:
            block = _integer_rows(s, self.dim)
            for i, row in enumerate(block):
                row[i] -= s[1]
            rows += block
        vectors, den = linalg.nullspace(rows or [[0] * self.dim])
        return [_make(self, v, den) for v in vectors]

    def hilbert90_solve(self, m, c: FieldElement):
        """Some x with s^m(x) = c*x, or None when no solution exists.

        A nonzero solution exists exactly when N_m(c) = 1; the kernel method
        needs no nonvanishing search.  The kernel vector is returned
        unchecked: the callers that print a claim about it check it.
        """
        self._check(c)
        if c.is_zero():
            raise ValueError("hilbert90_solve requires c != 0")
        m = self.exp_canon(m)
        if not any(m):
            raise ValueError("hilbert90_solve requires a nontrivial exponent")
        s = self.sigma_matrix(m)
        mc, cden = self.multiplication_matrix(c)
        # (s - mc / cden) scaled by the two denominators
        delta = [[cden * a - s[1] * b for a, b in zip(srow, mrow)]
                 for srow, mrow in zip(_integer_rows(s, self.dim), mc)]
        kernel, den = linalg.nullspace(delta)
        return _make(self, kernel[0], den) if kernel else None

    def __repr__(self):
        return (f"GaloisExtensionPresentation({self.name or 'unnamed'}: dim {self.dim}, "
                f"orders {self.orders})")


# ---------------------------------------------------------------------- #
# integer kernel


_EXACT = (int, Fraction)


def _rational(x):
    """x as an int or a Fraction; anything else is converted by Fraction."""
    return x if type(x) in _EXACT else Fraction(x)


def _scale(coords):
    """(numerators, den): int or Fraction coords == [v / den for v in
    numerators], with den the lcm of the coordinate denominators, so
    already in normal form."""
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
    """int or Fraction vectors as (entries, den): entry ((k, s), ...) stands for the
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


def _integer_rows(columns, rows):
    """The integer matrix, as a list of rows over the map's den, of a linear
    map with that many rows."""
    cols, _den = columns
    out = [[0] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        for k, s in col:
            out[k][j] = s
    return out


def _dense_matrix(columns, rows):
    """The Fraction matrix, as a list of rows, of a linear map with that
    many rows."""
    return [_unscale(row, columns[1]) for row in _integer_rows(columns, rows)]


def _apply_columns(columns, nums, rows):
    """Numerators of M x, over the map's den times x's den, for the linear
    map M with that many rows and x with numerators nums."""
    cols, _den = columns
    acc = [0] * rows
    for j, a in enumerate(nums):
        if a:
            for k, s in cols[j]:
                acc[k] += a * s
    return acc


def _image(columns, x, target):
    """The element M x of target, for the linear map M into target."""
    return _make(target, _apply_columns(columns, x.nums, target.dim), columns[1] * x.den)


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


def _eliminate_inverse(p: GaloisExtensionPresentation, x: FieldElement) -> FieldElement:
    """x^-1 by solving the integer system of multiplication by x; it uses
    no automorphism, so the validator can check invertibility with it."""
    rows, den = p.multiplication_matrix(x)
    unit, uden = p._unit
    # (rows / den) y = unit / uden exactly when rows (uden * y) = den * unit
    sol = linalg.solve(rows, [den * u for u in unit])
    if sol is None:
        raise PresentationError(
            f"multiplication by {x} is singular: presentation is not a field")
    return _make(p, sol[0], sol[1] * uden)


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


def _combine(entry, products, n):
    """Numerators of sum(s * products[l] for l, s in entry): a sparse
    combination of sparse table entries, dense."""
    acc = [0] * n
    for l, s in entry:
        for m, t in products[l]:
            acc[m] += s * t
    return acc


def _validate_ring_axioms(p: GaloisExtensionPresentation, report: Report, rng, samples):
    """Commutativity, unit, associativity and the trace form are checked on
    the integer table; invertibility on elements."""
    table, n = p._table, p.dim
    for i in range(n):
        for j in range(i + 1, n):
            if table[i][j] != table[j][i]:
                report.require("commutativity", False,
                               f"basis {p.basis_labels[i]} * {p.basis_labels[j]} asymmetric")
                return
    report.require("commutativity", True)

    rows, den = p.multiplication_matrix(p.one())
    report.require("unit element", all(v == (den if j == k else 0)
                                       for k, row in enumerate(rows) for j, v in enumerate(row)))

    # (b_i b_j) b_k = sum_l c_ij^l b_l b_k and b_i (b_j b_k) = sum_l c_jk^l b_i b_l,
    # with b_l b_k = b_k b_l by commutativity.  Also by commutativity,
    # (i,j,k) fails exactly when (k,j,i) does, so the first failing triple
    # in lexicographic order has i <= k
    for i in range(n):
        for j in range(n):
            for k in range(i, n):
                if _combine(table[i][j], table[k], n) != _combine(table[j][k], table[i], n):
                    report.require("associativity", False,
                                   f"fails at basis triple ({i},{j},{k})")
                    return
    report.require("associativity", True)

    one = p.one()
    bad = None
    for x in p.basis() + [p.random_element(rng) for _ in range(samples)]:
        if x.is_zero():
            continue
        try:
            y = _eliminate_inverse(p, x)
        except PresentationError:
            bad = x
            break
        if x * y != one:
            bad = x
            break
    report.require("invertibility (basis + sampled elements)", bad is None,
                   f"no inverse for {bad}" if bad is not None else
                   f"{p.dim} basis + {samples} sampled elements invert")

    # trace(b_a b_b), scaled by _table_den ** 2
    gram = [[sum(s * p._trace_nums[k] for k, s in entry) for entry in row] for row in table]
    report.require("trace form nondegenerate", linalg.rank(gram) == p.dim)


def _is_multiplicative(source, target, columns):
    """True when the linear map source -> target is multiplicative on
    unordered basis pairs, which suffices when source is commutative."""
    basis = source.basis()
    images = [_image(columns, b, target) for b in basis]
    return all(_image(columns, basis[a] * basis[b], target) == images[a] * images[b]
               for a in range(source.dim) for b in range(a, source.dim))


def require_automorphisms(report: Report, p: GaloisExtensionPresentation, maps,
                          label, orders=None):
    """Require each linear map maps[i], given as columns, to be a ring
    automorphism of p (1 -> 1 and multiplicative) under the check name
    f"{label}[i]"; with orders, also require that maps[i] has exact order
    orders[i] and that the maps commute pairwise."""
    ident = _identity(p.dim)
    for i, s in maps.items():
        hom_ok = _image(s, p.one(), p) == p.one() and _is_multiplicative(p, p, s)
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
