"""Abelian crossed product algebras over a presented Galois extension.

An algebra is generated over K by invertible elements z_1, ..., z_r, one
per Galois generator, subject to

    z_i * c      = s_i(c) * z_i          for c in K,
    z_i * z_j    = twists[i][j] * z_j * z_i,
    z_i ** n_i   = powers[i],

with the canonical K-basis given by the monomials z^m = z_1^m_1 ... z_r^m_r
for canonical group exponents m.  The scalar table c(g, h) defined by
z^g z^h = c(g, h) z^(g+h) is materialized once at construction and drives
all products; the 2-cocycle identity for the derived table is a checkable
report, not an assumption.

Elements of the algebra, of the twisted polynomial rings, of the generic
model and of its graded skeleton are all MonomialCombinations, multiplied by
one rule in combination_product; each context supplies only its monomial key
hooks.

Degeneracy and strong degeneracy witnesses follow the glossary: a strong
witness is (m, l, x_1..x_r) with s^m of prime order and

    commutator(e_i, m) = s^m(x_i)/x_i * l/s_i(l)     for every i,

and a pair witness is (m, n, a, b) with <s^m, s^n> noncyclic and
commutator(m, n) = s^m(a)/a * s^n(b)/b.  Searches over K* are budgeted;
an exhausted search is never a proof of non-degeneracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MixedContextError, WitnessError
from .field_core import FieldElement, GaloisExtensionPresentation, is_prime
from .reporting import Report


@dataclass(frozen=True)
class CocycleData:
    """The presentation data (twists, powers): z_i z_j = twists[i][j] z_j z_i,
    z_i^{n_i} = powers[i]."""

    twists: tuple
    powers: tuple

    @property
    def rank(self):
        return len(self.powers)


def power_cocycle(data: CocycleData, t: int) -> CocycleData:
    """Entrywise t-th power; presents the algebra whose derived table is the
    entrywise t-th power of the original table."""
    if not isinstance(t, int) or t < 1:
        raise ValueError("cocycle power requires a positive integer exponent")
    twists = tuple(tuple(u ** t for u in row) for row in data.twists)
    powers = tuple(b ** t for b in data.powers)
    return CocycleData(twists, powers)


# ---------------------------------------------------------------------- #
# word reduction


class TwistEngine:
    """Carry-free commutation bookkeeping for generator words.

    pair(a, c) is the scalar tw with z^a z^c = tw * z^(a+c) before any
    order reduction; exponents may exceed the generator orders.  Values
    are cached aggressively since products revisit the same pairs.
    """

    def __init__(self, ext: GaloisExtensionPresentation, twists):
        self.ext = ext
        self.twists = twists
        self._pair: dict = {}
        self._block: dict = {}
        self._conj: dict = {}

    def conjugated_twist(self, m, j, k) -> FieldElement:
        key = (m, j, k)
        if key not in self._conj:
            self._conj[key] = self.ext.apply_automorphism(m, self.twists[j][k])
        return self._conj[key]

    def block(self, j, k, reps_j, reps_k) -> FieldElement:
        """Scalar for moving z_k^reps_k leftward past z_j^reps_j (j > k)."""
        key = (j, k, reps_j, reps_k)
        if key not in self._block:
            out = self.ext.one()
            exp = [0] * self.ext.rank
            for s in range(reps_j):
                exp[j] = s
                for t in range(reps_k):
                    exp[k] = t
                    out = out * self.conjugated_twist(tuple(exp), j, k)
            self._block[key] = out
        return self._block[key]

    def pair(self, a, c) -> FieldElement:
        key = (tuple(a), tuple(c))
        if key in self._pair:
            return self._pair[key]
        ext = self.ext
        r = ext.rank
        out = ext.one()
        for k in range(r):
            if not c[k]:
                continue
            for j in range(k + 1, r):
                if not a[j]:
                    continue
                prefix = tuple(
                    (a[i] + c[i]) if i < k else (a[i] if i < j else 0)
                    for i in range(r))
                out = out * ext.apply_automorphism(prefix, self.block(j, k, a[j], c[k]))
        self._pair[key] = out
        return out


def carry_reduce(ext, powers, counts):
    """z^counts = coeff * z^m with m canonical, emitting one central carry
    marker per wrapped generator power.  Returns (coeff, m, carries)."""
    coeff = ext.one()
    m: list = []
    w: list = []
    for i, (ci, ni) in enumerate(zip(counts, ext.orders)):
        q, mi = divmod(ci, ni)
        if q:
            prefix = tuple(m + [0] * (ext.rank - i))
            coeff = coeff * ext.apply_automorphism(prefix, powers[i]) ** q
        m.append(mi)
        w.append(q)
    return coeff, tuple(m), tuple(w)


def reduce_word_naive(ext, twists, powers, word, carry=True):
    """Oracle reducer: adjacent swaps and leftmost-run carries, one move at
    a time.  Slow but independent of the block formulas; used to cross-check
    TwistEngine/carry_reduce."""
    coeff = ext.one()
    word = list(word)
    changed = True
    while changed:
        changed = False
        for t in range(len(word) - 1):
            a, b = word[t], word[t + 1]
            if a > b:
                prefix = [0] * ext.rank
                for g in word[:t]:
                    prefix[g] += 1
                coeff = coeff * ext.apply_automorphism(tuple(prefix), twists[a][b])
                word[t], word[t + 1] = b, a
                changed = True
    carries = [0] * ext.rank
    if carry:
        moved = True
        while moved:
            moved = False
            for start in range(len(word)):
                i = word[start]
                ni = ext.orders[i]
                if word[start:start + ni] == [i] * ni:
                    prefix = [0] * ext.rank
                    for g in word[:start]:
                        prefix[g] += 1
                    coeff = coeff * ext.apply_automorphism(tuple(prefix), powers[i])
                    del word[start:start + ni]
                    carries[i] += 1
                    moved = True
                    break
    counts = [0] * ext.rank
    for g in word:
        counts[g] += 1
    return coeff, tuple(counts), tuple(carries)


# ---------------------------------------------------------------------- #
# relation validation


def check_shape(ext: GaloisExtensionPresentation, data: CocycleData):
    """Raise ValueError unless data has the rank of ext and no zero entry."""
    r = data.rank
    if r != ext.rank:
        raise ValueError("cocycle data rank does not match the presentation")
    for i in range(r):
        if data.powers[i].is_zero():
            raise ValueError(f"powers[{i}] is zero")
        for j in range(r):
            if data.twists[i][j].is_zero():
                raise ValueError(f"twists[{i}][{j}] is zero")


def validate_relations(ext: GaloisExtensionPresentation, data: CocycleData) -> Report:
    """Check the shape (check_shape), then the relations, of the presentation data.

    The report passes iff the inversion/diagonal rule, the power action rule
    and the triple twist identity all hold; the subgroup-norm rule is checked
    too but reported as a warning only, since the construction theorem does
    not require it.
    """
    check_shape(ext, data)
    r = data.rank
    report = Report(f"cocycle relations: {ext.name or 'unnamed'}")
    one = ext.one()

    ok = all(data.twists[i][i] == one for i in range(r))
    detail = ""
    for i in range(r):
        for j in range(r):
            if data.twists[j][i] != ext.inv(data.twists[i][j]):
                ok = False
                detail = f"twists[{j}][{i}] != twists[{i}][{j}]^-1"
    report.require("diagonal and inversion rule", ok, detail)

    ok, detail = True, ""
    for k in range(r):
        for i in range(r):
            lhs = ext.apply_automorphism(ext.unit_exponent(k), data.powers[i])
            rhs = ext.norm_along(ext.unit_exponent(i), data.twists[k][i]) * data.powers[i]
            if lhs != rhs:
                ok, detail = False, f"power action rule fails at (k={k}, i={i})"
    report.require("power action rule", ok, detail)

    ok, detail = True, ""
    for i in range(r):
        for j in range(r):
            for k in range(r):
                lhs = (ext.apply_automorphism(ext.unit_exponent(i), data.twists[j][k])
                       * ext.apply_automorphism(ext.unit_exponent(j), data.twists[k][i])
                       * ext.apply_automorphism(ext.unit_exponent(k), data.twists[i][j]))
                rhs = data.twists[j][k] * data.twists[k][i] * data.twists[i][j]
                if lhs != rhs:
                    ok, detail = False, f"triple twist identity fails at ({i},{j},{k})"
    report.require("triple twist identity", ok, detail)

    ok, detail = True, ""
    for i in range(r):
        for k in range(i + 1, r):
            n = ext.norm_subgroup([ext.unit_exponent(i), ext.unit_exponent(k)],
                                  data.twists[i][k])
            if n != one:
                ok, detail = False, f"subgroup norm of twists[{i}][{k}] is {n}"
    report.warn("subgroup norm rule (not required by the construction theorem)",
                ok, detail)
    return report


# ---------------------------------------------------------------------- #
# sparse K-combinations of monomials


def monomial_label(letter, exps):
    """The label z1z2^2 of an exponent vector; empty for the identity."""
    return "".join(f"{letter}{i + 1}^{e}" if e != 1 else f"{letter}{i + 1}"
                   for i, e in enumerate(exps) if e)


class MonomialCombination:
    """Finitely supported K-combination of the monomials of one context.

    The key type is the context's: a canonical group exponent in the
    crossed product, a natural exponent vector in a twisted polynomial ring,
    a (group exponent, central Laurent vector) pair in the generic model
    and its graded skeleton.
    """

    __slots__ = ("context", "coeffs")

    def __init__(self, context, coeffs):
        self.context = context
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}

    @property
    def algebra(self):
        return self.context

    def is_zero(self):
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs)

    def terms(self):
        return sorted(self.coeffs.items())

    def coefficient(self, *key):
        """The coefficient at a key, given whole or as its parts."""
        key = self.context.canonical_key(key[0] if len(key) == 1 else key)
        return self.coeffs.get(key, self.context.ext.zero())

    def _coerce(self, other):
        ctx = self.context
        if isinstance(other, MonomialCombination):
            if other.context is not ctx:
                raise MixedContextError("operands belong to different contexts")
            return other
        if isinstance(other, FieldElement):
            return ctx.scalar_element(other)
        if isinstance(other, (int, Fraction)):
            return ctx.scalar_element(ctx.ext.scalar(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return self.context.element_type(self.context, out)

    __radd__ = __add__

    def __neg__(self):
        return self.context.element_type(
            self.context, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.context.mul(self, other)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.context.mul(other, self)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = self.context.one()
        for _ in range(k):
            out = self.context.mul(out, self)
        return out

    def __eq__(self, other):
        if not isinstance(other, MonomialCombination):
            return NotImplemented
        return self.context is other.context and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in sorted(self.coeffs.items()):
            cs = str(c)
            if " " in cs:
                cs = f"({cs})"
            mono = self.context.label(k)
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    __repr__ = __str__


def combination_product(ctx, x, y) -> MonomialCombination:
    """The product in ctx, term by term: (c, g)(d, h) = c * s^a(d) * scalar
    at key, where (scalar, key) = ctx.combine(g, h) and a = ctx.acting(g)."""
    if x.context is not ctx or y.context is not ctx:
        raise MixedContextError("operands belong to different contexts")
    ext = ctx.ext
    out: dict = {}
    for g, c in x.coeffs.items():
        a = ctx.acting(g)
        for h, d in y.coeffs.items():
            scalar, key = ctx.combine(g, h)
            term = c * ext.apply_automorphism(a, d) * scalar
            out[key] = out[key] + term if key in out else term
    return ctx.element_type(ctx, out)


class MonomialContext:
    """Constructors shared by the contexts of MonomialCombination.

    A context has `ext`, the product `mul = combination_product` (set in
    each context class, so that profiles name each context's products) and
    the key hooks canonical_key(key), combine(g, h) and label(key).  lift(m)
    (the key of z^m) and acting(key) (the group exponent that moves a
    coefficient past the monomial) default to the exponent itself.  Every
    element the kernel builds in a context is an `element_type`, which a
    context may narrow to a MonomialCombination subclass.
    """

    element_type = MonomialCombination

    def lift(self, m):
        return tuple(m)

    def acting(self, key):
        return key

    def element(self, coeffs) -> MonomialCombination:
        fixed: dict = {}
        for k, c in coeffs.items():
            k = self.canonical_key(k)
            fixed[k] = fixed[k] + c if k in fixed else c
        return self.element_type(self, fixed)

    def monomial(self, coeff, *key) -> MonomialCombination:
        """coeff times one monomial, its key given whole or as its parts."""
        key = self.canonical_key(key[0] if len(key) == 1 else key)
        return self.element_type(self, {key: coeff})

    def scalar_element(self, c: FieldElement) -> MonomialCombination:
        return self.element_type(self, {self.lift(self.ext.identity_exponent()): c})

    def gen(self, i) -> MonomialCombination:
        return self.element_type(self, {self.lift(self.ext.unit_exponent(i)): self.ext.one()})

    def one(self) -> MonomialCombination:
        return self.scalar_element(self.ext.one())

    def zero(self) -> MonomialCombination:
        return self.element_type(self, {})

    def commutes_with_generators(self, x: MonomialCombination) -> bool:
        """Does x commute with every K-basis element and every z_i?"""
        gens = ([self.scalar_element(b) for b in self.ext.basis()]
                + [self.gen(i) for i in range(self.ext.rank)])
        return all(self.mul(x, s) == self.mul(s, x) for s in gens)


# ---------------------------------------------------------------------- #
# the algebra


class CrossedProductAlgebra(MonomialContext):
    """The crossed product presented by (ext, data), with its derived table.
    Only the shape of data is checked here; its relations, by validate_relations."""

    def __init__(self, ext: GaloisExtensionPresentation, data: CocycleData):
        check_shape(ext, data)
        self.ext = ext
        self.data = data
        self._engine = TwistEngine(ext, data.twists)
        self.table: dict = {}
        self._carries: dict = {}
        exps = ext.exponents()
        for g in exps:
            for h in exps:
                tw = self._engine.pair(g, h)
                counts = tuple(a + b for a, b in zip(g, h))
                coeff, m, w = carry_reduce(ext, data.powers, counts)
                self.table[(g, h)] = tw * coeff
                self._carries[(g, h)] = w

    mul = combination_product

    def canonical_key(self, m):
        return self.ext.exp_canon(m)

    def combine(self, g, h):
        return self.table[(g, h)], self.ext.exp_add(g, h)

    def label(self, m):
        return monomial_label("z", m)

    def random_element(self, rng, terms=3, span=2) -> MonomialCombination:
        exps = self.ext.exponents()
        out: dict = {}
        for _ in range(terms):
            m = exps[rng.randrange(len(exps))]
            c = self.ext.random_element(rng, span=span, nonzero=False)
            if m in out:
                out[m] = out[m] + c
            else:
                out[m] = c
        return self.element_type(self, out)

    # -------------------------------------------------------------- #
    # products

    def cocycle(self, g, h) -> FieldElement:
        if (g, h) not in self.table:
            g, h = self.ext.exp_canon(g), self.ext.exp_canon(h)
        return self.table[(g, h)]

    def monomial_product(self, g, h):
        """(coeff, exponent, carries) with z^g z^h = coeff * z^exp for
        canonical exponents g and h, where carries counts the generator-order
        wraps (the central X-exponents of the generic model)."""
        return self.table[(g, h)], self.ext.exp_add(g, h), self._carries[(g, h)]

    def commutator(self, m, n) -> FieldElement:
        """The unique scalar u with z^m z^n = u * z^n z^m: c(m, n) / c(n, m)."""
        return self.cocycle(m, n) / self.cocycle(n, m)

    def is_central(self, x: MonomialCombination) -> bool:
        """Commutation against the finite generating set: K-basis and z_i."""
        return self.commutes_with_generators(x)

    # -------------------------------------------------------------- #
    # derived-table audits

    def cocycle_identity_report(self) -> Report:
        """Exact 2-cocycle identity on all |G|^3 triples, plus normalization
        and recovery of the presenting data from the table."""
        ext = self.ext
        report = Report(f"derived cocycle table: {ext.name or 'unnamed'}")
        exps = ext.exponents()
        bad = None
        for g in exps:
            for h in exps:
                c_gh = self.table[(g, h)]
                gh = ext.exp_add(g, h)
                for k in exps:
                    lhs = c_gh * self.table[(gh, k)]
                    rhs = ext.apply_automorphism(g, self.table[(h, k)]) \
                        * self.table[(g, ext.exp_add(h, k))]
                    if lhs != rhs:
                        bad = (g, h, k)
                        break
                if bad:
                    break
            if bad:
                break
        report.require(f"2-cocycle identity on {len(exps) ** 3} triples", bad is None,
                       f"fails at {bad}" if bad else "")

        e = ext.identity_exponent()
        normalized = all(self.table[(e, g)] == ext.one() and self.table[(g, e)] == ext.one()
                         for g in exps)
        report.require("normalized (identity row and column are 1)", normalized)

        ok = True
        for i in range(ext.rank):
            for j in range(ext.rank):
                if self.commutator(ext.unit_exponent(i), ext.unit_exponent(j)) \
                        != self.data.twists[i][j]:
                    ok = False
        for i in range(ext.rank):
            zi = self.gen(i)
            if zi ** ext.orders[i] != self.scalar_element(self.data.powers[i]):
                ok = False
        report.require("table recovers the presenting twists and powers", ok)
        return report


# ---------------------------------------------------------------------- #
# witnesses


@dataclass(frozen=True)
class StrongDegeneracyWitness:
    """(exponent m, coeff l, solutions x_i): s^m has prime order and
    commutator(e_i, m) = s^m(x_i)/x_i * l/s_i(l) for every i."""

    exponent: tuple
    coeff: FieldElement
    solutions: tuple

    def __str__(self):
        xs = ", ".join(str(x) for x in self.solutions)
        return f"m={self.exponent}, l={self.coeff}, x=({xs})"


@dataclass(frozen=True)
class DegeneracyPairWitness:
    """(exp1 m, exp2 n, elem1 a, elem2 b): <s^m, s^n> is noncyclic and
    commutator(m, n) = s^m(a)/a * s^n(b)/b."""

    exp1: tuple
    exp2: tuple
    elem1: FieldElement
    elem2: FieldElement

    def __str__(self):
        return (f"m={self.exp1}, n={self.exp2}, a={self.elem1}, b={self.elem2}")


def _twist_ratio(ext, m, x):
    """s^m(x)/x."""
    return ext.apply_automorphism(m, x) / x


def check_strong_witness(alg: CrossedProductAlgebra, w: StrongDegeneracyWitness) -> bool:
    ext = alg.ext
    m = ext.exp_canon(w.exponent)
    order = ext.exp_order(m)
    if not is_prime(order):
        raise ValueError(f"witness exponent must have prime order, got {order}")
    if w.coeff.is_zero() or any(x.is_zero() for x in w.solutions):
        raise ValueError("witness elements must be nonzero")
    if len(w.solutions) != ext.rank:
        raise ValueError("witness needs one solution per generator")
    for i in range(ext.rank):
        lhs = alg.commutator(ext.unit_exponent(i), m)
        rhs = _twist_ratio(ext, m, w.solutions[i]) \
            * w.coeff / ext.apply_automorphism(ext.unit_exponent(i), w.coeff)
        if lhs != rhs:
            return False
    return True


def check_pair_witness(alg: CrossedProductAlgebra, w: DegeneracyPairWitness) -> bool:
    ext = alg.ext
    if ext.subgroup_is_cyclic(w.exp1, w.exp2):
        return False
    lhs = alg.commutator(w.exp1, w.exp2)
    rhs = _twist_ratio(ext, w.exp1, w.elem1) * _twist_ratio(ext, w.exp2, w.elem2)
    return lhs == rhs


def strong_to_pair_witness(alg, w: StrongDegeneracyWitness) -> DegeneracyPairWitness:
    """Strongly degenerate implies degenerate, at witness level: take the
    least i with <s_i, s^m> noncyclic and rearrange the defining identity."""
    if not check_strong_witness(alg, w):
        raise WitnessError("input witness fails the strong degeneracy check")
    ext = alg.ext
    m = ext.exp_canon(w.exponent)
    for i in range(ext.rank):
        if not ext.subgroup_is_cyclic(ext.unit_exponent(i), m):
            return DegeneracyPairWitness(
                ext.unit_exponent(i), m, ext.inv(w.coeff), w.solutions[i])
    raise ValueError("no generator spans a noncyclic subgroup with the witness "
                     "exponent; the group is cyclic")


def witness_to_central_element(alg, w: StrongDegeneracyWitness) -> MonomialCombination:
    """The prime-power central monomial l * z^m attached to a strong witness."""
    if not check_strong_witness(alg, w):
        raise WitnessError("witness fails the strong degeneracy check")
    return alg.monomial(w.coeff, w.exponent)


def central_element_to_witness(alg, coeff: FieldElement, m) -> StrongDegeneracyWitness:
    """Extract a strong witness from a q-power central monomial coeff * z^m.

    For each generator a solution x_i of s^m(x_i)/x_i = s_i(l)/l *
    commutator(e_i, m) is recovered constructively; none exists exactly
    when that element's norm along s^m is not 1.
    """
    ext = alg.ext
    m = ext.exp_canon(m)
    q = ext.exp_order(m)
    if not is_prime(q):
        raise ValueError(f"exponent must have prime order, got {q}")
    if coeff.is_zero():
        raise ValueError("central element coefficient must be nonzero")
    elem = alg.monomial(coeff, m)
    if not alg.is_central(elem ** q):
        raise WitnessError(f"({coeff})*z^{m} is not {q}-power central")
    solutions = []
    for i in range(ext.rank):
        c_i = ext.apply_automorphism(ext.unit_exponent(i), coeff) / coeff \
            * alg.commutator(ext.unit_exponent(i), m)
        x = ext.hilbert90_solve(m, c_i)
        if x is None:
            raise WitnessError(f"norm condition fails at generator {i}")
        solutions.append(x)
    return StrongDegeneracyWitness(m, coeff, tuple(solutions))


# ---------------------------------------------------------------------- #
# searches


@dataclass
class SearchOutcome:
    witness: object
    exponents_tried: int
    candidates_tried: int
    message: str

    @property
    def found(self):
        return self.witness is not None


EXHAUSTION_DISCLAIMER = ("budget exhausted without a witness; this is NOT a proof "
                         "of non-degeneracy (the search space K* is infinite)")


def default_candidates(ext: GaloisExtensionPresentation):
    """Basis elements, their negatives, and all pairwise basis products."""
    seen = set()
    out = []

    def push(x):
        if not x.is_zero() and x not in seen:
            seen.add(x)
            out.append(x)

    basis = ext.basis()
    for b in basis:
        push(b)
    for b in basis:
        push(-b)
    for i, a in enumerate(basis):
        for b in basis[i:]:
            push(a * b)
    return out


def search_strong_degeneracy(alg, candidates=None, budget=None) -> SearchOutcome:
    """First-hit search over (prime-order exponent, candidate coefficient),
    in lexicographic exponent order then candidate index order."""
    ext = alg.ext
    if candidates is None:
        candidates = default_candidates(ext)
    if budget is not None:
        candidates = candidates[:budget]
    tried = 0
    exps = ext.prime_order_exponents()
    commutators = {
        (i, m): alg.commutator(ext.unit_exponent(i), m)
        for m in exps for i in range(ext.rank)}
    one = ext.one()
    for m in exps:
        for l in candidates:
            if l.is_zero():
                continue
            tried += 1
            ok = True
            for i in range(ext.rank):
                c_i = ext.apply_automorphism(ext.unit_exponent(i), l) / l \
                    * commutators[(i, m)]
                if ext.norm_along(m, c_i) != one:
                    ok = False
                    break
            if ok:
                w = central_element_to_witness(alg, l, m)
                return SearchOutcome(w, len(exps), tried,
                                     f"witness found at m={m}")
    return SearchOutcome(None, len(exps), tried, EXHAUSTION_DISCLAIMER)


def pair_fast_path_applies(ext) -> bool:
    """Rank 2 with both generators of one prime order: every noncyclic pair
    generates the whole group, so the generator pair alone decides pair
    degeneracy."""
    return ext.rank == 2 and ext.orders[0] == ext.orders[1] and is_prime(ext.orders[0])


def search_pair_degeneracy(alg, candidates=None, max_checks=20000) -> SearchOutcome:
    """Budgeted search for a degeneracy pair witness over candidate pairs.

    In the rank-2 elementary-abelian case a single exponent pair decides
    (the twist entry either is or is not a product of twisted ratios), so
    the exponent scan collapses to the generator pair.
    """
    ext = alg.ext
    if candidates is None:
        candidates = default_candidates(ext)
    if pair_fast_path_applies(ext):
        pairs = [(ext.unit_exponent(0), ext.unit_exponent(1))]
    else:
        exps = ext.exponents()
        pairs = [(m, n) for i, m in enumerate(exps) for n in exps[i + 1:]
                 if not ext.subgroup_is_cyclic(m, n)]
    checks = 0
    for m, n in pairs:
        target = alg.commutator(m, n)
        ratios_m = [_twist_ratio(ext, m, a) for a in candidates]
        ratios_n = [_twist_ratio(ext, n, b) for b in candidates]
        for ai, ra in enumerate(ratios_m):
            for bi, rb in enumerate(ratios_n):
                checks += 1
                if checks > max_checks:
                    return SearchOutcome(None, len(pairs), checks,
                                         EXHAUSTION_DISCLAIMER)
                if ra * rb == target:
                    w = DegeneracyPairWitness(m, n, candidates[ai], candidates[bi])
                    return SearchOutcome(w, len(pairs), checks,
                                         f"pair witness found at (m={m}, n={n})")
    return SearchOutcome(None, len(pairs), checks, EXHAUSTION_DISCLAIMER)


# ---------------------------------------------------------------------- #
# presentation changes


def rescaled_cocycle(alg: CrossedProductAlgebra, images) -> CocycleData:
    """The presentation seen through the diagonal change of generators
    w_i = images[i]^-1 * z_i (a change of z-basis fixing K)."""
    ext = alg.ext
    if len(images) != ext.rank or any(a.is_zero() for a in images):
        raise ValueError("need one nonzero image per generator")
    gens = [alg.monomial(ext.inv(a), ext.unit_exponent(i))
            for i, a in enumerate(images)]
    twists = [[ext.one() for _ in range(ext.rank)] for _ in range(ext.rank)]
    for i in range(ext.rank):
        for j in range(ext.rank):
            if i == j:
                continue
            exp = ext.exp_add(ext.unit_exponent(i), ext.unit_exponent(j))
            num = alg.mul(gens[i], gens[j]).coefficient(exp)
            den = alg.mul(gens[j], gens[i]).coefficient(exp)
            twists[i][j] = num / den
    powers = []
    for i in range(ext.rank):
        p = gens[i] ** ext.orders[i]
        powers.append(p.coefficient(ext.identity_exponent()))
    return CocycleData(tuple(tuple(row) for row in twists), tuple(powers))


def transport_witness(alg: CrossedProductAlgebra, w: StrongDegeneracyWitness,
                      target: CrossedProductAlgebra, images) -> StrongDegeneracyWitness:
    """Carry a strong witness through the isomorphism fixing K that sends
    the i-th source generator to images[i] * (i-th target generator).

    The generator images are verified to preserve the source relations in
    the target; the transported witness is l*a_m on the m-th target
    monomial, where a_m is the reduction coefficient of the image of z^m.
    """
    ext = alg.ext
    if target.ext is not ext:
        raise MixedContextError("transport requires algebras over the same extension")
    if len(images) != ext.rank or any(a.is_zero() for a in images):
        raise WitnessError("isomorphism images must be nonzero, one per generator")

    phi = [target.monomial(a, ext.unit_exponent(i)) for i, a in enumerate(images)]
    for i in range(ext.rank):
        for j in range(ext.rank):
            lhs = target.mul(phi[i], phi[j])
            rhs = alg.data.twists[i][j] * target.mul(phi[j], phi[i])
            if lhs != rhs:
                raise WitnessError(
                    f"images break the twist relation at ({i},{j}); not an isomorphism")
    for i in range(ext.rank):
        if phi[i] ** ext.orders[i] != target.scalar_element(alg.data.powers[i]):
            raise WitnessError(
                f"images break the power relation at {i}; not an isomorphism")

    if not check_strong_witness(alg, w):
        raise WitnessError("input witness fails the source checker")
    m = ext.exp_canon(w.exponent)
    image_zm = target.one()
    for i in range(ext.rank):
        image_zm = target.mul(image_zm, phi[i] ** m[i])
    a_m = image_zm.coefficient(m)
    return StrongDegeneracyWitness(
        m, w.coeff * a_m,
        tuple(x * a for x, a in zip(w.solutions, images)))
