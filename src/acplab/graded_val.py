"""Valuation and graded structure for the power-series crossed product.

The power-series model is handled through its graded skeleton only: every
homogeneous element is a monomial coeff * g(z^m) * g(x^w) with m a
canonical group exponent and w an integer Laurent vector, and its value is
the vector w + sum_i (m_i / n_i) e_i in the lattice spanned by 1/n_i.
g(z^m) * g(x^w) is the monomial z^m * X^w of the generic model, so the
skeleton is that model's monomial context with its own spelling, and a
homogeneous element is a one-term combination multiplied by the shared
kernel.  Full power series are never materialized; each criterion of the
valued theory is exact on this skeleton.

theta sends a value class modulo the base lattice to the group exponent of
its fractional part; it is checked to be an isomorphism rather than
assumed.  Absence statements (no power-central homogeneous element off the
base lattice) are exposed as budgeted audits that say so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import crossed_product as cp
from . import twisted_poly as tp
from .errors import MixedContextError
from .field_core import FieldElement
from .reporting import Report


@dataclass(frozen=True)
class ValueVector:
    """An element of the value lattice, stored as integer parts plus
    fractional numerators 0 <= fracs[i] < orders[i] (gamma_i = ints[i] +
    fracs[i]/orders[i]).  Lies in the base lattice iff all fracs vanish."""

    ints: tuple
    fracs: tuple
    orders: tuple

    def __post_init__(self):
        for f, n in zip(self.fracs, self.orders):
            if not 0 <= f < n:
                raise ValueError("fractional parts out of range")

    @property
    def in_base_lattice(self) -> bool:
        return not any(self.fracs)

    def fractions(self):
        return tuple(i + Fraction(f, n)
                     for i, f, n in zip(self.ints, self.fracs, self.orders))

    def __add__(self, other):
        if self.orders != other.orders:
            raise MixedContextError("value vectors over different lattices")
        ints, fracs = [], []
        for a, fa, b, fb, n in zip(self.ints, self.fracs, other.ints,
                                   other.fracs, self.orders):
            q, f = divmod(fa + fb, n)
            ints.append(a + b + q)
            fracs.append(f)
        return ValueVector(tuple(ints), tuple(fracs), self.orders)

    def __neg__(self):
        ints, fracs = [], []
        for a, f, n in zip(self.ints, self.fracs, self.orders):
            q, g = divmod(-f, n)
            ints.append(-a + q)
            fracs.append(g)
        return ValueVector(tuple(ints), tuple(fracs), self.orders)

    def __str__(self):
        return "(" + ", ".join(str(x) for x in self.fractions()) + ")"


class HomogeneousElement(cp.MonomialCombination):
    """A nonzero monomial coeff * g(z^m) * g(x^w) of the graded skeleton:
    a one-term combination keyed by (m, w)."""

    __slots__ = ()

    def __init__(self, context, coeffs):
        super().__init__(context, coeffs)
        if len(self.coeffs) != 1:
            raise ValueError("homogeneous elements are nonzero monomials")

    @property
    def coeff(self) -> FieldElement:
        (c,) = self.coeffs.values()
        return c

    @property
    def exponent(self):
        ((m, _w),) = self.coeffs
        return m

    @property
    def central(self):
        ((_m, w),) = self.coeffs
        return w


@dataclass
class CentralityOutcome:
    """Whether h^q centralizes the generating set, together with where the
    value of h sits; callers combine the two to test the valued criterion."""

    power_central: bool
    value: ValueVector

    def __bool__(self):
        return self.power_central

    @property
    def value_in_base_lattice(self):
        return self.value.in_base_lattice


@dataclass
class PairDegeneracyOutcome:
    commute: bool
    noncyclic: bool
    witness: object

    def __bool__(self):
        return self.commute and self.noncyclic


@dataclass
class PairScan:
    checked: int
    witnesses: list


@dataclass(frozen=True)
class CentralScaling:
    """A central monomial f = coeff * x^exps with rational coeff."""

    coeff: FieldElement
    exps: tuple


@dataclass
class ResidueCocycle:
    data: cp.CocycleData
    scalings: tuple
    report: Report


@dataclass
class AbsenceAudit:
    found: object
    tried: int
    strong_search: cp.SearchOutcome
    message: str


class GradedCrossedProduct(tp.GenericCrossedProduct):
    """Graded skeleton of the power-series generic crossed product over a
    validated crossed-product algebra: the generic model's monomials,
    spelled g(z^m)*g(x^w).  Centrality here is tested by commutation
    (qpower_central_check), not by the generic model's structural
    is_central; the two agree only on validated presentations."""

    element_type = HomogeneousElement
    mul = cp.combination_product

    def label(self, key):
        return "*".join(f"g({x})" for x in (cp.monomial_label("z", key[0]),
                                            cp.monomial_label("x", key[1])) if x)

    # ------------------------------------------------------------- #
    # elements

    def homog(self, coeff, exponent=None, central=None) -> HomogeneousElement:
        if coeff.field is not self.ext:
            raise MixedContextError("coefficient is not over this extension")
        e = self.ext.identity_exponent()
        return self.monomial(coeff, e if exponent is None else exponent,
                             e if central is None else central)

    def from_witness(self, witness) -> HomogeneousElement:
        return self.homog(witness.coeff, witness.exponent)

    def central_generator(self, i) -> HomogeneousElement:
        w = [0] * self.ext.rank
        w[i] = 1
        return self.homog(self.ext.one(), None, w)

    def value_of(self, h: HomogeneousElement) -> ValueVector:
        return ValueVector(h.central, h.exponent, self.ext.orders)

    def value_vector(self, fractions) -> ValueVector:
        ints, fracs = [], []
        for x, n in zip(fractions, self.ext.orders):
            x = Fraction(x)
            if (x * n).denominator != 1:
                raise ValueError(f"{x} is not a multiple of 1/{n}")
            num = x * n
            q, f = divmod(int(num), n)
            ints.append(q)
            fracs.append(f)
        return ValueVector(tuple(ints), tuple(fracs), self.ext.orders)

    def theta(self, value: ValueVector):
        """Group exponent of the fractional part: the residue automorphism
        induced by conjugation at that value class."""
        if value.orders != self.ext.orders:
            raise MixedContextError("value vector over a different lattice")
        return tuple(value.fracs)

    def theta_table(self):
        """(coset representative, theta image) for all value classes."""
        out = []
        for m in self.ext.exponents():
            v = ValueVector((0,) * self.ext.rank, m, self.ext.orders)
            out.append((v, self.theta(v)))
        return out

    # ------------------------------------------------------------- #
    # arithmetic

    def inv(self, h: HomogeneousElement) -> HomogeneousElement:
        ext = self.ext
        m_inv = ext.exp_neg(h.exponent)
        scalar, _exp, carry = self.algebra.monomial_product(h.exponent, m_inv)
        coeff = ext.apply_automorphism(m_inv, ext.inv(h.coeff * scalar))
        central = tuple(-a - q for a, q in zip(h.central, carry))
        return HomogeneousElement(self, {(m_inv, central): coeff})

    def power(self, h: HomogeneousElement, k: int) -> HomogeneousElement:
        return h ** k if k >= 0 else self.inv(h) ** -k

    def commute(self, h1, h2) -> bool:
        return self.mul(h1, h2) == self.mul(h2, h1)

    # ------------------------------------------------------------- #
    # valued criteria

    def qpower_central_check(self, h: HomogeneousElement, q: int) -> CentralityOutcome:
        """Does h^q commute with every residue field basis element and every
        graded generator?  The value of h is reported alongside so callers
        can test the off-lattice criterion."""
        return CentralityOutcome(self.commutes_with_generators(self.power(h, q)),
                                 self.value_of(h))

    def to_strong_witness(self, h: HomogeneousElement) -> cp.StrongDegeneracyWitness:
        """Hilbert-90 extraction on residues: the central Laurent part drops
        out of all commutators, so extraction happens at the crossed-product
        level with the same coefficient and exponent."""
        return cp.central_element_to_witness(self.algebra, h.coeff, h.exponent)

    def pair_degeneracy_check(self, h1, h2) -> PairDegeneracyOutcome:
        """Noncyclic theta span plus commuting; on success the induced pair
        witness is emitted for the caller to check."""
        ext = self.ext
        m = self.theta(self.value_of(h1))
        n = self.theta(self.value_of(h2))
        noncyclic = not ext.subgroup_is_cyclic(m, n)
        commute = self.commute(h1, h2)
        witness = None
        if noncyclic and commute:
            witness = cp.DegeneracyPairWitness(m, n, ext.inv(h2.coeff), h1.coeff)
        return PairDegeneracyOutcome(commute, noncyclic, witness)

    def commuting_pair_scan(self) -> PairScan:
        """pair_degeneracy_check on c1*z^m and c2*z^n for every ordered pair
        of nonzero exponents m, n spanning a noncyclic subgroup and every
        c1, c2 among 1 and the first three other basis elements; returns the
        number of pairs checked and the emitted witnesses in scan order."""
        ext = self.ext
        coeffs = ([ext.one()] + [b for b in ext.basis() if b != ext.one()])[:4]
        exps = [m for m in ext.exponents() if any(m)]
        checked = 0
        witnesses = []
        for m in exps:
            for n in exps:
                if ext.subgroup_is_cyclic(m, n):
                    continue
                for c1 in coeffs:
                    for c2 in coeffs:
                        checked += 1
                        out = self.pair_degeneracy_check(
                            self.homog(c1, m), self.homog(c2, n))
                        if out:
                            witnesses.append(out.witness)
        return PairScan(checked, witnesses)

    def witness_pair_elements(self, witness: cp.DegeneracyPairWitness):
        """The commuting homogeneous pair attached to a pair witness."""
        ext = self.ext
        h1 = self.homog(witness.elem2, witness.exp1)
        h2 = self.homog(ext.inv(witness.elem1), witness.exp2)
        return h1, h2

    # ------------------------------------------------------------- #
    # residue data and audits

    def default_scalings(self):
        return tuple(CentralScaling(self.ext.one(), self.ext.unit_exponent(i))
                     for i in range(self.ext.rank))

    def residue_cocycle(self, pis=None, scalings=None) -> ResidueCocycle:
        """Residue twists and powers for uniformizer choices pis (default the
        graded generators) and central scalings f_i with v(f_i) = v(pi_i^n_i)."""
        ext = self.ext
        if pis is None:
            pis = tuple(self.gen(i) for i in range(ext.rank))
        if scalings is None:
            scalings = self.default_scalings()
        for i, pi in enumerate(pis):
            if self.theta(self.value_of(pi)) != ext.unit_exponent(i):
                raise ValueError(f"pi[{i}] does not induce the {i}-th generator")
        for f in scalings:
            if f.coeff.is_zero() or not f.coeff.is_scalar():
                raise ValueError("scalings must be nonzero rational central monomials")

        twists = [[ext.one()] * ext.rank for _ in range(ext.rank)]
        for i in range(ext.rank):
            for j in range(ext.rank):
                if i == j:
                    continue
                comm = self.mul(self.mul(pis[i], pis[j]),
                                self.inv(self.mul(pis[j], pis[i])))
                if comm.exponent != ext.identity_exponent() or any(comm.central):
                    raise ValueError("commutator is not a unit residue")
                twists[i][j] = comm.coeff

        powers = []
        for i in range(ext.rank):
            pn = self.power(pis[i], ext.orders[i])
            f = scalings[i]
            f_h = self.homog(f.coeff, None, f.exps)
            if self.value_of(pn).fractions() != self.value_of(f_h).fractions():
                raise ValueError(
                    f"scaling {i} has value {self.value_of(f_h)}, expected "
                    f"{self.value_of(pn)}")
            ratio = self.mul(pn, self.inv(f_h))
            powers.append(ratio.coeff)

        data = cp.CocycleData(tuple(tuple(row) for row in twists), tuple(powers))
        report = cp.validate_relations(ext, data)
        return ResidueCocycle(data, tuple(scalings), report)

    def _value_lattice_index(self) -> int:
        """Index of the base lattice: the size of the group the generator
        values generate modulo integer vectors."""
        return len(self.ext.subgroup_exponents(
            [self.value_of(self.gen(i)).fracs for i in range(self.ext.rank)]))

    def semiramification_report(self) -> Report:
        """Value-lattice index vs residue degree vs total dimension.

        The residue degree is computed as the dimension of the coefficient
        field over its joint fixed subfield, so the audit also applies to
        extended instances whose base field is bigger than the rationals.
        """
        ext = self.ext
        if ext.group_order == max(ext.exp_order(m) for m in ext.exponents()):
            raise ValueError("degeneracy analysis requires a noncyclic group")
        report = Report(f"semiramification audit: {ext.name or 'unnamed'}")
        value_index = self._value_lattice_index()
        fixed_dim = len(ext.joint_fixed_subspace())
        residue_degree = ext.dim // fixed_dim
        total = ext.group_order * residue_degree
        report.require("value lattice index == group order",
                       value_index == ext.group_order,
                       f"{value_index} vs {ext.group_order}")
        report.require("residue degree == value index",
                       residue_degree == value_index,
                       f"{residue_degree} vs {value_index}")
        report.require("residue degree == sqrt(total dimension)",
                       residue_degree == isqrt(total) and isqrt(total) ** 2 == total,
                       f"{residue_degree}^2 vs {total}")
        report.note("defectlessness of the model is assumed, not checked")
        return report

    def absence_audit(self, q: int, candidates=None, budget=None) -> AbsenceAudit:
        """Budgeted search for a q-power-central homogeneous element with
        value outside the base lattice; exhaustion is reported as such, it
        is never a proof of absence."""
        ext = self.ext
        if candidates is None:
            candidates = cp.default_candidates(ext)
        if budget is not None:
            candidates = candidates[:budget]
        order_q = [m for m in ext.exponents() if ext.exp_order(m) == q]
        tried = 0
        found = None
        for m in order_q:
            for l in candidates:
                if l.is_zero():
                    continue
                tried += 1
                h = self.homog(l, m)
                out = self.qpower_central_check(h, q)
                if out.power_central and not out.value_in_base_lattice:
                    found = h
                    break
            if found is not None:
                break
        strong = cp.search_strong_degeneracy(self.algebra, candidates)
        if found is not None:
            message = (f"{q}-power central homogeneous element found off the "
                       f"base lattice: {found}")
        else:
            message = (f"no {q}-power-central homogeneous element with value "
                       f"outside the base lattice within budget ({tried} monomials); "
                       "NOT a proof of absence")
        return AbsenceAudit(found, tried, strong, message)
