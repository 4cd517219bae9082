"""Iterated twisted polynomial rings and the generic crossed product.

K[s; sigma; u] is the polynomial ring on s_1, ..., s_r over K as a set,
with multiplication twisted by s_i * c = s_i(c) * s_i and
s_i s_j = twists[i][j] s_j s_i.  Products keep exponents unbounded: no
generator-order carry is performed until `reduce`, which substitutes the
central generator powers[i] * X_i for s_i^{n_i} and lands in the rational
generic crossed product, whose canonical form pairs a group exponent with
a Laurent vector of central X-exponents.

The support-minimal monomial under right-to-left lexicographic order
(compare the last coordinate first) is exposed as `leading_monomial`; its
compatibility with powers, (t^v)^q = (t^q)^v, is a checkable law here, not
an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crossed_product as cp
from .errors import MixedContextError
from .field_core import common_prime


def _rl_key(exps):
    return tuple(reversed(exps))


class TwistedPolyRing(cp.MonomialContext):
    """K[s; sigma; u]; its elements are MonomialCombinations keyed by
    natural exponent vectors."""

    def __init__(self, ext, data: cp.CocycleData):
        self.ext = ext
        self.data = data
        self._engine = cp.TwistEngine(ext, data.twists)

    mul = cp.combination_product
    poly = cp.MonomialContext.element

    def canonical_key(self, exps):
        return tuple(int(x) for x in exps)

    def combine(self, a, c):
        return self._engine.pair(a, c), tuple(x + y for x, y in zip(a, c))

    def label(self, exps):
        return cp.monomial_label("s", exps)

    def random_poly(self, rng, terms=3, max_exp=2, span=2) -> cp.MonomialCombination:
        out: dict = {}
        for _ in range(terms):
            e = tuple(rng.randint(0, max_exp) for _ in range(self.ext.rank))
            c = self.ext.random_element(rng, span=span, nonzero=False)
            out[e] = out[e] + c if e in out else c
        return cp.MonomialCombination(self, out)


def leading_monomial(t: cp.MonomialCombination):
    """(exponent, coefficient) of the support-minimal monomial, comparing
    the last coordinate first."""
    if t.is_zero():
        raise ValueError("the zero polynomial has no leading monomial")
    e = min(t.coeffs, key=_rl_key)
    return e, t.coeffs[e]


def leading_monomial_power_property(t: cp.MonomialCombination, q: int) -> bool:
    """Exact check of (t^v)^q = (t^q)^v, coefficient included."""
    if t.is_zero():
        raise ValueError("the zero polynomial has no leading monomial")
    if q < 0:
        raise ValueError("nonnegative power required")
    e, c = leading_monomial(t)
    lhs = t.context.monomial(c, e) ** q
    rhs_e, rhs_c = leading_monomial(t ** q)
    (lhs_e, lhs_c), = lhs.terms()
    return (lhs_e, lhs_c) == (rhs_e, rhs_c)


# ---------------------------------------------------------------------- #
# the generic crossed product


@dataclass
class MonomialSearchOutcome:
    monomial: object
    prime: int
    tried: int
    message: str

    @property
    def found(self):
        return self.monomial is not None


class GenericCrossedProduct(cp.MonomialContext):
    """The crossed product with generator powers rescaled by central
    indeterminates X_i; realized as the reduction target of the twisted
    polynomial ring over the same presentation data.  Its elements are
    MonomialCombinations keyed by (group exponent, Laurent central
    exponent) pairs."""

    def __init__(self, algebra: cp.CrossedProductAlgebra):
        self.algebra = algebra
        self.ext = algebra.ext
        self.ring = TwistedPolyRing(algebra.ext, algebra.data)
        # canonical exponents map to themselves: exp_canon runs only on the rest
        self._canonical = {m: m for m in self.ext.exponents()}

    mul = cp.combination_product

    def canonical_key(self, key):
        m, w = key
        return self._canonical.get(m) or self.ext.exp_canon(m), tuple(int(x) for x in w)

    def lift(self, m):
        return tuple(m), (0,) * self.ext.rank

    def acting(self, key):
        return key[0]

    def combine(self, g, h):
        scalar, m, carry = self.algebra.monomial_product(g[0], h[0])
        return scalar, (m, tuple(a + b + q for a, b, q in zip(g[1], h[1], carry)))

    def label(self, key):
        m, w = key
        return "*".join(x for x in (cp.monomial_label("z", m),
                                    cp.monomial_label("X", w)) if x)

    # reduction ------------------------------------------------------- #

    def reduce(self, t: cp.MonomialCombination) -> cp.MonomialCombination:
        """Ring homomorphism from the twisted polynomial ring: substitute
        powers[i] * X_i for each s_i^{n_i}, exactly."""
        if t.context.ext is not self.ext or t.context.data != self.algebra.data:
            raise MixedContextError("polynomial over a different presentation")
        out: dict = {}
        for exps, c in t.coeffs.items():
            coeff, m, w = cp.carry_reduce(self.ext, self.algebra.data.powers, exps)
            key = (m, w)
            term = c * coeff
            out[key] = out[key] + term if key in out else term
        return self.element_type(self, out)

    def is_central(self, x: cp.MonomialCombination) -> bool:
        """Central exactly when supported on trivial group exponents with
        scalar-line coefficients (the rational-function center)."""
        zero_exp = (0,) * self.ext.rank
        for (m, _w), c in x.coeffs.items():
            if m != zero_exp or not c.is_scalar():
                return False
        return True

    def is_p_power_central(self, t: cp.MonomialCombination, p: int) -> bool:
        return self.is_central(self.reduce(t ** p))

    def group_prime(self) -> int:
        """The common prime of the generator orders; error if mixed."""
        p = common_prime(self.ext.orders)
        if p is None:
            raise ValueError("generator orders are not powers of one prime")
        return p

    def witness_monomial(self, witness) -> cp.MonomialCombination:
        """The polynomial-ring image of a strong witness's central monomial."""
        return self.ring.monomial(witness.coeff, witness.exponent)

    def monomial_power_central_search(self, candidates=None, strong=None,
                                      budget=None) -> MonomialSearchOutcome:
        """Search for a p-power-central monomial l * s^m over order-p
        exponents and candidate coefficients.  The image of the witness in
        strong, the outcome of search_strong_degeneracy over the same
        candidates and budget (run here when None), is tried first; the
        caller checks whichever monomial is returned."""
        ext = self.ext
        p = self.group_prime()
        if ext.group_order == max(ext.exp_order(m) for m in ext.exponents()):
            raise ValueError("monomial search requires a noncyclic group")
        if strong is None:
            strong = cp.search_strong_degeneracy(self.algebra, candidates, budget)
        tried = strong.candidates_tried
        if strong.found and ext.exp_order(strong.witness.exponent) == p:
            return MonomialSearchOutcome(self.witness_monomial(strong.witness), p, tried,
                                         "monomial from strong-degeneracy witness")
        if candidates is None:
            candidates = cp.default_candidates(ext)
        if budget is not None:
            candidates = candidates[:budget]
        order_p = [m for m in ext.exponents() if ext.exp_order(m) == p]
        for m in order_p:
            for l in candidates:
                if l.is_zero():
                    continue
                tried += 1
                mono = self.ring.monomial(l, m)
                if self.is_p_power_central(mono, p):
                    return MonomialSearchOutcome(mono, p, tried,
                                                 f"direct monomial hit at m={m}")
        return MonomialSearchOutcome(None, p, tried, cp.EXHAUSTION_DISCLAIMER)
