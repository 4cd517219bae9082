"""Cocycle relations, the derived table, algebra arithmetic, witnesses."""

import dataclasses
import pathlib

import pytest

from acplab import crossed_product as cp
from acplab import fixtures, serialize
from acplab.errors import MixedContextError, WitnessError
from acplab.field_core import GaloisExtensionPresentation

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_relations_pass_on_fixtures(b_algebra, b3_algebra):
    for alg in (b_algebra, b3_algebra):
        report = cp.validate_relations(alg.ext, alg.data)
        assert report.ok
        assert all(w.passed for w in report.warnings)


def test_trivial_cocycle_passes(b_field):
    data = fixtures.trivial_cocycle(b_field, powers=(7, 11))
    assert cp.validate_relations(b_field, data).ok


def test_bad_twist_fails_power_rule(b_field):
    sqrt2 = b_field.basis_element(2)
    data = cp.CocycleData(
        ((b_field.one(), sqrt2), (b_field.inv(sqrt2), b_field.one())),
        (b_field.scalar(3), b_field.scalar(5)))
    report = cp.validate_relations(b_field, data)
    assert not report.ok
    assert any("power action" in c.name for c in report.failures())
    assert any(not w.passed for w in report.warnings)


def test_zero_entries_rejected(b_field):
    with pytest.raises(ValueError):
        cp.validate_relations(b_field, cp.CocycleData(
            ((b_field.one(), b_field.zero()),
             (b_field.one(), b_field.one())),
            (b_field.one(), b_field.one())))


def test_table_spot_values(b_algebra):
    k = b_algebra.ext
    assert b_algebra.cocycle((1, 0), (1, 0)) == k.scalar(3)
    for g in k.exponents():
        assert b_algebra.cocycle((0, 0), g) == k.one()
        assert b_algebra.cocycle(g, (0, 0)) == k.one()
    assert b_algebra.cocycle((0, 1), (1, 0)) == k.scalar(-1)


def test_generator_twists_elements(b_algebra):
    k = b_algebra.ext
    sqrt2 = k.basis_element(2)
    z1 = b_algebra.gen(0)
    left = z1 * sqrt2
    right = (-sqrt2) * z1
    assert left == right
    y = b_algebra.random_element(__import__("random").Random(0))
    assert b_algebra.one() * y == y


def test_witness_monomial_square(b_algebra, b_witness):
    k = b_algebra.ext
    elem = b_algebra.monomial(b_witness.coeff, b_witness.exponent)
    assert elem ** 2 == b_algebra.scalar_element(k.scalar(30))


def test_commutators(b_algebra):
    k = b_algebra.ext
    assert b_algebra.commutator((1, 0), (1, 0)) == k.one()
    assert b_algebra.commutator((1, 0), (1, 1)) == k.scalar(-1)
    assert b_algebra.commutator((1, 1), (0, 0)) == k.one()
    for m in k.exponents():
        for n in k.exponents():
            assert b_algebra.commutator(m, n) * b_algebra.commutator(n, m) == k.one()


def test_is_central(b_algebra):
    k = b_algebra.ext
    assert b_algebra.is_central(b_algebra.scalar_element(k.scalar(7)))
    assert not b_algebra.is_central(b_algebra.gen(0))
    assert not b_algebra.is_central(b_algebra.scalar_element(k.basis_element(2)))


def test_mixed_algebra_operands(b_algebra, b3_algebra):
    with pytest.raises(MixedContextError):
        b_algebra.mul(b_algebra.one(), b3_algebra.one())


def test_cocycle_identity_reports(b_algebra, b3_algebra):
    assert b_algebra.cocycle_identity_report().ok
    assert b3_algebra.cocycle_identity_report().ok


def test_associativity_and_distributivity(b_algebra, b3_algebra, rng):
    for alg in (b_algebra, b3_algebra):
        for _ in range(200):
            x = alg.random_element(rng, terms=2)
            y = alg.random_element(rng, terms=2)
            z = alg.random_element(rng, terms=2)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z


@pytest.fixture(scope="module")
def rank3_algebra():
    """Triquadratic field with three generators and sign twists; exercises
    the multi-block commutation bookkeeping beyond the rank-2 fixtures."""
    from fractions import Fraction

    zero, mone = Fraction(0), Fraction(-1)
    quad = [fixtures.SimpleExtension(f"r{d}", 2, (Fraction(d), zero),
                                     auto_image=(zero, mone))
            for d in (2, 3, 5)]
    k = fixtures.tensor_galois_presentation(quad, (2, 2, 2), name="rank3")
    one, minus = k.one(), k.scalar(-1)
    twists = ((one, minus, one), (minus, one, minus), (one, minus, one))
    powers = (k.scalar(2), k.scalar(3), k.scalar(5))
    return cp.CrossedProductAlgebra(k, cp.CocycleData(twists, powers))


def test_rank3_relations_and_cocycle(rank3_algebra):
    from acplab.field_core import validate_galois_data

    assert validate_galois_data(rank3_algebra.ext).ok
    assert cp.validate_relations(rank3_algebra.ext, rank3_algebra.data).ok
    assert rank3_algebra.cocycle_identity_report().ok


def test_rank3_engine_matches_naive(rank3_algebra, rng):
    ext = rank3_algebra.ext
    engine = cp.TwistEngine(ext, rank3_algebra.data.twists)
    for _ in range(20):
        a = tuple(rng.randrange(3) for _ in range(3))
        c = tuple(rng.randrange(3) for _ in range(3))
        word = [i for i in range(3) for _ in range(a[i])] \
            + [i for i in range(3) for _ in range(c[i])]
        coeff, counts, carries = cp.reduce_word_naive(
            ext, rank3_algebra.data.twists, rank3_algebra.data.powers, word)
        coeff2, m2, w2 = cp.carry_reduce(
            ext, rank3_algebra.data.powers,
            tuple(x + y for x, y in zip(a, c)))
        assert coeff == engine.pair(a, c) * coeff2
        assert (counts, carries) == (m2, w2)


def test_rank3_witness_machinery(rank3_algebra):
    out = cp.search_strong_degeneracy(rank3_algebra)
    assert out.found
    assert len(out.witness.solutions) == 3
    pair = cp.strong_to_pair_witness(rank3_algebra, out.witness)
    assert cp.check_pair_witness(rank3_algebra, pair)


def test_engine_matches_naive_reducer(b_algebra, b3_algebra, rng):
    for alg in (b_algebra, b3_algebra):
        ext = alg.ext
        engine = cp.TwistEngine(ext, alg.data.twists)
        for _ in range(25):
            a = tuple(rng.randrange(4) for _ in range(ext.rank))
            c = tuple(rng.randrange(4) for _ in range(ext.rank))
            word = [i for i in range(ext.rank) for _ in range(a[i])] \
                + [i for i in range(ext.rank) for _ in range(c[i])]
            coeff, counts, carries = cp.reduce_word_naive(
                ext, alg.data.twists, alg.data.powers, word)
            counts2 = tuple(x + y for x, y in zip(a, c))
            coeff2, m2, w2 = cp.carry_reduce(ext, alg.data.powers, counts2)
            assert coeff == engine.pair(a, c) * coeff2
            assert counts == m2
            assert carries == w2


# -------------------------------------------------------------------- #
# witnesses


def test_strong_witness_checks(b_algebra, b_witness):
    k = b_algebra.ext
    assert cp.check_strong_witness(b_algebra, b_witness)
    bad = cp.StrongDegeneracyWitness((1, 1), k.one(), (k.one(), k.one()))
    assert not cp.check_strong_witness(b_algebra, bad)
    with pytest.raises(ValueError):
        cp.check_strong_witness(b_algebra, cp.StrongDegeneracyWitness(
            (0, 0), k.one(), (k.one(), k.one())))
    with pytest.raises(ValueError):
        cp.check_strong_witness(b_algebra, cp.StrongDegeneracyWitness(
            (1, 1), k.zero(), (k.one(), k.one())))


def test_trivial_data_has_trivial_witness(b_field):
    alg = cp.CrossedProductAlgebra(b_field, fixtures.trivial_cocycle(b_field))
    one = b_field.one()
    w = cp.StrongDegeneracyWitness((1, 0), one, (one, one))
    assert cp.check_strong_witness(alg, w)
    pair = cp.DegeneracyPairWitness((1, 0), (0, 1), one, one)
    assert cp.check_pair_witness(alg, pair)
    elem = cp.witness_to_central_element(alg, w)
    assert alg.is_central(elem ** 2)
    back = cp.central_element_to_witness(alg, one, (1, 0))
    assert cp.check_strong_witness(alg, back)


def test_pair_witness_checks(b_algebra):
    k = b_algebra.ext
    sqrt2 = k.basis_element(2)
    good = cp.DegeneracyPairWitness((1, 0), (0, 1), sqrt2, k.one())
    assert cp.check_pair_witness(b_algebra, good)
    cyclic = cp.DegeneracyPairWitness((1, 0), (1, 0), sqrt2, k.one())
    assert not cp.check_pair_witness(b_algebra, cyclic)


def test_strong_to_pair(b_algebra, b_witness, b3_algebra, b3_witness):
    pair = cp.strong_to_pair_witness(b_algebra, b_witness)
    assert pair.exp1 == (1, 0)
    assert pair.exp2 == (1, 1)
    assert pair.elem1 == b_algebra.ext.inv(b_witness.coeff)
    assert cp.check_pair_witness(b_algebra, pair)
    pair3 = cp.strong_to_pair_witness(b3_algebra, b3_witness)
    assert cp.check_pair_witness(b3_algebra, pair3)


def test_witness_round_trip(b_algebra, b_witness, b3_algebra, b3_witness):
    for alg, w in ((b_algebra, b_witness), (b3_algebra, b3_witness)):
        elem = cp.witness_to_central_element(alg, w)
        q = alg.ext.exp_order(w.exponent)
        assert alg.is_central(elem ** q)
        assert not alg.is_central(elem)
        back = cp.central_element_to_witness(alg, w.coeff, w.exponent)
        assert cp.check_strong_witness(alg, back)


def test_extraction_matches_spec_shape(b_algebra, b_witness):
    """x_1 lands in the fixed subfield of s^m; x_2 twists by -1."""
    k = b_algebra.ext
    back = cp.central_element_to_witness(b_algebra, b_witness.coeff, (1, 1))
    x1, x2 = back.solutions
    assert k.apply_automorphism((1, 1), x1) == x1
    assert k.apply_automorphism((1, 1), x2) == -x2


def test_extraction_requires_centrality(b_algebra):
    k = b_algebra.ext
    with pytest.raises(WitnessError):
        cp.central_element_to_witness(b_algebra, k.one() + k.basis_element(1), (1, 0))


def test_search_finds_checked_witness(b_algebra, b3_algebra):
    out = cp.search_strong_degeneracy(b_algebra)
    assert out.found
    assert cp.check_strong_witness(b_algebra, out.witness)
    # generator squares are rational here, so even the unit coefficient hits
    out_unit = cp.search_strong_degeneracy(b_algebra, [b_algebra.ext.one()])
    assert out_unit.found
    assert cp.check_strong_witness(b_algebra, out_unit.witness)


def test_search_exhaustion_is_flagged(b_algebra):
    out = cp.search_strong_degeneracy(b_algebra, budget=0)
    assert not out.found
    assert "NOT a proof" in out.message


def test_search_trivial_data(b_field):
    alg = cp.CrossedProductAlgebra(b_field, fixtures.trivial_cocycle(b_field))
    out = cp.search_strong_degeneracy(alg, [b_field.one()])
    assert out.found
    assert cp.check_strong_witness(alg, out.witness)


def test_pair_search(b_algebra):
    out = cp.search_pair_degeneracy(b_algebra)
    assert out.found
    assert cp.check_pair_witness(b_algebra, out.witness)
    out = cp.search_pair_degeneracy(b_algebra, max_checks=0)
    assert not out.found


def _generator_pair(alg, a, b):
    ext = alg.ext
    return cp.DegeneracyPairWitness(ext.unit_exponent(0), ext.unit_exponent(1), a, b)


def test_rank2_check(b_algebra, b3_algebra, b3_witness):
    k = b_algebra.ext
    sqrt2 = k.basis_element(2)
    assert cp.check_pair_witness(b_algebra, _generator_pair(b_algebra, sqrt2, k.one()))
    assert not cp.check_pair_witness(b_algebra, _generator_pair(b_algebra, k.one(), k.one()))
    k3 = b3_algebra.ext
    l = b3_witness.coeff
    assert cp.check_pair_witness(b3_algebra, _generator_pair(b3_algebra, k3.inv(l), k3.one()))


def test_rank2_check_requires_matching_orders(b_field):
    alg = cp.CrossedProductAlgebra(b_field, fixtures.trivial_cocycle(b_field))
    assert cp.check_pair_witness(alg, _generator_pair(alg, b_field.one(), b_field.one()))


@pytest.mark.parametrize("orders, expected", [
    ((2, 2), True), ((3, 3), True), ((4, 4), False), ((2, 3), False), ((2,), False),
])
def test_pair_fast_path_needs_one_prime_order(orders, expected):
    # the constructor checks shapes only, so a dim-1 presentation carries any orders
    ext = GaloisExtensionPresentation(orders, ["1"], [[[1]]], [1], [[[1]]] * len(orders))
    assert cp.pair_fast_path_applies(ext) is expected


# -------------------------------------------------------------------- #
# powered data and transports


def test_power_cocycle_values(b_algebra):
    k = b_algebra.ext
    data1 = cp.power_cocycle(b_algebra.data, 1)
    assert data1.twists == b_algebra.data.twists
    assert data1.powers == b_algebra.data.powers
    data2 = cp.power_cocycle(b_algebra.data, 2)
    assert all(u == k.one() for row in data2.twists for u in row)
    assert data2.powers == (k.scalar(9), k.scalar(25))
    data3 = cp.power_cocycle(b_algebra.data, 3)
    assert data3.twists == b_algebra.data.twists
    assert data3.powers == (k.scalar(27), k.scalar(125))
    with pytest.raises(ValueError):
        cp.power_cocycle(b_algebra.data, 0)


def test_power_cocycle_tables_match(b_algebra, b3_algebra):
    for alg in (b_algebra, b3_algebra):
        for t in (2, 3):
            powered = cp.CrossedProductAlgebra(
                alg.ext, cp.power_cocycle(alg.data, t))
            for key, value in alg.table.items():
                assert powered.table[key] == value ** t


def test_transport_identity(b_algebra, b_witness):
    ones = (b_algebra.ext.one(), b_algebra.ext.one())
    out = cp.transport_witness(b_algebra, b_witness, b_algebra, ones)
    assert out == b_witness


def test_transport_rescaled(b_algebra, b_witness):
    k = b_algebra.ext
    images = (k.basis_element(1), k.one())      # scale the first generator
    data = cp.rescaled_cocycle(b_algebra, images)
    target = cp.CrossedProductAlgebra(k, data)
    out = cp.transport_witness(b_algebra, b_witness, target, images)
    assert cp.check_strong_witness(target, out)
    # the rescale kills the twist here: sigma_2(sqrt3)/sqrt3 = -1 cancels it
    assert data.twists[0][1] == k.one()
    assert data.powers[0] == k.one()


def test_transport_trivial_data(b_field):
    alg = cp.CrossedProductAlgebra(b_field, fixtures.trivial_cocycle(b_field))
    one = b_field.one()
    w = cp.StrongDegeneracyWitness((0, 1), one, (one, one))
    sqrt6 = b_field.basis_element(3)
    data = cp.rescaled_cocycle(alg, (sqrt6, one))
    target = cp.CrossedProductAlgebra(b_field, data)
    out = cp.transport_witness(alg, w, target, (sqrt6, one))
    assert cp.check_strong_witness(target, out)


def test_transport_rejects_non_isomorphism(b_algebra, b_witness):
    k = b_algebra.ext
    trivial = cp.CrossedProductAlgebra(k, fixtures.trivial_cocycle(k))
    with pytest.raises(WitnessError):
        cp.transport_witness(b_algebra, b_witness, trivial, (k.one(), k.one()))


def test_constructor_checks_shape_only(b_field):
    """An algebra is built on data whose relations fail; the relations are
    the report's to decide.  Zero entries and a wrong rank still raise."""
    sqrt2 = b_field.basis_element(2)
    data = cp.CocycleData(
        ((b_field.one(), sqrt2), (b_field.inv(sqrt2), b_field.one())),
        (b_field.scalar(3), b_field.scalar(5)))
    alg = cp.CrossedProductAlgebra(b_field, data)
    assert not cp.validate_relations(b_field, data).ok
    assert len(alg.table) == 16
    one, zero = b_field.one(), b_field.zero()
    with pytest.raises(ValueError, match=r"^powers\[1\] is zero$"):
        cp.CrossedProductAlgebra(b_field, cp.CocycleData(((one, one), (one, one)), (one, zero)))
    with pytest.raises(ValueError, match=r"^twists\[1\]\[0\] is zero$"):
        cp.CrossedProductAlgebra(b_field, cp.CocycleData(((one, one), (zero, one)), (one, one)))
    with pytest.raises(ValueError, match="rank does not match"):
        cp.CrossedProductAlgebra(b_field, cp.CocycleData(((one,),), (one,)))


def test_noncanonical_exponents_act_like_canonical_ones():
    """(3, -1) and (1, 1) name one element of C2 x C2; every entry point that
    takes an exponent treats them alike, on fresh caches in either order."""
    path = FIXTURE_DIR / "instance-b-witness.json"
    for first, second in (((3, -1), (1, 1)), ((1, 1), (3, -1))):
        alg, w = serialize.witness_from_doc(serialize.load_document(path))
        k = alg.ext
        x = k.element([1, 2, 3, 4])
        # the pair strong_to_pair_witness derives, built without its checks
        pair = cp.DegeneracyPairWitness((1, 0), (1, 1), k.inv(w.coeff), w.solutions[0])
        results = []
        for m in (first, second):
            results.append((
                k.apply_automorphism(m, x), k.exp_order(m),
                k.subgroup_is_cyclic(m, (1, 0)), k.subgroup_is_cyclic((0, 1), m),
                alg.cocycle(m, (1, 0)), alg.cocycle((0, 1), m), alg.cocycle(m, m),
                cp.check_strong_witness(alg, dataclasses.replace(w, exponent=m)),
                cp.check_pair_witness(alg, dataclasses.replace(pair, exp2=m))))
        assert results[0] == results[1]
        assert results[0][-2:] == (True, True)
