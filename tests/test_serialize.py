"""Document round trips and the shipped fixture files."""

import json
import pathlib
from fractions import Fraction

import pytest

from acplab import crossed_product as cp
from acplab import fixtures, serialize
from acplab.errors import FormatError

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_presentation_round_trip(b_field):
    doc = serialize.presentation_to_doc(b_field)
    back = serialize.presentation_from_doc(doc)
    assert serialize.presentation_to_doc(back) == doc
    assert back.orders == b_field.orders
    assert back.structure_constants == b_field.structure_constants


def test_algebra_round_trip(b3_algebra):
    doc = serialize.algebra_to_doc(b3_algebra)
    back = serialize.algebra_from_doc(doc)
    assert serialize.algebra_to_doc(back) == doc
    assert back.table[((0, 1), (0, 2))].coords == \
        b3_algebra.table[((0, 1), (0, 2))].coords


def test_algebra_binding_onto_existing_presentation(b_algebra):
    doc = serialize.algebra_to_doc(b_algebra)
    bound = serialize.algebra_from_doc(doc, ext=b_algebra.ext)
    assert bound.ext is b_algebra.ext
    assert bound.data.twists == b_algebra.data.twists


def test_witness_round_trip(b_algebra, b_witness):
    doc = serialize.witness_to_doc(b_algebra, b_witness)
    alg, wit = serialize.witness_from_doc(doc)
    assert cp.check_strong_witness(alg, wit)
    _alg2, wit2 = serialize.witness_from_doc(doc, algebra=b_algebra)
    assert wit2 == b_witness


def test_witness_refuses_wrong_extension(b_algebra, b3_algebra, b3_witness):
    doc = serialize.witness_to_doc(b3_algebra, b3_witness)
    with pytest.raises(FormatError):
        serialize.witness_from_doc(doc, algebra=b_algebra)


def test_composite_round_trip(b_composite):
    doc = serialize.composite_to_doc(b_composite)
    back = serialize.composite_from_doc(doc)
    assert serialize.composite_to_doc(back) == doc
    assert back.t == b_composite.t


def test_dumps_is_deterministic(b_algebra):
    doc = serialize.algebra_to_doc(b_algebra)
    assert serialize.dumps(doc) == serialize.dumps(json.loads(serialize.dumps(doc)))


def test_load_errors(tmp_path):
    with pytest.raises(FormatError):
        serialize.load_document(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        serialize.load_document(bad)
    untagged = tmp_path / "untagged.json"
    untagged.write_text('{"a": 1}')
    with pytest.raises(FormatError):
        serialize.load_document(untagged)
    with pytest.raises(FormatError):
        serialize.presentation_from_doc({"schema": "acplab/crossed-product-v1"})


def test_scalar_literals():
    doc = serialize.presentation_to_doc(fixtures.instance_b_field())
    flat = json.dumps(doc)
    assert '"-1"' in flat or '"1"' in flat
    with pytest.raises(FormatError):
        serialize._parse_scalar("not-a-number")
    assert serialize._parse_scalar(-7) == -7
    assert serialize._parse_scalar("-3/4") == Fraction(-3, 4)
    assert serialize._parse_scalar("9" * 4300) == int("9" * 4300)
    for bad in ("1e5", "1.5", "1_000", " 3 ", "+3", "3/-4", "1/0", 0.5, True,
                "9" * 4301, "1/" + "9" * 4301):
        with pytest.raises(FormatError):
            serialize._parse_scalar(bad)


def test_integer_past_digit_limit_is_a_format_error(tmp_path, b_field):
    # json rejects it on Python >= 3.11, _parse_scalar's digit bound before that
    doc = serialize.presentation_to_doc(b_field)
    doc["unit"][0] = "LONG"
    path = tmp_path / "long.json"
    path.write_text(serialize.dumps(doc).replace('"LONG"', "1" + "0" * 5000))
    with pytest.raises(FormatError):
        serialize.presentation_from_doc(serialize.load_document(path))


def test_shipped_files_match_builders(tmp_path):
    written = fixtures.write_fixture_files(tmp_path)
    assert sorted(p.name for p in written) == \
        sorted(p.name for p in FIXTURE_DIR.glob("*.json"))
    for path in written:
        assert path.read_bytes() == (FIXTURE_DIR / path.name).read_bytes(), path.name


def test_shipped_composite_loads(b3_composite):
    doc = serialize.load_document(FIXTURE_DIR / "composite-b3-sqrt5.json")
    comp = serialize.composite_from_doc(doc)
    assert comp.t == b3_composite.t
    assert comp.composite.dim == b3_composite.composite.dim
