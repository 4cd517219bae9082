"""Versioned JSON documents for presentations, algebras, witnesses, composites.

Schema family (all documents carry a "schema" tag):

  acplab/presentation-v1
      orders: [int]           generator orders, empty for plain coefficient
      basis: [str]            basis labels
      unit: [scalar]          coordinates of 1
      structure_constants:    dense n x n x n array of scalars
      sigma: [matrix]         one dense n x n matrix per generator
  acplab/crossed-product-v1
      extension: presentation document (inline)
      twists: r x r array of coordinate vectors
      powers: r coordinate vectors
  acplab/witness-v1
      algebra: crossed-product document (inline, so files are self-contained)
      exponent: [int]
      coeff: coordinate vector
      solutions: [coordinate vector]
  acplab/composite-v1
      base, coefficients, composite: presentation documents
      embed: dense (dim composite) x (dim base) matrix
      rel_gal: list of dense square matrices

Scalars are strings "p" or "p/q" in lowest terms.  Reading accepts exactly
those forms and JSON integers, each part at most 4300 digits; anything else
(exponents, decimals, signs on the denominator) is a FormatError.  Dumps sort
keys and use a fixed indent, so re-serializing identical data is
byte-identical.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .crossed_product import CocycleData, CrossedProductAlgebra, StrongDegeneracyWitness
from .errors import FormatError, PresentationError
from .extension_lab import CompositeExtension, build_tensor_extension
from .field_core import GaloisExtensionPresentation

PRESENTATION_SCHEMA = "acplab/presentation-v1"
ALGEBRA_SCHEMA = "acplab/crossed-product-v1"
WITNESS_SCHEMA = "acplab/witness-v1"
COMPOSITE_SCHEMA = "acplab/composite-v1"
ELEMENTS_SCHEMA = "acplab/elements-v1"


def _scalar(x) -> str:
    return str(Fraction(x))


_SCALAR = re.compile(r"-?([0-9]+)(?:/([0-9]+))?")
_MAX_DIGITS = 4300     # CPython's default limit for int <-> str conversion


def _parse_scalar(s):
    """A "p" or "p/q" literal (or a JSON integer) as an int or a Fraction;
    anything else, including exponents, decimals and parts over _MAX_DIGITS
    digits, is a FormatError."""
    text = str(s)
    match = _SCALAR.fullmatch(text)
    if match is None or any(len(part) > _MAX_DIGITS for part in match.groups() if part):
        raise FormatError(f"bad scalar literal {s!r}")
    if match.group(2) is None:
        return int(text)
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise FormatError(f"bad scalar literal {s!r}") from exc


def _coords(vec):
    return [_scalar(x) for x in vec]


def _element(ext, vec):
    """The element of ext with the coordinate literals vec, of length ext.dim."""
    if len(vec) != ext.dim:
        raise FormatError(f"expected {ext.dim} coordinates, got {len(vec)}")
    return ext.element([_parse_scalar(x) for x in vec])


def _matrix(mat):
    return [[_scalar(x) for x in row] for row in mat]


# ---------------------------------------------------------------------- #
# presentations


def presentation_to_doc(p: GaloisExtensionPresentation) -> dict:
    return {
        "schema": PRESENTATION_SCHEMA,
        "name": p.name,
        "orders": list(p.orders),
        "basis": list(p.basis_labels),
        "unit": _coords(p.unit_coords),
        "structure_constants": [[_coords(vec) for vec in row]
                                for row in p.structure_constants],
        "sigma": [_matrix(s) for s in p.sigma],
    }


def presentation_from_doc(doc: dict) -> GaloisExtensionPresentation:
    _expect(doc, PRESENTATION_SCHEMA)
    try:
        if not all(type(n) is int for n in doc["orders"]):
            raise FormatError(f"orders must be integers, got {doc['orders']!r}")
        sc = [[[_parse_scalar(x) for x in vec] for vec in row]
              for row in doc["structure_constants"]]
        return GaloisExtensionPresentation(
            tuple(doc["orders"]),
            tuple(doc["basis"]),
            sc,
            [_parse_scalar(x) for x in doc["unit"]],
            [[[_parse_scalar(x) for x in row] for row in mat]
             for mat in doc["sigma"]],
            name=doc.get("name", ""),
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise FormatError(f"malformed presentation document: {exc}") from exc


def _same_presentation(p: GaloisExtensionPresentation, doc) -> bool:
    """True when doc parses to p's orders, unit, table and generators, which
    are canonical integers, so any literals for the same values compare equal."""
    try:
        q = presentation_from_doc(doc)
    except (FormatError, PresentationError):
        return False
    return (q.orders == p.orders and q._unit == p._unit and q._table_den == p._table_den
            and q._table == p._table and q._generators == p._generators)


# ---------------------------------------------------------------------- #
# algebras


def algebra_to_doc(alg: CrossedProductAlgebra) -> dict:
    return {
        "schema": ALGEBRA_SCHEMA,
        "name": alg.ext.name,
        "extension": presentation_to_doc(alg.ext),
        "twists": [[_coords(u.coords) for u in row] for row in alg.data.twists],
        "powers": [_coords(b.coords) for b in alg.data.powers],
    }


def cocycle_data_from_doc(doc: dict, ext=None):
    """(extension, data) parsed from an algebra document, without building
    or validating the algebra; pass ext to bind the data onto an
    already-loaded presentation with identical tables."""
    _expect(doc, ALGEBRA_SCHEMA)
    try:
        if ext is None:
            ext = presentation_from_doc(doc["extension"])
        elif not _same_presentation(ext, doc["extension"]):
            raise FormatError("document extension differs from the provided one")
        twists = tuple(tuple(_element(ext, vec) for vec in row) for row in doc["twists"])
        powers = tuple(_element(ext, vec) for vec in doc["powers"])
    except (KeyError, TypeError, IndexError) as exc:
        raise FormatError(f"malformed algebra document: {exc}") from exc
    r = ext.rank
    if len(twists) != r or any(len(row) != r for row in twists) or len(powers) != r:
        raise FormatError(f"twists must be {r} x {r} and powers must have length {r}")
    return ext, CocycleData(twists, powers)


def algebra_from_doc(doc: dict, ext=None) -> CrossedProductAlgebra:
    """Rebuild the algebra from its document; the shape of its data is
    checked, its relations are not (validate_relations)."""
    ext, data = cocycle_data_from_doc(doc, ext)
    return CrossedProductAlgebra(ext, data)


# ---------------------------------------------------------------------- #
# witnesses


def witness_to_doc(alg: CrossedProductAlgebra, w: StrongDegeneracyWitness) -> dict:
    return {
        "schema": WITNESS_SCHEMA,
        "algebra": algebra_to_doc(alg),
        "exponent": list(w.exponent),
        "coeff": _coords(w.coeff.coords),
        "solutions": [_coords(x.coords) for x in w.solutions],
    }


def witness_from_doc(doc: dict, algebra: CrossedProductAlgebra | None = None):
    """(algebra, witness); pass algebra to bind onto an existing instance."""
    _expect(doc, WITNESS_SCHEMA)
    try:
        alg = algebra if algebra is not None \
            else algebra_from_doc(doc["algebra"])
        if algebra is not None and not _same_presentation(
                algebra.ext, doc["algebra"]["extension"]):
            raise FormatError("witness was recorded over a different extension")
        ext = alg.ext
        exponent = doc["exponent"]
        if len(exponent) != ext.rank or not all(type(m) is int for m in exponent):
            raise FormatError(f"exponent must be {ext.rank} integers, got {exponent!r}")
        w = StrongDegeneracyWitness(
            tuple(exponent),
            _element(ext, doc["coeff"]),
            tuple(_element(ext, vec) for vec in doc["solutions"]),
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise FormatError(f"malformed witness document: {exc}") from exc
    return alg, w


# ---------------------------------------------------------------------- #
# composites


def composite_to_doc(comp: CompositeExtension) -> dict:
    return {
        "schema": COMPOSITE_SCHEMA,
        "name": comp.composite.name,
        "base": presentation_to_doc(comp.base),
        "coefficients": presentation_to_doc(comp.ext_field),
        "composite": presentation_to_doc(comp.composite),
        "embed": _matrix(comp.embed),
        "rel_gal": [_matrix(t) for t in comp.rel_gal],
    }


def composite_from_doc(doc: dict, base=None) -> CompositeExtension:
    _expect(doc, COMPOSITE_SCHEMA)
    try:
        if base is None:
            base = presentation_from_doc(doc["base"])
        elif not _same_presentation(base, doc["base"]):
            raise FormatError("composite was recorded over a different base")
        ext_field = presentation_from_doc(doc["coefficients"])
        composite = presentation_from_doc(doc["composite"])
        embed = [[_parse_scalar(x) for x in row] for row in doc["embed"]]
        rel_gal = [[[_parse_scalar(x) for x in row] for row in mat]
                   for mat in doc["rel_gal"]]
    except (KeyError, TypeError, IndexError) as exc:
        raise FormatError(f"malformed composite document: {exc}") from exc
    return build_tensor_extension(base, ext_field, composite, embed, rel_gal)


# ---------------------------------------------------------------------- #
# candidate element lists


def elements_to_doc(elements) -> dict:
    return {
        "schema": ELEMENTS_SCHEMA,
        "elements": [_coords(x.coords) for x in elements],
    }


def elements_from_doc(doc: dict, ext) -> list:
    _expect(doc, ELEMENTS_SCHEMA)
    try:
        return [_element(ext, vec) for vec in doc["elements"]]
    except (KeyError, TypeError, IndexError) as exc:
        raise FormatError(f"malformed element list: {exc}") from exc


# ---------------------------------------------------------------------- #
# files


def _expect(doc, schema):
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        raise FormatError(f"expected schema {schema}, got "
                          f"{doc.get('schema') if isinstance(doc, dict) else type(doc)}")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def save(path, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def load_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:     # JSONDecodeError, or an integer past the digit limit
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "schema" not in doc:
        raise FormatError(f"{path} carries no schema tag")
    return doc
