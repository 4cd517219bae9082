"""Span tracing of the acplab modules, installed from outside the package.

`Tracer.install()` replaces the public functions and methods of every
acplab module (and every module attribute that re-exports one of them)
with wrappers that record a span: name, start, end, parent span and op id.
Spans stay in memory until `write()`.  The stdlib `fractions.Fraction`
methods are wrapped too, but only counted and timed (there are millions of
those calls), and their time is subtracted from the enclosing span's self
time.  `uninstall()` restores every original attribute, so untraced code
runs with no wrapper at all.

Nothing here reads a private attribute of the program: cache hit ratios
are derived from the arguments the wrappers see (calls against distinct
keys), and search counts from the returned outcome's public fields.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import json
import os
import types
import weakref
from array import array
from fractions import Fraction
from time import perf_counter

LAYERS = ("fractions", "field_core", "linalg", "crossed_product", "twisted_poly",
          "graded_val", "extension_lab", "serialize", "fixtures", "cli", "reporting")
MODULE_LAYERS = LAYERS[1:]

# Methods with a leading underscore that are still entry points of the
# program's work.  `__init__` is added only for classes that build
# something (neither slotted element containers nor dataclasses).
_DUNDERS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                      "__mul__", "__rmul__", "__truediv__", "__pow__", "__eq__",
                      "__str__"})
_FRACTION_METHODS = ("__new__", "__repr__", "__str__", "__add__", "__radd__",
                     "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                     "__rtruediv__", "__floordiv__", "__rfloordiv__", "__divmod__",
                     "__rdivmod__", "__mod__", "__rmod__", "__pow__", "__rpow__",
                     "__pos__", "__neg__", "__abs__", "__int__", "__trunc__",
                     "__floor__", "__ceil__", "__round__", "__hash__", "__eq__",
                     "__lt__", "__gt__", "__le__", "__ge__", "__bool__",
                     "as_integer_ratio", "limit_denominator")


def _key_sigma(args):
    pres, m = args[0], args[1]
    return pres, tuple(int(a) % n for a, n in zip(m, pres.orders))


def _key_pair(args):
    return args[0], (tuple(args[1]), tuple(args[2]))


# span name -> function of the call's positional args giving (owner, key);
# distinct keys are counted per live owner object
KEYED = {
    "field_core.GaloisExtensionPresentation.sigma_matrix": _key_sigma,
    "crossed_product.TwistEngine.pair": _key_pair,
}
SEARCH = "crossed_product.search_strong_degeneracy"
LOAD_DOCUMENT = "serialize.load_document"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one column per span field, in the order the spans end; the op id
        # is -1 during set-up
        self.span_id, self.parent = array("q"), array("q")
        self.name, self.op_id = array("i"), array("i")
        self.start, self.end, self.child = array("d"), array("d"), array("d")
        self.op = -1
        self._next_id = 1
        self._stack = [[0, 0.0]]          # frames: [span id, child time]
        self._in_fraction = False
        self.fraction_calls = 0
        self.fraction_time = 0.0
        self.keyed_calls: dict[str, int] = {k: 0 for k in KEYED}
        self.keyed_distinct: dict[str, int] = {k: 0 for k in KEYED}
        self._keys = {k: weakref.WeakKeyDictionary() for k in KEYED}
        self.searches_found = 0
        self.candidates_tried = 0
        self.bytes_in = 0
        self._patches: list[tuple] = []   # (owner, attribute or key, original)
        self.missing: list[str] = []

    # ------------------------------------------------------------------ #
    # wrappers

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        keyed = KEYED.get(name)
        stack = self._stack
        tracer = self
        add_id, add_parent, add_name, add_op, add_start, add_end, add_child = (
            self.span_id.append, self.parent.append, self.name.append,
            self.op_id.append, self.start.append, self.end.append,
            self.child.append)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                parent[1] += t1 - t0
                add_id(sid)
                add_parent(parent[0])
                add_name(nid)
                add_op(tracer.op)
                add_start(t0)
                add_end(t1)
                add_child(frame[1])
            if keyed is not None:
                tracer._see_key(name, keyed(args))
            elif name == SEARCH:
                tracer.candidates_tried += result.candidates_tried
                tracer.searches_found += result.found
            elif name == LOAD_DOCUMENT:
                tracer.bytes_in += os.path.getsize(args[0])
            return result

        return span

    def _see_key(self, name, owner_key):
        owner, key = owner_key
        self.keyed_calls[name] += 1
        seen = self._keys[name].setdefault(owner, set())
        if key not in seen:
            seen.add(key)
            self.keyed_distinct[name] += 1

    def _wrap_fraction(self, fn):
        stack = self._stack
        tracer = self

        def counted(*args, **kwargs):
            if tracer._in_fraction:
                return fn(*args, **kwargs)
            tracer._in_fraction = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_fraction = False
                tracer.fraction_calls += 1
                tracer.fraction_time += dt
                stack[-1][1] += dt

        return counted

    # ------------------------------------------------------------------ #
    # installation

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: getattr(self.package, layer) for layer in MODULE_LAYERS}
        wrapped: dict[int, object] = {}   # id(original) -> wrapper; originals
                                          # stay alive in self._patches
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                    continue
                target = getattr(obj, "__wrapped__", obj)   # lru_cache builders
                if (isinstance(target, types.FunctionType)
                        and target.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                    self._patch(mod, attr, obj, wrapped[id(obj)])
        # re-exports (`from .field_core import validate_galois_data`) and
        # lookup tables of builders (`fixtures.BUILTIN_ALGEBRAS`)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, obj, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrapped:
                            self._patch(obj, k, v, wrapped[id(v)])
        for name in _FRACTION_METHODS:
            raw = Fraction.__dict__[name]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrap_fraction(fn)
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            self._patch(Fraction, name, raw, wrapper)
        self.missing = [n for n in (*KEYED, SEARCH, LOAD_DOCUMENT, *METRIC_SPANS_FLAT)
                        if n not in self._name_ids]

    def _wrap_class(self, layer, cls):
        builds = (not dataclasses.is_dataclass(cls)
                  and "__slots__" not in cls.__dict__)
        for attr, raw in list(cls.__dict__.items()):
            if not isinstance(raw, types.FunctionType):
                continue
            if attr.startswith("_") and attr not in _DUNDERS \
                    and not (attr == "__init__" and builds):
                continue
            self._patch(cls, attr, raw, self._wrap(raw, f"{layer}.{cls.__name__}.{attr}"))

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # results

    def _ids(self, names):
        return {self._name_ids[n] for n in names if n in self._name_ids}

    def busy(self, names):
        """Wall time of the spans of the given names that run inside no
        other span of those names (so nested calls are not counted twice)."""
        ids = self._ids(names)
        at = array("q", bytes(8 * (len(self.span_id) + 1)))   # span id -> row
        for row, sid in enumerate(self.span_id):
            at[sid] = row
        total = 0.0
        for row, nid in enumerate(self.name):
            if nid not in ids:
                continue
            p = self.parent[row]
            while p and self.name[at[p]] not in ids:
                p = self.parent[at[p]]
            if not p:
                total += self.end[row] - self.start[row]
        return total

    def calls(self, names):
        ids = self._ids(names)
        return sum(1 for nid in self.name if nid in ids)

    def layer_totals(self):
        """{layer: (self seconds, calls)} including the fractions layer."""
        out = {layer: [0.0, 0] for layer in LAYERS}
        layer_of = [n.split(".", 1)[0] for n in self.names]
        for nid, t0, t1, child in zip(self.name, self.start, self.end, self.child):
            acc = out[layer_of[nid]]
            acc[0] += (t1 - t0) - child
            acc[1] += 1
        out["fractions"] = [self.fraction_time, self.fraction_calls]
        return {k: tuple(v) for k, v in out.items()}

    def hit_ratio(self, name):
        calls = self.keyed_calls[name]
        return 1.0 - self.keyed_distinct[name] / calls if calls else 0.0

    def write(self, path):
        """Spans as gzipped JSON lines: a header with the name table, then
        one [id, parent, name, start, end, op] list per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fraction_calls": self.fraction_calls,
                                 "fraction_time_s": self.fraction_time}) + "\n")
            for row in zip(self.span_id, self.parent, self.name, self.start,
                           self.end, self.op_id):
                fh.write(json.dumps(row) + "\n")


# per-layer metric -> span names whose outermost calls it sums
METRIC_SPANS = {
    "field_core.inv": ("field_core.GaloisExtensionPresentation.inv",),
    "field_core.hilbert90_solve": ("field_core.GaloisExtensionPresentation.hilbert90_solve",),
    "field_core.mul": ("field_core.FieldElement.__mul__", "field_core.FieldElement.__rmul__"),
    "field_core.apply_automorphism": ("field_core.GaloisExtensionPresentation.apply_automorphism",),
    "linalg.rref": ("linalg.rref",),
    "linalg.det": ("linalg.det",),
    "crossed_product.table_build": ("crossed_product.CrossedProductAlgebra.__init__",),
    "crossed_product.cocycle_scan": ("crossed_product.CrossedProductAlgebra.cocycle_identity_report",),
    "crossed_product.mul": ("crossed_product.CrossedProductAlgebra.mul",),
    "twisted_poly.mul": ("twisted_poly.TwistedPolyRing.mul",),
    "twisted_poly.reduce": ("twisted_poly.GenericCrossedProduct.reduce",),
    "graded_val.mul": ("graded_val.GradedCrossedProduct.mul",),
    "graded_val.absence_audit": ("graded_val.GradedCrossedProduct.absence_audit",),
    "extension_lab.validate_composite": ("extension_lab.validate_composite",),
    "extension_lab.relative_norm": ("extension_lab.relative_norm",),
}
METRIC_SPANS_FLAT = tuple(n for names in METRIC_SPANS.values() for n in names)
