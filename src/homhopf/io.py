"""Structure files: a strict, canonical, JSON-compatible text format.

A file holds one coefficient field and a dictionary of named objects; every
scalar is a string of ASCII digits, with an optional minus sign and "/"
denominator ("3/2", "-5"), so no numeric precision is involved.
Serialization is canonical (sorted keys, two-space indent, lowest-terms
rationals, trailing newline) so parse . serialize is the identity on emitted
files byte for byte.  Unknown keys are rejected; basis labels are strings.

Reading is bound by coefficients: a file repeats a handful of distinct
strings thousands of times.  Each file holds one coefficient dict, and a
coefficient is read by looking its string up there: the first lookup of a
string validates and parses it (``_Coefficients.__missing__``) and every
later one is a plain dict hit.  A zero, however it is spelled ("0", "-0",
"0/5"), is stored as the field's shared ``field.zero()``, so decoding drops
it by identity (``is not zero``) without testing any value.  One pass over
the rows, block by block for a tensor, checks each list's shape and reads
its coefficients in reading order, and decodes matrices and tensors
straight into their nonzero fibres, one per innermost list; no dense copy
is built, and no reference cycle, so a file and what is built from it are
freed by reference counting alone.  Rows repeat as well, so each file
also holds a table from a row of strings (as a tuple) to its fibre, and each
distinct row is parsed, made canonical and interned there once per file; a
row that cannot be hashed, or fails, is read entry by entry, so the first
error in reading order is the one reported.  Matrices and tensors keep the
table's fibres (``_FibreStore._keep``), with no second walk over values.
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import dataclass, field as dc_field
from itertools import product

from .core import (HomAlgebra, HomCoalgebra, HomComodule, HomHopfAlgebra,
                   HomModule)
from .doi import ComoduleAlgebra, DoiDatum, DoiModule, ModuleCoalgebra
from .integrals import IntegralCandidate
from .linalg import Field, Matrix, Tensor3, vec_dense


class StructureParseError(ValueError):
    pass


#: the one coefficient spelling; Fraction() also reads blanks, "_", "e", "." and "\u0661"
_COEFFICIENT = re.compile(r"-?[0-9]+(/[0-9]+)?").fullmatch


_HOPF = ("hom_hopf_algebra",)

#: kind of a dimensioned object -> (its references, each key with the kinds
#: it may name; its parts in reading order; its constructor, called with the
#: field, ``dim`` and the parts)
_KINDS = {
    "hom_hopf_algebra": ({}, ("twist", "mult", "unit", "comult", "counit", "antipode"),
                         HomHopfAlgebra),
    "hom_algebra": ({}, ("twist", "mult", "unit"), HomAlgebra),
    "hom_coalgebra": ({}, ("twist", "comult", "counit"), HomCoalgebra),
    "hom_module": ({"algebra": ("hom_algebra", "hom_hopf_algebra")}, ("twist", "action"),
                   HomModule),
    "hom_comodule": ({"coalgebra": ("hom_coalgebra", "hom_hopf_algebra")},
                     ("twist", "coaction"), HomComodule),
    "comodule_algebra": ({"hopf": _HOPF}, ("twist", "mult", "unit", "coaction"),
                         lambda field, n, twist, mult, unit, coaction: ComoduleAlgebra(
                             HomAlgebra(field, n, twist, mult, unit), coaction)),
    "module_coalgebra": ({"hopf": _HOPF}, ("twist", "comult", "counit", "action"),
                         lambda field, n, twist, comult, counit, action: ModuleCoalgebra(
                             HomCoalgebra(field, n, twist, comult, counit), action)),
    "doi_module": ({"datum": ("doi_datum",)}, ("twist", "action", "coaction"), DoiModule),
    # a Yetter-Drinfeld module is a Doi module over yd_datum(H): A = C = H
    "yd_module": ({"hopf": _HOPF}, ("twist", "action", "coaction"), DoiModule),
}

_SCHEMAS = {
    **{kind: {"kind", *refs, "dim", "basis", *parts} for kind, (refs, parts, _) in _KINDS.items()},
    "doi_datum": {"kind", "hopf", "algebra", "coalgebra"},
    "morphism": {"kind", "source", "target", "matrix"},
    "integral": {"kind", "datum", "theta"},
    "certificate": {"kind", "datum", "theta", "modules"},
}


@dataclass
class StructureFile:
    field: Field
    raw: dict
    _built: dict = dc_field(default_factory=dict)
    _scalars: dict = dc_field(init=False, repr=False)  # coefficient string -> scalar
    _rows: dict = dc_field(init=False, repr=False)  # row of strings, as a tuple -> fibre

    def __post_init__(self):
        self._scalars = _Coefficients(self.field)
        self._rows = {}

    def kind_of(self, name: str) -> str:
        return self._raw_of(name)["kind"]

    def labels(self, name: str):
        return self._raw_of(name).get("basis")

    def _raw_of(self, name: str) -> dict:
        if name not in self.raw:
            raise StructureParseError(f"no object named {name!r} in file")
        return self.raw[name]

    def build(self, name: str, _stack: tuple = ()):
        """Construct the python object for a named entry (memoized)."""
        if name in self._built:
            return self._built[name]
        if name in _stack:
            raise StructureParseError(f"circular reference through {name!r}")
        obj = self._raw_of(name)
        kind = obj["kind"]
        stack = _stack + (name,)
        builder = (self._build_dimensioned if kind in _KINDS
                   else getattr(self, f"_build_{kind}", None))
        if builder is None:
            raise StructureParseError(f"object {name!r} has unsupported kind {kind!r}")
        built = builder(obj, stack)
        self._built[name] = built
        return built

    # -- builders ------------------------------------------------------------
    def _ref(self, obj: dict, key: str, stack: tuple, kinds: tuple):
        name = obj[key]
        if not isinstance(name, str):
            raise StructureParseError(f"reference {key!r} must be a name")
        target_kind = self.kind_of(name)
        if target_kind not in kinds:
            raise StructureParseError(
                f"{key!r} must reference one of {kinds}, got {target_kind!r}")
        return self.build(name, stack)

    def _build_dimensioned(self, obj, stack):
        """An object of a kind in ``_KINDS``: its references built first, then
        its parts, each shaped by ``obj["dim"]`` and the referenced object: an
        action is by its algebra, a coaction into its coalgebra."""
        refs, keys, make = _KINDS[obj["kind"]]
        act = coact = None
        for key, kinds in refs.items():
            ref = self._ref(obj, key, stack, kinds)
            act, coact = ((ref.algebra.dim, ref.coalgebra.dim) if isinstance(ref, DoiDatum)
                          else (ref.dim, ref.dim))
        n = obj["dim"]
        shapes = {"twist": (n, n), "antipode": (n, n), "unit": (n,), "counit": (n,),
                  "mult": (n, n, n), "comult": (n, n, n), "action": (n, act, n),
                  "coaction": (n, n, coact)}
        return make(self.field, n, *[self._decode(obj[key], shapes[key]) for key in keys])

    def _build_doi_datum(self, obj, stack):
        h = self._ref(obj, "hopf", stack, ("hom_hopf_algebra",))
        a = self._ref(obj, "algebra", stack, ("comodule_algebra",))
        c = self._ref(obj, "coalgebra", stack, ("module_coalgebra",))
        return DoiDatum(h, a, c)

    def _build_morphism(self, obj, stack):
        rows = obj["matrix"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise StructureParseError("a morphism's 'matrix' must be a list of rows")
        return self._decode(rows, (len(rows), len(rows[0]) if rows else 0))

    def _build_integral(self, obj, stack):
        d = self._ref(obj, "datum", stack, ("doi_datum",))
        theta = self._decode(obj["theta"], (d.coalgebra.dim, d.coalgebra.dim, d.algebra.dim))
        return IntegralCandidate(self.field, d.coalgebra.dim, d.algebra.dim, theta)

    def _build_certificate(self, obj, stack):
        return self._build_integral({"kind": "integral", "datum": obj["datum"],
                                     "theta": obj["theta"]}, stack)

    # -- coefficients -------------------------------------------------------
    def _decode(self, data, shape: tuple):
        """A vector (a dense tuple), matrix or tensor of the given shape from
        nested lists of coefficient strings; a matrix or tensor keeps the
        nonzeros of each innermost list as one fibre."""
        lookup, zero, fibres, rows = self._scalars.__getitem__, self.field.zero(), [], self._rows

        def parsed(row: list) -> tuple:
            return tuple([(k, x) for k, x in enumerate(map(lookup, row)) if x is not zero])

        vector = len(shape) == 1
        if vector:  # read as the one row of a 1 x n matrix; ``shape[vector:]`` is as given
            data, shape = [data], (1, *shape)
        # a matrix is one block of rows and a tensor a list of them, read in
        # order, so the first bad list or coefficient in reading order is reported
        if len(shape) == 3 and (not isinstance(data, list) or len(data) != shape[0]):
            raise _expected(shape[vector:])
        height, width = shape[-2:]
        try:
            for block in (data,) if len(shape) == 2 else data:
                if not isinstance(block, list) or len(block) != height:
                    raise _expected(shape[vector:])
                for row in block:
                    if not isinstance(row, list) or len(row) != width:
                        raise _expected(shape[vector:])
                    try:  # each distinct row is parsed once per file
                        fibre = rows[tuple(row)]
                    except KeyError:  # a row that fails to parse is not stored
                        fibre = rows[tuple(row)] = parsed(row)
                    except TypeError:  # an unhashable entry: read entry by entry, in order
                        fibre = parsed(row)
                    fibres.append(fibre)
        except TypeError:  # an unhashable entry, a list or a dict, cannot be looked up
            raise _not_a_string(next(x for x in row if not isinstance(x, str))) from None
        if vector:
            return tuple(vec_dense(dict(fibres[0]), shape[1], zero))
        cls, names = ((Matrix, ("rows", "cols")) if len(shape) == 2
                      else (Tensor3, ("d1", "d2", "d3")))
        # the row table's fibres are finished: canonical values, each row one object
        return cls._shaped(field=self.field, **dict(zip(names, shape)))._keep(tuple(fibres), width)


def _expected(shape: tuple) -> StructureParseError:
    """The error for data that is not a vector, matrix or tensor of ``shape``."""
    what = ("a vector of length {}", "a {} matrix", "a {} tensor")[len(shape) - 1]
    return StructureParseError("expected " + what.format("x".join(map(str, shape))))


class _Coefficients(dict):
    """Coefficient string -> its value in ``field``.  A string missing from
    the dict is validated and parsed on its first lookup and stored, a zero
    as the field's shared ``field.zero()``; a string that fails is not
    stored, so every lookup of it fails alike."""

    __slots__ = ("field",)

    def __init__(self, field: Field):
        super().__init__()
        self.field = field

    def __missing__(self, x):
        if not isinstance(x, str):
            raise _not_a_string(x)
        try:
            if not _COEFFICIENT(x):
                raise ValueError("not an integer or a fraction p/q in ASCII digits")
            value = self.field.of(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise StructureParseError(f"bad coefficient {x!r}: {exc}") from exc
        value = self[x] = value or self.field.zero()
        return value


def _not_a_string(x) -> StructureParseError:
    # bounded: the repr of a list nested near the recursion limit raises
    return StructureParseError(f"coefficients must be strings, got {reprlib.repr(x)}")


def parse_structure_file(text: str) -> StructureFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureParseError(f"not valid JSON: {exc}") from exc
    except (RecursionError, MemoryError) as exc:
        raise StructureParseError("structure file is nested too deeply or is too "
                                  f"large to load ({type(exc).__name__})") from exc
    if not isinstance(data, dict):
        raise StructureParseError("top level must be an object")
    extra = set(data) - {"field", "objects"}
    if extra:
        raise StructureParseError(f"unknown top-level keys: {sorted(extra)}")
    if "field" not in data or "objects" not in data:
        raise StructureParseError("missing 'field' or 'objects'")
    field = _parse_field(data["field"])
    objects = data["objects"]
    if not isinstance(objects, dict):
        raise StructureParseError("'objects' must be a dictionary")
    for name, obj in objects.items():
        if not isinstance(obj, dict) or "kind" not in obj:
            raise StructureParseError(f"object {name!r} must carry a 'kind'")
        kind = obj["kind"]
        if not isinstance(kind, str) or kind not in _SCHEMAS:
            raise StructureParseError(f"object {name!r} has unknown kind {reprlib.repr(kind)}")
        if kind in _KINDS:
            dim = obj.get("dim")
            if not _is_int(dim) or dim <= 0:
                raise StructureParseError(f"object {name!r}: 'dim' must be a positive integer")
            basis = obj.get("basis")
            if not (isinstance(basis, list) and len(basis) == dim
                    and all(isinstance(label, str) for label in basis)):
                raise StructureParseError(f"object {name!r}: 'basis' must list {dim} strings")
        keys = set(obj)
        if keys != _SCHEMAS[kind]:
            missing = _SCHEMAS[kind] - keys
            unknown = keys - _SCHEMAS[kind]
            parts = []
            if missing:
                parts.append(f"missing {sorted(missing)}")
            if unknown:
                parts.append(f"unknown {sorted(unknown)}")
            raise StructureParseError(f"object {name!r} ({kind}): {'; '.join(parts)}")
    return StructureFile(field, objects)


def _is_int(x) -> bool:
    """A JSON integer; ``true``/``false`` are bools, which Python counts as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_field(data) -> Field:
    if data == "Q":
        return Field.rationals()
    if isinstance(data, dict) and set(data) == {"GF"} and _is_int(data["GF"]):
        try:
            return Field.prime(data["GF"])
        except ValueError as exc:
            raise StructureParseError(str(exc)) from exc
    raise StructureParseError(f"bad field descriptor {reprlib.repr(data)}")


def field_to_raw(field: Field):
    return "Q" if field.is_rational else {"GF": field.p}


def parse_field_flag(text: str) -> Field:
    """Parse the --field flag: "Q" or "GF:7"."""
    if text == "Q":
        return Field.rationals()
    if text.startswith("GF:"):
        return Field.prime(int(text[3:]))
    raise ValueError(f"bad field {text!r}: use Q or GF:<p>")


def serialize_structure_file(sf: StructureFile) -> str:
    """The text of ``json.dumps(payload, sort_keys=True, indent=2)`` and a
    newline, written by ``_write_json``."""
    out = []
    _write_json({"field": field_to_raw(sf.field), "objects": sf.raw}, "", out)
    out.append("\n")
    return "".join(out)


_quoted = json.encoder.encode_basestring_ascii


def _write_json(x, indent: str, out: list) -> None:
    """Append to ``out`` the pieces of ``json.dumps(x, sort_keys=True,
    indent=2)`` nested at ``indent``.  With an indent json runs its
    pure-Python encoder; this writer quotes with json's C quoting and joins
    a list of strings, such as a row of coefficients, in one call.  Keys are
    strings, as in any JSON object; a value of another type (a number,
    true, false or null, or an empty list or dict) is left to json itself."""
    inner = indent + "  "
    sep = ",\n" + inner
    if type(x) is str:
        out.append(_quoted(x))
    elif type(x) is list and x and all(type(y) is str for y in x):
        out.append("[\n" + inner + sep.join(map(_quoted, x)) + "\n" + indent + "]")
    elif type(x) is list and x:
        for n, y in enumerate(x):
            out.append(sep if n else "[\n" + inner)
            _write_json(y, inner, out)
        out.append("\n" + indent + "]")
    elif type(x) is dict and x:
        for n, (key, y) in enumerate(sorted(x.items())):
            out.append((sep if n else "{\n" + inner) + _quoted(key) + ": ")
            _write_json(y, inner, out)
        out.append("\n" + indent + "}")
    else:
        out.append(json.dumps(x, sort_keys=True, indent=2).replace("\n", "\n" + indent))


# ---------------------------------------------------------------------------
# raw-dict encoders for in-memory objects

def _encode(part) -> list:
    """A vector, matrix or tensor as nested lists of coefficient strings;
    a matrix or tensor is read off its nonzero fibres, each distinct fibre
    written once."""
    if not isinstance(part, (Matrix, Tensor3)):
        return [str(x) for x in part]
    *dims, width = part.shape
    fibres = getattr(part, "_fibres", None)
    if fibres is None:  # a subclass that holds its entries otherwise is read through ``at``
        fibres = [[(k, part.at(*q, k)) for k in range(width)] for q in product(*map(range, dims))]
    zero, dense, rows = str(part.field.zero()), {}, []
    for fibre in fibres:
        row = dense.get(id(fibre))
        if row is None:
            row = dense[id(fibre)] = [zero] * width
            for k, e in fibre:
                row[k] = str(e)
        rows.append(list(row))
    if isinstance(part, Matrix):
        return rows
    d2 = part.d2
    return [rows[i * d2:(i + 1) * d2] for i in range(part.d1)]


def _raw(kind: str, dim: int, basis, prefix: str, refs: dict, **parts) -> dict:
    """The record of a ``dim``-dimensional object: its references, its basis
    labels (``prefix`` and the index by default) and its parts encoded."""
    return {"kind": kind, **refs, "dim": dim,
            "basis": list(basis) if basis else [f"{prefix}{i}" for i in range(dim)],
            **{key: _encode(part) for key, part in parts.items()}}


def hopf_to_raw(h: HomHopfAlgebra, basis=None) -> dict:
    return _raw("hom_hopf_algebra", h.dim, basis, "b", {}, twist=h.alpha, mult=h.mult,
                unit=h.unit, comult=h.comult, counit=h.counit, antipode=h.antipode)


def comodule_algebra_to_raw(a: ComoduleAlgebra, hopf_name: str, basis=None) -> dict:
    return _raw("comodule_algebra", a.dim, basis, "a", {"hopf": hopf_name},
                twist=a.algebra.alpha, mult=a.algebra.mult, unit=a.algebra.unit,
                coaction=a.coaction)


def module_coalgebra_to_raw(c: ModuleCoalgebra, hopf_name: str, basis=None) -> dict:
    return _raw("module_coalgebra", c.dim, basis, "c", {"hopf": hopf_name},
                twist=c.coalgebra.gamma, comult=c.coalgebra.comult,
                counit=c.coalgebra.counit, action=c.action)


def doi_datum_to_raw(hopf_name: str, algebra_name: str, coalgebra_name: str) -> dict:
    return {"kind": "doi_datum", "hopf": hopf_name, "algebra": algebra_name,
            "coalgebra": coalgebra_name}


def doi_module_to_raw(m: DoiModule, datum_name: str, basis=None) -> dict:
    return _raw("doi_module", m.dim, basis, "m", {"datum": datum_name},
                twist=m.mu, action=m.action, coaction=m.coaction)


def yd_module_to_raw(m: DoiModule, hopf_name: str, basis=None) -> dict:
    return _raw("yd_module", m.dim, basis, "m", {"hopf": hopf_name},
                twist=m.mu, action=m.action, coaction=m.coaction)


def morphism_to_raw(f: Matrix, source: str, target: str) -> dict:
    return {"kind": "morphism", "source": source, "target": target,
            "matrix": _encode(f)}


def integral_to_raw(cand: IntegralCandidate, datum_name: str) -> dict:
    return {"kind": "integral", "datum": datum_name, "theta": _encode(cand.theta)}


def certificate_to_raw(cand: IntegralCandidate, datum_name: str, modules) -> dict:
    return {"kind": "certificate", "datum": datum_name, "theta": _encode(cand.theta),
            "modules": [{"name": name, "retraction_ok": bool(ok)} for name, ok in modules]}
