"""Structure files: a strict, canonical, JSON-compatible text format.

A file holds one coefficient field and a dictionary of named objects; every
scalar is serialized as a string ("3/2", "5") so no numeric precision is
involved.  Serialization is canonical (sorted keys, two-space indent,
lowest-terms rationals, trailing newline) so parse . serialize is the
identity on emitted files byte for byte.  Unknown keys are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .core import (HomAlgebra, HomCoalgebra, HomComodule, HomHopfAlgebra,
                   HomModule)
from .doi import ComoduleAlgebra, DoiDatum, DoiModule, ModuleCoalgebra
from .integrals import IntegralCandidate
from .linalg import Field, Matrix, Tensor3


class StructureParseError(ValueError):
    pass


_SCHEMAS = {
    "hom_hopf_algebra": {"kind", "dim", "basis", "twist", "mult", "unit",
                         "comult", "counit", "antipode"},
    "hom_algebra": {"kind", "dim", "basis", "twist", "mult", "unit"},
    "hom_coalgebra": {"kind", "dim", "basis", "twist", "comult", "counit"},
    "hom_module": {"kind", "algebra", "dim", "basis", "twist", "action"},
    "hom_comodule": {"kind", "coalgebra", "dim", "basis", "twist", "coaction"},
    "comodule_algebra": {"kind", "hopf", "dim", "basis", "twist", "mult",
                         "unit", "coaction"},
    "module_coalgebra": {"kind", "hopf", "dim", "basis", "twist", "comult",
                         "counit", "action"},
    "doi_datum": {"kind", "hopf", "algebra", "coalgebra"},
    "doi_module": {"kind", "datum", "dim", "basis", "twist", "action", "coaction"},
    "yd_module": {"kind", "hopf", "dim", "basis", "twist", "action", "coaction"},
    "morphism": {"kind", "source", "target", "matrix"},
    "integral": {"kind", "datum", "theta"},
    "certificate": {"kind", "datum", "theta", "modules"},
}


@dataclass
class StructureFile:
    field: Field
    raw: dict
    _built: dict = dc_field(default_factory=dict)

    def names(self):
        return sorted(self.raw)

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
        builder = getattr(self, f"_build_{kind}", None)
        if builder is None:
            raise StructureParseError(f"object {name!r} has unsupported kind {kind!r}")
        built = builder(obj, stack)
        self._built[name] = built
        return built

    # -- per-kind builders ------------------------------------------------
    def _ref(self, obj: dict, key: str, stack: tuple, kinds: tuple):
        name = obj[key]
        if not isinstance(name, str):
            raise StructureParseError(f"reference {key!r} must be a name")
        target_kind = self.kind_of(name)
        if target_kind not in kinds:
            raise StructureParseError(
                f"{key!r} must reference one of {kinds}, got {target_kind!r}")
        return self.build(name, stack)

    def _build_hom_hopf_algebra(self, obj, stack):
        n = obj["dim"]
        return HomHopfAlgebra(self.field, n, _matrix(self.field, obj["twist"], n, n),
                              _tensor(self.field, obj["mult"], n, n, n),
                              _vector(self.field, obj["unit"], n),
                              _tensor(self.field, obj["comult"], n, n, n),
                              _vector(self.field, obj["counit"], n),
                              _matrix(self.field, obj["antipode"], n, n))

    def _build_hom_algebra(self, obj, stack):
        n = obj["dim"]
        return HomAlgebra(self.field, n, _matrix(self.field, obj["twist"], n, n),
                          _tensor(self.field, obj["mult"], n, n, n),
                          _vector(self.field, obj["unit"], n))

    def _build_hom_coalgebra(self, obj, stack):
        n = obj["dim"]
        return HomCoalgebra(self.field, n, _matrix(self.field, obj["twist"], n, n),
                            _tensor(self.field, obj["comult"], n, n, n),
                            _vector(self.field, obj["counit"], n))

    def _build_hom_module(self, obj, stack):
        a = self._ref(obj, "algebra", stack, ("hom_algebra", "hom_hopf_algebra"))
        n = obj["dim"]
        return HomModule(self.field, n, _matrix(self.field, obj["twist"], n, n),
                         _tensor(self.field, obj["action"], n, a.dim, n))

    def _build_hom_comodule(self, obj, stack):
        c = self._ref(obj, "coalgebra", stack, ("hom_coalgebra", "hom_hopf_algebra"))
        n = obj["dim"]
        return HomComodule(self.field, n, _matrix(self.field, obj["twist"], n, n),
                           _tensor(self.field, obj["coaction"], n, n, c.dim))

    def _build_comodule_algebra(self, obj, stack):
        h = self._ref(obj, "hopf", stack, ("hom_hopf_algebra",))
        n = obj["dim"]
        alg = HomAlgebra(self.field, n, _matrix(self.field, obj["twist"], n, n),
                         _tensor(self.field, obj["mult"], n, n, n),
                         _vector(self.field, obj["unit"], n))
        return ComoduleAlgebra(alg, _tensor(self.field, obj["coaction"], n, n, h.dim))

    def _build_module_coalgebra(self, obj, stack):
        h = self._ref(obj, "hopf", stack, ("hom_hopf_algebra",))
        n = obj["dim"]
        coalg = HomCoalgebra(self.field, n, _matrix(self.field, obj["twist"], n, n),
                             _tensor(self.field, obj["comult"], n, n, n),
                             _vector(self.field, obj["counit"], n))
        return ModuleCoalgebra(coalg, _tensor(self.field, obj["action"], n, h.dim, n))

    def _build_doi_datum(self, obj, stack):
        h = self._ref(obj, "hopf", stack, ("hom_hopf_algebra",))
        a = self._ref(obj, "algebra", stack, ("comodule_algebra",))
        c = self._ref(obj, "coalgebra", stack, ("module_coalgebra",))
        return DoiDatum(h, a, c)

    def _build_doi_module(self, obj, stack):
        d = self._ref(obj, "datum", stack, ("doi_datum",))
        return self._doi_module(obj, d.algebra.dim, d.coalgebra.dim)

    def _build_yd_module(self, obj, stack):
        # a Yetter-Drinfeld module is a Doi module over yd_datum(H): A = C = H
        h = self._ref(obj, "hopf", stack, ("hom_hopf_algebra",))
        return self._doi_module(obj, h.dim, h.dim)

    def _doi_module(self, obj, dim_a: int, dim_c: int) -> DoiModule:
        n = obj["dim"]
        return DoiModule(self.field, n, _matrix(self.field, obj["twist"], n, n),
                         _tensor(self.field, obj["action"], n, dim_a, n),
                         _tensor(self.field, obj["coaction"], n, n, dim_c))

    def _build_morphism(self, obj, stack):
        rows = obj["matrix"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise StructureParseError("a morphism's 'matrix' must be a list of rows")
        return Matrix.from_rows(self.field,
                                [[_scalar(self.field, x) for x in row] for row in rows])

    def _build_integral(self, obj, stack):
        d = self._ref(obj, "datum", stack, ("doi_datum",))
        theta = _tensor(self.field, obj["theta"], d.coalgebra.dim, d.coalgebra.dim,
                        d.algebra.dim)
        return IntegralCandidate(self.field, d.coalgebra.dim, d.algebra.dim, theta)

    def _build_certificate(self, obj, stack):
        return self._build_integral({"kind": "integral", "datum": obj["datum"],
                                     "theta": obj["theta"]}, stack)


def _vector(field: Field, data, n: int) -> tuple:
    if not isinstance(data, list) or len(data) != n:
        raise StructureParseError(f"expected a vector of length {n}")
    return tuple(_scalar(field, x) for x in data)


def _matrix(field: Field, data, rows: int, cols: int) -> Matrix:
    if not isinstance(data, list) or len(data) != rows:
        raise StructureParseError(f"expected a {rows}x{cols} matrix")
    flat = []
    for row in data:
        if not isinstance(row, list) or len(row) != cols:
            raise StructureParseError(f"expected a {rows}x{cols} matrix")
        flat.extend(_scalar(field, x) for x in row)
    return Matrix(field, rows, cols, tuple(flat))


def _tensor(field: Field, data, d1: int, d2: int, d3: int) -> Tensor3:
    if not isinstance(data, list) or len(data) != d1:
        raise StructureParseError(f"expected a {d1}x{d2}x{d3} tensor")
    flat = []
    for plane in data:
        if not isinstance(plane, list) or len(plane) != d2:
            raise StructureParseError(f"expected a {d1}x{d2}x{d3} tensor")
        for row in plane:
            if not isinstance(row, list) or len(row) != d3:
                raise StructureParseError(f"expected a {d1}x{d2}x{d3} tensor")
            flat.extend(_scalar(field, x) for x in row)
    return Tensor3(field, d1, d2, d3, tuple(flat))


def _scalar(field: Field, x):
    if not isinstance(x, str):
        raise StructureParseError(f"coefficients must be strings, got {x!r}")
    try:
        return field.of(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise StructureParseError(f"bad coefficient {x!r}: {exc}") from exc


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
            raise StructureParseError(f"object {name!r} has unknown kind {kind!r}")
        if "dim" in _SCHEMAS[kind]:
            dim = obj.get("dim")
            if not _is_int(dim) or dim <= 0:
                raise StructureParseError(f"object {name!r}: 'dim' must be a positive integer")
            basis = obj.get("basis")
            if not isinstance(basis, list) or len(basis) != dim:
                raise StructureParseError(f"object {name!r}: 'basis' must list {dim} labels")
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
    raise StructureParseError(f"bad field descriptor {data!r}")


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
    payload = {"field": field_to_raw(sf.field), "objects": sf.raw}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# raw-dict encoders for in-memory objects

def _svec(v) -> list:
    return [str(x) for x in v]

def _smat(m: Matrix) -> list:
    return [_svec(m.row(r)) for r in range(m.rows)]

def _stensor(t: Tensor3) -> list:
    return [[[str(t.at(i, j, k)) for k in range(t.d3)]
             for j in range(t.d2)] for i in range(t.d1)]


def hopf_to_raw(h: HomHopfAlgebra, basis=None) -> dict:
    return {"kind": "hom_hopf_algebra", "dim": h.dim,
            "basis": list(basis) if basis else [f"b{i}" for i in range(h.dim)],
            "twist": _smat(h.alpha), "mult": _stensor(h.mult), "unit": _svec(h.unit),
            "comult": _stensor(h.comult), "counit": _svec(h.counit),
            "antipode": _smat(h.antipode)}


def comodule_algebra_to_raw(a: ComoduleAlgebra, hopf_name: str, basis=None) -> dict:
    return {"kind": "comodule_algebra", "hopf": hopf_name, "dim": a.dim,
            "basis": list(basis) if basis else [f"a{i}" for i in range(a.dim)],
            "twist": _smat(a.algebra.alpha), "mult": _stensor(a.algebra.mult),
            "unit": _svec(a.algebra.unit), "coaction": _stensor(a.coaction)}


def module_coalgebra_to_raw(c: ModuleCoalgebra, hopf_name: str, basis=None) -> dict:
    return {"kind": "module_coalgebra", "hopf": hopf_name, "dim": c.dim,
            "basis": list(basis) if basis else [f"c{i}" for i in range(c.dim)],
            "twist": _smat(c.coalgebra.gamma), "comult": _stensor(c.coalgebra.comult),
            "counit": _svec(c.coalgebra.counit), "action": _stensor(c.action)}


def doi_datum_to_raw(hopf_name: str, algebra_name: str, coalgebra_name: str) -> dict:
    return {"kind": "doi_datum", "hopf": hopf_name, "algebra": algebra_name,
            "coalgebra": coalgebra_name}


def doi_module_to_raw(m: DoiModule, datum_name: str, basis=None) -> dict:
    return _module_to_raw(m, "doi_module", "datum", datum_name, basis)


def yd_module_to_raw(m: DoiModule, hopf_name: str, basis=None) -> dict:
    return _module_to_raw(m, "yd_module", "hopf", hopf_name, basis)


def _module_to_raw(m: DoiModule, kind: str, key: str, ref: str, basis) -> dict:
    return {"kind": kind, key: ref, "dim": m.dim,
            "basis": list(basis) if basis else [f"m{i}" for i in range(m.dim)],
            "twist": _smat(m.mu), "action": _stensor(m.action),
            "coaction": _stensor(m.coaction)}


def morphism_to_raw(f: Matrix, source: str, target: str) -> dict:
    return {"kind": "morphism", "source": source, "target": target,
            "matrix": _smat(f)}


def integral_to_raw(cand: IntegralCandidate, datum_name: str) -> dict:
    return {"kind": "integral", "datum": datum_name, "theta": _stensor(cand.theta)}


def certificate_to_raw(cand: IntegralCandidate, datum_name: str, modules) -> dict:
    return {"kind": "certificate", "datum": datum_name, "theta": _stensor(cand.theta),
            "modules": [{"name": name, "retraction_ok": bool(ok)} for name, ok in modules]}
