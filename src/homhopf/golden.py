"""Built-in golden structure files, keyed by name.

Each entry assembles a complete, parseable structure file from the zoo.
Corrupted variants are included so check failures can be exercised end to
end; their names say what is broken.
"""

from __future__ import annotations

from dataclasses import replace

from .applications import (comodule_to_doi, regular_comodule_algebra, relative_datum,
                           trivial_datum, trivial_yd_module, yd_datum)
from .doi import direct_sum_doi
from .io import (StructureFile, comodule_algebra_to_raw, doi_datum_to_raw,
                 doi_module_to_raw, hopf_to_raw, module_coalgebra_to_raw,
                 morphism_to_raw, yd_module_to_raw)
from .linalg import Field, Matrix, Tensor3
from .zoo import (group_algebra, inclusion_matrix, projection_matrix,
                  regular_comodule, sweedler_h4, trivial_comodule,
                  twisted_group_algebra, twisted_sweedler)

GROUP_BASIS = {n: ["1"] + [f"g{'' if i == 1 else i}" for i in range(1, n)] for n in (2, 3, 4, 6)}
H4_BASIS = ["1", "g", "x", "gx"]


def _hopf_file(h, basis):
    return {"H": hopf_to_raw(h, basis)}


def _trivial_datum_objects(h, hopf_basis):
    d = trivial_datum(h)
    objs = {
        "k": hopf_to_raw(d.hopf, ["1"]),
        "A": comodule_algebra_to_raw(d.algebra, "k", ["1"]),
        "C": module_coalgebra_to_raw(d.coalgebra, "k", hopf_basis),
        "D": doi_datum_to_raw("k", "A", "C"),
    }
    return d, objs


def _relative_datum_objects(h, basis):
    d = relative_datum(h, regular_comodule_algebra(h))
    return {
        "H": hopf_to_raw(h, basis),
        "A": comodule_algebra_to_raw(d.algebra, "H", basis),
        "C": module_coalgebra_to_raw(d.coalgebra, "H", basis),
        "D": doi_datum_to_raw("H", "A", "C"),
    }


def _yd_datum_objects(h, basis):
    d = yd_datum(h)
    pair_basis = [f"{u}|{v}" for u in basis for v in basis]
    return {
        "T": hopf_to_raw(d.hopf, pair_basis),
        "A": comodule_algebra_to_raw(d.algebra, "T", basis),
        "C": module_coalgebra_to_raw(d.coalgebra, "T", basis),
        "D": doi_datum_to_raw("T", "A", "C"),
        "H": hopf_to_raw(h, basis),
        "M_trivial": yd_module_to_raw(trivial_yd_module(h), "H", ["1"]),
    }


def _maschke_split_objects(field: Field):
    h = group_algebra(2, field)
    d, objs = _trivial_datum_objects(h, GROUP_BASIS[2])
    regular = comodule_to_doi(regular_comodule(h.as_coalgebra()), d)
    trivial = comodule_to_doi(trivial_comodule(h), d)
    big = direct_sum_doi(regular, trivial)
    objs["M"] = doi_module_to_raw(big, "D", ["1", "g", "t"])
    objs["N"] = doi_module_to_raw(regular, "D", GROUP_BASIS[2])
    objs["f"] = morphism_to_raw(projection_matrix(field, 3, 0, 2), "M", "N")
    objs["g"] = morphism_to_raw(inclusion_matrix(field, 3, 0, 2), "N", "M")
    return objs


def _corrupt_group_mult(field: Field):
    # 1.1 = g instead of 1: breaks the unit axiom at the first basis vector
    one, zero = field.one(), field.zero()
    mult = Tensor3.from_nested(field, [[[zero, one], [zero, one]],
                                       [[zero, one], [one, zero]]])
    return _hopf_file(replace(group_algebra(2, field), mult=mult), GROUP_BASIS[2])


def _corrupt_h4_antipode(field: Field):
    # S(x) = +gx instead of -gx: breaks the antipode convolution at x
    bad = Matrix.from_rows(field, [[1, 0, 0, 0], [0, 1, 0, 0],
                                   [0, 0, 0, 1], [0, 0, 1, 0]])
    return _hopf_file(replace(sweedler_h4(field), antipode=bad), H4_BASIS)


def golden_names() -> list:
    return sorted(_BUILDERS)


def golden_file(name: str, field: Field) -> StructureFile:
    if name not in _BUILDERS:
        raise ValueError(f"unknown example {name!r}; available: {', '.join(golden_names())}")
    return StructureFile(field, _BUILDERS[name](field))


_BUILDERS = {
    "kZ2": lambda f: _hopf_file(group_algebra(2, f), GROUP_BASIS[2]),
    "kZ3": lambda f: _hopf_file(group_algebra(3, f), GROUP_BASIS[3]),
    "kZ4": lambda f: _hopf_file(group_algebra(4, f), GROUP_BASIS[4]),
    "kZ6": lambda f: _hopf_file(group_algebra(6, f), GROUP_BASIS[6]),
    "kZ3_twisted": lambda f: _hopf_file(twisted_group_algebra(3, 2, f), GROUP_BASIS[3]),
    "kZ4_twisted": lambda f: _hopf_file(twisted_group_algebra(4, 3, f), GROUP_BASIS[4]),
    "kZ6_twisted": lambda f: _hopf_file(twisted_group_algebra(6, 5, f), GROUP_BASIS[6]),
    "H4": lambda f: _hopf_file(sweedler_h4(f), H4_BASIS),
    "H4_twisted": lambda f: _hopf_file(twisted_sweedler(f, 2), H4_BASIS),
    "kZ2_corrupted_mult": _corrupt_group_mult,
    "H4_corrupted_antipode": _corrupt_h4_antipode,
    "kZ2_trivial_datum": lambda f: _trivial_datum_objects(group_algebra(2, f), GROUP_BASIS[2])[1],
    "kZ4_trivial_datum": lambda f: _trivial_datum_objects(group_algebra(4, f), GROUP_BASIS[4])[1],
    "H4_trivial_datum": lambda f: _trivial_datum_objects(sweedler_h4(f), H4_BASIS)[1],
    "kZ2_relative_datum": lambda f: _relative_datum_objects(group_algebra(2, f), GROUP_BASIS[2]),
    "H4_twisted_relative_datum": lambda f: _relative_datum_objects(twisted_sweedler(f, 2), H4_BASIS),
    "yd_kZ2": lambda f: _yd_datum_objects(group_algebra(2, f), GROUP_BASIS[2]),
    "maschke_split_kZ2": _maschke_split_objects,
}
