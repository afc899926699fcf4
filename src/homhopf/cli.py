"""Command-line surface.

Exit codes are a stable contract: 0 success, 1 check failure, 2 parse or
usage error, 3 infeasible.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .applications import check_yd_module, check_yd_substructures
from .core import (HomHopfAlgebra, check_hom_algebra, check_hom_coalgebra,
                   check_hom_comodule, check_hom_hopf, check_hom_module, yau_twist)
from .doi import (check_comodule_algebra, check_doi_datum, check_doi_module,
                  check_module_coalgebra)
from .golden import golden_file, golden_names
from .integrals import Infeasible, solve_normalized_integral, verify_integral
from .io import (StructureFile, StructureParseError, certificate_to_raw,
                 hopf_to_raw, integral_to_raw, morphism_to_raw,
                 parse_field_flag, parse_structure_file,
                 serialize_structure_file)
from .maschke import separability_report, split_epimorphism
from .report import AxiomReport, ConstructionError, require

OK, CHECK_FAILED, USAGE = 0, 1, 2
INFEASIBLE = 3


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StructureParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(exc.report.format(), file=sys.stderr)
        return CHECK_FAILED
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: a parse leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="homhopf",
        description="Exact checks, integrals and splittings for monoidal "
                    "Hom-Hopf structures.")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("check", help="run the appropriate axiom checker on a named object")
    p.add_argument("path")
    p.add_argument("object")
    p.add_argument("--verbose", action="store_true", help="print every residual")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("find-integral", help="solve for a normalized integral of a datum")
    p.add_argument("path")
    p.add_argument("datum")
    p.add_argument("--out", help="write theta as a structure file")
    p.set_defaults(fn=cmd_find_integral)

    p = sub.add_parser("certify", help="integral plus verified retractions on modules")
    p.add_argument("path")
    p.add_argument("datum")
    p.add_argument("modules", nargs="+")
    p.add_argument("--out", help="write the certificate as a structure file")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("split", help="upgrade an A-linear section to the Doi category")
    p.add_argument("path")
    p.add_argument("datum")
    p.add_argument("f", help="name of the epimorphism")
    p.add_argument("g", help="name of its A-linear section")
    p.add_argument("--out", help="write the section as a structure file")
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("twist", help="twist a classical Hopf algebra along an automorphism")
    p.add_argument("path")
    p.add_argument("hopf")
    p.add_argument("automorphism", help="name of a morphism object")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("examples", help="emit a built-in golden structure file")
    p.add_argument("name", nargs="?", help="example name; omit to list")
    p.add_argument("--field", default="Q", help="Q (default) or GF:<p>")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=cmd_examples)
    return parser


def _load(path: str) -> StructureFile:
    with open(path, encoding="utf-8") as fh:
        return parse_structure_file(fh.read())


def _require_kind(sf: StructureFile, name: str, kind: str, role: str) -> None:
    """Usage error unless object ``name`` exists and has the given kind."""
    actual = sf.kind_of(name)
    if actual != kind:
        raise StructureParseError(f"{role} {name!r} is a {actual}; expected a {kind}")


def _require_module(sf: StructureFile, name: str, datum: str, role: str) -> None:
    """Usage error unless object ``name`` is a Doi module over the datum ``datum``."""
    _require_kind(sf, name, "doi_module", role)
    over = sf.raw[name]["datum"]
    if over != datum:
        raise StructureParseError(
            f"{role} {name!r} is over {over!r}; expected a module over the datum {datum!r}")


def _require_morphism(sf: StructureFile, name: str, datum: str, role: str) -> None:
    """A morphism whose source and target are Doi modules over the datum
    ``datum`` in the same file."""
    _require_kind(sf, name, "morphism", role)
    for end in ("source", "target"):
        ref = sf.raw[name][end]
        if not isinstance(ref, str) or ref not in sf.raw:
            raise StructureParseError(
                f"{role} {name!r}: {end} {ref!r} is not an object in the file")
        _require_module(sf, ref, datum, f"{end} of {name!r}")


def _morphism_matrix(sf: StructureFile, name: str, role: str):
    """The matrix of morphism ``name``, which must be dim(target) x dim(source)."""
    raw = sf.raw[name]
    matrix = sf.build(name)
    rows, cols = sf.raw[raw["target"]]["dim"], sf.raw[raw["source"]]["dim"]
    if (matrix.rows, matrix.cols) != (rows, cols):
        raise StructureParseError(
            f"{role} {name!r} is a {matrix.rows}x{matrix.cols} matrix; a map from "
            f"{raw['source']!r} to {raw['target']!r} needs {rows}x{cols}")
    return matrix


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_with(sf: StructureFile, out: str | None, name: str, record) -> None:
    """With ``--out``, write the file read with one more object, ``name``,
    whose record ``record()`` makes."""
    if out:
        extended = StructureFile(sf.field, {**sf.raw, name: record()})
        _emit(serialize_structure_file(extended), out)


def _datum(sf: StructureFile, name: str):
    """The Doi datum ``name``, built and checked, as every command that reads
    a datum assumes it: check_doi_datum with A's and C's own laws merged in."""
    _require_kind(sf, name, "doi_datum", "datum")
    datum = sf.build(name)
    require(check_doi_datum(datum).merged(check_hom_algebra(datum.algebra.algebra))
            .merged(check_hom_coalgebra(datum.coalgebra.coalgebra)),
            f"{name!r} is not a valid Doi datum")
    return datum


#: kind -> (the key of the object it is checked against, or None; checker);
#: a Hopf algebra that modules or comodules reference is checked as its
#: algebra or coalgebra
_CHECKERS = {
    "hom_hopf_algebra": (None, check_hom_hopf),
    "hom_algebra": (None, check_hom_algebra),
    "hom_coalgebra": (None, check_hom_coalgebra),
    "doi_datum": (None, check_doi_datum),
    "hom_module": ("algebra", lambda m, a: check_hom_module(
        m, a.as_algebra() if isinstance(a, HomHopfAlgebra) else a)),
    "hom_comodule": ("coalgebra", lambda m, c: check_hom_comodule(
        m, c.as_coalgebra() if isinstance(c, HomHopfAlgebra) else c)),
    "comodule_algebra": ("hopf", check_comodule_algebra),
    "module_coalgebra": ("hopf", check_module_coalgebra),
    "doi_module": ("datum", check_doi_module),
    "yd_module": ("hopf", lambda m, h: check_yd_substructures(m, h).merged(
        check_yd_module(m, h))),
    "integral": ("datum", verify_integral),
}


def _check_object(sf: StructureFile, name: str) -> AxiomReport:
    kind = sf.kind_of(name)
    if kind not in _CHECKERS:
        raise ValueError(f"objects of kind {kind!r} have no checker")
    ref, checker = _CHECKERS[kind]
    obj = sf.build(name)
    return checker(obj) if ref is None else checker(obj, sf.build(sf.raw[name][ref]))


def cmd_check(args) -> int:
    sf = _load(args.path)
    report = _check_object(sf, args.object)
    print(f"{args.object}: {report.format(labels=sf.labels(args.object), verbose=args.verbose)}")
    return OK if report.passed else CHECK_FAILED


def cmd_find_integral(args) -> int:
    sf = _load(args.path)
    result = solve_normalized_integral(_datum(sf, args.datum))
    if isinstance(result, Infeasible):
        print(result.message())
        return INFEASIBLE
    labels_c = sf.labels(sf.raw[args.datum]["coalgebra"])
    labels_a = sf.labels(sf.raw[args.datum]["algebra"])
    print(f"normalized integral for {args.datum} "
          f"({result.report.checked} conditions verified):")
    for i in range(result.dim_c):
        for j in range(result.dim_c):
            coeffs = [str(result.theta.at(i, j, k)) for k in range(result.dim_a)]
            if any(c != "0" for c in coeffs):
                val = " + ".join(f"{c}*{labels_a[k]}" for k, c in enumerate(coeffs) if c != "0")
                print(f"  theta({labels_c[i]} (x) {labels_c[j]}) = {val}")
    _emit_with(sf, args.out, "theta", lambda: integral_to_raw(result, args.datum))
    return OK


def cmd_certify(args) -> int:
    sf = _load(args.path)
    datum = _datum(sf, args.datum)
    for name in args.modules:
        _require_module(sf, name, args.datum, "module")
    modules = [(name, sf.build(name)) for name in args.modules]
    result = separability_report(datum, modules)
    if isinstance(result, Infeasible):
        print(result.message())
        return INFEASIBLE
    for name, ok in result.checked_modules:
        print(f"retraction on {name}: {'verified' if ok else 'FAILED'}")
    _emit_with(sf, args.out, "certificate", lambda: certificate_to_raw(
        result.theta, args.datum, result.checked_modules))
    return OK if result.all_passed else CHECK_FAILED


def cmd_split(args) -> int:
    sf = _load(args.path)
    datum = _datum(sf, args.datum)
    _require_morphism(sf, args.f, args.datum, "f")
    _require_morphism(sf, args.g, args.datum, "g")
    f_raw, g_raw = sf.raw[args.f], sf.raw[args.g]
    if (g_raw["source"], g_raw["target"]) != (f_raw["target"], f_raw["source"]):
        raise StructureParseError(
            f"g {args.g!r} maps {g_raw['source']!r} to {g_raw['target']!r}; a section "
            f"of {args.f!r} must map {f_raw['target']!r} to {f_raw['source']!r}")
    src = sf.build(f_raw["source"])
    dst = sf.build(f_raw["target"])
    f = _morphism_matrix(sf, args.f, "f")
    g = _morphism_matrix(sf, args.g, "g")
    theta = solve_normalized_integral(datum)
    if isinstance(theta, Infeasible):
        print(theta.message())
        return INFEASIBLE
    section = split_epimorphism(f, g, src, dst, theta, datum)
    print(f"verified section of {args.f} found")
    _emit_with(sf, args.out, "section",
               lambda: morphism_to_raw(section, f_raw["target"], f_raw["source"]))
    return OK


def cmd_twist(args) -> int:
    sf = _load(args.path)
    _require_kind(sf, args.hopf, "hom_hopf_algebra", "hopf")
    _require_kind(sf, args.automorphism, "morphism", "automorphism")
    for end in ("source", "target"):  # the automorphism maps H to H
        if (ref := sf.raw[args.automorphism][end]) != args.hopf:
            raise StructureParseError(f"automorphism {args.automorphism!r}: {end} {ref!r} "
                                      f"is not the Hopf algebra {args.hopf!r}")
    hopf = sf.build(args.hopf)
    auto = sf.build(args.automorphism)
    twisted = yau_twist(hopf, auto)
    out = StructureFile(sf.field, {args.hopf + "_twisted":
                                   hopf_to_raw(twisted, sf.labels(args.hopf))})
    _emit(serialize_structure_file(out), args.out)
    return OK


def cmd_examples(args) -> int:
    if not args.name:
        print("\n".join(golden_names()))
        return OK
    field = parse_field_flag(args.field)
    sf = golden_file(args.name, field)
    _emit(serialize_structure_file(sf), args.out)
    return OK


if __name__ == "__main__":
    sys.exit(main())
