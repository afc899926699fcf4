#!/usr/bin/env python3
"""Time the construction and normalized-integral solve of Doi data on a fixed ladder.

    python3 scripts/ladder.py [--rungs yd-kZ8-Q,trivial-H4t-GF7] [--repeat 3] [--t4]

Run from anywhere: the checkout's ``src`` is put on ``sys.path``, and only
the package is imported.  A rung is one Doi datum, named
``<kind>-<base>-<field>``:

* kind: ``trivial``, ``relative`` (over the regular comodule algebra) or ``yd``;
* base: ``kZ<n>`` for n = 2..8, ``kZ<n>t`` (twisted along g -> g^k, k the
  least unit of Z_n above 1), ``H4``, ``H4t`` (twisted along x -> 2x),
  ``T3`` (the Taft algebra T_3 at zeta = 2) or ``T4`` (T_4 at zeta = 2);
* field: ``Q`` or ``GF7``; T3 is over GF7 only and T4 over GF5 only.

The T4 rungs are left out unless ``--t4`` is given: their yd system has
135,424 rows and one solve takes seconds to minutes.

For each rung, each layer's time is the least of ``--repeat`` in-process
runs: the datum's construction (``trivial_datum``, ``relative_datum`` or
``yd_datum`` on a Hopf algebra built beforehand); reading the datum back
(``read_s``: ``parse_structure_file`` and ``build`` of the structure file
that ``io``'s encoders write for it, serialized once); ``check_doi_datum``
on it (``check_s``, with the number of axiom instances it checked);
the row builder ``_integral_rows`` alone (``rows_s``: every row and the
layout); ``assemble_integral_system`` (``assemble_s``: the same rows with
every label expanded and both matrices formed); elimination of every row by
the solver's own ``_rref_rows`` (``elim_s``, with the normalization
right-hand side as the last column); ``solve_normalized_integral``;
``verify_integral`` on the answer when an integral exists; then, on the
canonical module A (x) C,
``check_doi_module`` (``module_check_s``, with the number of axiom instances
it checked), ``build_retraction`` followed by ``extract_integral`` when an
integral exists (``retraction_s``), and ``check_triangle_identities`` with
A's regular module as N (``triangle_s``).  Last, ``cli_find_s`` times
``homhopf find-integral <file> D`` run in process through ``cli.main`` on
that structure file, written once to a temporary directory: the whole
command, which reads the datum, checks it as every datum command does,
solves and prints the answer.

The solver builds and eliminates every row only where the theta of the
normalization rows alone fails the direct evaluator, or those rows are
inconsistent: on the other rungs ``rows_s`` and ``elim_s`` time work that
``solve_s`` does not do.  ``eliminated_rows`` says which: the rows of the
solver's last elimination, the normalization rows on the first pass and
every row otherwise.

Sizes come with the times: rows, empty rows (no nonzero left of the
right-hand side), unknowns, nonzeros, the rank of the augmented system,
``eliminated_rows``, the answer kind and the checked instances of both
checks.  Sizes are deterministic; times are not.  One line per rung,
and the last line of stdout is one JSON object.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time
from math import gcd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("trivial", "relative", "yd")


def catalogue(t4: bool) -> dict:
    """rung name -> (kind, base builder, field name)."""
    from homhopf.zoo import (group_algebra, sweedler_h4, taft_algebra,
                             twisted_group_algebra, twisted_sweedler)

    bases = {}
    for n in range(2, 9):
        bases[f"kZ{n}"] = (("Q", "GF7"), lambda f, n=n: group_algebra(n, f))
        units = [k for k in range(2, n) if gcd(k, n) == 1]
        if units:
            bases[f"kZ{n}t"] = (("Q", "GF7"),
                                lambda f, n=n, k=units[0]: twisted_group_algebra(n, k, f))
    bases["H4"] = (("Q", "GF7"), sweedler_h4)
    bases["H4t"] = (("Q", "GF7"), lambda f: twisted_sweedler(f, 2))
    bases["T3"] = (("GF7",), lambda f: taft_algebra(3, 2, f))
    if t4:
        bases["T4"] = (("GF5",), lambda f: taft_algebra(4, 2, f))
    return {f"{kind}-{base}-{fname}": (kind, build, fname)
            for base, (fnames, build) in bases.items() for fname in fnames for kind in KINDS}


def datum_thunk(kind: str, build, fname: str):
    """A function that builds the rung's datum from its Hopf algebra, which is
    built here, once."""
    from homhopf.applications import (regular_comodule_algebra, relative_datum,
                                      trivial_datum, yd_datum)
    from homhopf.linalg import Field

    h = build(Field.rationals() if fname == "Q" else Field.prime(int(fname[2:])))
    if kind == "yd":
        return lambda: yd_datum(h)
    if kind == "relative":
        return lambda: relative_datum(h, regular_comodule_algebra(h))
    return lambda: trivial_datum(h)


def datum_text(d) -> str:
    """The structure file of the datum ``d``: its Hopf algebra H, comodule
    algebra A, module coalgebra C and the datum D."""
    from homhopf.io import (StructureFile, comodule_algebra_to_raw, doi_datum_to_raw,
                            hopf_to_raw, module_coalgebra_to_raw, serialize_structure_file)

    raw = {"H": hopf_to_raw(d.hopf), "A": comodule_algebra_to_raw(d.algebra, "H"),
           "C": module_coalgebra_to_raw(d.coalgebra, "H"), "D": doi_datum_to_raw("H", "A", "C")}
    return serialize_structure_file(StructureFile(d.field, raw))


def best(fn, repeat: int) -> tuple:
    """(least seconds over ``repeat`` calls of ``fn``, the last call's result)."""
    least = None
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn()
        took = time.perf_counter() - start
        least = took if least is None else min(least, took)
    return least, out


def eliminated_rows(d) -> int:
    """The number of rows in the last elimination of one solve of ``d``, read
    by a spy on the solver's ``_rref_rows`` outside the timed runs."""
    from homhopf import integrals

    rref, seen = integrals._rref_rows, []
    integrals._rref_rows = lambda rows, field: seen.append(len(rows)) or rref(rows, field)
    try:
        integrals.solve_normalized_integral(d)
    finally:
        integrals._rref_rows = rref
    return seen[-1]


def time_find_integral(text: str, repeat: int) -> float:
    """The least time of ``repeat`` in-process ``find-integral <file> D`` runs
    on the structure file ``text``, written beforehand; its output is dropped."""
    from homhopf.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "datum.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()):
            took, code = best(lambda: main(["find-integral", path, "D"]), repeat)
    if code not in (0, 3):  # an integral or none: anything else is not the command's work
        raise SystemExit(f"find-integral exited {code} on a ladder datum")
    return took


def measure(build_datum, repeat: int) -> dict:
    from homhopf.doi import check_doi_datum, check_doi_module, check_triangle_identities
    from homhopf.integrals import (IntegralCandidate, _integral_rows, assemble_integral_system,
                                   solve_normalized_integral, verify_integral)
    from homhopf.io import parse_structure_file
    from homhopf.linalg import _rref_rows
    from homhopf.maschke import build_retraction, canonical_module, extract_integral
    from homhopf.zoo import regular_module

    datum_s, d = best(build_datum, repeat)
    text = datum_text(d)
    read_s = best(lambda: parse_structure_file(text).build("D"), repeat)[0]
    check_s, report = best(lambda: check_doi_datum(d), repeat)
    assemble_s, system = best(lambda: assemble_integral_system(d), repeat)
    nunk = system.unknown_count
    del system  # the T4 rungs hold one system at a time
    rows_s, (rows, _) = best(lambda: _integral_rows(d), repeat)
    # the affine rows hold their right-hand sides at column nunk
    sizes = {"rows": len(rows), "empty_rows": sum(all(c == nunk for c in row) for row in rows),
             "unknowns": nunk, "nnz": sum(len(row) - (nunk in row) for row in rows)}
    elim_s, (_, pivots, _) = best(lambda: _rref_rows(rows, d.field), repeat)
    del rows
    sizes["eliminated_rows"] = eliminated_rows(d)
    solve_s, answer = best(lambda: solve_normalized_integral(d), repeat)
    feasible = isinstance(answer, IntegralCandidate)
    verify_s = best(lambda: verify_integral(answer, d), repeat)[0] if feasible else None
    n = regular_module(d.algebra.algebra)
    m = canonical_module(d)
    module_check_s, module_report = best(lambda: check_doi_module(m, d), repeat)
    retraction_s = best(lambda: extract_integral(build_retraction(answer, m, d), d),
                        repeat)[0] if feasible else None
    triangle_s = best(lambda: check_triangle_identities(d, m, n), repeat)[0]
    cli_find_s = time_find_integral(text, repeat)
    times = {"datum_s": datum_s, "read_s": read_s, "check_s": check_s, "rows_s": rows_s,
             "assemble_s": assemble_s, "elim_s": elim_s, "solve_s": solve_s, "verify_s": verify_s,
             "module_check_s": module_check_s, "retraction_s": retraction_s,
             "triangle_s": triangle_s, "cli_find_s": cli_find_s}
    return {**sizes, "rank": len(pivots), "answer": "feasible" if feasible else "infeasible",
            "checked": report.checked, "module_checked": module_report.checked,
            **{k: None if t is None else round(t, 6) for k, t in times.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rungs", help="comma-separated rung names (default: every rung)")
    parser.add_argument("--repeat", type=int, default=3, help="runs per layer; the least counts")
    parser.add_argument("--t4", action="store_true", help="include the T4 rungs over GF5")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    rungs = catalogue(args.t4)
    names = args.rungs.split(",") if args.rungs else list(rungs)
    unknown = [n for n in names if n not in rungs]
    if unknown:
        hint = " (T4 rungs need --t4)" if any("-T4-" in n for n in unknown) else ""
        parser.error(f"unknown rungs {', '.join(unknown)}{hint}")

    results = {}
    for name in names:
        r = results[name] = measure(datum_thunk(*rungs[name]), args.repeat)
        verify, retraction = ("-" if r[k] is None else f"{r[k]:.4f} s"
                              for k in ("verify_s", "retraction_s"))
        print(f"{name}: {r['rows']} rows ({r['empty_rows']} empty), {r['unknowns']} unknowns, "
              f"{r['nnz']} nonzeros, rank {r['rank']}, {r['answer']} after eliminating "
              f"{r['eliminated_rows']} rows; datum "
              f"{r['datum_s']:.4f} s, read {r['read_s']:.4f} s, check {r['check_s']:.4f} s "
              f"({r['checked']} instances), rows {r['rows_s']:.4f} s, assemble "
              f"{r['assemble_s']:.4f} s, elimination {r['elim_s']:.4f} s, solve {r['solve_s']:.4f} s, verify {verify}, module check "
              f"{r['module_check_s']:.4f} s ({r['module_checked']} instances), "
              f"retraction {retraction}, triangles {r['triangle_s']:.4f} s, find-integral "
              f"{r['cli_find_s']:.4f} s", flush=True)
    print(json.dumps({"repeat": args.repeat, "rungs": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
