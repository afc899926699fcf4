"""Answer checks that do not trust the code under test.

* ``serialized`` writes a result with the program's own structure-file
  encoders (``homhopf.io``); its sha256 is compared with the digest recorded
  at the seed commit, so a change in output bytes (including a different but
  valid pivot choice) fails the job, while a change of in-memory layout that
  keeps the bytes does not.  An ``Infeasible`` certificate has no file
  encoding; ``canon`` writes its labels and scalars.
* ``certificate_problems`` re-checks an ``Infeasible`` certificate with this
  file's own exact arithmetic on Python ints and fractions: every
  ``combination`` label is mapped to its row of ``assemble_integral_system``
  and the combination must cancel every unknown but not the right-hand side.
* ``section_problems`` checks ``f @ s == I`` with the same arithmetic.
* Feasible integrals are re-verified with ``verify_integral``, the direct
  evaluator, which shares no code with the assembler that the solver uses.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from homhopf import io as hio
from homhopf.core import HomHopfAlgebra
from homhopf.doi import DoiDatum, DoiModule
from homhopf.integrals import Infeasible, IntegralCandidate
from homhopf.linalg import GFElement, Matrix


def canon(certificate: Infeasible) -> str:
    """Canonical text of an ``Infeasible`` certificate: its witness row and
    value and its combination of (label, coefficient) pairs."""
    def text(x):
        if isinstance(x, (tuple, list)):
            return "[" + ",".join(text(v) for v in x) + "]"
        return str(x)

    return (f"Infeasible(witness_row={text(certificate.witness_row)},"
            f"witness_value={text(certificate.witness_value)},"
            f"combination={text(certificate.combination)})")


def _raw_objects(name: str, x) -> dict:
    """Structure-file objects for one result, named after ``name``."""
    if isinstance(x, HomHopfAlgebra):
        return {name: hio.hopf_to_raw(x)}
    if isinstance(x, DoiDatum):
        h, a, c = f"{name}.hopf", f"{name}.algebra", f"{name}.coalgebra"
        return {h: hio.hopf_to_raw(x.hopf),
                a: hio.comodule_algebra_to_raw(x.algebra, h),
                c: hio.module_coalgebra_to_raw(x.coalgebra, h),
                name: hio.doi_datum_to_raw(h, a, c)}
    if isinstance(x, DoiModule):
        return {name: hio.doi_module_to_raw(x, "datum")}
    if isinstance(x, IntegralCandidate):
        return {name: hio.integral_to_raw(x, "datum")}
    if isinstance(x, Matrix):
        return {name: hio.morphism_to_raw(x, "source", "target")}
    raise TypeError(f"no structure-file encoding for {type(x).__name__}")


def serialized(**results) -> str:
    """The results, as ``name=object``, written as one structure file by
    ``homhopf.io``: the bytes the program emits for them."""
    objects = {}
    for name, x in results.items():
        objects.update(_raw_objects(name, x))
    field = next(iter(results.values())).field
    return hio.serialize_structure_file(hio.StructureFile(field, objects))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _exact(x, p):
    """A field element as a plain int mod p, or as a Fraction over Q."""
    if p is None:
        return Fraction(x.numerator, x.denominator)
    if not isinstance(x, GFElement) or x.p != p:
        raise ValueError(f"{x!r} is not an element of GF({p})")
    return x.value


def certificate_problems(certificate, system) -> list:
    """Problems with an ``Infeasible`` answer against its assembled system."""
    p = system.field.p
    labels = list(system.homogeneous_labels) + list(system.affine_labels)
    if len(set(labels)) != len(labels):
        return ["assembled system has repeated row labels"]
    rows = {}
    for r, label in enumerate(system.homogeneous_labels):
        rows[label] = (system.homogeneous.row(r), 0)
    for r, label in enumerate(system.affine_labels):
        rows[label] = (system.affine_lhs.row(r), _exact(system.affine_rhs[r], p))
    n = system.unknown_count
    total = [0] * n
    value = 0
    for label, coeff in certificate.combination:
        if label not in rows:
            return [f"certificate names unknown row {label!r}"]
        row, b = rows[label]
        y = _exact(coeff, p)
        for j, a in enumerate(row):
            if a:
                total[j] += y * _exact(a, p)
        value += y * b
    if p is not None:
        total = [t % p for t in total]
        value %= p
    problems = []
    if any(total):
        problems.append("certificate combination does not cancel the unknowns")
    if not value:
        problems.append("certificate combination cancels the right-hand side")
    elif value != _exact(certificate.witness_value, p):
        problems.append("witness value differs from the combination of right-hand sides")
    return problems


def section_problems(f, s) -> list:
    """``f @ s`` must be the identity, checked entry by entry."""
    p = f.field.p
    if f.cols != s.rows or f.rows != s.cols:
        return [f"section shape {s.rows}x{s.cols} does not fit f {f.rows}x{f.cols}"]
    for r in range(f.rows):
        for c in range(s.cols):
            acc = sum(_exact(f.at(r, k), p) * _exact(s.at(k, c), p) for k in range(f.cols))
            if p is not None:
                acc %= p
            if acc != (1 if r == c else 0):
                return [f"f @ s differs from the identity at ({r}, {c})"]
    return []
