"""Pins of the elimination kernel's whole output and of the direct evaluator's
reports, recorded before either was rewritten for speed.

Each pin is a text file of one line per case, ``<case>: <summary> | <item
count> <sha256 of the items>``, and the (line count, sha256) of that file.
The items of a case are written out in full below, so a change to a single
scalar, a dict order or a log step changes its line, and a mismatch names
the first case that differs.

    PYTHONPATH=src python tests/test_kernel_pins.py

re-records both files (only when their contents are meant to change).
"""

import hashlib
import os
import random

import pytest

from corpus import (commuting_twist, cyclic_rep, random_graded_comodule, random_invertible,
                    twist_breaking_module, twist_corpus)
from homhopf import integrals
from homhopf.applications import (regular_comodule_algebra, relative_datum, trivial_datum,
                                  yd_datum)
from homhopf.integrals import Infeasible, verify_integral
from homhopf.linalg import Field, _rref_rows, canonical
from homhopf.zoo import group_algebra
from test_integrals import SYSTEM_DIGESTS, _pinned_datum

Q, GF7 = Field.rationals(), Field.prime(7)
_HERE = os.path.dirname(__file__)
_RREF_FILE = os.path.join(_HERE, "kernel_pins_rref.txt")
_VERIFY_FILE = os.path.join(_HERE, "kernel_pins_verify.txt")
#: (line count, sha256 of the lines joined by newlines) of each file, recorded
#: with the elimination that computed every pivot-column entry and the
#: evaluator that formed every theta table instance by instance
RREF_PIN = (68, "e6a25fa2c28140e31f44967c2c19ad9df6cd9bdc92896904b6d41664ad44a5c7")
VERIFY_PIN = (344, "fd9a1ef59525fa72a1dbc409481edbe3f8d39dfab03e018fbae430c4d50ecd95")


def _case(name: str, summary: str, items: list) -> str:
    digest = hashlib.sha256("\n".join(items).encode()).hexdigest()
    return f"{name}: {summary} | {len(items)} {digest}"


def _s(x) -> str:
    return str(canonical(x))


def _rref_case(name: str, rows, field: Field) -> str:
    """Every reduced row's items in dict order, the pivots and every logged
    step ``(p, sel, inv, [(r, f), ...])``."""
    red, pivots, steps = _rref_rows(rows, field)
    items = [" ".join(f"{c}={_s(x)}" for c, x in row.items()) for row in red]
    items.append("pivots " + " ".join(map(str, pivots)))
    items.extend(f"step {p} {sel} {_s(inv)} " + " ".join(f"{r}:{_s(f)}" for r, f in elim)
                 for p, sel, inv, elim in steps)
    return _case(name, f"{len(rows)} rows, rank {len(pivots)}", items)


def _module_twists(field: Field) -> list:
    """The non-monomial twists of the corpus's seeded modules and comodules,
    as ``Matrix.inverse`` meets them: a conjugated cyclic representation's
    commuting twist, a random invertible twist over k, a graded comodule's
    block-diagonal twist, and the twist-breaking module's [[1, 1], [0, 1]]."""
    rng, out = random.Random(3501), [twist_breaking_module(field).mu]
    for dim in (2, 3, 4):
        out.append(commuting_twist(field, cyclic_rep(field, dim, 4, rng), rng))
        out.append(random_invertible(field, dim, rng))
        out.append(random_graded_comodule(group_algebra(2, field), dim, rng).mu)
    return [m for m in out if any(sum(1 for x in m.row(r) if x) > 1 for r in range(m.rows))]


def rref_lines() -> list:
    lines = []
    for key in sorted(SYSTEM_DIGESTS):
        kind, base, flag = key
        field = Q if flag == "Q" else GF7
        d = _pinned_datum(kind, base, field)
        name = "-".join(key)
        lines.append(_rref_case(f"{name} all rows", integrals._integral_rows(d)[0], field))
        lines.append(_rref_case(f"{name} normalization rows", integrals._normalization_rows(d),
                                field))
    for field in (Q, GF7):
        for n, m in enumerate(_module_twists(field)):
            inv = m.inverse()
            items = [" ".join(_s(inv.at(r, c)) for c in range(m.cols)) for r in range(m.rows)]
            lines.append(_case(f"{field} module twist {n} inverse", f"{m.rows}x{m.cols}", items))
    return lines


def _random_theta(d, density: float, rng: random.Random):
    field, dc, da = d.field, d.coalgebra.dim, d.algebra.dim
    vec = [field.of(rng.choice((1, -1, 2, 3))) if rng.random() < density else field.zero()
           for _ in range(dc * dc * da)]
    return integrals.IntegralCandidate.from_vector(field, dc, da, vec)


def _reports(d, rng: random.Random):
    """The direct evaluator's reports on theta_N (the normalization rows'
    theta), on the solver's answer where it is another theta (the full
    elimination's, as theta_N then fails), and on seeded random thetas at
    densities 0.1, 0.5 and 1."""
    red, pivots = _rref_rows(integrals._normalization_rows(d), d.field)[:2]
    report = None
    if d.algebra.dim * d.coalgebra.dim ** 2 not in pivots:
        report = verify_integral(integrals._read_theta(d, red, pivots), d)
        yield "theta_N", report
    if report is None or not report.passed:
        answer = integrals._solve_all_rows(d)
        if not isinstance(answer, Infeasible):
            yield "solved", verify_integral(answer, d)
    for density in (0.1, 0.5, 1.0):
        yield f"random {density}", verify_integral(_random_theta(d, density, rng), d)


def verify_lines() -> list:
    lines = []
    for field in (Q, GF7):
        rng = random.Random(3502)
        for n, h in enumerate(twist_corpus(field, 5)):
            for kind, make in (("trivial", trivial_datum),
                               ("relative", lambda h: relative_datum(
                                   h, regular_comodule_algebra(h))),
                               ("yd", yd_datum)):
                d = make(h)
                for what, report in _reports(d, rng):
                    text = report.format(verbose=True).split("\n")
                    lines.append(_case(f"{field} {kind} corpus[{n}] (dim {h.dim}) {what}",
                                       text[0], text))
    return lines


def _pin(lines) -> tuple:
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _assert_pinned(lines, path, pin):
    with open(path, encoding="utf-8") as fh:
        recorded = fh.read().splitlines()
    assert _pin(recorded) == pin
    if _pin(lines) != pin:
        first = next((n for n, (a, b) in enumerate(zip(lines, recorded)) if a != b),
                     min(len(lines), len(recorded)))
        pytest.fail(f"line {first} differs: now {lines[first:first + 1]}, "
                    f"recorded {recorded[first:first + 1]}")


def test_elimination_output_is_pinned():
    lines = rref_lines()
    _assert_pinned(lines, _RREF_FILE, RREF_PIN)
    # not vacuous: the corpus has non-monomial twists over both fields
    assert sum("module twist" in line for line in lines) >= 6


def test_direct_evaluator_reports_are_pinned():
    lines = verify_lines()
    _assert_pinned(lines, _VERIFY_FILE, VERIFY_PIN)
    # every kind of theta is among the cases, and both verdicts are
    summaries = [line.split(": ", 1)[1] for line in lines]
    assert any(s.startswith("PASS") for s in summaries)
    assert any(s.startswith("FAIL") for s in summaries)
    assert all(any(what in line for line in lines)
               for what in ("theta_N", "solved", "random 0.1", "random 1.0"))


if __name__ == "__main__":  # re-record both pins (only when they are meant to change)
    for make, path in ((rref_lines, _RREF_FILE), (verify_lines, _VERIFY_FILE)):
        recorded = make()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in recorded))
        print(os.path.basename(path), _pin(recorded))
