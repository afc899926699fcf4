"""Pinned verdicts of the classical oracle on every input the suite hands it.

``classical_oracle`` judges the checkers independently at identity twist, so
making it cheaper must not change a single verdict.  This test runs every
oracle call of ``test_classical_limit.py`` and of acceptance criterion 8's
in-process part with each oracle function wrapped, and records
(function, sha256 of the arguments' repr, verdict) in call order, nested
calls included.  Integer scalars are written as ``Fraction`` in that repr,
so the digest names the values and not the form the package keeps them in.  The list is compared with ``oracle_verdicts.json``, which
was recorded before the oracle learned to skip zero structure constants.
Re-record it, only when the inputs are meant to change, with

    PYTHONPATH=src python tests/test_oracle_verdicts.py --record
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(__file__))

import classical_oracle as oracle  # noqa: E402
from law_oracles import nested  # noqa: E402
import test_acceptance  # noqa: E402
import test_classical_limit  # noqa: E402

VERDICTS = os.path.join(os.path.dirname(__file__), "oracle_verdicts.json")
ORACLE_FUNCTIONS = ("algebra_ok", "coalgebra_ok", "bialgebra_compat_ok", "hopf_ok",
                    "module_ok", "comodule_ok", "comodule_algebra_ok",
                    "module_coalgebra_ok", "doi_module_ok")


def _as_fractions(x):
    """``x`` with every int (the arguments are nested lists of scalars)
    written as the equal ``Fraction``."""
    if isinstance(x, (list, tuple)):
        return type(x)(_as_fractions(y) for y in x)
    return Fraction(x) if type(x) is int else x


def _recording(name: str, fn, table: list):
    @functools.wraps(fn)
    def wrapper(*args):
        verdict = fn(*args)
        digest = hashlib.sha256(repr(_as_fractions(args)).encode("utf-8")).hexdigest()[:16]
        table.append([name, digest, verdict])
        return verdict
    return wrapper


def _run_suite() -> None:
    """Every oracle call of the classical-limit suite and criterion 8."""
    for _, cls in inspect.getmembers(test_classical_limit, inspect.isclass):
        if cls.__name__.startswith("Test"):
            for name in sorted(vars(cls)):
                if name.startswith("test_"):
                    getattr(cls(), name)()
    for h in test_acceptance.criterion_8_hopf_inputs():
        oracle.hopf_ok(nested(h.mult), list(h.unit), nested(h.comult),
                       list(h.counit), nested(h.antipode))


def verdicts(setattr_=setattr) -> list:
    table: list = []
    for name in ORACLE_FUNCTIONS:
        setattr_(oracle, name, _recording(name, getattr(oracle, name), table))
    _run_suite()
    return table


def test_oracle_verdicts_are_pinned(monkeypatch):
    with open(VERDICTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert verdicts(monkeypatch.setattr) == pinned


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_oracle_verdicts.py --record")
    table = verdicts()
    with open(VERDICTS, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row) for row in table) + "\n]\n")
