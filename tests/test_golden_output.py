"""Pinned CLI output over the golden files.

Every run in the sweep goes through ``cli.main`` in-process; its stdout,
stderr, exit code and ``--out`` file are hashed together, with the
temporary directory written as ``<tmp>``.  The digests live in
``golden_output_digests.json`` next to this file.  A change that is meant
to alter CLI output re-records them with

    PYTHONPATH=src python tests/test_golden_output.py --record

and names every changed entry in its change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from homhopf.cli import main
from homhopf.golden import golden_file, golden_names
from homhopf.io import serialize_structure_file
from homhopf.linalg import Field

DIGESTS = os.path.join(os.path.dirname(__file__), "golden_output_digests.json")
FIELDS = {"Q": Field.rationals(), "GF:7": Field.prime(7)}


def _run(argv, tmp: str, out_path: str | None) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = None
    if out_path is not None and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            written = fh.read()
        os.remove(out_path)
    record = {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
              "out": written}
    text = json.dumps(record, sort_keys=True).replace(tmp, "<tmp>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sweep(tmp: str):
    """Yield (key, argv, out_path) for every run the digests pin."""
    out = os.path.join(tmp, "out.json")
    for flag, field in FIELDS.items():
        for name in golden_names():
            yield (f"{flag} examples {name}",
                   ["examples", name, "--field", flag, "--out", out], out)
            sf = golden_file(name, field)
            path = os.path.join(tmp, f"{flag.replace(':', '')}_{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize_structure_file(sf))
            for obj in sorted(sf.raw):
                yield f"{flag} check --verbose {name} {obj}", \
                    ["check", path, obj, "--verbose"], None
            if sf.raw.get("D", {}).get("kind") != "doi_datum":
                continue
            yield (f"{flag} find-integral {name} D",
                   ["find-integral", path, "D", "--out", out], out)
            modules = [o for o in sorted(sf.raw) if sf.kind_of(o) == "doi_module"] or ["D"]
            yield (f"{flag} certify {name} D {' '.join(modules)}",
                   ["certify", path, "D", *modules, "--out", out], out)
            if name != "maschke_split_kZ2":
                continue
            for f, g in (("f", "g"), ("g", "f"), ("f", "f"), ("g", "g")):
                yield (f"{flag} split {name} D {f} {g}",
                       ["split", path, "D", f, g, "--out", out], out)


def digests() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {key: _run(argv, tmp, out) for key, argv, out in _sweep(tmp)}


def test_cli_output_matches_pinned_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    now = digests()
    assert sorted(now) == sorted(pinned)
    changed = [key for key in pinned if now[key] != pinned[key]]
    assert not changed, changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_output.py --record")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
