"""Mutated golden files through ``homhopf check`` and the datum commands, in
process.

Each example takes a small golden file over Q or GF(7), breaks it in one
way (a dropped or extra key, a wrong kind or reference, a bad shape, a
non-string, malformed or zero-denominator coefficient, a basis label that is
not a string, a bad dim or field, deep nesting) and checks one of its
objects, or runs ``find-integral``, ``certify`` and ``split`` on its datum D.
Whatever the input, each run must end with a documented exit code (0 pass,
1 check failed, 2 parse or usage error, 3 infeasible) and no traceback; a
datum command that exits 0 has read a datum that ``homhopf check`` passes.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homhopf.cli import main
from homhopf.golden import golden_file
from homhopf.io import serialize_structure_file
from homhopf.linalg import Field

NAMES = ("kZ2", "H4", "kZ2_trivial_datum", "maschke_split_kZ2", "yd_kZ2")
#: golden files that hold a datum D (H4's has no integral)
DATUM_NAMES = ("kZ2_trivial_datum", "H4_trivial_datum", "maschke_split_kZ2", "yd_kZ2")
FIELDS = {"Q": Field.rationals(), "GF7": Field.prime(7)}
KINDS = ("hom_hopf_algebra", "hom_algebra", "hom_coalgebra", "hom_module",
         "hom_comodule", "comodule_algebra", "module_coalgebra", "doi_datum",
         "doi_module", "yd_module", "morphism", "integral", "certificate")
#: a value of a wrong JSON type, or a malformed coefficient
JUNK = st.sampled_from([None, True, False, 0, 1, -1, 1.5, 10 ** 40, "", "x", "1/0",
                        "0/0", "1/7", "-3/4", " 2 ", "1e3", "∞", [], ["1"], [["1"]],
                        {}, {"a": "1"}, "nope"])
#: well-formed coefficients, which mostly make a structure fail its axioms
VALID = st.sampled_from(["0", "1", "-1", "2", "1/2", "3/2"])
#: stands for a list nested ``depth`` deep: json.dumps recurses, so the
#: nesting is spliced into the text afterwards
DEEP = "\x00deep\x00"

_TEXTS = {}


def _golden(name: str, fname: str) -> dict:
    key = (name, fname)
    if key not in _TEXTS:
        _TEXTS[key] = serialize_structure_file(golden_file(name, FIELDS[fname]))
    return json.loads(_TEXTS[key])


def _descend(draw, value):
    """A (container, key) pair inside ``value``, reached by a random walk."""
    parent, key = None, None
    while isinstance(value, (list, dict)) and value:
        keys = list(value) if isinstance(value, dict) else range(len(value))
        parent, key = value, draw(st.sampled_from(keys))
        value = value[key]
        if draw(st.booleans()):
            break
    return parent, key


@st.composite
def mutated(draw, names=NAMES):
    """(file text, object name to check) for one broken golden file, one of ``names``."""
    data = _golden(draw(st.sampled_from(names)), draw(st.sampled_from(sorted(FIELDS))))
    objects = data["objects"]
    name = draw(st.sampled_from(sorted(objects)))
    obj = objects[name]
    how = draw(st.sampled_from(["drop", "extra", "kind", "reference", "shape",
                                "coefficient", "label", "dim", "field", "top", "deep"]))
    depth = 0
    if how == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif how == "extra":
        obj[draw(st.sampled_from(["note", "kind2", "Dim"]))] = draw(JUNK)
    elif how == "kind":
        obj["kind"] = draw(st.sampled_from(KINDS) | JUNK)
    elif how == "reference":
        refs = [k for k in ("hopf", "algebra", "coalgebra", "datum", "source", "target")
                if k in obj] or ["hopf"]
        obj[draw(st.sampled_from(refs))] = draw(st.sampled_from(sorted(objects)) | JUNK)
    elif how in ("shape", "coefficient", "deep"):
        parts = [k for k, v in obj.items() if isinstance(v, list) and k != "basis"]
        if parts:
            parent, key = _descend(draw, obj[draw(st.sampled_from(parts))])
            if parent is not None and how == "coefficient":
                parent[key] = draw(VALID | JUNK)
            elif parent is not None and how == "deep":
                parent[key] = DEEP
                depth = draw(st.integers(1, 1200))
            elif isinstance(parent, list):
                if draw(st.booleans()):
                    del parent[key]
                else:
                    parent.append(parent[key])
    elif how == "label":
        if isinstance(obj.get("basis"), list):
            obj["basis"][draw(st.integers(0, len(obj["basis"]) - 1))] = draw(JUNK)
    elif how == "dim":
        obj["dim"] = draw(st.sampled_from([0, -1, 1, 2, 3, 8]) | JUNK)
    elif how == "field":
        data["field"] = draw(st.sampled_from(["Q", "R", {"GF": 6}, {"GF": 7},
                                              {"GF": 2 ** 31 - 1}, {"GF": 7, "p": 1}]) | JUNK)
    else:
        data[draw(st.sampled_from(["extra", "objects", "field"]))] = draw(JUNK)
    text = json.dumps(data).replace(json.dumps(DEEP), "[" * depth + '"1"' + "]" * depth)
    return text, name if draw(st.integers(0, 7)) else "missing"


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.json"


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated())
def test_check_on_a_mutated_file_exits_cleanly(path, case):
    text, name = case
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(["check", str(path), name])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert code == 0 or err or "FAIL" in out


#: the commands that read a datum, with the arguments after the datum's name
#: (the modules and morphisms of maschke_split_kZ2)
DATUM_COMMANDS = (("find-integral",), ("certify", "M", "N"), ("split", "f", "g"))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated(DATUM_NAMES))
def test_datum_commands_on_a_mutated_file_exit_cleanly(path, case):
    text, _ = case
    path.write_text(text, encoding="utf-8")
    for command, *rest in DATUM_COMMANDS:
        code, _, err = _run([command, str(path), "D", *rest])
        assert code in (0, 1, 2, 3), command
        assert "Traceback" not in err
        if code == 0:
            assert _run(["check", str(path), "D"])[0] == 0, command
