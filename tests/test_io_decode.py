"""The structure-file boundary: coefficients are parsed once per distinct
string, and matrices and tensors are decoded straight into their nonzero
fibres.  These tests pin that the result is the object the dense
constructors build, over Q and GF(7), with the parser's errors unchanged."""

import collections
import gc
import hashlib
import json
import os
import re
import reprlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import is_canonical
from homhopf.golden import golden_file, golden_names
from homhopf.integrals import solve_normalized_integral
from homhopf.io import (StructureFile, StructureParseError, field_to_raw, integral_to_raw,
                        parse_structure_file, serialize_structure_file)
from homhopf.linalg import Field, GFElement, Matrix, Tensor3

FIELDS = {"Q": Field.rationals(), "GF7": Field.prime(7)}

#: kind -> {raw key: attribute path of the built object holding that part}
PARTS = {
    "hom_hopf_algebra": {"twist": "alpha", "mult": "mult", "unit": "unit",
                         "comult": "comult", "counit": "counit", "antipode": "antipode"},
    "comodule_algebra": {"twist": "algebra.alpha", "mult": "algebra.mult",
                         "unit": "algebra.unit", "coaction": "coaction"},
    "module_coalgebra": {"twist": "coalgebra.gamma", "comult": "coalgebra.comult",
                         "counit": "coalgebra.counit", "action": "action"},
    "doi_module": {"twist": "mu", "action": "action", "coaction": "coaction"},
    "yd_module": {"twist": "mu", "action": "action", "coaction": "coaction"},
    "morphism": {"matrix": ""},
    "integral": {"theta": "theta"},
    "doi_datum": {},
}


def _reparse(sf):
    return parse_structure_file(serialize_structure_file(sf))


def _dense(field, raw):
    """The part ``raw`` (nested lists of strings) through the dense constructors."""
    if not isinstance(raw[0], list):
        return tuple(field.of(x) for x in raw)
    if not isinstance(raw[0][0], list):
        return Matrix.from_rows(field, raw)
    return Tensor3.from_nested(field, raw)


def _attr(obj, path):
    for name in filter(None, path.split(".")):
        obj = getattr(obj, name)
    return obj


def _with_integral(field):
    """kZ2's trivial datum with its solved normalized integral ``theta``."""
    sf = _reparse(golden_file("kZ2_trivial_datum", field))
    raw = dict(sf.raw, theta=integral_to_raw(solve_normalized_integral(sf.build("D")), "D"))
    return parse_structure_file(serialize_structure_file(StructureFile(field, raw)))


def _files():
    for fname, field in FIELDS.items():
        for name in golden_names():
            yield pytest.param(field, name, id=f"{fname}-{name}")
        yield pytest.param(field, "integral", id=f"{fname}-integral")


def _load(field, name):
    return _with_integral(field) if name == "integral" else _reparse(golden_file(name, field))


@pytest.mark.parametrize("field, name", _files())
def test_decoded_parts_equal_the_dense_constructors(field, name):
    sf = _load(field, name)
    seen = 0
    for obj in sorted(sf.raw):
        built = sf.build(obj)
        raw = sf.raw[obj]
        for key, path in PARTS[raw["kind"]].items():
            part, dense = _attr(built, path), _dense(field, raw[key])
            assert type(part) is type(dense), (obj, key)
            assert part == dense, (obj, key)
            if not isinstance(dense, tuple):
                assert part.shape == dense.shape
                assert part.entries == dense.entries
                assert tuple(part.entries) == tuple(dense.entries)
            seen += 1
    assert seen


def _decoded_parts(sf):
    """(part, its raw innermost lists in reading order) for every matrix and
    tensor built from ``sf``."""
    for obj in sorted(sf.raw):
        built, raw = sf.build(obj), sf.raw[obj]
        for key, path in PARTS[raw["kind"]].items():
            part = _attr(built, path)
            if isinstance(part, Tensor3):
                yield part, [row for block in raw[key] for row in block]
            elif isinstance(part, Matrix):
                yield part, raw[key]


@pytest.mark.parametrize("field, name", _files())
def test_equal_rows_of_one_file_decode_to_one_fibre(field, name):
    # each distinct row is parsed, made canonical and interned once per file,
    # and every matrix and tensor built from the file keeps that one fibre
    sf = _load(field, name)
    fibres, count = collections.defaultdict(set), 0  # row of strings -> ids of its fibres
    for part, rows in _decoded_parts(sf):
        for row, fibre in zip(rows, part._fibres, strict=True):
            fibres[tuple(row)].add(id(fibre))
            count += 1
    assert count > len(fibres)  # rows repeat
    assert all(len(ids) == 1 for ids in fibres.values())


@pytest.mark.parametrize("field, name", _files())
def test_decoded_parts_equal_and_hash_like_from_nonzeros(field, name):
    # the decoder keeps the row table's fibres as they are; the object is the
    # one the store builds from the same nonzeros, values canonical
    seen = 0
    for part, rows in _decoded_parts(_load(field, name)):
        width = part.shape[-1]
        values = {divmod(q, width): field.of(x) for q, x in enumerate(
            x for row in rows for x in row) if field.of(x)}
        if isinstance(part, Matrix):
            ref = Matrix.from_nonzeros(field, *part.shape, values)
        else:
            ref = Tensor3.from_nonzeros(field, *part.shape, {
                (*divmod(q, part.d2), k): x for (q, k), x in values.items()})
        assert part == ref and hash(part) == hash(ref)
        assert part._fibres == ref._fibres
        assert all(is_canonical(x, field) for fibre in part._fibres for _, x in fibre)
        seen += 1
    assert seen


@pytest.mark.parametrize("field, name", _files())
def test_each_distinct_coefficient_is_parsed_once(field, name, monkeypatch):
    text = serialize_structure_file(_load(field, name))
    strings = collections.Counter()

    def leaves(x):
        if isinstance(x, list):
            for y in x:
                leaves(y)
        elif isinstance(x, str):
            strings[x] += 1

    for obj in json.loads(text)["objects"].values():
        for key in PARTS[obj["kind"]]:
            leaves(obj[key])

    real = Field.of
    parsed = collections.Counter()

    def counting(self, x):
        if isinstance(x, str):
            parsed[x] += 1
        return real(self, x)

    monkeypatch.setattr(Field, "of", counting)
    sf = parse_structure_file(text)
    for obj in sorted(sf.raw):
        sf.build(obj)
    assert parsed == {s: 1 for s in strings}
    assert sum(strings.values()) > len(strings)


def _morphism_file(field_raw, entries):
    return json.dumps({"field": field_raw, "objects": {
        "f": {"kind": "morphism", "source": "a", "target": "b", "matrix": [entries]}}})


def test_same_string_is_each_fields_own_value():
    q = parse_structure_file(_morphism_file("Q", ["3/2", "8", "0"])).build("f")
    gf = parse_structure_file(_morphism_file({"GF": 7}, ["3/2", "8", "0"])).build("f")
    assert q.row(0) == [Fraction(3, 2), 8, 0]
    assert type(q.at(0, 1)) is int
    assert gf.row(0) == [GFElement(5, 7), GFElement(1, 7), GFElement(0, 7)]
    assert all(type(x) is GFElement for x in gf.row(0))
    assert q == Matrix.from_rows(Field.rationals(), [[Fraction(3, 2), 8, 0]])
    assert gf == Matrix.from_rows(Field.prime(7), [[5, 1, 0]])


def test_scalars_are_not_shared_between_files():
    # the memo belongs to one file: "1/7" is a value over Q and no value in GF(7)
    assert parse_structure_file(_morphism_file("Q", ["1/7"])).build("f").at(0, 0) == Fraction(1, 7)
    sf = parse_structure_file(_morphism_file({"GF": 7}, ["1/7"]))
    with pytest.raises(StructureParseError, match="bad coefficient '1/7': division by zero"):
        sf.build("f")


def _kz2_with(field, **parts):
    data = json.loads(serialize_structure_file(golden_file("kZ2", field)))
    data["objects"]["H"].update(parts)
    return parse_structure_file(json.dumps(data))


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_zero_denominator_at_two_sites_reports_the_first(field):
    sf = _kz2_with(field, twist=[["1", "0"], ["0", "1/0"]], counit=["1/0", "1"])
    for _ in range(2):  # failures are not remembered: a second build fails alike
        with pytest.raises(StructureParseError) as exc:
            sf.build("H")
        assert str(exc.value) == "bad coefficient '1/0': Fraction(1, 0)"
    sf = _kz2_with(field, twist=[["1", "0"], ["0", "2/0"]], counit=["1/0", "1"])
    with pytest.raises(StructureParseError, match=r"^bad coefficient '2/0': Fraction\(2, 0\)$"):
        sf.build("H")


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_coefficient_spelled_other_than_digits_is_a_parse_error(field):
    # Fraction() reads each of these, as 1000, 3/2, 5, 1000 and 1
    for text in ["1e3", "1.5", " 5 ", "1_000", "\u0661"]:
        sf = _kz2_with(field, unit=["1", text])
        message = re.escape(f"bad coefficient {text!r}: ")
        with pytest.raises(StructureParseError, match="^" + message):
            sf.build("H")


def _non_string_sites():
    """(the parts of kZ2 holding a non-string entry, that entry): in the unit
    vector, in an innermost list of the twist matrix and of the
    multiplication tensor.  The unit rows keep the ids they had alone."""
    for n, entry in enumerate([["1"], {"a": "1"}, [], 1, None, True, 1.5]):
        name = f"entry{n}" if isinstance(entry, (list, dict)) else str(entry)
        yield pytest.param({"unit": ["1", entry]}, entry, id=name)
        yield pytest.param({"twist": [["1", "0"], ["0", entry]]}, entry, id=f"twist-{name}")
        yield pytest.param({"mult": [[["1", "0"], ["0", "1"]], [["0", "1"], [entry, "0"]]]},
                           entry, id=f"mult-{name}")


@pytest.mark.parametrize("parts, entry", _non_string_sites())
def test_non_string_coefficient_is_a_parse_error(parts, entry):
    # a hashable entry fails in the coefficient dict's __missing__, an
    # unhashable one with a TypeError at the lookup; both are this parse error
    sf = _kz2_with(Field.rationals(), **parts)
    message = f"coefficients must be strings, got {reprlib.repr(entry)}"
    with pytest.raises(StructureParseError, match="^" + re.escape(message) + "$"):
        sf.build("H")


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_every_zero_spelling_is_the_fields_shared_zero(field):
    # a fibre drops zeros by identity, so each spelling must decode to field.zero()
    text = _morphism_file(field_to_raw(field), ["0", "-0", "00", "0/5", "1"])
    assert parse_structure_file(text).build("f")._fibres == (((4, field.one()),),)
    h = _kz2_with(field, unit=["1", "-0"], counit=["00", "0/5"]).build("H")
    zero = field.zero()
    assert h.unit[1] is zero and h.counit[0] is zero and h.counit[1] is zero


def test_shape_errors_come_in_reading_order():
    sf = _kz2_with(Field.rationals(), twist=[["1", "x"], ["0"]])
    with pytest.raises(StructureParseError, match="bad coefficient 'x'"):
        sf.build("H")
    sf = _kz2_with(Field.rationals(), twist=[["1", "0"], ["0"], ["x"]])
    with pytest.raises(StructureParseError, match="^expected a 2x2 matrix$"):
        sf.build("H")


@pytest.mark.parametrize("mult, message", [
    # a row repeated after an unhashable row: the unhashable entry is the first error
    ([[["1", "0"], ["0", "1"]], [[["1"], "1"], ["1", "0"]]],
     "coefficients must be strings, got ['1']"),
    ([[["1", "0"], ["0", "1"]], [["0", {"a": "1"}], ["0", "1"]]],
     "coefficients must be strings, got {'a': '1'}"),
    # a bad string before an unhashable entry in the same row comes first
    ([[["1", "0"], ["0", "1"]], [["x", []], ["1", "0"]]],
     "bad coefficient 'x': not an integer or a fraction p/q in ASCII digits"),
    # a bad row that repeats a good row's prefix
    ([[["1", "0"], ["0", "1"]], [["0", "1/0"], ["1", "0"]]],
     "bad coefficient '1/0': Fraction(1, 0)"),
    ([[["1", "0"], ["0", "1"]], [["0", "1", "0"], ["1", "0"]]],
     "expected a 2x2x2 tensor"),
])
def test_first_error_in_reading_order_with_repeated_rows(mult, message):
    sf = _kz2_with(Field.rationals(), mult=mult)
    for _ in range(2):  # a row that failed is not remembered
        with pytest.raises(StructureParseError) as exc:
            sf.build("H")
        assert str(exc.value) == message


def test_repeated_rows_decode_alike_and_each_file_keeps_its_own():
    # "1/7" is a value over Q and no value in GF(7): rows are not shared between files
    text = _morphism_file("Q", ["1/7", "0"]).replace('"matrix": [[', '"matrix": [["1/7", "0"], [')
    sf = parse_structure_file(text)
    f = sf.build("f")
    assert f.row(0) == f.row(1) == [Fraction(1, 7), 0]
    gf = parse_structure_file(text.replace('"Q"', '{"GF": 7}'))
    with pytest.raises(StructureParseError, match="bad coefficient '1/7'"):
        gf.build("f")


def test_row_table_lives_with_its_file():
    sf = _kz2_with(Field.rationals())
    sf.build("H")
    rows = sf._rows
    assert rows and all(type(key) is tuple for key in rows)
    assert parse_structure_file(serialize_structure_file(sf))._rows == {}
    del sf
    assert sys.getrefcount(rows) == 2  # this name and the call's argument


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_decoding_leaves_no_cycles(fname):
    # a file and everything built from it are freed by reference counting
    # alone, so no decode leaves garbage for the cyclic collector
    raw = golden_file("yd_kZ2", FIELDS[fname]).raw
    gc.collect()
    gc.disable()
    try:
        sf = StructureFile(FIELDS[fname], raw)
        for name in raw:
            sf.build(name)
        del sf
        assert gc.collect() == 0
    finally:
        gc.enable()


#: strings rich in what JSON escapes: quotes, backslashes, control
#: characters and non-ASCII, the last beyond the basic plane too
_STRINGS = st.text() | st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\t é€\U0001f600a0')
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _STRINGS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(_STRINGS, max_size=4)
    | st.dictionaries(_STRINGS, inner, max_size=4), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_STRINGS, _JSON, max_size=4), st.sampled_from(sorted(FIELDS)))
def test_serialization_is_the_bytes_json_dumps_writes(raw, fname):
    field = FIELDS[fname]
    text = serialize_structure_file(StructureFile(field, raw))
    payload = {"field": field_to_raw(field), "objects": raw}
    assert text.encode() == (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


# -- the reader's refusals ----------------------------------------------------

#: the sorted lines of ``_refusals`` over Q and GF(7), one per file line
_REFUSALS_FILE = os.path.join(os.path.dirname(__file__), "reader_refusals.txt")
#: (line count, sha256 of the lines joined by newlines), recorded before the
#: reader built its dimensioned kinds from one table; re-recorded when the
#: datum's two ``D.hopf -> H`` lines came to word A's coaction as one into a
#: coalgebra, no other line changing
REFUSALS_PIN = (656, "345c84262e2c72966f3e7ac56e6c55c0060c2d8a5bdf0a61bdb5570bb635dcb4")


def _objects(name, field):
    return json.loads(serialize_structure_file(golden_file(name, field)))["objects"]


def _refusal_objects(field):
    """maschke_split_kZ2 (a datum ``D`` and two modules, a morphism and its
    section over it) beside kZ2's ``H``, a Yetter-Drinfeld module ``Y`` over
    H, and the four kinds no golden file holds, from H's parts: a Hom-algebra
    ``Alg``, a Hom-coalgebra ``Coalg``, ``Mod`` (Alg acting on itself) and
    ``Comod`` (Coalg coacting on itself)."""
    h = _objects("kZ2", field)["H"]
    common = {"dim": h["dim"], "basis": h["basis"], "twist": h["twist"]}
    return {**_objects("maschke_split_kZ2", field), "H": h,
            "Y": _objects("yd_kZ2", field)["M_trivial"],
            "Alg": {"kind": "hom_algebra", **common, "mult": h["mult"], "unit": h["unit"]},
            "Coalg": {"kind": "hom_coalgebra", **common, "comult": h["comult"],
                      "counit": h["counit"]},
            "Mod": {"kind": "hom_module", "algebra": "Alg", **common, "action": h["mult"]},
            "Comod": {"kind": "hom_comodule", "coalgebra": "Coalg", **common,
                      "coaction": h["comult"]}}


def _refusals(field) -> list:
    """'<field> <case>: <what reading and building the object gave>' for each
    one-fault change to one object of ``_refusal_objects``: each key dropped,
    each reference pointed at every object in the file, and each part's last
    row or block (a vector's last entry) dropped."""
    objects, lines = _refusal_objects(field), []

    def attempt(case, name, obj):
        text = json.dumps({"field": field_to_raw(field), "objects": {**objects, name: obj}})
        try:
            parse_structure_file(text).build(name)
            outcome = "built"
        except ValueError as exc:  # a StructureParseError is one
            outcome = f"{type(exc).__name__}: {exc}"
        lines.append(f"{field} {case}: {outcome}")

    for name, obj in objects.items():
        for key, value in obj.items():
            attempt(f"{name} without {key}", name,
                    {k: v for k, v in obj.items() if k != key})
            if key != "kind" and isinstance(value, str):
                for target in objects:
                    attempt(f"{name}.{key} -> {target}", name, {**obj, key: target})
            elif key != "basis" and isinstance(value, list):
                attempt(f"{name}.{key} short", name, {**obj, key: value[:-1]})
    return lines


def _all_refusals() -> list:
    return sorted(line for field in FIELDS.values() for line in _refusals(field))


def _pin(lines) -> tuple:
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_reader_refusals_are_pinned():
    lines = _all_refusals()
    with open(_REFUSALS_FILE, encoding="utf-8") as fh:
        recorded = fh.read().splitlines()
    assert _pin(recorded) == REFUSALS_PIN
    if _pin(lines) != REFUSALS_PIN:
        first = next((n for n, (a, b) in enumerate(zip(lines, recorded)) if a != b),
                     min(len(lines), len(recorded)))
        pytest.fail(f"line {first} differs: now {lines[first:first + 1]}, "
                    f"recorded {recorded[first:first + 1]}")
    # every kind of object is refused somewhere, and a reference pointed at
    # an object of a kind it may not name is refused with that kind
    assert sum(": built" not in line for line in lines) > len(lines) // 2
    assert any("'hopf' must reference one of ('hom_hopf_algebra',), got 'doi_module'" in line
               for line in lines)


if __name__ == "__main__":  # re-record the refusals (only when they are meant to change)
    refusals = _all_refusals()
    with open(_REFUSALS_FILE, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in refusals))
    print(_pin(refusals))
