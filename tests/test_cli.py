import contextlib
import io
import json
import subprocess
import sys

import pytest

from homhopf.cli import main
from homhopf.golden import golden_file, golden_names
from homhopf.io import (StructureParseError, parse_structure_file,
                        serialize_structure_file)
from homhopf.linalg import Field

Q = Field.rationals()


def run_cli(args):
    """Exit code, stdout and stderr of ``cli.main`` run in-process; an
    exception that escapes ``main`` fails the calling test."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def run_console(args):
    """The same through ``python -m homhopf.cli`` in a fresh interpreter.
    One test per exit code (0-3) runs this way, so the entry point, its exit
    status and the absence of a traceback stay covered end to end."""
    proc = subprocess.run([sys.executable, "-m", "homhopf.cli", *args],
                          capture_output=True, text=True)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, proc.stdout, proc.stderr


class TestRoundTrip:
    @pytest.mark.parametrize("name", golden_names())
    def test_parse_serialize_identity(self, name):
        text = serialize_structure_file(golden_file(name, Q))
        again = serialize_structure_file(parse_structure_file(text))
        assert again == text

    @pytest.mark.parametrize("name", ["kZ2", "H4", "kZ2_trivial_datum"])
    def test_round_trip_gf7(self, name):
        text = serialize_structure_file(golden_file(name, Field.prime(7)))
        assert serialize_structure_file(parse_structure_file(text)) == text

    def test_all_objects_buildable(self):
        for name in golden_names():
            sf = golden_file(name, Q)
            for obj in sorted(sf.raw):
                sf.build(obj)


class TestParser:
    def test_unknown_key_rejected(self):
        text = serialize_structure_file(golden_file("kZ2", Q))
        data = json.loads(text)
        data["objects"]["H"]["extra"] = 1
        with pytest.raises(StructureParseError) as exc:
            parse_structure_file(json.dumps(data))
        assert "unknown" in str(exc.value)

    def test_missing_key_rejected(self):
        text = serialize_structure_file(golden_file("kZ2", Q))
        data = json.loads(text)
        del data["objects"]["H"]["antipode"]
        with pytest.raises(StructureParseError):
            parse_structure_file(json.dumps(data))

    def test_numeric_coefficients_rejected(self):
        text = serialize_structure_file(golden_file("kZ2", Q))
        data = json.loads(text)
        data["objects"]["H"]["unit"] = [1, 0]
        sf = parse_structure_file(json.dumps(data))
        with pytest.raises(StructureParseError):
            sf.build("H")

    def test_bad_field_rejected(self):
        with pytest.raises(StructureParseError):
            parse_structure_file(json.dumps({"field": {"GF": 6}, "objects": {}}))

    def test_basis_length_must_match_dim(self):
        text = serialize_structure_file(golden_file("kZ2", Q))
        data = json.loads(text)
        data["objects"]["H"]["basis"] = ["1"]
        with pytest.raises(StructureParseError) as exc:
            parse_structure_file(json.dumps(data))
        assert "basis" in str(exc.value)

    def test_dangling_reference(self):
        sf = parse_structure_file(json.dumps({
            "field": "Q",
            "objects": {"D": {"kind": "doi_datum", "hopf": "nope",
                              "algebra": "nope", "coalgebra": "nope"}}}))
        with pytest.raises(StructureParseError):
            sf.build("D")


    def test_boolean_modulus_rejected(self):
        with pytest.raises(StructureParseError) as exc:
            parse_structure_file(json.dumps({"field": {"GF": True}, "objects": {}}))
        assert "bad field descriptor" in str(exc.value)


class TestKindErrors:
    """Commands name the object and the kind they expected, exit 2, and never
    show a traceback."""

    @pytest.fixture
    def split_file(self, tmp_path):
        data = json.loads(serialize_structure_file(golden_file("maschke_split_kZ2", Q)))
        data["objects"]["f_dangling"] = dict(data["objects"]["f"], source="nowhere")
        data["objects"]["f_from_hopf"] = dict(data["objects"]["f"], source="k")
        data["objects"]["f_wrong_shape"] = dict(data["objects"]["f"],
                                                matrix=data["objects"]["g"]["matrix"])
        data["objects"]["f_not_rows"] = dict(data["objects"]["f"], matrix=5)
        for tag, entry in (("null", None), ("object", {}), ("list", []), ("int", 1)):
            rows = [list(row) for row in data["objects"]["f"]["matrix"]]
            rows[0][0] = entry
            data["objects"][f"f_{tag}_entry"] = dict(data["objects"]["f"], matrix=rows)
        p = tmp_path / "m.json"
        p.write_text(json.dumps(data))
        return str(p)

    def assert_usage_error(self, args, *fragments):
        rc, out, err = run_cli(args)
        assert rc == 2, (rc, out, err)
        assert "Traceback" not in err
        for fragment in fragments:
            assert fragment in err, err

    def test_find_integral_on_hopf_object(self, tmp_path):
        p = tmp_path / "h4.json"
        p.write_text(serialize_structure_file(golden_file("H4", Q)))
        self.assert_usage_error(["find-integral", str(p), "H"],
                                "'H'", "hom_hopf_algebra", "expected a doi_datum")

    def test_certify_on_hopf_object(self, split_file):
        self.assert_usage_error(["certify", split_file, "k", "M"],
                                "'k'", "expected a doi_datum")

    def test_certify_module_must_be_doi_module(self, split_file):
        self.assert_usage_error(["certify", split_file, "D", "M", "f"],
                                "'f'", "expected a doi_module")

    def test_split_with_non_morphism(self, split_file):
        self.assert_usage_error(["split", split_file, "D", "M", "g"],
                                "'M'", "expected a morphism")

    def test_split_with_dangling_source(self, split_file):
        self.assert_usage_error(["split", split_file, "D", "f_dangling", "g"],
                                "'f_dangling'", "'nowhere'")

    def test_split_with_source_not_a_module(self, split_file):
        self.assert_usage_error(["split", split_file, "D", "f_from_hopf", "g"],
                                "'k'", "expected a doi_module")

    def test_split_with_wrong_matrix_shape(self, split_file):
        # f maps M (dim 3) to N (dim 2), so its matrix must be 2x3
        self.assert_usage_error(["split", split_file, "D", "f_wrong_shape", "g"],
                                "'f_wrong_shape'", "3x2", "needs 2x3")
        self.assert_usage_error(["split", split_file, "D", "f_not_rows", "g"],
                                "'matrix' must be a list of rows")

    @pytest.mark.parametrize("tag", ["null", "object", "list", "int"])
    def test_split_with_non_string_coefficient(self, split_file, tag):
        # morphism entries parse like every other coefficient: strings only
        self.assert_usage_error(["split", split_file, "D", f"f_{tag}_entry", "g"],
                                "coefficients must be strings")

    def test_split_with_g_in_the_wrong_direction(self, split_file):
        # g must map f's target back to f's source
        self.assert_usage_error(["split", split_file, "D", "f", "f"],
                                "g 'f' maps 'M' to 'N'", "must map 'N' to 'M'")
        self.assert_usage_error(["split", split_file, "D", "g", "g"],
                                "g 'g' maps 'N' to 'M'", "must map 'M' to 'N'")

    def test_twist_of_non_hopf_object(self, split_file):
        self.assert_usage_error(["twist", split_file, "D", "f"],
                                "'D'", "expected a hom_hopf_algebra")

    @pytest.mark.parametrize("rows, cols", [(3, 2), (2, 3)])
    def test_twist_with_automorphism_of_wrong_shape(self, tmp_path, rows, cols):
        # 3x2 died with an IndexError traceback, 2x3 exited 1 on automorphism_comult
        data = json.loads(serialize_structure_file(golden_file("kZ2", Q)))
        data["objects"]["a"] = {"kind": "morphism", "source": "H", "target": "H",
                                "matrix": [[str(int(r == c)) for c in range(cols)]
                                           for r in range(rows)]}
        p = tmp_path / "shape.json"
        p.write_text(json.dumps(data))
        self.assert_usage_error(["twist", str(p), "H", "a"], f"{rows}x{cols}", "needs 2x2")

    @pytest.mark.parametrize("source, target", [("nowhere", "H"), ("H", "nowhere"),
                                                ("H2", "H"), ("H", "H2")])
    def test_twist_by_a_morphism_not_on_the_hopf_algebra(self, tmp_path, field, source, target):
        # both ends must name H; with either pointing elsewhere twist exited 0
        # and wrote H twisted by the matrix
        data = json.loads(serialize_structure_file(golden_file("kZ4", field)))
        data["objects"]["H2"] = data["objects"]["H"]
        data["objects"]["a"] = {"kind": "morphism", "source": source, "target": target,
                                "matrix": [[str(int(r == c)) for c in range(4)] for r in range(4)]}
        p = tmp_path / "ends.json"
        p.write_text(json.dumps(data))
        end, ref = ("source", source) if source != "H" else ("target", target)
        self.assert_usage_error(["twist", str(p), "H", "a"],
                                f"automorphism 'a': {end} {ref!r} is not the Hopf algebra 'H'")

    def test_non_string_basis_label_is_exit_2(self, tmp_path):
        # a label of another type died in AxiomReport.format with a TypeError
        data = json.loads(serialize_structure_file(golden_file("kZ2_corrupted_mult", Q)))
        data["objects"]["H"]["basis"] = [1, None]
        p = tmp_path / "labels.json"
        p.write_text(json.dumps(data))
        self.assert_usage_error(["check", str(p), "H"], "'basis' must list 2 strings")

    def test_split_over_a_datum_the_modules_are_not_over(self, tmp_path):
        # M and N are over D; D2 is kZ2's relative datum, whose algebra has
        # dimension 2.  This died in doi._action_matrix with an IndexError,
        # and later stopped at the dimensions of D2's algebra and M's action.
        data = json.loads(serialize_structure_file(golden_file("maschke_split_kZ2", Q)))
        other = json.loads(serialize_structure_file(golden_file("kZ2_relative_datum", Q)))
        for name, obj in other["objects"].items():
            data["objects"][name + "2"] = {key: value + "2" if key in ("hopf", "algebra",
                                                                      "coalgebra") else value
                                           for key, value in obj.items()}
        p = tmp_path / "mix.json"
        p.write_text(json.dumps(data))
        self.assert_usage_error(["split", str(p), "D2", "f", "g"],
                                "source of 'f' 'M' is over 'D'",
                                "expected a module over the datum 'D2'")

    def test_boolean_dim_is_exit_2(self, tmp_path):
        data = json.loads(serialize_structure_file(golden_file("kZ2", Q)))
        data["objects"]["H"]["dim"] = True
        p = tmp_path / "bool.json"
        p.write_text(json.dumps(data))
        self.assert_usage_error(["check", str(p), "H"], "'dim' must be a positive integer")

    def test_zero_dim_is_exit_2(self, tmp_path):
        data = json.loads(serialize_structure_file(golden_file("kZ2", Q)))
        data["objects"]["H"].update(dim=0, basis=[])
        p = tmp_path / "zero.json"
        p.write_text(json.dumps(data))
        self.assert_usage_error(["check", str(p), "H"],
                                "object 'H': 'dim' must be a positive integer")

    def test_modulus_one_is_exit_2(self):
        self.assert_usage_error(["examples", "kZ2", "--field", "GF:1"],
                                "modulus 1 is not a prime below 2**31")


class TestCommands:
    def test_one_parser_serves_every_call(self):
        # a parse, a failed parse and a listing all read the process's one
        # parser, and each still answers as a fresh parser would
        from homhopf import cli
        assert run_cli(["examples"])[0] == 0
        assert run_cli(["no-such-command"])[0] == 2
        rc, out, _ = run_cli(["examples"])
        assert rc == 0 and "kZ2" in out.split()
        assert cli._build_parser.cache_info().misses == 1

    def test_check_golden_ok(self, tmp_path):
        p = tmp_path / "kZ2.json"
        p.write_text(serialize_structure_file(golden_file("kZ2", Q)))
        rc, out, _ = run_cli(["check", str(p), "H"])
        assert rc == 0
        assert "PASS" in out

    def test_check_twisted_sweedler(self, tmp_path):
        p = tmp_path / "h4t.json"
        p.write_text(serialize_structure_file(golden_file("H4_twisted", Q)))
        rc, out, _ = run_cli(["check", str(p), "H"])
        assert rc == 0

    def test_check_corrupted_antipode(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(serialize_structure_file(golden_file("H4_corrupted_antipode", Q)))
        rc, out, _ = run_console(["check", str(p), "H"])
        assert rc == 1
        assert "antipode" in out and "(x)" in out

    def test_check_missing_object(self, tmp_path):
        p = tmp_path / "kZ2.json"
        p.write_text(serialize_structure_file(golden_file("kZ2", Q)))
        rc, _, err = run_cli(["check", str(p), "nothere"])
        assert rc == 2

    def test_parse_error_is_exit_2(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        rc, _, err = run_console(["check", str(p), "H"])
        assert rc == 2

    @pytest.mark.parametrize("kind", [["hom_hopf_algebra"], {"hom_hopf_algebra": 1}],
                             ids=["list", "dict"])
    def test_non_string_kind_is_exit_2(self, tmp_path, kind):
        p = tmp_path / "k.json"
        p.write_text(json.dumps({"field": "Q", "objects": {"H": {"kind": kind}}}))
        rc, _, err = run_cli(["check", str(p), "H"])
        assert rc == 2, err
        assert "Traceback" not in err
        assert "'H'" in err
        with pytest.raises(StructureParseError, match="object 'H' has unknown kind"):
            parse_structure_file(p.read_text())

    def test_deeply_nested_json_is_exit_2(self, tmp_path):
        p = tmp_path / "deep.json"
        depth = 100000
        p.write_text('{"field": "Q", "objects": ' + "[" * depth + "]" * depth + "}")
        rc, _, err = run_cli(["check", str(p), "H"])
        assert rc == 2, err
        assert "Traceback" not in err
        assert "nested too deeply" in err

    def test_find_integral_kz2(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(serialize_structure_file(golden_file("kZ2_trivial_datum", Q)))
        rc, out, _ = run_cli(["find-integral", str(p), "D"])
        assert rc == 0
        assert "theta(1 (x) 1) = 1*1" in out
        assert "theta(g (x) g) = 1*1" in out

    def test_find_integral_h4_infeasible(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(serialize_structure_file(golden_file("H4_trivial_datum", Q)))
        rc, out, _ = run_console(["find-integral", str(p), "D"])
        assert rc == 3
        assert "infeasible" in out
        assert "normalization" in out or "colinearity" in out

    def test_certify(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(serialize_structure_file(golden_file("maschke_split_kZ2", Q)))
        out_path = tmp_path / "cert.json"
        rc, out, _ = run_cli(["certify", str(p), "D", "M", "N", "--out", str(out_path)])
        assert rc == 0
        assert "verified" in out
        cert = parse_structure_file(out_path.read_text())
        raw = cert.raw["certificate"]
        assert raw["kind"] == "certificate"
        assert all(entry["retraction_ok"] for entry in raw["modules"])

    def test_certify_flags_failing_module(self, tmp_path):
        p = tmp_path / "m.json"
        data = json.loads(serialize_structure_file(golden_file("maschke_split_kZ2", Q)))
        # a structurally well-formed module whose coaction is zero: the
        # retraction cannot retract the unit, so certification fails
        bad = dict(data["objects"]["N"])
        dim = bad["dim"]
        bad["coaction"] = [[["0"] * 2 for _ in range(dim)] for _ in range(dim)]
        data["objects"]["Z"] = bad
        p.write_text(json.dumps(data))
        rc, out, _ = run_cli(["certify", str(p), "D", "N", "Z"])
        assert rc == 1
        assert "FAILED" in out

    def test_split_emits_verified_section(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(serialize_structure_file(golden_file("maschke_split_kZ2", Q)))
        out_path = tmp_path / "split.json"
        rc, out, _ = run_cli(["split", str(p), "D", "f", "g", "--out", str(out_path)])
        assert rc == 0
        sf = parse_structure_file(out_path.read_text())
        section = sf.build("section")
        f = sf.build("f")
        assert (f @ section).is_identity()
        from homhopf.doi import doi_morphism_report
        assert doi_morphism_report(section, sf.build("N"), sf.build("M"),
                                   sf.build("D")).passed

    @pytest.mark.parametrize("argv", [["find-integral"], ["certify", "M", "N"],
                                      ["split", "f", "g"]], ids=lambda a: a[0])
    @pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=["Q", "GF7"])
    @pytest.mark.parametrize("obj,key,value,families", [
        # S = 2 or S = 0 on k: nothing else reads the antipode, so without the
        # datum check each command printed "verified" and exited 0
        ("k", "antipode", [["2"]], ["antipode_left", "antipode_right"]),
        ("k", "antipode", [["0"]], ["antipode_left", "antipode_right"]),
        # g.1 = 2g breaks C as a module coalgebra (it was "infeasible", exit 3)
        ("C", "action", [[["1", "0"]], [["0", "2"]]],
         ["module_unit", "action_comultiplicative", "action_counit"]),
        # 1_A = 2 passes check_doi_datum alone and fails A's Hom-algebra laws
        ("A", "unit", ["2"], ["right_unit", "left_unit"]),
    ], ids=["S=2", "S=0", "C-action", "unit-2"])
    def test_datum_commands_reject_an_invalid_datum(self, tmp_path, argv, field, obj, key,
                                                    value, families):
        data = json.loads(serialize_structure_file(golden_file("maschke_split_kZ2", field)))
        data["objects"][obj][key] = value
        p = tmp_path / "m.json"
        p.write_text(json.dumps(data))
        rc, out, err = run_cli([argv[0], str(p), "D", *argv[1:]])
        assert rc == 1
        assert "verified" not in out
        assert "'D' is not a valid Doi datum" in err
        assert all(family in err for family in families)

    @pytest.mark.parametrize("argv", [["certify", "M", "N"], ["split", "f", "g"]],
                             ids=lambda a: a[0])
    @pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=["Q", "GF7"])
    @pytest.mark.parametrize("moved", ["M", "N"])
    def test_datum_commands_reject_a_module_over_another_datum(self, tmp_path, argv, field,
                                                               moved):
        # D2 is a copy of D, so nothing else tells the two apart: each command
        # printed "verified" and exited 0 on a module over D2
        data = json.loads(serialize_structure_file(golden_file("maschke_split_kZ2", field)))
        data["objects"]["D2"] = data["objects"]["D"]
        data["objects"][moved]["datum"] = "D2"
        p = tmp_path / "m.json"
        p.write_text(json.dumps(data))
        rc, out, err = run_cli([argv[0], str(p), "D", *argv[1:]])
        assert (rc, out) == (2, "")
        assert f"{moved!r} is over 'D2'; expected a module over the datum 'D'" in err

    def test_twist_output_passes_check(self, tmp_path):
        p = tmp_path / "kZ4.json"
        data = json.loads(serialize_structure_file(golden_file("kZ4", Q)))
        data["objects"]["a"] = {
            "kind": "morphism", "source": "H", "target": "H",
            "matrix": [["1", "0", "0", "0"], ["0", "0", "0", "1"],
                       ["0", "0", "1", "0"], ["0", "1", "0", "0"]]}
        p.write_text(json.dumps(data))
        out_path = tmp_path / "twisted.json"
        rc, _, err = run_cli(["twist", str(p), "H", "a", "--out", str(out_path)])
        assert rc == 0, err
        rc, out, _ = run_cli(["check", str(out_path), "H_twisted"])
        assert rc == 0

    def test_examples_lists_names(self):
        rc, out, _ = run_cli(["examples"])
        assert rc == 0
        assert "kZ2" in out.split()

    def test_examples_unknown_name(self):
        rc, _, err = run_cli(["examples", "nope"])
        assert rc == 2
        assert err.startswith("error: unknown example 'nope'; available: H4, ")

    def test_examples_round_trips_byte_identical(self, tmp_path):
        p = tmp_path / "e.json"
        rc, _, _ = run_cli(["examples", "kZ2", "--out", str(p)])
        assert rc == 0
        text = p.read_text()
        assert serialize_structure_file(parse_structure_file(text)) == text

    def test_gf7_examples(self, tmp_path):
        p = tmp_path / "e.json"
        rc, _, err = run_cli(["examples", "kZ2_trivial_datum", "--field", "GF:7",
                              "--out", str(p)])
        assert rc == 0, err
        rc, out, _ = run_cli(["find-integral", str(p), "D"])
        assert rc == 0

    def test_yd_example_checks(self, tmp_path):
        p = tmp_path / "yd.json"
        p.write_text(serialize_structure_file(golden_file("yd_kZ2", Q)))
        for obj in ["T", "A", "C", "D", "H", "M_trivial"]:
            rc, _, err = run_cli(["check", str(p), obj])
            assert rc == 0, (obj, err)

    def test_determinism_byte_identical_runs(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(serialize_structure_file(golden_file("kZ4_trivial_datum", Q)))
        # two interpreters (two hash seeds, unless PYTHONHASHSEED pins one)
        r1 = run_console(["find-integral", str(p), "D"])
        r2 = run_console(["find-integral", str(p), "D"])
        assert r1 == r2

    def test_main_callable_in_process(self, tmp_path, capsys):
        p = tmp_path / "kZ2.json"
        p.write_text(serialize_structure_file(golden_file("kZ2", Q)))
        assert main(["check", str(p), "H"]) == 0
