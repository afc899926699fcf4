import hashlib
import random
from itertools import product
from math import gcd

import pytest

from corpus import candidate, dense, dense_entries, is_canonical, twist_corpus
from law_oracles import reduced_mod
from homhopf.applications import (regular_comodule_algebra, relative_datum,
                                  trivial_datum, yd_datum)
from homhopf import integrals
from homhopf.doi import DoiDatum, ModuleCoalgebra
from homhopf.golden import golden_file
from homhopf.io import StructureFile, hopf_to_raw
from homhopf.integrals import (Infeasible, IntegralCandidate,
                               assemble_integral_system, integral_sides,
                               solve_normalized_integral, theta_index,
                               verify_integral)
from homhopf.linalg import Field, Tensor3, _rref_rows, vec_dense, vec_sub
from homhopf.zoo import (group_algebra, one_dimensional_hopf, sweedler_h4, taft_algebra,
                         twisted_group_algebra, twisted_sweedler)

Q = Field.rationals()


def datum_zoo(field):
    return {
        "trivial_k": trivial_datum(one_dimensional_hopf(field)),
        "trivial_kZ2": trivial_datum(group_algebra(2, field)),
        "trivial_tw_kZ4": trivial_datum(twisted_group_algebra(4, 3, field)),
        "trivial_H4": trivial_datum(sweedler_h4(field)),
        "relative_kZ2": relative_datum(group_algebra(2, field),
                                       regular_comodule_algebra(group_algebra(2, field))),
        "relative_tw_H4": relative_datum(twisted_sweedler(field, 2),
                                         regular_comodule_algebra(twisted_sweedler(field, 2))),
        "yd_kZ2": yd_datum(group_algebra(2, field)),
    }


class TestSystemShape:
    def test_unknown_count_trivial_kz2(self):
        s = assemble_integral_system(trivial_datum(group_algebra(2, Q)))
        assert s.unknown_count == 1 * 2 * 2 == 4

    def test_affine_row_count_kz2(self):
        s = assemble_integral_system(trivial_datum(group_algebra(2, Q)))
        assert s.affine_lhs.rows == 2
        assert all(lbl[0] == "normalization" for lbl in s.affine_labels)

    def test_unknown_count_relative_kz2(self):
        d = relative_datum(group_algebra(2, Q),
                           regular_comodule_algebra(group_algebra(2, Q)))
        s = assemble_integral_system(d)
        assert s.unknown_count == 2 * 4 == 8

    def test_row_labels_cover_all_families(self):
        s = assemble_integral_system(trivial_datum(group_algebra(2, Q)))
        fams = {lbl[0] for lbl in s.homogeneous_labels}
        assert fams == {"twist_compatibility", "colinearity", "module_linearity"}

    def test_row_counts_enumerate_instances(self):
        # one row per output coordinate of each condition instance
        d = relative_datum(group_algebra(2, Q),
                           regular_comodule_algebra(group_algebra(2, Q)))
        s = assemble_integral_system(d)
        da, dc = s.dim_a, s.dim_c
        by_family = {}
        for fam, _, _ in s.homogeneous_labels:
            by_family[fam] = by_family.get(fam, 0) + 1
        assert by_family["twist_compatibility"] == dc * dc * da
        assert by_family["colinearity"] == dc * dc * (da * dc)
        assert by_family["module_linearity"] == da * dc * dc * da
        assert s.affine_lhs.rows == dc * da


class TestOracleEquivalence:
    """The assembled rows and the direct evaluator are independent routes;
    their residuals must agree entry for entry on arbitrary candidates."""

    @pytest.mark.parametrize("name", ["trivial_kZ2", "trivial_tw_kZ4",
                                      "trivial_H4", "relative_kZ2",
                                      "relative_tw_H4", "yd_kZ2"])
    def test_rows_match_direct_evaluation(self, field, name):
        # five dense random candidates, then the sparse ones, on which the
        # evaluator gives each instance theta does not reach its shared empty sides
        d = datum_zoo(field)[name]
        s = assemble_integral_system(d)
        rng = random.Random(99)
        dense = [candidate(field, s.dim_c, s.dim_a,
                           [field.of(rng.randint(-3, 3)) for _ in range(s.unknown_count)])
                 for _ in range(5)]
        for cand in dense + _sparse_candidates(d, rng):
            vec = [cand.theta.at(*ijk)
                   for ijk in product(range(s.dim_c), range(s.dim_c), range(s.dim_a))]
            direct = _residuals(cand, d)
            assert set(direct) == {(fam, inst) for fam, inst, _ in
                                   s.homogeneous_labels + s.affine_labels}
            for r in range(s.homogeneous.rows):
                fam, inst, coord = s.homogeneous_labels[r]
                val = _dot(s.homogeneous.row(r), vec, field)
                ell = coord[0] * s.dim_c + coord[1] if len(coord) == 2 else coord[0]
                assert val == direct[(fam, inst)][ell]
            for r in range(s.affine_lhs.rows):
                fam, inst, coord = s.affine_labels[r]
                val = _dot(s.affine_lhs.row(r), vec, field) - s.affine_rhs[r]
                assert val == direct[(fam, inst)][coord[0]]

    @pytest.mark.parametrize("name", sorted(datum_zoo(Q)))
    def test_sides_hold_no_zero_and_stay_as_yielded(self, field, name):
        # the solver's ``lhs != rhs`` and ``check_vec``'s ``lhs == rhs`` compare
        # sparse sides, which is exact only if no side holds an explicit zero;
        # each instance is yielded once, and no side changes after its yield
        d = datum_zoo(field)[name]
        dc, da = d.coalgebra.coalgebra.dim, d.algebra.algebra.dim
        rng = random.Random(3801)
        cands = _sparse_candidates(d, rng) + [candidate(field, dc, da, [
            field.of(rng.randint(-3, 3)) for _ in range(dc * dc * da)])]
        solved = solve_normalized_integral(d)
        if isinstance(solved, IntegralCandidate):
            cands.append(solved)
        for cand in cands:
            sides, at_yield = [], []
            for fam, inst, lhs, rhs, _ in integral_sides(cand, d):
                sides.append((fam, inst, lhs, rhs))
                at_yield.append((fam, inst, dict(lhs), dict(rhs)))
            assert sides == at_yield
            assert len({(fam, inst) for fam, inst, _, _ in sides}) == len(sides)
            assert all(x for _, _, lhs, rhs in sides for x in (*lhs.values(), *rhs.values()))


def _sparse_candidates(d, rng) -> list:
    """theta_N (the normalization rows' theta) where those rows are
    consistent, a random theta of density 0.1, theta = 0 and a theta with one
    nonzero fibre."""
    field, dc, da = d.field, d.coalgebra.coalgebra.dim, d.algebra.algebra.dim
    n, zero = dc * dc * da, field.zero()
    out = []
    red, pivots = _rref_rows(integrals._normalization_rows(d), field)[:2]
    if n not in pivots:
        out.append(integrals._read_theta(d, red, pivots))
    out.append(candidate(field, dc, da, [field.of(rng.choice((1, -1, 2, 3)))
                                         if rng.random() < 0.1 else zero for _ in range(n)]))
    out.append(candidate(field, dc, da, [zero] * n))
    first = theta_index(rng.randrange(dc), rng.randrange(dc), 0, dc, da)
    out.append(candidate(field, dc, da, [field.of(rng.choice((1, -1, 2, 3)))
                                         if first <= m < first + da else zero for m in range(n)]))
    return out


def _residuals(cand, d):
    """(family, instance) -> the dense residual lhs - rhs, from the sides
    ``verify_integral`` compares."""
    return {(fam, inst): vec_dense(vec_sub(lhs, rhs), n, d.field.zero())
            for fam, inst, lhs, rhs, n in integral_sides(cand, d)}


def _dot(row, vec, field):
    acc = field.zero()
    for a, b in zip(row, vec):
        if a and b:
            acc = acc + a * b
    return acc


class TestSolve:
    def test_one_dimensional_everything(self, field):
        r = solve_normalized_integral(trivial_datum(one_dimensional_hopf(field)))
        assert isinstance(r, IntegralCandidate)
        assert r.theta.at(0, 0, 0) == field.one()

    def test_trivial_kz2_solution(self, field):
        r = solve_normalized_integral(trivial_datum(group_algebra(2, field)))
        assert isinstance(r, IntegralCandidate)
        one, zero = field.one(), field.zero()
        assert r.theta.at(0, 0, 0) == one and r.theta.at(1, 1, 0) == one
        assert r.theta.at(0, 1, 0) == zero and r.theta.at(1, 0, 0) == zero
        assert r.report.passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_group_algebras_feasible(self, field, n):
        r = solve_normalized_integral(trivial_datum(group_algebra(n, field)))
        assert isinstance(r, IntegralCandidate)
        assert verify_integral(r, trivial_datum(group_algebra(n, field))).passed

    def test_sweedler_infeasible_with_witness(self):
        r = solve_normalized_integral(trivial_datum(sweedler_h4(Q)))
        assert isinstance(r, Infeasible)
        assert r.witness_value
        assert r.combination
        fams = {lbl[0] for lbl, _ in r.combination}
        assert "normalization" in fams

    def test_twisted_sweedler_infeasible(self):
        r = solve_normalized_integral(trivial_datum(twisted_sweedler(Q, 2)))
        assert isinstance(r, Infeasible)

    def test_twisted_group_algebra_feasible(self):
        d = trivial_datum(twisted_group_algebra(4, 3, Q))
        r = solve_normalized_integral(d)
        assert isinstance(r, IntegralCandidate)
        assert r.report.passed

    def test_relative_kz2_feasible(self):
        d = relative_datum(group_algebra(2, Q),
                           regular_comodule_algebra(group_algebra(2, Q)))
        r = solve_normalized_integral(d)
        assert isinstance(r, IntegralCandidate)
        # support lies on the group element d^-1 c with coefficient frozen by
        # normalization; the deterministic solver zeroes the free off-diagonal
        assert r.theta.at(0, 0, 0) == Q.one()
        assert r.theta.at(1, 1, 0) == Q.one()

    def test_solution_is_deterministic(self):
        d = trivial_datum(group_algebra(4, Q))
        r1 = solve_normalized_integral(d)
        r2 = solve_normalized_integral(d)
        assert dense_entries(r1.theta) == dense_entries(r2.theta)


class TestVerify:
    def test_zero_candidate_fails_normalization_only(self):
        d = trivial_datum(group_algebra(2, Q))
        z = IntegralCandidate(Q, 2, 1, Tensor3.zeros(Q, 2, 2, 1))
        rep = verify_integral(z, d)
        assert not rep.passed
        assert rep.failing_axioms() == ("normalization",)

    def test_scaled_solution_fails_normalization_only(self):
        # homogeneity: the linear families survive scaling, normalization not
        d = trivial_datum(group_algebra(2, Q))
        sol = solve_normalized_integral(d)
        doubled = candidate(Q, 2, 1, [x + x for x in dense_entries(sol.theta)])
        rep = verify_integral(doubled, d)
        assert rep.failing_axioms() == ("normalization",)

    def test_homogeneous_families_scale(self):
        d = trivial_datum(group_algebra(3, Q))
        sol = solve_normalized_integral(d)
        tripled = candidate(Q, 3, 1, [Q.of(3) * x for x in dense_entries(sol.theta)])
        res = _residuals(tripled, d)
        for (fam, _), r in res.items():
            if fam != "normalization":
                assert not any(r)

    def test_candidate_rejects_theta_over_another_field(self):
        # over GF(7) the entry 8 is 1, so this theta would pass on kZ2 over Q
        theta = dense(Field.prime(7), (1, 0, 0, 8), (2, 2, 1))
        with pytest.raises(ValueError, match="the theta tensor is over GF.7. but the "
                                             "IntegralCandidate is over Q"):
            IntegralCandidate(Q, 2, 1, theta)

    def test_candidate_reduces_entries_over_gf(self):
        gf7 = Field.prime(7)
        cand = candidate(gf7, 2, 1, [1, 0, 0, 8])
        one = gf7.one()
        assert cand.theta == Tensor3.from_nonzeros(gf7, 2, 2, 1, {(0, 0, 0): one, (1, 1, 0): one})
        assert [str(x) for x in dense_entries(cand.theta)] == ["1", "0", "0", "1"]
        assert verify_integral(cand, trivial_datum(group_algebra(2, gf7))).passed

    def test_dimension_mismatch(self):
        d = trivial_datum(group_algebra(2, Q))
        wrong = IntegralCandidate(Q, 3, 1, Tensor3.zeros(Q, 3, 3, 1))
        with pytest.raises(ValueError):
            verify_integral(wrong, d)

    def test_solver_output_always_verifies(self, field):
        for name, d in datum_zoo(field).items():
            r = solve_normalized_integral(d)
            if isinstance(r, IntegralCandidate):
                assert verify_integral(r, d).passed, name


#: (datum, field) -> (witness_row, witness_value, combination), recorded with
#: the dense Gauss-Jordan kernel that the sparse one replaced; the
#: H4t_trivial_datum entries (the trivial datum of H4 twisted by x -> 2x)
#: with the sparse kernel, from the message the retired survey script pinned
PINNED_CERTIFICATES = {
    ("H4_trivial_datum", "Q"): (12, "1", [
        (("colinearity", (0, 3), (0, 3)), "-1"),
        (("normalization", (0,), (0,)), "1")]),
    ("H4_trivial_datum", "GF(7)"): (12, "1", [
        (("colinearity", (0, 3), (0, 3)), "6"),
        (("normalization", (0,), (0,)), "1")]),
    ("H4t_trivial_datum", "Q"): (16, "1", [
        (("colinearity", (0, 3), (0, 3)), "-1"),
        (("normalization", (0,), (0,)), "1")]),
    ("H4t_trivial_datum", "GF(7)"): (16, "1", [
        (("colinearity", (0, 3), (0, 3)), "6"),
        (("normalization", (0,), (0,)), "1")]),
    ("yd_H4_twisted", "Q"): (63, "1", [
        (("colinearity", (0, 3), (0, 3)), "-1"),
        (("colinearity", (0, 3), (1, 3)), "-1"),
        (("normalization", (0,), (0,)), "1"),
        (("normalization", (0,), (1,)), "1")]),
    ("yd_H4_twisted", "GF(7)"): (63, "1", [
        (("colinearity", (0, 3), (0, 3)), "6"),
        (("colinearity", (0, 3), (1, 3)), "6"),
        (("normalization", (0,), (0,)), "1"),
        (("normalization", (0,), (1,)), "1")]),
    # the Taft algebra T_3 at zeta = 2 exists over GF(7) only; both certificates name
    # normalization rows, which follow every module_linearity row
    ("trivial_T3", "GF(7)"): (72, "1", [
        (("colinearity", (0, 5), (0, 5)), "6"),
        (("normalization", (0,), (0,)), "1")]),
    ("yd_T3", "GF(7)"): (723, "1", [
        (("colinearity", (0, 7), (0, 7)), "6"),
        (("colinearity", (0, 7), (1, 7)), "2"),
        (("normalization", (0,), (0,)), "1"),
        (("normalization", (0,), (1,)), "5")]),
}


class TestWitness:
    def test_witness_is_exact_certificate(self):
        # on every pinned system, rebuilt by hand from the assembled rows: an
        # Infeasible combination cancels every row but not the right-hand
        # side, and a solution satisfies every row exactly
        for key in sorted(SYSTEM_DIGESTS):
            kind, base, flag = key
            field = Q if flag == "Q" else Field.prime(7)
            d = _pinned_datum(kind, base, field)
            r = solve_normalized_integral(d)
            s = assemble_integral_system(d)
            labels = list(s.homogeneous_labels) + list(s.affine_labels)
            rows = [s.homogeneous.row(i) for i in range(s.homogeneous.rows)]
            rows += [s.affine_lhs.row(i) for i in range(s.affine_lhs.rows)]
            rhs = [field.zero()] * s.homogeneous.rows + list(s.affine_rhs)
            if isinstance(r, IntegralCandidate):
                vec = dense_entries(r.theta)
                assert all(_dot(row, vec, field) == b for row, b in zip(rows, rhs)), key
                continue
            acc = [field.zero()] * s.unknown_count
            val = field.zero()
            for label, coeff in r.combination:
                i = labels.index(label)
                for j, x in enumerate(rows[i]):
                    acc[j] = acc[j] + coeff * x
                val = val + coeff * rhs[i]
            assert not any(acc), key
            assert val and val == r.witness_value, key

    @pytest.mark.parametrize("name", sorted({name for name, f in PINNED_CERTIFICATES if f == "Q"}))
    def test_certificate_is_pinned(self, field, name):
        # the certificate is a row of the elimination's transform, so a
        # changed pivot sequence would show in it
        d = {"H4_trivial_datum": lambda: golden_file("H4_trivial_datum", field).build("D"),
             "H4t_trivial_datum": lambda: trivial_datum(twisted_sweedler(field, 2)),
             "yd_H4_twisted": lambda: yd_datum(twisted_sweedler(field, 2))}[name]()
        _assert_pinned_certificate(d, name, field)

    @pytest.mark.parametrize("name", ["trivial_T3", "yd_T3"])
    def test_gf7_certificate_is_pinned(self, name):
        gf7 = Field.prime(7)
        kind, base = name.split("_")
        _assert_pinned_certificate(_pinned_datum(kind, base, gf7), name, gf7)

    def test_theta_index_flattening(self):
        assert theta_index(1, 0, 1, 2, 2) == 5


def _assert_pinned_certificate(d, name, field):
    """Solve ``d`` and compare its certificate with the pin of (name, field)."""
    r = solve_normalized_integral(d)
    assert isinstance(r, Infeasible)
    row, value, combination = PINNED_CERTIFICATES[(name, str(field))]
    assert r.witness_row == row
    assert r.witness_value == field.of(value)
    assert is_canonical(r.witness_value, field)
    assert [label for label, _ in r.combination] == [label for label, _ in combination]
    assert [coeff for _, coeff in r.combination] == [field.of(c) for _, c in combination]
    assert all(is_canonical(coeff, field) for _, coeff in r.combination)


def _pinned_datum(kind, base, field):
    h = {"kZ2": lambda: group_algebra(2, field),
         "tw_kZ3": lambda: twisted_group_algebra(3, 2, field),
         "H4": lambda: sweedler_h4(field),
         "tw_H4": lambda: twisted_sweedler(field, 2),
         "T3": lambda: taft_algebra(3, 2, field)}[base]()
    if kind == "trivial":
        return trivial_datum(h)
    if kind == "relative":
        return relative_datum(h, regular_comodule_algebra(h))
    return yd_datum(h)


def system_digest(s) -> str:
    """sha256 over every label, every row and every affine right-hand side
    of an assembled system, written as strings (a row densely, its zeros
    written as the field's zero)."""
    text, zero = [], str(s.field.zero())
    for labels, m in ((s.homogeneous_labels, s.homogeneous), (s.affine_labels, s.affine_lhs)):
        text.append(f"{m.rows}x{m.cols}")
        by_row = [{} for _ in range(m.rows)]
        for c, col in enumerate(m.columns()):
            for r, x in col.items():
                by_row[r][c] = str(x)
        for label, nonzeros in zip(labels, by_row):
            cells = [zero] * m.cols
            for c, x in nonzeros.items():
                cells[c] = x
            text.append(f"{label} {' '.join(cells)}")
    text.append(" ".join(map(str, s.affine_rhs)))
    return hashlib.sha256("\n".join(text).encode()).hexdigest()


#: (datum kind, base algebra, field) -> system_digest, recorded with the
#: assembler that built dense rows; the tw_H4 entries with the sparse
#: assembler that preceded the one-contraction-per-term assembler
SYSTEM_DIGESTS = {
    ("trivial", "kZ2", "Q"):
        "d091eb8cc0e34efdc71dc9998511219b48e9e33a830cad9c90a653cecdce6138",
    ("trivial", "kZ2", "GF7"):
        "c736935da9049df1d7d5ecf8770387b408dafa69ba6cf34207d287145b81cd8d",
    ("trivial", "tw_kZ3", "Q"):
        "10cb3e19b5264c9e1bd451268e0843435e995841428ce29a330e0b483bdf582e",
    ("trivial", "tw_kZ3", "GF7"):
        "2298798d84e8e3a70b14132d41e041767ab15b9e3b44211dbfb3102a29073ae9",
    ("trivial", "H4", "Q"):
        "435960202637a8a00d1c816c8588406181869eba1d9091ea00cf402dc30f279c",
    ("trivial", "H4", "GF7"):
        "b4b20eb42a997d8765a663ec0dc027b2ce75086b153701b8bd8a1b0a11635455",
    ("relative", "kZ2", "Q"):
        "56844cf5b2081be6d0afec7ee3ad3efd9e81e161deee8d27b18a6a53ba671991",
    ("relative", "kZ2", "GF7"):
        "a13a33c6f8d6b161c81b02adaf584611697088c6abde7497c763eb4ff9fad350",
    ("relative", "tw_kZ3", "Q"):
        "edec7fd78445a81af2d14023992dffccf91131a7ac9512e6638e260222dd0034",
    ("relative", "tw_kZ3", "GF7"):
        "b0787521cb1e49e12c0ec2f283ffb5e03c10911bd64d79c26a252aaa56538139",
    ("relative", "H4", "Q"):
        "e0bcdd6cf616118ab13082e0993e78b1eac37045265826d3c24e4054f0e7d31c",
    ("relative", "H4", "GF7"):
        "853852c362f7e74a612d09e2672cedec3a21533fb1da3d3ed2228b990219e9c5",
    ("yd", "kZ2", "Q"):
        "3b60f0ca8707d27bf2524a3ba3cefda0230059e833edc5a81a5d11acf02b5502",
    ("yd", "kZ2", "GF7"):
        "aa38b1a97091363e5b24c36812fb61ba199ca12c6920977db0711f9536a9774e",
    ("yd", "tw_kZ3", "Q"):
        "1f8689eb9598c7a618676216ac5751d5a2667db4dcfbad17a83be071d38ea38c",
    ("yd", "tw_kZ3", "GF7"):
        "8c7081587543fe6114d9b99f2445767e26435e0d886e72f7af37e30a297251be",
    ("yd", "H4", "Q"):
        "767be5d4e24f6e895e7d23c9057806da56d2bbe9d137a50899e04a032c32b514",
    ("yd", "H4", "GF7"):
        "fa1ea1ea17eeda0663c66071c81bd623958062cca553ced9601016ff62325af9",
    # twisted by lambda = 2: the rows carry entries such as 1/2, 1/4 and 3, not only 0 and +-1
    ("trivial", "tw_H4", "Q"):
        "2835dacb3610fca169267391c5164563d65a23bb92685c499c195c89050be2e9",
    ("trivial", "tw_H4", "GF7"):
        "d9de8d1696a4448ff4ee3c2b5f0e749e59c2994553173e94aed575566fa72cd0",
    ("relative", "tw_H4", "Q"):
        "d25934e3fed81f40157ad30d9a1f0dc9474b29b702ba2b1f9f567e048d602485",
    ("relative", "tw_H4", "GF7"):
        "fc59d093c0f62a88d53c81acf0f35281a19252f63c7063a78b463949a0c7d63e",
    ("yd", "tw_H4", "Q"):
        "fa9b476d5d1c7a1ad267381358f3f0a57d20f3574f033746ebd04031260c060c",
    ("yd", "tw_H4", "GF7"):
        "3badd0ab5212a3f2a4a1558ac6ad3fa298f6269cbcd8e818a09f089a8dab5452",
    # the Taft algebra T_3 at zeta = 2, over GF(7) only: its coproduct has zeta-weighted
    # legs, so the rows are not +-1 monomial rows like those of kZn
    ("trivial", "T3", "GF7"):
        "799d2aa27d974ed01a30f13398b633e166792f7275e25902c5bcfa57eb14d514",
    ("yd", "T3", "GF7"):
        "4cb9d54ea395c441c694e02e994ec6a28661a79addbf53d5b040525548263e2b",
}


class TestAssembledSystemPins:
    @pytest.mark.parametrize("key", sorted(SYSTEM_DIGESTS), ids="-".join)
    def test_system_is_pinned(self, key):
        kind, base, flag = key
        field = Field.rationals() if flag == "Q" else Field.prime(7)
        s = assemble_integral_system(_pinned_datum(kind, base, field))
        assert system_digest(s) == SYSTEM_DIGESTS[key]


def _sparse_rows(m) -> list:
    """The rows of ``m`` as {column: nonzero} dicts, read from its nonzeros
    rather than densified row by row."""
    rows = [{} for _ in range(m.rows)]
    for r, c, x in m.nonzero():
        rows[r][c] = x
    return rows


class TestEliminatedRows:
    """The solver eliminates the rows of the one row builder as they are,
    without forming matrices: ``_solve_all_rows`` takes every row, and the
    solver's first pass the normalization rows alone.  They must be the
    assembled system's rows, with each normalization right-hand side at column
    ``unknown_count``, and hold no zero, since elimination takes every stored
    scalar for a nonzero."""

    @pytest.mark.parametrize("key", sorted(SYSTEM_DIGESTS), ids="-".join)
    def test_rows_are_the_assembled_rows_and_hold_only_nonzeros(self, key, monkeypatch):
        kind, base, flag = key
        field = Field.rationals() if flag == "Q" else Field.prime(7)
        d = _pinned_datum(kind, base, field)
        seen = []

        def spy(rows, fld):
            seen.append([dict(row) for row in rows])
            return _rref_rows(rows, fld)

        monkeypatch.setattr(integrals, "_rref_rows", spy)
        integrals._solve_all_rows(d)
        (rows,) = seen
        s = assemble_integral_system(d)
        n = s.unknown_count
        want = _sparse_rows(s.homogeneous)
        affine = [{**row, n: b} if b else row
                  for row, b in zip(_sparse_rows(s.affine_lhs), s.affine_rhs)]
        assert rows == want + affine
        assert all(x for row in rows for x in row.values())
        # most rows cancel to empty; those must be empty, not rows of zeros
        assert any(not row for row in rows)
        # the first pass eliminates the affine rows alone, once; only a
        # fall-through eliminates again, and then every row
        seen.clear()
        solve_normalized_integral(d)
        assert seen[0] == affine
        assert seen[1:] in ([], [rows])


class TestFirstPass:
    """The solver's answer from the normalization rows alone is the answer of
    ``_solve_all_rows``, which eliminates every row: the same theta with the
    direct evaluator's report, or the same certificate."""

    @staticmethod
    def _assert_same_answer(d, key):
        fast, full = solve_normalized_integral(d), integrals._solve_all_rows(d)
        assert type(fast) is type(full), key
        if isinstance(full, Infeasible):
            assert (fast.witness_row, fast.witness_value, fast.combination) == (
                full.witness_row, full.witness_value, full.combination), key
        else:
            assert fast.theta == full.theta and dense_entries(fast.theta) == dense_entries(full.theta), key
            assert fast.report == verify_integral(fast, d), key
            assert fast.report.format() == verify_integral(fast, d).format(), key

    @staticmethod
    def _falls_through(d, monkeypatch) -> bool:
        calls = []
        full = integrals._solve_all_rows
        monkeypatch.setattr(integrals, "_solve_all_rows", lambda d: calls.append(d) or full(d))
        solve_normalized_integral(d)
        monkeypatch.undo()
        return bool(calls)

    @pytest.mark.parametrize("key", sorted(SYSTEM_DIGESTS), ids="-".join)
    def test_pinned_data_agree_with_the_full_elimination(self, key, monkeypatch):
        kind, base, flag = key
        field = Field.rationals() if flag == "Q" else Field.prime(7)
        d = _pinned_datum(kind, base, field)
        self._assert_same_answer(d, key)
        # the first pass is not vacuous: trivial kZn data end there, while the
        # infeasible data over H4, its twist and T3 fall through to the full
        # elimination
        if kind == "trivial" and "kZ" in base:
            assert not self._falls_through(d, monkeypatch)
        if base in ("H4", "tw_H4", "T3") and kind != "relative":
            assert self._falls_through(d, monkeypatch)

    def test_twist_corpus_agrees_with_the_full_elimination(self, field):
        for h in twist_corpus(field, 5):
            for d in (trivial_datum(h), relative_datum(h, regular_comodule_algebra(h)),
                      yd_datum(h)):
                self._assert_same_answer(d, (h.dim, d.algebra.dim, d.coalgebra.dim))


class TestCrossField:
    """Data over Q whose GF(7) data are their reduction mod 7.  Where the two
    augmented systems have the same pivot columns, some pivot minor is
    nonzero mod 7, so the GF(7) RREF is the Q RREF reduced: both answers are
    infeasible, or theta over GF(7) is theta over Q reduced mod 7.  Rank can
    only drop mod 7."""

    @staticmethod
    def _pairs():
        gf7 = Field.prime(7)
        for kind, base, flag in sorted(SYSTEM_DIGESTS):
            if flag == "Q" and (kind, base, "GF7") in SYSTEM_DIGESTS:
                yield _pinned_datum(kind, base, Q), _pinned_datum(kind, base, gf7)

        def reduced(h):  # H's file read over GF(7): its coefficients reduced mod 7
            return StructureFile(gf7, {"H": hopf_to_raw(h)}).build("H")

        def relative(h):
            return relative_datum(h, regular_comodule_algebra(h))

        for h in twist_corpus(Q, 5):
            h7 = reduced(h)
            for make in (trivial_datum, relative, yd_datum):
                yield make(h), make(h7)
        # the ladder's kZ6-kZ8 and one seeded twist of each, kZ7 among them,
        # whose group order 7 divides
        rng = random.Random(3503)
        for n in (6, 7, 8):
            k = rng.choice([k for k in range(2, n) if gcd(k, n) == 1])
            for h in (group_algebra(n, Q), twisted_group_algebra(n, k, Q)):
                h7 = reduced(h)
                for make in (trivial_datum, relative):
                    yield make(h), make(h7)
        # three seeded one-entry corruptions of the action of twisted kZ4's
        # relative datum, each entry set to an integer it does not hold
        h = twisted_group_algebra(4, 3, Q)
        h7 = reduced(h)
        for _ in range(3):
            ent = {(i, j, k): x for i, j, k, x in h.mult.nonzero()}
            ent[rng.randrange(4), rng.randrange(4), rng.randrange(4)] = rng.choice((2, 3, -1))
            yield tuple(DoiDatum(g, regular_comodule_algebra(g), ModuleCoalgebra(
                g.as_coalgebra(), Tensor3.from_nonzeros(g.field, 4, 4, 4, {
                    key: g.field.of(x) for key, x in ent.items()}))) for g in (h, h7))

    def test_gf7_answers_are_the_q_answers_reduced(self):
        # pairs whose pivots agreed, by answer; and all pairs
        agreed, total = {"feasible": 0, "infeasible": 0}, 0
        for dq, d7 in self._pairs():
            nunk = dq.algebra.dim * dq.coalgebra.dim ** 2
            pq, p7 = (_rref_rows(integrals._integral_rows(d)[0], d.field)[1] for d in (dq, d7))
            assert len(p7) <= len(pq)
            total += 1
            if p7 != pq:
                continue
            aq, a7 = solve_normalized_integral(dq), solve_normalized_integral(d7)
            if nunk in pq:
                assert isinstance(aq, Infeasible) and isinstance(a7, Infeasible)
                agreed["infeasible"] += 1
            else:
                assert ({(i, j, k): x.value for i, j, k, x in a7.theta.nonzero()}
                        == reduced_mod(aq.theta, 7))
                agreed["feasible"] += 1
        # not vacuous: the pivots agreed on most pairs, both answers among them
        assert sum(agreed.values()) >= 0.9 * total and min(agreed.values()) > 0


class TestRowLabels:
    """The solver labels only the rows its certificate names, from the layout
    of the row builder; that must be the assembled system's label of the row."""

    @pytest.mark.parametrize("key", sorted(SYSTEM_DIGESTS), ids="-".join)
    def test_derived_label_is_the_assembled_label(self, key):
        kind, base, flag = key
        field = Field.rationals() if flag == "Q" else Field.prime(7)
        d = _pinned_datum(kind, base, field)
        s = assemble_integral_system(d)
        labels = s.homogeneous_labels + s.affine_labels
        layout = integrals._integral_rows(d)[1]
        assert [integrals._row_label(layout, i) for i in range(len(labels))] == list(labels)
        for i in (len(labels), -1):
            with pytest.raises(IndexError, match=f"no row {i} in the integral system"):
                integrals._row_label(layout, i)
