import dataclasses
import gc
import random
import sys
import tracemalloc

import pytest

from corpus import (random_graded_comodule, twist_corpus, yd_both_regular,
                    yd_regular_action_trivial_coaction,
                    yd_regular_action_unit_coaction,
                    yd_trivial_action_group_coaction)
from homhopf.applications import (check_yd_module, check_yd_substructures, comodule_to_doi,
                                  regular_comodule_algebra, relative_datum,
                                  trivial_datum, trivial_yd_module, yd_datum)
from homhopf.core import (HomHopfAlgebra, check_hom_comodule, check_hom_hopf,
                          opposite_tensor, yau_twist)
from homhopf.doi import (check_comodule_algebra, check_doi_datum, check_doi_module,
                         check_module_coalgebra, direct_sum_doi)
from homhopf.integrals import (Infeasible, IntegralCandidate, solve_normalized_integral,
                               verify_integral)
from homhopf.io import StructureFile, hopf_to_raw, yd_module_to_raw
from homhopf.linalg import Field, Matrix, Tensor3
from homhopf.report import ConstructionError
from homhopf.zoo import (group_algebra, one_dimensional_hopf, sweedler_h4, sweedler_scaling,
                         taft_algebra, twisted_group_algebra, twisted_sweedler)
from law_oracles import (DualIntegral, check_k_integral_conditions, coaction_formula_holds,
                         coaction_of_action_residuals, dual_right_integrals,
                         integral_from_dual)

Q = Field.rationals()


class TestDataConstructors:
    def test_relative_datum_kz2(self, field):
        h = group_algebra(2, field)
        d = relative_datum(h, regular_comodule_algebra(h))
        assert d.coalgebra.action is h.mult

    def test_relative_datum_scalar(self):
        h = one_dimensional_hopf(Q)
        assert relative_datum(h, regular_comodule_algebra(h)).hopf.dim == 1

    def test_relative_datum_twisted_sweedler(self):
        h = twisted_sweedler(Q, 2)
        d = relative_datum(h, regular_comodule_algebra(h))
        assert check_comodule_algebra(d.algebra, h).passed
        assert check_module_coalgebra(d.coalgebra, h).passed

    def test_trivial_datum_checker_equivalence(self):
        # Doi modules over (k, k, H) are exactly H-comodules: the verdicts of
        # the two checkers agree on valid and invalid candidates alike
        h = group_algebra(2, Q)
        d = trivial_datum(h)
        rng = random.Random(17)
        candidates = [random_graded_comodule(h, rng.randint(1, 3), rng) for _ in range(3)]
        from homhopf.core import HomComodule
        candidates.append(HomComodule(Q, 2, Matrix.identity(Q, 2),
                                      Tensor3.zeros(Q, 2, 2, 2)))
        bad = Tensor3.from_nested(Q, [[[1, 1], [0, 0]], [[0, 0], [1, 1]]])
        candidates.append(HomComodule(Q, 2, Matrix.identity(Q, 2), bad))
        for m in candidates:
            comodule_verdict = check_hom_comodule(m, h.as_coalgebra()).passed
            doi_verdict = check_doi_module(comodule_to_doi(m, d), d).passed
            assert comodule_verdict == doi_verdict

    def test_trivial_datum_sweedler(self):
        assert trivial_datum(sweedler_h4(Q)).coalgebra.dim == 4

    def test_trivial_datum_rejects_a_broken_coalgebra(self):
        # kZ2 with Delta(e_i) = 2 e_i (x) e_i fails both counit laws; checking
        # the datum (k, k, H) with check_doi_datum let it through, and the
        # solver then returned a "normalized integral" for it
        h = group_algebra(2, Q)
        doubled = Tensor3.from_nonzeros(Q, 2, 2, 2, {(i, i, i): 2 for i in range(2)})
        broken = HomHopfAlgebra(Q, 2, h.alpha, h.mult, h.unit, doubled, h.counit, h.antipode)
        with pytest.raises(ConstructionError, match="left_counit, right_counit"):
            trivial_datum(broken)

    def test_outputs_pass_exhaustive_checks_over_corpus(self, field):
        # relative_datum checks H and A but not C = H over itself, and
        # trivial_datum only H's coalgebra: each datum must still pass the
        # exhaustive Doi-datum check
        for h in twist_corpus(field, 5):
            d = relative_datum(h, regular_comodule_algebra(h))
            assert check_doi_datum(d).passed, (h.dim, h.alpha)
            assert check_doi_datum(trivial_datum(h)).passed, (h.dim, h.alpha)


class TestYdDatum:
    def test_scalar_hopf(self):
        d = yd_datum(one_dimensional_hopf(Q))
        assert d.hopf.dim == 1

    def test_kz2_components_pass(self, field):
        h = group_algebra(2, field)
        d = yd_datum(h)
        assert check_comodule_algebra(d.algebra, d.hopf).passed
        assert check_module_coalgebra(d.coalgebra, d.hopf).passed

    def test_kz2_grouplike_coaction(self):
        # the coaction of g is g (x) (g (x) g): S = id and identity twist
        h = group_algebra(2, Q)
        d = yd_datum(h)
        legs = [(w, k, str(v)) for (i, w, k, v) in d.algebra.coaction.nonzero() if i == 1]
        assert legs == [(1, 3, "1")]

    def test_twisted_sweedler_components_pass(self):
        h = twisted_sweedler(Q, 2)
        d = yd_datum(h)
        assert check_comodule_algebra(d.algebra, d.hopf).passed
        assert check_module_coalgebra(d.coalgebra, d.hopf).passed

    def test_outputs_pass_exhaustive_checks_over_corpus(self, field):
        # yd_datum checks neither structure over the square: both must pass
        # the exhaustive checkers on the corpus
        for h in twist_corpus(field, 5):
            d = yd_datum(h)
            assert check_comodule_algebra(d.algebra, d.hopf).passed, (h.dim, h.alpha)
            assert check_module_coalgebra(d.coalgebra, d.hopf).passed, (h.dim, h.alpha)

    def test_gf7_yd_datum(self):
        h = group_algebra(2, Field.prime(7))
        d = yd_datum(h)
        m = trivial_yd_module(h)
        assert check_yd_module(m, h).passed
        assert check_doi_module(m, d).passed

    def test_square_checked_through_its_factors(self, monkeypatch):
        # each construction checks its input H once and nothing it builds:
        # not H^op, the square or the structures over it; trivial_datum checks
        # H's coalgebra once, and no construction checks a whole datum
        import homhopf.core
        import homhopf.doi
        checked = {}

        def spy(name, real):
            def counting(x, *rest):
                checked.setdefault(name, []).append(x)
                return real(x, *rest)
            return counting

        for name, owner in (("check_hom_hopf", homhopf.core),
                            ("check_hom_coalgebra", homhopf.core),
                            ("check_doi_datum", homhopf.doi)):
            counting = spy(name, getattr(owner, name))
            for modname, module in list(sys.modules.items()):
                if modname.startswith("homhopf") and hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        for h, a in ((group_algebra(2, Q), Matrix.identity(Q, 2)),
                     (sweedler_h4(Q), sweedler_scaling(Q, 2))):
            builds = {"yau_twist": lambda: yau_twist(h, a),
                      "opposite_tensor": lambda: opposite_tensor(h),
                      "yd_datum": lambda: yd_datum(h),
                      "relative_datum": lambda: relative_datum(h, regular_comodule_algebra(h))}
            for what, build in builds.items():
                checked.clear()
                build()
                assert list(checked) == ["check_hom_hopf", "check_hom_coalgebra"], what
                assert len(checked["check_hom_hopf"]) == len(checked["check_hom_coalgebra"]) == 1
                assert checked["check_hom_hopf"][0] is h, what
            checked.clear()
            trivial_datum(h)
            assert list(checked) == ["check_hom_coalgebra"]
            assert [c.comult for c in checked["check_hom_coalgebra"]] == [h.comult]
            # the square keeps the factors' inverses instead of inverting itself
            square = yd_datum(h).hopf
            assert square.alpha_inv == h.alpha_inv.kron(h.alpha_inv)
            assert square.antipode_inv == h.antipode_inv.kron(h.antipode)

    def test_retains_each_repeated_fibre_once(self, field):
        # the square's structure constants repeat whole fibres; stored once
        # each this retains about 19 KiB over Q and 23 KiB over GF(7), and
        # about 50 and 68 KiB with every fibre stored apart
        h = twisted_group_algebra(4, 3, field)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            d = yd_datum(h)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert d.hopf.dim == 16
        assert retained < 32 * 1024

    def test_requires_invertible_antipode(self):
        h = group_algebra(2, Q)
        broken = type(h)(Q, 2, h.alpha, h.mult, h.unit, h.comult, h.counit,
                         Matrix.from_rows(Q, [[1, 1], [1, 1]]))
        with pytest.raises(ValueError):
            yd_datum(broken)


class TestTaftAlgebra:
    GF7 = Field.prime(7)

    def test_t3_presentation(self):
        # basis g^i x^j at 3j + i: g = 1, x = 3, g^2 = 2, x^2 = 6, gx = 4, g^2 x = 5
        h = taft_algebra(3, 2, self.GF7)
        f = self.GF7.of
        g, x = 1, 3
        assert h.dim == 9
        assert h.mult.at_pair(g, 2) == {0: f(1)}                 # g^3 = 1
        assert h.mult.at_pair(x, 6) == {}                        # x^3 = 0
        assert h.mult.at_pair(x, g) == {4: f(2)}                 # xg = zeta gx
        assert h.mult.at_pair(g, x) == {4: f(1)}
        assert h.comult.left_slice(x) == {x * 9 + 0: f(1), g * 9 + x: f(1)}
        assert h.antipode.columns()[x] == {5: f(-1)}             # S(x) = -g^-1 x
        assert h.counit == tuple(f(int(q < 3)) for q in range(9))

    @pytest.mark.parametrize("n, zeta, p", [(1, 1, 7), (2, 6, 7), (3, 2, 7), (3, 4, 7),
                                             (4, 2, 5)])
    def test_is_hom_hopf(self, n, zeta, p):
        assert check_hom_hopf(taft_algebra(n, zeta, Field.prime(p))).passed

    @pytest.mark.parametrize("n, zeta", [(3, 1), (3, 3), (6, 2)])
    def test_rejects_non_primitive_root(self, n, zeta):
        with pytest.raises(ValueError, match="primitive"):
            taft_algebra(n, zeta, self.GF7)

    def test_t3_yd_datum(self):
        h = taft_algebra(3, 2, self.GF7)
        d = yd_datum(h)
        assert d.hopf.dim == 81
        assert d.hopf.antipode == h.antipode.kron(h.antipode_inv)
        m = trivial_yd_module(h)
        assert check_yd_module(m, h).passed


def yd_corpus(h, rng):
    """Candidates with valid substructures, some satisfying the braided
    compatibility and some not."""
    out = [("trivial", trivial_yd_module(h), True)]
    out.append(("trivial_sum", direct_sum_doi(trivial_yd_module(h), trivial_yd_module(h)), True))
    out.append(("both_regular", yd_both_regular(h), None))
    out.append(("regular_action_unit_coaction", yd_regular_action_unit_coaction(h), None))
    if h.alpha.is_identity():
        out.append(("regular_action_trivial_coaction",
                    yd_regular_action_trivial_coaction(h), True))
        out.append(("trivial_action_group_coaction",
                    yd_trivial_action_group_coaction(h), True))
        mu = Matrix.from_rows(h.field, [[1, 2], [2, 1]])  # 1 + 2g, in the commutant
        out.append(("regular_action_trivial_coaction_twisted",
                    yd_regular_action_trivial_coaction(h, mu), None))
    return out


class TestYdModules:
    def test_trivial_module_everywhere(self, field):
        for h in [group_algebra(2, field), sweedler_h4(field), twisted_sweedler(field, 2)]:
            m = trivial_yd_module(h)
            assert check_yd_substructures(m, h).passed
            assert check_yd_module(m, h).passed

    def test_corpus_substructures_valid(self):
        rng = random.Random(8)
        for h in [group_algebra(2, Q), twisted_sweedler(Q, 2)]:
            for name, m, _ in yd_corpus(h, rng):
                assert check_yd_substructures(m, h).passed, name

    def test_known_verdicts(self):
        h = group_algebra(2, Q)
        for name, m, expect in yd_corpus(h, random.Random(9)):
            if expect is not None:
                assert check_yd_module(m, h).passed is expect, name

    def test_both_regular_fails_for_sweedler(self):
        h = sweedler_h4(Q)
        m = yd_both_regular(h)
        rep = check_yd_module(m, h)
        assert not rep.passed
        assert rep.violations[0].axiom == "yd_compatibility"

    def test_module_over_another_hopf_algebra_rejected(self):
        # a ValueError naming both dimensions, not an IndexError from inside
        m, h = trivial_yd_module(group_algebra(2, Q)), group_algebra(3, Q)
        for residuals in (check_yd_module, coaction_of_action_residuals):
            with pytest.raises(ValueError, match="by a 2-dimensional algebra but the algebra "
                                                 "has dimension 3"):
                residuals(m, h)
        coacted = dataclasses.replace(trivial_yd_module(h), coaction=m.coaction)
        for residuals in (check_yd_module, coaction_of_action_residuals):
            with pytest.raises(ValueError, match="into a 2-dimensional coalgebra but the "
                                                 "coalgebra has dimension 3"):
                residuals(coacted, h)

    def test_equivalence_of_the_two_compatibility_forms(self):
        # the braided law and the closed coaction-of-action formula must
        # agree on every candidate, across both base structures
        rng = random.Random(10)
        count = 0
        for h in [group_algebra(2, Q), twisted_sweedler(Q, 2)]:
            for name, m, _ in yd_corpus(h, rng):
                assert check_yd_module(m, h).passed == coaction_formula_holds(m, h), name
                count += 1
        assert count >= 10

    def test_doi_verdict_matches_yd_verdict(self):
        # a YD module is a Doi module over yd_datum(h): the Doi checker and
        # the YD checkers agree on every candidate, valid or not
        rng = random.Random(11)
        for h in [group_algebra(2, Q), twisted_sweedler(Q, 2)]:
            d = yd_datum(h)
            for name, m, _ in yd_corpus(h, rng):
                yd_ok = (check_yd_substructures(m, h).passed
                         and check_yd_module(m, h).passed)
                doi_ok = check_doi_module(m, d).passed
                assert yd_ok == doi_ok, name

    def test_round_trip_is_identity_on_tensors(self):
        # a yd_module entry of a structure file builds back the same tensors
        h = group_algebra(2, Q)
        m = trivial_yd_module(h)
        sf = StructureFile(Q, {"H": hopf_to_raw(h), "M": yd_module_to_raw(m, "H")})
        back = sf.build("M")
        assert back.action.entries == m.action.entries
        assert back.coaction.entries == m.coaction.entries
        assert back.mu == m.mu

    def test_doi_check_rejects_invalid(self):
        h = group_algebra(2, Q)
        d = yd_datum(h)
        m = yd_both_regular(h)
        assert not check_doi_module(m, d).passed
        assert not check_yd_module(m, h).passed


#: the nine structures of the feasibility table: (H, dimension of its right
#: integral functionals, axioms the first one's theta fails on the trivial
#: datum, the solver's certificate message or None where it finds theta)
_H4_CERTIFICATE = ("infeasible: row {} reduces to 0 = 1; combined from "
                   "colinearity(0, 3)@(0, 3), normalization(0,)@(0,)")
FEASIBILITY_TABLE = {
    "kZ2": (lambda f: group_algebra(2, f), 1, (), None),
    "kZ3": (lambda f: group_algebra(3, f), 1, (), None),
    "kZ4": (lambda f: group_algebra(4, f), 1, (), None),
    "kZ5": (lambda f: group_algebra(5, f), 1, (), None),
    "kZ6": (lambda f: group_algebra(6, f), 1, (), None),
    "kZ4t": (lambda f: twisted_group_algebra(4, 3, f), 1, (), None),
    "kZ6t": (lambda f: twisted_group_algebra(6, 5, f), 1, (), None),
    "H4": (sweedler_h4, 1, ("normalization",), _H4_CERTIFICATE.format(12)),
    "H4t": (lambda f: twisted_sweedler(f, 2), 0, None, _H4_CERTIFICATE.format(16)),
}


class TestDualIntegrals:
    def test_kz2_space(self, field):
        h = group_algebra(2, field)
        basis = dual_right_integrals(h)
        assert len(basis) == 1
        assert list(basis[0].phi) == [field.one(), field.zero()]

    def test_scalar_hopf(self):
        basis = dual_right_integrals(one_dimensional_hopf(Q))
        assert len(basis) == 1 and basis[0].phi == (Q.one(),)

    def test_sweedler_one_dimensional(self):
        basis = dual_right_integrals(sweedler_h4(Q))
        assert len(basis) == 1
        assert list(basis[0].phi) == [Q.zero(), Q.zero(), Q.one(), Q.zero()]

    def test_twisted_group_algebra(self):
        basis = dual_right_integrals(twisted_group_algebra(4, 3, Q))
        assert len(basis) == 1

    def test_integral_from_dual_kz2_matches_solver(self):
        h = group_algebra(2, Q)
        d = trivial_datum(h)
        sol = solve_normalized_integral(d)
        cand = integral_from_dual(dual_right_integrals(h)[0], h)
        assert cand.theta.entries == sol.theta.entries
        assert verify_integral(cand, d).passed

    def test_integral_from_dual_scalar(self):
        h = one_dimensional_hopf(Q)
        cand = integral_from_dual(DualIntegral(Q, (Q.one(),)), h)
        assert cand.theta.at(0, 0, 0) == Q.one()
        assert verify_integral(cand, trivial_datum(h)).passed

    def test_sweedler_dual_fails_normalization_only(self):
        h = sweedler_h4(Q)
        rep = verify_integral(integral_from_dual(dual_right_integrals(h)[0], h), trivial_datum(h))
        assert not rep.passed
        assert rep.failing_axioms() == ("normalization",)

    def test_kz4_from_dual_passes_k_conditions(self):
        h = group_algebra(4, Q)
        cand = integral_from_dual(dual_right_integrals(h)[0], h)
        assert check_k_integral_conditions(cand, h).passed

    @pytest.mark.parametrize("name", list(FEASIBILITY_TABLE))
    def test_feasibility_table(self, field, name):
        make, dim, failing, certificate = FEASIBILITY_TABLE[name]
        h = make(field)
        d = trivial_datum(h)
        duals = dual_right_integrals(h)
        assert len(duals) == dim
        if duals:
            assert verify_integral(integral_from_dual(duals[0], h), d).failing_axioms() == failing
        sol = solve_normalized_integral(d)
        if certificate is None:
            assert isinstance(sol, IntegralCandidate)
        else:
            assert isinstance(sol, Infeasible) and sol.message() == certificate

    def test_solver_feasible_exactly_when_the_dual_integral_verifies(self, field):
        # two routes to theta on the trivial datum: where both exist they agree
        for h in twist_corpus(field, 6):
            d = trivial_datum(h)
            sol = solve_normalized_integral(d)
            duals = dual_right_integrals(h)
            cand = integral_from_dual(duals[0], h) if duals else None
            verified = cand is not None and verify_integral(cand, d).passed
            assert isinstance(sol, IntegralCandidate) == verified
            if verified:
                assert cand.theta.entries == sol.theta.entries


class TestScalarConditions:
    def test_solved_kz2_passes(self, field):
        h = group_algebra(2, field)
        sol = solve_normalized_integral(trivial_datum(h))
        assert check_k_integral_conditions(sol, h).passed

    def test_zero_fails_normalization(self):
        h = group_algebra(2, Q)
        z = IntegralCandidate(Q, 2, 1, Tensor3.zeros(Q, 2, 2, 1))
        rep = check_k_integral_conditions(z, h)
        assert not rep.passed
        assert "normalization" in rep.failing_axioms()

    @pytest.mark.parametrize("make", [
        lambda: group_algebra(2, Q),
        lambda: group_algebra(3, Q),
        lambda: twisted_group_algebra(4, 3, Q),
        lambda: sweedler_h4(Q),
        lambda: twisted_sweedler(Q, 2),
    ])
    def test_specialization_consistency(self, make):
        # on the trivial datum the scalar conditions and the full verifier
        # agree, for solved integrals, dual-derived ones, and perturbations
        h = make()
        d = trivial_datum(h)
        candidates = []
        sol = solve_normalized_integral(d)
        if isinstance(sol, IntegralCandidate):
            candidates.append(sol)
            candidates.append(IntegralCandidate.from_vector(
                Q, h.dim, 1, [x + x for x in sol.theta.entries]))
        for phi in dual_right_integrals(h):
            candidates.append(integral_from_dual(phi, h))
        rng = random.Random(40)
        for _ in range(3):
            candidates.append(IntegralCandidate.from_vector(
                Q, h.dim, 1, [Q.of(rng.randint(-2, 2)) for _ in range(h.dim * h.dim)]))
        for cand in candidates:
            full = verify_integral(cand, d).passed
            scalar = check_k_integral_conditions(cand, h).passed
            assert full == scalar
