import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (dense, dense_entries, integral_corpus, random_module_over_group_algebra,
                    random_module_over_scalars, seeded_twist, twist_breaking_module)
from homhopf.applications import (comodule_to_doi, regular_comodule_algebra,
                                  relative_datum, trivial_datum)
from homhopf.doi import DoiModule, check_doi_module, direct_sum_doi, doi_morphism_report, induce
from homhopf.integrals import (Infeasible, IntegralCandidate, solve_normalized_integral,
                               verify_integral)
from homhopf.linalg import Field, Matrix, Tensor3
from homhopf.maschke import (SeparabilityCertificate, build_retraction, canonical_module,
                             extract_integral, retraction_report, separability_report,
                             split_epimorphism, split_monomorphism)
from homhopf.report import ConstructionError
from homhopf.zoo import (group_algebra, inclusion_matrix, one_dimensional_hopf,
                         projection_matrix, regular_comodule, regular_module, sweedler_h4,
                         trivial_comodule, twisted_group_algebra,
                         twisted_sweedler)
from law_oracles import retraction_naturality_report

Q = Field.rationals()


@pytest.fixture(scope="module", params=[Q, Field.prime(7)], ids=str)
def corpus_cases(request):
    """(d, theta, the canonical module A (x) C, the induced summand) for
    every case of ``integral_corpus``; the guards run the exhaustive reports
    on what the Maschke layer builds over these."""
    return [(d, theta, canonical_module(d), k)
            for d, theta, k in integral_corpus(request.param, 5)]


@pytest.fixture(scope="module")
def kz2_setting():
    h = group_algebra(2, Q)
    d = trivial_datum(h)
    theta = solve_normalized_integral(d)
    return h, d, theta


class TestBuildRetraction:
    def test_values_on_regular_comodule(self, kz2_setting):
        h, d, theta = kz2_setting
        m = comodule_to_doi(regular_comodule(h.as_coalgebra()), d)
        nu = build_retraction(theta, m, d)
        # nu(1 (x) 1) = 1, nu(1 (x) g) = 0
        assert nu.apply({0: Q.one()}) == {0: Q.one()}
        assert nu.apply({1: Q.one()}) == {}

    def test_one_dimensional_scalar(self):
        d = trivial_datum(one_dimensional_hopf(Q))
        theta = solve_normalized_integral(d)
        m = comodule_to_doi(trivial_comodule(one_dimensional_hopf(Q)), d)
        nu = build_retraction(theta, m, d)
        assert nu.apply({0: Q.one()}) == {0: Q.one()}

    def test_retracts_unit_on_corpus(self, kz2_setting):
        h, d, theta = kz2_setting
        rng = random.Random(21)
        corpus = [comodule_to_doi(regular_comodule(h.as_coalgebra()), d),
                  comodule_to_doi(trivial_comodule(h), d)]
        for _ in range(8):
            n = random_module_over_scalars(Q, rng.randint(1, 3), rng)
            corpus.append(induce(n, d))
        corpus.append(direct_sum_doi(corpus[0], corpus[1]))
        assert len(corpus) >= 10
        for m in corpus:
            nu = build_retraction(theta, m, d)
            assert (nu @ m.coaction.as_map_to_pair()).is_identity()

    def test_output_passes_retraction_report_over_corpus(self, corpus_cases):
        for d, theta, c, k in corpus_cases:
            for m in (c, k):
                assert retraction_report(build_retraction(theta, m, d), m, d).passed

    def test_rejects_non_integral(self, kz2_setting):
        h, d, theta = kz2_setting
        from homhopf.integrals import IntegralCandidate
        bad = IntegralCandidate(Q, 2, 1, Tensor3.zeros(Q, 2, 2, 1))
        m = comodule_to_doi(regular_comodule(h.as_coalgebra()), d)
        with pytest.raises(ConstructionError):
            build_retraction(bad, m, d)


class TestRetractionReport:
    """The full report on maps that are not retractions, pinned when the
    invariants were still checked one by one: violations in order, their
    residuals (as a digest) and the instance count."""

    @pytest.fixture(scope="class")
    def setting(self):
        # beta on A and gamma on C both nontrivial
        h = twisted_group_algebra(3, 2, Q)
        d = relative_datum(h, regular_comodule_algebra(h))
        m = canonical_module(d)
        nu = build_retraction(solve_normalized_integral(d), m, d)
        return d, m, nu

    @staticmethod
    def summary(rep):
        text = "\n".join(f"{v.axiom} {v.index} {' '.join(map(str, v.residual))}"
                         for v in rep.violations)
        return (rep.checked, [(v.axiom, v.index) for v in rep.violations],
                hashlib.sha256(text.encode()).hexdigest())

    def test_zero_map(self, setting):
        d, m, nu = setting
        zero = Matrix.zeros(Q, nu.rows, nu.cols)
        assert self.summary(retraction_report(zero, m, d)) == (
            6, [("retracts_unit", ())],
            "1ada5aa07acb9b64074a92c9e7fdaddc159bfa8abe975a9c2939c16e781e458d")

    def test_retraction_with_one_entry_changed(self, setting):
        d, m, nu = setting
        assert retraction_report(nu, m, d).passed
        ent = list(dense_entries(nu))
        ent[1] = ent[1] + Q.one()
        bad = dense(Q, ent, nu.shape)
        assert self.summary(retraction_report(bad, m, d)) == (
            6, [("a_linear", (0,)), ("a_linear", (1,)), ("a_linear", (2,)),
                ("c_colinear", ()), ("twist_commutes", ())],
            "215a1a79e009f23d9c7aada81c2a2c25243878326a67acc7d28fff01fc70d0f0")


class TestRetractionOfSolvedIntegral:
    @pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=str)
    @settings(max_examples=30, deadline=None)
    @given(base=st.sampled_from([2, 3, 4, 5, "H4"]), relative=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_solved_integral_retracts_the_canonical_module(self, field, base, relative, seed):
        # whenever the solver returns an integral, its retraction on A (x) C
        # passes the report; trivial data over H4 are infeasible
        h = seeded_twist(base, field, random.Random(seed))
        d = relative_datum(h, regular_comodule_algebra(h)) if relative else trivial_datum(h)
        theta = solve_normalized_integral(d)
        assert isinstance(theta, IntegralCandidate) or (base == "H4" and not relative)
        if isinstance(theta, IntegralCandidate):
            m = canonical_module(d)
            assert retraction_report(build_retraction(theta, m, d), m, d).passed


class TestExtraction:
    def test_round_trip_classical(self, kz2_setting):
        _, d, theta = kz2_setting
        nu = build_retraction(theta, canonical_module(d), d)
        back = extract_integral(nu, d)
        assert dense_entries(back.theta) == dense_entries(theta.theta)

    def test_round_trip_twisted(self):
        d = trivial_datum(twisted_group_algebra(4, 3, Q))
        theta = solve_normalized_integral(d)
        nu = build_retraction(theta, canonical_module(d), d)
        back = extract_integral(nu, d)
        assert dense_entries(back.theta) == dense_entries(theta.theta)

    def test_round_trip_relative(self):
        d = relative_datum(group_algebra(2, Q),
                           regular_comodule_algebra(group_algebra(2, Q)))
        theta = solve_normalized_integral(d)
        nu = build_retraction(theta, canonical_module(d), d)
        back = extract_integral(nu, d)
        assert dense_entries(back.theta) == dense_entries(theta.theta)

    @pytest.mark.parametrize("make", [
        lambda: twisted_group_algebra(4, 3, Q),
        lambda: twisted_group_algebra(3, 2, Q),
    ], ids=["tw_kZ4", "tw_kZ3"])
    def test_round_trip_twisted_relative(self, make):
        # both twists nontrivial at once: beta on A and gamma on C
        h = make()
        d = relative_datum(h, regular_comodule_algebra(h))
        theta = solve_normalized_integral(d)
        nu = build_retraction(theta, canonical_module(d), d)
        back = extract_integral(nu, d)
        assert dense_entries(back.theta) == dense_entries(theta.theta)

    def test_round_trip_twisted_sweedler_relative(self):
        # H-valued integrals exist for the relative datum even though the
        # scalar-valued ones do not
        h = twisted_sweedler(Q, 2)
        d = relative_datum(h, regular_comodule_algebra(h))
        theta = solve_normalized_integral(d)
        assert not isinstance(theta, Infeasible)
        nu = build_retraction(theta, canonical_module(d), d)
        back = extract_integral(nu, d)
        assert dense_entries(back.theta) == dense_entries(theta.theta)

    def test_trivial_datum_scalar(self):
        d = trivial_datum(one_dimensional_hopf(Q))
        theta = solve_normalized_integral(d)
        nu = build_retraction(theta, canonical_module(d), d)
        assert extract_integral(nu, d).theta.at(0, 0, 0) == Q.one()

    def test_zero_map_is_not_a_retraction(self, kz2_setting):
        _, d, _ = kz2_setting
        ac = canonical_module(d)
        zero = Matrix.zeros(Q, ac.dim, ac.dim * d.coalgebra.dim)
        with pytest.raises(ConstructionError) as exc:
            extract_integral(zero, d)
        assert "retracts_unit" in exc.value.report.failing_axioms()

    def test_extracted_integral_verifies(self, kz2_setting):
        _, d, theta = kz2_setting
        nu = build_retraction(theta, canonical_module(d), d)
        assert verify_integral(extract_integral(nu, d), d).passed

    def test_extracted_integral_verifies_over_corpus(self, corpus_cases):
        for d, theta, c, _ in corpus_cases:
            back = extract_integral(build_retraction(theta, c, d), d)
            assert verify_integral(back, d).passed
            assert back.theta == theta.theta


class TestSplitting:
    def _setting(self):
        h = group_algebra(2, Q)
        d = trivial_datum(h)
        theta = solve_normalized_integral(d)
        reg = comodule_to_doi(regular_comodule(h.as_coalgebra()), d)
        tri = comodule_to_doi(trivial_comodule(h), d)
        big = direct_sum_doi(reg, tri)
        return d, theta, reg, tri, big

    def test_identity_splits_trivially(self):
        d, theta, reg, _, _ = self._setting()
        eye = Matrix.identity(Q, 2)
        section = split_epimorphism(eye, eye, reg, reg, theta, d)
        assert (eye @ section).is_identity()

    def test_projection_example(self):
        d, theta, reg, tri, big = self._setting()
        f = projection_matrix(Q, 3, 0, 2)
        g = inclusion_matrix(Q, 3, 0, 2)
        section = split_epimorphism(f, g, big, reg, theta, d)
        assert (f @ section).is_identity()
        assert doi_morphism_report(section, reg, big, d).passed

    def test_monomorphism_variant(self):
        d, theta, reg, tri, big = self._setting()
        f = inclusion_matrix(Q, 3, 0, 2)   # reg -> big, Doi morphism
        g = projection_matrix(Q, 3, 0, 2)  # A-linear retraction
        retr = split_monomorphism(f, g, reg, big, theta, d)
        assert (retr @ f).is_identity()
        assert doi_morphism_report(retr, big, reg, d).passed

    def test_sections_pass_exhaustive_checks_over_corpus(self, corpus_cases):
        # split off each summand of C (+) K, as an epimorphism and as a
        # monomorphism: every section is a Doi morphism that splits
        for d, theta, c, k in corpus_cases:
            m = direct_sum_doi(c, k)
            for n, start in ((c, 0), (k, c.dim)):
                proj = projection_matrix(d.field, m.dim, start, n.dim)
                incl = inclusion_matrix(d.field, m.dim, start, n.dim)
                section = split_epimorphism(proj, incl, m, n, theta, d)
                assert (proj @ section).is_identity()
                assert doi_morphism_report(section, n, m, d).passed
                retr = split_monomorphism(incl, proj, n, m, theta, d)
                assert (retr @ incl).is_identity()
                assert doi_morphism_report(retr, m, n, d).passed

    def test_monomorphism_into_a_non_doi_module_rejected(self):
        # N = reg (+) bad with f the inclusion of reg: f, g and g . f pass,
        # so only N's own check can reject it
        d, theta, reg, _, _ = self._setting()
        n = direct_sum_doi(reg, twist_breaking_module(Q))
        f, g = inclusion_matrix(Q, 4, 0, 2), projection_matrix(Q, 4, 0, 2)
        with pytest.raises(ConstructionError, match="target is not a valid Doi module") as exc:
            split_monomorphism(f, g, reg, n, theta, d)
        assert exc.value.report.failing_axioms() == check_doi_module(n, d).failing_axioms()

    def test_each_hypothesis_is_checked_once(self, monkeypatch):
        import homhopf.doi as doi
        import homhopf.maschke as maschke
        d, theta, reg, _, big = self._setting()
        calls = []
        for module, name in ((maschke, "verify_integral"), (maschke, "check_doi_module"),
                             (maschke, "retraction_report"), (doi, "check_hom_module")):
            def spy(first, *rest, name=name, real=getattr(module, name)):
                calls.append((name, first))
                return real(first, *rest)
            monkeypatch.setattr(module, name, spy)

        build_retraction(theta, reg, d)
        assert calls == [("verify_integral", theta), ("check_doi_module", reg)]
        calls.clear()
        # the epimorphism big -> reg: M = big is checked, N = reg is not
        f, g = projection_matrix(Q, 3, 0, 2), inclusion_matrix(Q, 3, 0, 2)
        split_epimorphism(f, g, big, reg, theta, d)
        assert calls == [("verify_integral", theta), ("check_doi_module", big)]
        nu = build_retraction(theta, canonical_module(d), d)
        calls.clear()
        extract_integral(nu, d)
        # A (x) C is induced once, from A's regular module, which is checked
        assert [name for name, _ in calls] == ["check_hom_module", "retraction_report"]
        assert calls[1] == ("retraction_report", nu)

    def test_non_section_rejected(self):
        d, theta, reg, tri, big = self._setting()
        f = projection_matrix(Q, 3, 0, 2)
        g_bad = inclusion_matrix(Q, 3, 2, 1) @ Matrix.zeros(Q, 1, 2)
        with pytest.raises(ConstructionError) as exc:
            split_epimorphism(f, g_bad, big, reg, theta, d)
        assert "does not split" in str(exc.value) or "A-linear" in str(exc.value)

    def test_non_morphism_rejected(self):
        d, theta, reg, tri, big = self._setting()
        f_bad = dense(Q, [[1, 0, 0], [1, 1, 0]])
        g = inclusion_matrix(Q, 3, 0, 2)
        with pytest.raises(ConstructionError):
            split_epimorphism(f_bad, g, big, reg, theta, d)

    def test_twist_window_zero_still_succeeds(self):
        # the canonical candidate needs no twist adjustment
        d, theta, reg, tri, big = self._setting()
        f = projection_matrix(Q, 3, 0, 2)
        g = inclusion_matrix(Q, 3, 0, 2)
        section = split_epimorphism(f, g, big, reg, theta, d)
        assert (f @ section).is_identity()

    def test_splitting_with_nontrivial_twist(self):
        h = twisted_group_algebra(4, 3, Q)
        d = trivial_datum(h)
        theta = solve_normalized_integral(d)
        reg = comodule_to_doi(regular_comodule(h.as_coalgebra()), d)
        tri = comodule_to_doi(trivial_comodule(h), d)
        big = direct_sum_doi(reg, tri)
        f = projection_matrix(Q, 5, 0, 4)
        g = inclusion_matrix(Q, 5, 0, 4)
        section = split_epimorphism(f, g, big, reg, theta, d)
        assert (f @ section).is_identity()
        assert doi_morphism_report(section, reg, big, d).passed

    @pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=str)
    def test_seeded_splittings_of_twisted_summands(self, field):
        # M = N (+) K from induced modules over seeded twists of kZn and H4;
        # a section off by a power of a twist mu != id fails here
        twisted = 0
        for seed in (18001, 18002):
            rng = random.Random(seed)
            for base in (2, 3, 4, 5, "H4"):
                h = seeded_twist(base, field, rng)
                for relative in (False, True):
                    d = (relative_datum(h, regular_comodule_algebra(h)) if relative
                         else trivial_datum(h))
                    theta = solve_normalized_integral(d)
                    if isinstance(theta, Infeasible):
                        assert base == "H4" and not relative
                        continue
                    a = d.algebra.algebra

                    def module():
                        if not relative:
                            return random_module_over_scalars(field, rng.randint(1, 2), rng)
                        if base != "H4" and a.alpha.is_identity():
                            return random_module_over_group_algebra(h, rng.randint(1, 2), rng)
                        return regular_module(a)

                    n, k = induce(module(), d), induce(module(), d)
                    m = direct_sum_doi(n, k)
                    twisted += not n.mu.is_identity()
                    proj = projection_matrix(field, m.dim, 0, n.dim)
                    incl = inclusion_matrix(field, m.dim, 0, n.dim)
                    section = split_epimorphism(proj, incl, m, n, theta, d)
                    assert (proj @ section).is_identity()
                    assert doi_morphism_report(section, n, m, d).passed
                    retr = split_monomorphism(incl, proj, n, m, theta, d)
                    assert (retr @ incl).is_identity()
                    assert doi_morphism_report(retr, m, n, d).passed
        assert twisted >= 10


class TestNaturality:
    def test_inclusion_naturality(self, kz2_setting):
        h, d, theta = kz2_setting
        reg = comodule_to_doi(regular_comodule(h.as_coalgebra()), d)
        tri = comodule_to_doi(trivial_comodule(h), d)
        big = direct_sum_doi(reg, tri)
        inc = inclusion_matrix(Q, 3, 2, 1)
        assert retraction_naturality_report(inc, tri, big, theta, d).passed

    def test_projection_naturality(self, kz2_setting):
        h, d, theta = kz2_setting
        reg = comodule_to_doi(regular_comodule(h.as_coalgebra()), d)
        tri = comodule_to_doi(trivial_comodule(h), d)
        big = direct_sum_doi(reg, tri)
        proj = projection_matrix(Q, 3, 0, 2)
        assert retraction_naturality_report(proj, big, reg, theta, d).passed


class TestSeparability:
    def test_certificate_for_kz2(self, kz2_setting):
        h, d, _ = kz2_setting
        reg = comodule_to_doi(regular_comodule(h.as_coalgebra()), d)
        tri = comodule_to_doi(trivial_comodule(h), d)
        cert = separability_report(d, [("regular", reg), ("trivial", tri)])
        assert isinstance(cert, SeparabilityCertificate)
        assert cert.all_passed
        assert cert.theta.report.passed

    def test_module_breaking_its_module_laws_is_flagged(self, kz2_setting):
        # k acting through 2 mu breaks module_unit: the verdict is False,
        # not a ConstructionError out of the report's induce
        h, d, _ = kz2_setting
        reg = comodule_to_doi(regular_comodule(h.as_coalgebra()), d)
        doubled = dense(Q, lambda i, _, j: 2 * reg.action.at(i, 0, j), (2, 1, 2))
        bad = DoiModule(Q, 2, reg.mu, doubled, reg.coaction)
        cert = separability_report(d, [("regular", reg), ("doubled", bad)])
        assert cert.checked_modules == (("regular", True), ("doubled", False))
        # over (kZ2, kZ2, kZ2), k with g acting as 0 breaks the module laws,
        # yet the retraction built on it passes retraction_report
        rel = relative_datum(h, regular_comodule_algebra(h))
        g_as_zero = DoiModule(Q, 1, Matrix.identity(Q, 1), dense(Q, [[[1], [0]]]),
                              dense(Q, [[[1, 0]]]))
        assert separability_report(rel, [("g as 0", g_as_zero)]).checked_modules == (
            ("g as 0", False),)

    def test_infeasible_for_sweedler(self):
        d = trivial_datum(sweedler_h4(Q))
        out = separability_report(d, [])
        assert isinstance(out, Infeasible)

    def test_scalar_certificate(self):
        h = one_dimensional_hopf(Q)
        d = trivial_datum(h)
        m = comodule_to_doi(trivial_comodule(h), d)
        cert = separability_report(d, [("point", m)])
        assert cert.all_passed
        assert cert.theta.theta.at(0, 0, 0) == Q.one()

    def test_relative_datum_certificate(self):
        h = group_algebra(2, Q)
        d = relative_datum(h, regular_comodule_algebra(h))
        rng = random.Random(31)
        mods = []
        for i in range(3):
            n = random_module_over_group_algebra(h, rng.randint(1, 3), rng)
            mods.append((f"induced{i}", induce(n, d)))
        cert = separability_report(d, mods)
        assert isinstance(cert, SeparabilityCertificate)
        assert cert.all_passed
