import collections
import dataclasses
import random
from types import SimpleNamespace

import pytest

from corpus import (dense, random_module_over_group_algebra, random_module_over_scalars,
                    twist_breaking_module, twist_corpus)
from homhopf import core, doi
from homhopf.applications import (check_yd_module, check_yd_substructures, comodule_to_doi,
                                  regular_comodule_algebra, relative_datum,
                                  trivial_datum, trivial_yd_module, yd_datum,
                                  yd_sides)
from homhopf.core import (check_hom_comodule, check_hom_hopf, check_hom_module,
                          hopf_automorphism_report)
from homhopf.doi import (ComoduleAlgebra, DoiDatum, DoiModule, ModuleCoalgebra, _counit,
                         check_comodule_algebra,
                         check_doi_datum, check_doi_module,
                         check_module_coalgebra, check_triangle_identities,
                         direct_sum_doi, doi_morphism_report, induce,
                         module_morphism_report)
from homhopf.integrals import integral_sides, solve_normalized_integral
from homhopf.linalg import Field, Matrix, Tensor3, vec_dense
from homhopf.maschke import (build_retraction, canonical_module, extract_integral,
                             retraction_report, separability_report, split_epimorphism,
                             split_monomorphism)
from homhopf.report import ConstructionError
from homhopf.zoo import (group_algebra, inclusion_matrix, projection_matrix,
                         regular_comodule, regular_module, sweedler_h4, trivial_comodule,
                         twisted_group_algebra, twisted_sweedler)
from law_oracles import (check_k_integral_conditions, coaction_of_action_residuals,
                         dual_right_integrals, integral_from_dual, retraction_naturality_report)

Q = Field.rationals()


@pytest.fixture(scope="module")
def rel_kz2():
    h = group_algebra(2, Q)
    return relative_datum(h, regular_comodule_algebra(h))


@pytest.fixture(scope="module")
def triv_kz2():
    return trivial_datum(group_algebra(2, Q))


def _trivial_datum_parts(field):
    """kZ2, its trivial datum, the regular comodule as a Doi module over it,
    the datum's integral and an identity map, all over ``field``."""
    h = group_algebra(2, field)
    d = trivial_datum(h)
    return SimpleNamespace(h=h, d=d, m=comodule_to_doi(regular_comodule(h.as_coalgebra()), d),
                           theta=solve_normalized_integral(d), f=Matrix.identity(field, 2))


class TestDatumBoundary:
    """DoiDatum rejects parts that cannot belong together when it is built,
    not deep inside a checker."""

    def test_mixed_fields_rejected(self):
        # this probe used to reach check_doi_datum and die with
        # TypeError: unsupported operand type(s) for *: 'GFElement' and 'Fraction'
        with pytest.raises(ValueError, match=r"comodule algebra is over GF\(7\) but the Hopf algebra is over Q"):
            relative_datum(group_algebra(2, Q),
                           regular_comodule_algebra(group_algebra(2, Field.prime(7))))

    def test_module_coalgebra_over_another_field_rejected(self):
        h, h7 = group_algebra(2, Q), group_algebra(2, Field.prime(7))
        with pytest.raises(ValueError, match=r"module coalgebra is over GF\(7\) but the Hopf algebra is over Q"):
            DoiDatum(h, regular_comodule_algebra(h), ModuleCoalgebra(h7.as_coalgebra(), h7.mult))

    def test_coaction_and_action_over_another_field_rejected(self):
        h, h7 = group_algebra(2, Q), group_algebra(2, Field.prime(7))
        with pytest.raises(ValueError, match=r"the coaction tensor is over GF\(7\) but the HomAlgebra is over Q"):
            ComoduleAlgebra(h.as_algebra(), h7.comult)
        with pytest.raises(ValueError, match=r"the action tensor is over GF\(7\) but the HomCoalgebra is over Q"):
            ModuleCoalgebra(h.as_coalgebra(), h7.mult)

    # Over Q an integral scalar is an int, which a GFElement would take for
    # an element of GF(p), so every entry must reject the mixed pair before
    # any arithmetic.  Each probe used to die with TypeError: unsupported
    # operand type(s) for *: 'GFElement' and 'Fraction'.
    @pytest.mark.parametrize("entry", [
        lambda m, mq, d, h: check_doi_module(m, d),
        lambda m, mq, d, h: check_hom_module(m, d.algebra.algebra),
        lambda m, mq, d, h: check_hom_comodule(m, d.coalgebra.coalgebra),
        lambda m, mq, d, h: check_yd_module(m, h),
        lambda m, mq, d, h: induce(m, d),
        lambda m, mq, d, h: check_triangle_identities(d, m, mq),
        lambda m, mq, d, h: check_triangle_identities(d, mq, m),
    ], ids=["check_doi_module", "check_hom_module", "check_hom_comodule",
            "check_yd_module", "induce", "triangle_m", "triangle_n"])
    def test_checker_entry_rejects_module_over_another_field(self, entry):
        h = group_algebra(2, Q)
        m = trivial_yd_module(group_algebra(2, Field.prime(7)))
        with pytest.raises(ValueError, match=r"the DoiModule is over GF\(7\) but the \w+ is over Q"):
            entry(m, trivial_yd_module(h), yd_datum(h), h)

    @pytest.mark.parametrize("entry", [
        lambda q, p: hopf_automorphism_report(q.h, p.f),
        lambda q, p: module_morphism_report(p.f, q.m, q.m, q.d.algebra.algebra),
        lambda q, p: doi_morphism_report(p.f, q.m, q.m, q.d),
        lambda q, p: build_retraction(p.theta, q.m, q.d),
        lambda q, p: retraction_report(build_retraction(p.theta, p.m, p.d), q.m, q.d),
        lambda q, p: retraction_naturality_report(p.f, q.m, q.m, q.theta, q.d),
        lambda q, p: list(integral_sides(p.theta, q.d)),
        lambda q, p: direct_sum_doi(q.m, p.m),
        lambda q, p: list(yd_sides(trivial_yd_module(p.h), q.h)),
        lambda q, p: coaction_of_action_residuals(trivial_yd_module(p.h), q.h),
        lambda q, p: check_k_integral_conditions(
            integral_from_dual(dual_right_integrals(p.h)[0], p.h), q.h),
        lambda q, p: integral_from_dual(dual_right_integrals(p.h)[0], q.h),
        lambda q, p: extract_integral(build_retraction(p.theta, canonical_module(p.d), p.d), q.d),
        lambda q, p: split_epimorphism(q.f, q.f, q.m, q.m, p.theta, q.d),
        lambda q, p: split_monomorphism(q.f, q.f, q.m, p.m, q.theta, q.d),
        lambda q, p: check_yd_substructures(trivial_yd_module(p.h), q.h),
        lambda q, p: separability_report(q.d, [("regular", p.m)]),
        lambda q, p: comodule_to_doi(regular_comodule(p.h.as_coalgebra()), q.d),
    ], ids=["hopf_automorphism_report", "module_morphism_report", "doi_morphism_report",
            "build_retraction", "retraction_report", "retraction_naturality_report",
            "integral_sides", "direct_sum_doi", "yd_sides",
            "coaction_of_action_residuals", "check_k_integral_conditions",
            "integral_from_dual", "extract_integral", "split_epimorphism",
            "split_monomorphism", "check_yd_substructures", "separability_report",
            "comodule_to_doi"])
    def test_entry_rejects_part_over_another_field(self, entry):
        # the Q parts meet a GF(7) morphism, integral, module or functional;
        # each probe used to die with a TypeError on mixed scalars.  The
        # second codings of tests/law_oracles.py must reject them as well,
        # or a cross-check could compare a verdict with garbage
        with pytest.raises(ValueError, match=r"is over (Q|GF\(7\)) but the \w+ is over (Q|GF\(7\))"):
            entry(_trivial_datum_parts(Q), _trivial_datum_parts(Field.prime(7)))

    def test_coaction_by_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="coaction is into a 3-dimensional coalgebra "
                                             "but the Hopf algebra has dimension 2"):
            relative_datum(group_algebra(2, Q), regular_comodule_algebra(group_algebra(3, Q)))

    def test_action_by_another_dimension_rejected(self):
        h, h3 = group_algebra(2, Q), group_algebra(3, Q)
        with pytest.raises(ValueError, match="action is by a 3-dimensional algebra "
                                             "but the Hopf algebra has dimension 2"):
            DoiDatum(h, regular_comodule_algebra(h), ModuleCoalgebra(h3.as_coalgebra(), h3.mult))


class TestComponentChecks:
    def test_hopf_is_comodule_algebra_over_itself(self, field):
        for h in [group_algebra(2, field), sweedler_h4(field), twisted_sweedler(field, 2)]:
            assert check_comodule_algebra(regular_comodule_algebra(h), h).passed

    def test_hopf_is_module_coalgebra_over_itself(self, field):
        from homhopf.doi import ModuleCoalgebra
        for h in [group_algebra(2, field), sweedler_h4(field), twisted_sweedler(field, 2)]:
            c = ModuleCoalgebra(h.as_coalgebra(), h.mult)
            assert check_module_coalgebra(c, h).passed

    def test_zero_coaction_fails_unitality(self):
        h = group_algebra(2, Q)
        a = ComoduleAlgebra(h.as_algebra(), Tensor3.zeros(Q, 2, 2, 2))
        rep = check_comodule_algebra(a, h)
        assert not rep.passed
        assert "coaction_unit" in rep.failing_axioms()

    def test_datum_check_merges_components(self, rel_kz2):
        assert check_doi_datum(rel_kz2).passed

    @pytest.mark.parametrize("case", ["hopf", "module_coalgebra", "comodule_algebra",
                                      "doi_module", "datum"])
    def test_each_product_table_is_built_once(self, monkeypatch, case):
        # each tensor's table of products of basis vectors is built once, as
        # one shared dict per distinct product, and every map the checker
        # applies to products (each side of a law, and x0y0 (x) x1y1 in
        # leg_products) is applied once per distinct product
        d = yd_datum(twisted_sweedler(Q))
        m = canonical_module(d)
        check = {
            "hopf": lambda: check_hom_hopf(d.hopf),
            "module_coalgebra": lambda: check_module_coalgebra(d.coalgebra, d.hopf),
            "comodule_algebra": lambda: check_comodule_algebra(d.algebra, d.hopf),
            "doi_module": lambda: check_doi_module(m, d),
            # K's table serves the Hom-Hopf, comodule-algebra and module-coalgebra parts
            "datum": lambda: check_doi_datum(d),
        }[case]
        tables, products, calls = [], set(), []
        real_table, real_tensor, real_dot = core.product_table, core.vec_tensor, core.vec_dot

        def table_spy(t):
            table = real_table(t)
            tables.append((t, table))
            products.update(id(p) for row in table for p in row)
            return table

        def spy(name, real, at, of):
            # record (name, the product args[at], the map args[of]) for a call
            # on a product; the records keep both alive, so no id is reused
            def call(*args):
                if id(args[at]) in products:
                    calls.append((name, args[at], args[of]))
                return real(*args)
            return call

        for module in (core, doi):
            monkeypatch.setattr(module, "product_table", table_spy)
            monkeypatch.setattr(module, "vec_dot", spy("dot", real_dot, 1, 2))
        monkeypatch.setattr(core, "vec_combine", spy("combine", core.vec_combine, 0, 1))
        monkeypatch.setattr(core, "vec_tensor", lambda u, v, n: calls.append(("tensor", u, v))
                            or real_tensor(u, v, n))
        monkeypatch.setattr(Tensor3, "apply_left",
                            spy("apply_left", Tensor3.apply_left, 1, 0))
        assert check().passed
        assert sorted(collections.Counter(id(t) for t, _ in tables).values()) == [1] * len(tables)
        for t, table in tables:
            assert len({id(p) for row in table for p in row}) == len(set(t._fibres))
            assert [[dict(p) for p in row] for row in table] == [
                [t.at_pair(i, j) for j in range(t.d2)] for i in range(t.d1)]
        assert {name for name, _, _ in calls} >= {"tensor", "apply_left"}
        repeats = collections.Counter((name, id(p), id(f)) for name, p, f in calls)
        assert max(repeats.values()) == 1


def _merged_checks(d):
    """The datum's three public checks, merged in the order ``check_doi_datum`` gives."""
    return (check_hom_hopf(d.hopf).merged(check_comodule_algebra(d.algebra, d.hopf))
            .merged(check_module_coalgebra(d.coalgebra, d.hopf)))


def _assert_same_report(got, want):
    assert got.violations == want.violations
    assert got.checked == want.checked
    assert got.format() == want.format()
    assert got.format(verbose=True) == want.format(verbose=True)


class TestDatumCheck:
    """``check_doi_datum`` builds H's product table once for its three parts
    and reports exactly what the three public checks report, merged."""

    @pytest.mark.parametrize("kind", ["trivial", "relative", "yd"])
    def test_datum_check_is_the_merge_of_its_three_checks(self, field, kind):
        make = {"trivial": trivial_datum, "yd": yd_datum,
                "relative": lambda h: relative_datum(h, regular_comodule_algebra(h))}[kind]
        for h in twist_corpus(field, 3):
            d = make(h)
            rep = check_doi_datum(d)
            assert rep.passed
            _assert_same_report(rep, _merged_checks(d))

    def test_failing_datum_check_is_the_merge_of_its_three_checks(self, field):
        # every part broken: an antipode that is not one, a doubled coaction
        # and a zero action
        h = twisted_group_algebra(3, 2, field)
        n = h.dim
        bad_h = dataclasses.replace(h, antipode=Matrix.identity(field, n))
        a = ComoduleAlgebra(h.as_algebra(), Tensor3.from_nonzeros(
            field, n, n, n, {(i, j, k): 2 * e for i, j, k, e in h.comult.nonzero()}))
        c = ModuleCoalgebra(h.as_coalgebra(), Tensor3.zeros(field, n, n, n))
        d = DoiDatum(bad_h, a, c)
        rep = check_doi_datum(d)
        assert {"antipode_left", "coaction_unit", "module_unit"} <= set(rep.failing_axioms())
        _assert_same_report(rep, _merged_checks(d))


class TestDoiModules:
    def test_induced_module_passes(self, rel_kz2):
        n = random_module_over_group_algebra(rel_kz2.hopf, 3, random.Random(1))
        assert check_doi_module(induce(n, rel_kz2), rel_kz2).passed

    def test_trivial_datum_modules_are_comodules(self, triv_kz2):
        h = group_algebra(2, Q)
        m = comodule_to_doi(regular_comodule(h.as_coalgebra()), triv_kz2)
        assert check_doi_module(m, triv_kz2).passed

    def test_zero_coaction_fails(self, triv_kz2):
        m = comodule_to_doi(regular_comodule(group_algebra(2, Q).as_coalgebra()), triv_kz2)
        bad = DoiModule(Q, m.dim, m.mu, m.action, Tensor3.zeros(Q, m.dim, m.dim, 2))
        rep = check_doi_module(bad, triv_kz2)
        assert not rep.passed
        assert "comodule_counit" in rep.failing_axioms()

    def test_mis_shaped_action_or_coaction_rejected(self, triv_kz2):
        m = comodule_to_doi(regular_comodule(group_algebra(2, Q).as_coalgebra()), triv_kz2)
        with pytest.raises(ValueError, match="action tensor has wrong shape"):
            DoiModule(Q, m.dim, m.mu, Tensor3.zeros(Q, m.dim, 1, 3), m.coaction)
        with pytest.raises(ValueError, match="coaction tensor has wrong shape"):
            DoiModule(Q, m.dim, m.mu, m.action, Tensor3.zeros(Q, m.dim, 3, 2))
        with pytest.raises(ValueError, match="twist has wrong shape"):
            DoiModule(Q, m.dim, Matrix.zeros(Q, 2, 3), m.action, m.coaction)
        with pytest.raises(ValueError, match="module twist is not invertible"):
            DoiModule(Q, m.dim, Matrix.zeros(Q, 2, 2), m.action, m.coaction)

    def test_induced_module_is_a_hom_module(self, rel_kz2):
        from homhopf.core import HomModule
        n = random_module_over_group_algebra(rel_kz2.hopf, 2, random.Random(8))
        assert isinstance(induce(n, rel_kz2), HomModule)

    def test_check_doi_module_inverts_nothing(self, rel_kz2, monkeypatch):
        # the module and comodule checks read the module itself, whose
        # twist was inverted once at construction
        n = random_module_over_group_algebra(rel_kz2.hopf, 2, random.Random(9))
        m = induce(n, rel_kz2)
        real = Matrix.inverse
        calls = []

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(Matrix, "inverse", counting)
        assert check_doi_module(m, rel_kz2).passed
        assert calls == []

    @pytest.mark.parametrize("datum", ["relative_kZ2", "trivial_kZ3_twisted"])
    def test_induced_twist_inverse_is_not_recomputed(self, field, datum, monkeypatch):
        # induce forms mu^-1 (x) gamma^-1 from inverses it already holds
        if datum == "relative_kZ2":
            h = group_algebra(2, field)
            d = relative_datum(h, regular_comodule_algebra(h))
            n = random_module_over_group_algebra(h, 3, random.Random(4))
        else:
            d = trivial_datum(twisted_group_algebra(3, 2, field))
            n = random_module_over_scalars(field, 2, random.Random(5))
        real = Matrix.inverse
        calls = []

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(Matrix, "inverse", counting)
        m = induce(n, d)
        assert calls == []
        monkeypatch.setattr(Matrix, "inverse", real)
        assert m.mu_inv == m.mu.inverse()
        assert check_doi_module(m, d).passed

    def test_induce_dimension(self, rel_kz2):
        n = random_module_over_group_algebra(rel_kz2.hopf, 4, random.Random(2))
        g = induce(n, rel_kz2)
        assert g.dim == n.dim * rel_kz2.coalgebra.dim

    def test_induce_rejects_invalid_module(self, rel_kz2):
        from homhopf.core import HomModule
        bad = HomModule(Q, 2, Matrix.identity(Q, 2), Tensor3.zeros(Q, 2, 2, 2))
        with pytest.raises(ConstructionError):
            induce(bad, rel_kz2)

    def test_induced_regular_coaction_shape(self, rel_kz2):
        # on A (x) C the coaction is (beta^-1(a) (x) c1) (x) gamma(c2)
        from homhopf.core import HomModule
        alg = rel_kz2.algebra.algebra
        regular = HomModule(Q, alg.dim, alg.alpha, alg.mult)
        g = induce(regular, rel_kz2)
        dc = rel_kz2.coalgebra.dim
        for a in range(alg.dim):
            for c in range(dc):
                legs = vec_dense(g.coaction.left_slice(a * dc + c), g.dim * dc, Q.zero())
                expect = [Q.zero()] * len(legs)
                # grouplike c: (a (x) c) -> (a (x) c) (x) c for the classical datum
                expect[(a * dc + c) * dc + c] = Q.one()
                assert legs == expect


class TestAdjunction:
    def test_unit_map_is_coaction(self, triv_kz2):
        # the unit rho_M of the regular kZ2-comodule sends g to g (x) g
        h = group_algebra(2, Q)
        m = comodule_to_doi(regular_comodule(h.as_coalgebra()), triv_kz2)
        eta = m.coaction.as_map_to_pair()
        assert [eta.apply({g: Q.one()}) for g in range(2)] == [{0: Q.one()}, {3: Q.one()}]

    def test_triangles_report_a_corrupted_module(self, triv_kz2):
        # M is not checked as a Doi module: its grading coaction is not
        # adjusted to the non-diagonal twist, so the comodule twist law
        # breaks, and the forgotten-side identity fails, since counit . rho
        # sends e_1 to eps(g) mu(e_1) = e_0 + e_1
        assert "comodule_twist" in check_doi_module(twist_breaking_module(Q), triv_kz2).failing_axioms()
        n = random_module_over_scalars(Q, 2, random.Random(3))
        rep = check_triangle_identities(triv_kz2, twist_breaking_module(Q), n)
        assert (rep.checked, rep.failing_axioms()) == (2, ("triangle_forgotten",))
        assert [v.residual for v in rep.violations] == [(0, 1, 0, 0)]

    @pytest.mark.parametrize("relative", [False, True], ids=["trivial", "relative"])
    def test_unit_and_counit_pass_morphism_reports_over_corpus(self, field, relative):
        # the unit rho and the counit n (x) c -> eps(c) mu(n) must pass the
        # exhaustive morphism reports
        for h in twist_corpus(field, 5):
            d = relative_datum(h, regular_comodule_algebra(h)) if relative else trivial_datum(h)
            a = d.algebra.algebra
            n = regular_module(a)
            gn = induce(n, d)
            ggn = induce(gn, d)
            assert doi_morphism_report(gn.coaction.as_map_to_pair(), gn, ggn, d).passed
            assert module_morphism_report(_counit(n, d), gn, n, a).passed
            assert module_morphism_report(_counit(gn, d), ggn, gn, a).passed
            assert check_triangle_identities(d, gn, n).passed

    def test_counit_map_values(self, rel_kz2):
        # counit sends n (x) c to eps(c) mu(n); on the regular module of the
        # classical datum: (1 (x) g) -> 1
        from homhopf.core import HomModule
        alg = rel_kz2.algebra.algebra
        regular = HomModule(Q, alg.dim, alg.alpha, alg.mult)
        delta = _counit(regular, rel_kz2)
        dc = rel_kz2.coalgebra.dim
        out = delta.apply({0 * dc + 1: Q.one()})
        assert out == {0: Q.one()}

    def test_counit_annihilates_counit_kernel(self, triv_kz2):
        n = random_module_over_scalars(Q, 2, random.Random(3))
        delta = _counit(n, triv_kz2)
        dc = triv_kz2.coalgebra.dim
        # vector 1 (x) (e_0 - e_1): counit of (e_0 - e_1) is 0 for a group algebra
        vec = {0: Q.one(), 1: -Q.one()}
        assert delta.apply(vec) == {}

    def test_triangles_trivial_datum_one_dim(self):
        d = trivial_datum(group_algebra(2, Q))
        n = random_module_over_scalars(Q, 1, random.Random(4))
        m = comodule_to_doi(trivial_comodule(group_algebra(2, Q)), d)
        assert check_triangle_identities(d, m, n).passed

    def test_triangles_regular(self, rel_kz2):
        from homhopf.core import HomModule
        alg = rel_kz2.algebra.algebra
        n = HomModule(Q, alg.dim, alg.alpha, alg.mult)
        m = induce(n, rel_kz2)
        assert check_triangle_identities(rel_kz2, m, n).passed

    @pytest.mark.parametrize("seed", range(20))
    def test_triangles_random_modules(self, rel_kz2, seed):
        rng = random.Random(1000 + seed)
        n = random_module_over_group_algebra(rel_kz2.hopf, rng.randint(1, 4), rng)
        assert check_hom_module(n, rel_kz2.algebra.algebra).passed
        gn = induce(n, rel_kz2)
        assert check_doi_module(gn, rel_kz2).passed
        assert check_triangle_identities(rel_kz2, gn, n).passed

    def test_triangles_induce_each_module_once(self, rel_kz2, monkeypatch):
        # N is induced once; M is not induced at all
        import homhopf.doi
        n = random_module_over_group_algebra(rel_kz2.hopf, 2, random.Random(7))
        gn = induce(n, rel_kz2)
        real = homhopf.doi.induce
        induced = []

        def counting(module, d):
            induced.append(module)
            return real(module, d)

        monkeypatch.setattr(homhopf.doi, "induce", counting)
        assert check_triangle_identities(rel_kz2, gn, n).passed
        assert len(induced) == 1 and induced[0] is n

    def test_triangles_with_nontrivial_coalgebra_twist(self):
        # gamma != id exercises the twist bookkeeping in unit and counit
        from homhopf.zoo import twisted_group_algebra
        d = trivial_datum(twisted_group_algebra(4, 3, Q))
        n = random_module_over_scalars(Q, 2, random.Random(90))
        gn = induce(n, d)
        assert check_doi_module(gn, d).passed
        assert check_triangle_identities(d, gn, n).passed

    def test_triangles_over_yd_datum(self):
        from homhopf.applications import trivial_yd_module, yd_datum
        h = group_algebra(2, Q)
        d = yd_datum(h)
        m = trivial_yd_module(h)
        assert check_doi_module(m, d).passed
        # the module itself is the A-module N = F(M)
        assert check_triangle_identities(d, m, m).passed


class TestMorphisms:
    def test_identity_is_doi_morphism(self, triv_kz2):
        m = comodule_to_doi(regular_comodule(group_algebra(2, Q).as_coalgebra()), triv_kz2)
        assert doi_morphism_report(Matrix.identity(Q, 2), m, m, triv_kz2).passed

    def test_projection_inclusion_morphisms(self, triv_kz2):
        h = group_algebra(2, Q)
        reg = comodule_to_doi(regular_comodule(h.as_coalgebra()), triv_kz2)
        tri = comodule_to_doi(trivial_comodule(h), triv_kz2)
        big = direct_sum_doi(reg, tri)
        p = projection_matrix(Q, 3, 0, 2)
        i = inclusion_matrix(Q, 3, 2, 1)
        assert doi_morphism_report(p, big, reg, triv_kz2).passed
        assert doi_morphism_report(i, tri, big, triv_kz2).passed

    def test_induced_morphism_is_doi_morphism(self, rel_kz2):
        # the induction functor sends A-linear maps f to f (x) id_C
        rng = random.Random(5)
        n = random_module_over_group_algebra(rel_kz2.hopf, 2, rng)
        gn = induce(n, rel_kz2)
        f = n.mu  # the twist is an A-linear endomorphism for the classical datum
        from homhopf.doi import module_morphism_report
        assert module_morphism_report(f, n, n, rel_kz2.algebra.algebra).passed
        gf = f.kron(Matrix.identity(Q, rel_kz2.coalgebra.dim))
        assert doi_morphism_report(gf, gn, gn, rel_kz2).passed

    def test_unit_is_natural(self, triv_kz2):
        h = group_algebra(2, Q)
        reg = comodule_to_doi(regular_comodule(h.as_coalgebra()), triv_kz2)
        tri = comodule_to_doi(trivial_comodule(h), triv_kz2)
        big = direct_sum_doi(reg, tri)
        f = inclusion_matrix(Q, 3, 2, 1)  # trivial summand -> sum
        eta_src = tri.coaction.as_map_to_pair()
        eta_dst = big.coaction.as_map_to_pair()
        gff = f.kron(Matrix.identity(Q, 2))
        assert gff @ eta_src == eta_dst @ f

    def test_modules_over_another_datum_rejected(self, rel_kz2, triv_kz2):
        # modules over (k, k, kZ2), against (kZ2, kZ2, kZ2) and (k, k, kZ3):
        # the first died in _action_matrix with an IndexError
        m = comodule_to_doi(regular_comodule(group_algebra(2, Q).as_coalgebra()), triv_kz2)
        eye = Matrix.identity(Q, 2)
        by_a = r"action is by a 1-dimensional algebra but the algebra has dimension 2"
        with pytest.raises(ValueError, match=by_a):
            doi_morphism_report(eye, m, m, rel_kz2)
        for entry in (lambda: module_morphism_report(eye, m, m, rel_kz2.algebra.algebra),
                      lambda: check_hom_module(m, rel_kz2.algebra.algebra),
                      lambda: check_doi_module(m, rel_kz2)):
            with pytest.raises(ValueError, match=by_a):
                entry()
        with pytest.raises(ValueError, match=r"coaction is into a 2-dimensional coalgebra "
                                             r"but the coalgebra has dimension 3"):
            doi_morphism_report(eye, m, m, trivial_datum(group_algebra(3, Q)))
        # A (x) C over (k, k, kZ3) against (k, k, kZ2): the retraction died
        # with "operand index out of range" on the way to certify's exit 2
        m3 = canonical_module(trivial_datum(group_algebra(3, Q)))
        theta = solve_normalized_integral(triv_kz2)
        into_3 = r"coaction is into a 3-dimensional coalgebra but the coalgebra has dimension 2"
        for entry in (lambda: check_doi_module(m3, triv_kz2),
                      lambda: check_hom_comodule(m3, triv_kz2.coalgebra.coalgebra),
                      lambda: direct_sum_doi(m, m3),
                      lambda: comodule_to_doi(regular_comodule(group_algebra(3, Q)
                                                               .as_coalgebra()), triv_kz2),
                      lambda: build_retraction(theta, m3, triv_kz2),
                      lambda: separability_report(triv_kz2, [("x", m3)])):
            with pytest.raises(ValueError, match=into_3):
                entry()

    def test_map_of_the_wrong_shape_rejected(self, triv_kz2):
        m = comodule_to_doi(regular_comodule(group_algebra(2, Q).as_coalgebra()), triv_kz2)
        for shape in [(3, 2), (2, 3)]:
            f = Matrix.zeros(Q, *shape)
            with pytest.raises(ValueError, match=rf"{shape[0]}x{shape[1]} matrix but needs 2x2"):
                doi_morphism_report(f, m, m, triv_kz2)
            with pytest.raises(ValueError, match=rf"{shape[0]}x{shape[1]} matrix but needs 2x2"):
                module_morphism_report(f, m, m, triv_kz2.algebra.algebra)
            # a retraction of M goes M (x) C -> M, here 2x4
            for entry in (lambda: retraction_report(f, m, triv_kz2),
                          lambda: extract_integral(f, triv_kz2)):
                with pytest.raises(ValueError,
                                   match=rf"the map is a {shape[0]}x{shape[1]} matrix "
                                         r"but needs 2x4$"):
                    entry()

    def test_compatibility_fails_alone_for_mismatched_grading(self, rel_kz2):
        # a valid comodule structure that is incompatible with the action:
        # the all-degree-zero grading against the induced action
        n = random_module_over_group_algebra(rel_kz2.hopf, 2, random.Random(6))
        gn = induce(n, rel_kz2)
        mu_inv = gn.mu.inverse()
        trivial_grading = dense(Q, lambda i, j, c: mu_inv.at(j, i) if c == 0 else Q.zero(),
                                (gn.dim, gn.dim, 2))
        bad = DoiModule(Q, gn.dim, gn.mu, gn.action, trivial_grading)
        rep = check_doi_module(bad, rel_kz2)
        assert not rep.passed
        assert rep.failing_axioms() == ("doi_compatibility",)
