import gc
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import twist_corpus
from homhopf.core import (HomAlgebra, HomCoalgebra, HomComodule, HomHopfAlgebra, HomModule,
                          check_hom_algebra, check_hom_coalgebra, check_hom_comodule,
                          check_hom_hopf, check_hom_module,
                          hopf_automorphism_report, opposite_tensor, yau_twist)
from homhopf.doi import (ComoduleAlgebra, DoiModule, ModuleCoalgebra, check_comodule_algebra,
                         check_module_coalgebra)
from homhopf.linalg import Field, Matrix, Tensor3, vec_sparse
from homhopf.report import ConstructionError
from homhopf.zoo import (group_algebra, one_dimensional_hopf, power_automorphism,
                         regular_comodule, regular_module, sweedler_h4,
                         sweedler_scaling, twisted_group_algebra,
                         twisted_sweedler)
from law_oracles import derived_antipode_properties

Q = Field.rationals()


def all_goldens(field):
    gs = [group_algebra(n, field) for n in (2, 3, 4, 6)]
    gs += [twisted_group_algebra(3, 2, field), twisted_group_algebra(4, 3, field),
           twisted_group_algebra(6, 5, field)]
    gs += [sweedler_h4(field), twisted_sweedler(field, 2)]
    return gs


class TestGoldenStructures:
    def test_group_algebra_identity_twist_passes(self):
        assert check_hom_hopf(group_algebra(2, Q)).passed

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_group_algebras(self, field, n):
        assert check_hom_hopf(group_algebra(n, field)).passed

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (6, 5)])
    def test_twisted_group_algebras(self, field, n, k):
        h = twisted_group_algebra(n, k, field)
        assert not h.alpha.is_identity()
        assert check_hom_hopf(h).passed

    def test_sweedler(self, field):
        assert check_hom_hopf(sweedler_h4(field)).passed

    def test_twisted_sweedler(self, field):
        h = twisted_sweedler(field, 2)
        assert not h.alpha.is_identity()
        assert check_hom_hopf(h).passed

    def test_derived_antipode_consequences(self, field):
        for h in all_goldens(field):
            assert derived_antipode_properties(h).passed

    def test_antipode_invertibility_recorded(self):
        for h in all_goldens(Q):
            assert h.antipode_invertible


class TestCorruptions:
    def test_corrupted_group_multiplication_fails_unit(self):
        h = group_algebra(2, Q)
        bad_mult = Tensor3.from_nested(Q, [[[0, 1], [0, 1]], [[0, 1], [1, 0]]])
        bad = h.as_algebra()
        bad.mult = bad_mult
        report = check_hom_algebra(bad)
        assert not report.passed
        assert "right_unit" in report.failing_axioms() or "left_unit" in report.failing_axioms()
        located = [v for v in report.violations if v.axiom == "right_unit"]
        assert located and located[0].index == (0,)

    def test_corrupted_comultiplication_fails_counit(self):
        h = group_algebra(2, Q)
        c = h.as_coalgebra()
        # Delta(g) = g (x) 1 breaks left/right counit symmetry
        c.comult = Tensor3.from_nested(Q, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
        report = check_hom_coalgebra(c)
        assert not report.passed
        assert {"left_counit", "right_counit"} & set(report.failing_axioms())

    def test_corrupted_antipode_located_at_x(self):
        h = sweedler_h4(Q)
        bad = Matrix.from_rows(Q, [[1, 0, 0, 0], [0, 1, 0, 0],
                                   [0, 0, 0, 1], [0, 0, 1, 0]])  # S(x) = +gx
        h2 = HomHopfAlgebra(Q, 4, h.alpha, h.mult, h.unit, h.comult, h.counit, bad)
        report = check_hom_hopf(h2)
        assert not report.passed
        assert set(report.failing_axioms()) <= {"antipode_left", "antipode_right"}
        assert any(v.index == (2,) for v in report.violations)

    def test_zero_coaction_fails_counit_axiom(self):
        h = group_algebra(2, Q)
        m = HomComodule(Q, 2, Matrix.identity(Q, 2), Tensor3.zeros(Q, 2, 2, 2))
        report = check_hom_comodule(m, h.as_coalgebra())
        assert not report.passed
        assert "comodule_counit" in report.failing_axioms()

    def test_non_invertible_twist_rejected(self):
        h = group_algebra(2, Q)
        with pytest.raises(ValueError):
            HomHopfAlgebra(Q, 2, Matrix.zeros(Q, 2, 2), h.mult, h.unit,
                           h.comult, h.counit, h.antipode)


def _kz3_with(**parts):
    h = group_algebra(3, Q)
    args = dict(field=Q, dim=3, alpha=h.alpha, mult=h.mult, unit=h.unit,
                comult=h.comult, counit=h.counit, antipode=h.antipode)
    args.update(parts)
    return HomHopfAlgebra(**args)


class TestConstructionValidation:
    """Malformed parts are rejected when the structure is built, naming the
    part, instead of failing inside a checker."""

    @pytest.mark.parametrize("parts, message", [
        (lambda: {"unit": (Q.one(), Q.zero())}, "unit vector has wrong length"),
        (lambda: {"mult": group_algebra(2, Q).mult}, "multiplication tensor has wrong shape"),
        (lambda: {"antipode": group_algebra(2, Q).antipode}, "antipode has wrong shape"),
        (lambda: {"mult": group_algebra(3, Field.prime(7)).mult},
         "the multiplication tensor is over GF\\(7\\) but the HomHopfAlgebra is over Q"),
    ], ids=["unit_length", "mult_shape", "antipode_shape", "mult_field"])
    def test_malformed_hopf_algebra_rejected(self, parts, message):
        with pytest.raises(ValueError, match=message):
            _kz3_with(**parts())

    def test_algebra_and_coalgebra_reject_foreign_twist(self):
        h = group_algebra(3, Q)
        twist = group_algebra(3, Field.prime(7)).alpha
        with pytest.raises(ValueError, match="the twist is over GF\\(7\\) but the HomAlgebra"):
            HomAlgebra(Q, 3, twist, h.mult, h.unit)
        with pytest.raises(ValueError, match="the twist is over GF\\(7\\) but the HomCoalgebra"):
            HomCoalgebra(Q, 3, twist, h.comult, h.counit)


    @pytest.mark.parametrize("build, message", [
        (lambda h, h7: HomModule(Q, 2, h7.alpha, h.mult), "the twist is over GF\\(7\\) but the HomModule"),
        (lambda h, h7: HomModule(Q, 2, h.alpha, h7.mult), "the action tensor is over GF\\(7\\) but the HomModule"),
        (lambda h, h7: HomComodule(Q, 2, h7.alpha, h.comult), "the twist is over GF\\(7\\) but the HomComodule"),
        (lambda h, h7: HomComodule(Q, 2, h.alpha, h7.comult), "the coaction tensor is over GF\\(7\\) but the HomComodule"),
        (lambda h, h7: DoiModule(Q, 2, h.alpha, h.mult, h7.comult), "the coaction tensor is over GF\\(7\\) but the DoiModule"),
    ], ids=["module_twist", "module_action", "comodule_twist", "comodule_coaction", "doi_coaction"])
    def test_modules_reject_parts_over_another_field(self, build, message):
        # a module like this one passed check_hom_module once Q scalars were ints
        with pytest.raises(ValueError, match=message):
            build(group_algebra(2, Q), group_algebra(2, Field.prime(7)))

    @pytest.mark.parametrize("view", ["as_algebra", "as_coalgebra", "as_comodule", "as_module"])
    def test_views_reuse_the_twist_inverse(self, monkeypatch, view):
        h = twisted_sweedler(Q, 2)
        # H over itself, built on parts of its own: each inverts its twist once, here
        a = ComoduleAlgebra(HomAlgebra(Q, 4, h.alpha, h.mult, h.unit), h.comult)
        c = ModuleCoalgebra(HomCoalgebra(Q, 4, h.alpha, h.comult, h.counit), h.mult)
        # view -> (owner, the inverse the owner holds, the view's name for it, a check)
        owner, owned, shared, check = {
            "as_algebra": (h, h.alpha_inv, "alpha_inv", check_hom_algebra),
            "as_coalgebra": (h, h.alpha_inv, "gamma_inv", check_hom_coalgebra),
            # the datum checks, which check the owner through its view
            "as_comodule": (a, a.algebra.alpha_inv, "mu_inv",
                            lambda part: check_comodule_algebra(a, h)),
            "as_module": (c, c.coalgebra.gamma_inv, "mu_inv",
                          lambda part: check_module_coalgebra(c, h)),
        }[view]
        calls = []
        inverse = Matrix.inverse
        monkeypatch.setattr(Matrix, "inverse", lambda m: calls.append(m) or inverse(m))
        part = getattr(owner, view)()
        assert calls == []
        assert getattr(part, shared) is owned
        assert check(part).passed
        assert check_hom_hopf(h).passed
        assert calls == []


    def test_identity_twist_is_not_inverted(self, monkeypatch):
        # kZ3 carries the identity twist, which is its own inverse; the one
        # inverse computed is the antipode's
        calls = []
        inverse = Matrix.inverse
        monkeypatch.setattr(Matrix, "inverse", lambda m: calls.append(m) or inverse(m))
        h = group_algebra(3, Q)
        assert calls == [h.antipode]
        assert h.alpha_inv is h.alpha

    @pytest.mark.parametrize("n", [1, 2])
    def test_identity_antipode_is_not_inverted(self, monkeypatch, field, n):
        # kZ1 and kZ2 have S = id, which is its own inverse like an identity twist
        calls = []
        inverse = Matrix.inverse
        monkeypatch.setattr(Matrix, "inverse", lambda m: calls.append(m) or inverse(m))
        h = group_algebra(n, field)
        assert calls == []
        assert h.antipode_inv is h.antipode
        assert h.antipode_invertible


class TestYauTwist:
    def test_identity_automorphism_is_noop(self):
        h = group_algebra(4, Q)
        t = yau_twist(h, Matrix.identity(Q, 4))
        assert t.mult == h.mult and t.comult == h.comult
        assert t.alpha.is_identity()

    def test_twisted_multiplication_values(self):
        # g^i . g^j = g^(3(i+j) mod 4) after twisting along g -> g^3
        t = twisted_group_algebra(4, 3, Q)
        for i in range(4):
            for j in range(4):
                prod = t.mult.at_pair(i, j)
                expect = (3 * (i + j)) % 4
                assert list(prod) == [expect]

    def test_sweedler_scaling_twist_passes(self):
        assert check_hom_hopf(twisted_sweedler(Q, 2)).passed

    def test_non_automorphism_rejected_with_identity_name(self):
        h = group_algebra(4, Q)
        bad = Matrix.from_rows(Q, [[1, 0, 0, 0], [0, 0, 1, 0],
                                   [0, 1, 0, 0], [0, 0, 0, 1]])  # g -> g^2: not invertible as hom
        with pytest.raises(ConstructionError) as exc:
            yau_twist(h, bad)
        assert "automorphism" in str(exc.value)

    def test_twisted_input_rejected(self):
        t = twisted_group_algebra(4, 3, Q)
        with pytest.raises(ValueError):
            yau_twist(t, Matrix.identity(Q, 4))

    def test_automorphism_report_checks_antipode(self):
        h = sweedler_h4(Q)
        rep = hopf_automorphism_report(h, sweedler_scaling(Q, 3))
        assert rep.passed

    @pytest.mark.parametrize("rows, cols", [(3, 2), (2, 3)])
    def test_automorphism_of_wrong_shape_rejected(self, rows, cols):
        # 3x2 died with an IndexError, 2x3 failed automorphism_comult
        h = group_algebra(2, Q)
        a = Matrix.from_rows(Q, [[int(r == c) for c in range(cols)] for r in range(rows)])
        for entry in (hopf_automorphism_report, yau_twist):
            with pytest.raises(ValueError, match=f"is a {rows}x{cols} matrix .* needs 2x2"):
                entry(h, a)

    def test_output_passes_exhaustive_check_over_corpus(self, field):
        # yau_twist checks its input and automorphism, not what it returns:
        # every twist must pass the exhaustive checker (the corpus is built
        # by yau_twist)
        for h in twist_corpus(field, 8):
            assert check_hom_hopf(h).passed, (h.dim, h.alpha)

    def test_twist_inverts_the_automorphism_once(self, monkeypatch):
        h, a = group_algebra(5, Q), power_automorphism(5, 2, Q)
        calls = []
        inverse = Matrix.inverse
        monkeypatch.setattr(Matrix, "inverse", lambda m: calls.append(m) or inverse(m))
        t = yau_twist(h, a)
        # the automorphism check inverts a, and the twist reuses that inverse
        # for its comultiplication and twist inverse; the antipode's inverse is h's
        assert len(calls) == 1 and calls[0] is a
        assert t.antipode_inv is h.antipode_inv
        assert t.alpha_inv @ a == Matrix.identity(Q, 5)


class TestModulesComodules:
    def test_regular_module_passes(self, field):
        for h in all_goldens(field):
            a = h.as_algebra()
            assert check_hom_module(regular_module(a), a).passed

    def test_regular_comodule_passes(self, field):
        for h in all_goldens(field):
            c = h.as_coalgebra()
            assert check_hom_comodule(regular_comodule(c), c).passed

    def test_module_dimension_mismatch(self):
        h = group_algebra(2, Q)
        m = regular_module(group_algebra(3, Q).as_algebra())
        with pytest.raises(ValueError):
            check_hom_module(m, h.as_algebra())


class TestOppositeTensor:
    def test_one_dimensional(self):
        t = opposite_tensor(one_dimensional_hopf(Q))
        assert t.dim == 1
        assert check_hom_hopf(t).passed

    def test_group_algebra_square(self):
        t = opposite_tensor(group_algebra(2, Q))
        assert t.dim == 4
        assert check_hom_hopf(t).passed
        assert t.antipode_choice == "S (x) S^-1"

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([Q, Field.prime(7)]), st.data())
    def test_antipode_is_s_tensor_s_inverse(self, field, data):
        # H^op has antipode S^-1 and a Hom-Hopf antipode is unique, so no Yau
        # twist needs another candidate
        if data.draw(st.booleans(), label="group algebra"):
            n = data.draw(st.integers(1, 5), label="n")
            k = data.draw(st.sampled_from([k for k in range(n) if gcd(k, n) == 1]), label="k")
            h = yau_twist(group_algebra(n, field), power_automorphism(n, k, field))
        else:
            lam = data.draw(st.integers(1, 6) if field.p else
                            st.fractions(-5, 5, max_denominator=5).filter(bool), label="lambda")
            h = twisted_sweedler(field, lam)
        t = opposite_tensor(h)
        assert t.antipode == h.antipode.kron(h.antipode_inv)
        assert t.antipode_choice == "S (x) S^-1"

    def test_square_passes_exhaustive_check_over_corpus(self, field):
        # opposite_tensor checks H only, neither H^op nor the square it
        # returns: the square must pass the exhaustive checker on the corpus,
        # and its inverses, the factors' Kronecker products, must invert
        for h in twist_corpus(field, 5):
            t = opposite_tensor(h)
            assert t.dim == h.dim ** 2
            assert check_hom_hopf(t).passed, (h.dim, h.alpha)
            identity = Matrix.identity(field, t.dim)
            assert t.alpha_inv @ t.alpha == identity == t.antipode_inv @ t.antipode

    def test_twisted_sweedler_square(self):
        t = opposite_tensor(twisted_sweedler(Q, 2))
        assert t.dim == 16
        assert check_hom_hopf(t).passed

    def test_square_keeps_only_nonzeros(self):
        # 16^3 entries per tensor, 144 (mult) and 36 (comult) of them nonzero;
        # with dense tuples the result retained about 86 KiB
        h = twisted_sweedler(Q, 2)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            t = opposite_tensor(h)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(1 for _ in t.mult.nonzero()) == 144
        assert sum(1 for _ in t.comult.nonzero()) == 36
        assert retained < 43 * 1024

    def test_square_construction_peak_memory(self):
        # the peak, not only what the result retains: with a dense Kronecker
        # product of the 25x25 twist with itself and dense N^3 lists of
        # structure constants this peaked at 6.68 MB (27.97 MB on kZ6)
        h = group_algebra(5, Q)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            t = opposite_tensor(h)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert t.dim == 25
        assert peak < 640 * 1024

    def test_square_over_gf7_retains_no_more_than_over_q(self):
        # the Kronecker products hold the field's shared elements, not a new
        # object per product: with one per product the GF(7) square retained
        # 37.2 KiB against 27.8 KiB over Q
        retained = {}
        for field in (Q, Field.prime(7)):
            h = group_algebra(5, field)
            opposite_tensor(h)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                t = opposite_tensor(h)
                gc.collect()
                retained[field.p] = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert t.dim == 25
        assert retained[7] <= retained[None]

    def test_square_satisfies_derived_consequences(self):
        t = opposite_tensor(group_algebra(2, Q))
        assert derived_antipode_properties(t).passed
        assert t.antipode_invertible

    def test_second_factor_reversed(self):
        # (x (x) 1)(y (x) 1) keeps the order of x, y; (1 (x) x)(1 (x) y) = 1 (x) yx
        h = sweedler_h4(Q)
        t = opposite_tensor(h)
        n = h.dim
        x, g = 2, 1
        straight = t.mult.at_pair(x * n + 0, g * n + 0)
        assert straight == vec_sparse([y for pair in
                                       [[h.mult.at(x, g, k) * h.unit[l] for l in range(n)]
                                        for k in range(n)] for y in pair])
        reversed_side = t.mult.at_pair(0 * n + x, 0 * n + g)
        expect = [h.unit[k] * h.mult.at(g, x, l) for k in range(n) for l in range(n)]
        assert reversed_side == vec_sparse(expect)


def test_checkers_are_pure(field):
    h = sweedler_h4(field)
    assert check_hom_hopf(h) == check_hom_hopf(h)
