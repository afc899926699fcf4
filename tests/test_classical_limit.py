"""With every twist equal to the identity, the Hom checkers must agree with
an independently coded classical brute-force evaluator on the full corpus."""

import random

import classical_oracle as oracle
from corpus import random_graded_comodule, random_module_over_group_algebra
from homhopf.applications import (comodule_to_doi, regular_comodule_algebra,
                                  relative_datum, trivial_datum)
from homhopf.core import (HomComodule, HomHopfAlgebra, check_hom_algebra,
                          check_hom_coalgebra, check_hom_comodule,
                          check_hom_hopf, check_hom_module)
from homhopf.doi import (DoiModule, check_comodule_algebra, check_doi_module,
                         check_module_coalgebra, induce)
from homhopf.linalg import Field, Matrix, Tensor3
from homhopf.zoo import group_algebra, sweedler_h4
from law_oracles import nested

Q = Field.rationals()


def nested_mult(h):
    return nested(h.mult)


def corrupted_hopf_variants(h):
    """Small deterministic perturbations of one structure constant each."""
    variants = []
    ent = list(h.mult.entries)
    ent[0] = ent[0] + Q.one()
    variants.append(("mult", HomHopfAlgebra(h.field, h.dim, h.alpha,
                                            Tensor3(h.field, h.dim, h.dim, h.dim, tuple(ent)),
                                            h.unit, h.comult, h.counit, h.antipode)))
    ent = list(h.comult.entries)
    ent[-1] = ent[-1] + Q.one()
    variants.append(("comult", HomHopfAlgebra(h.field, h.dim, h.alpha, h.mult, h.unit,
                                              Tensor3(h.field, h.dim, h.dim, h.dim, tuple(ent)),
                                              h.counit, h.antipode)))
    bad_s = Matrix.build(h.field, h.dim, h.dim,
                         lambda r, c: h.antipode.at(r, c) + (Q.one() if r == c == h.dim - 1
                                                             else Q.zero()))
    variants.append(("antipode", HomHopfAlgebra(h.field, h.dim, h.alpha, h.mult, h.unit,
                                                h.comult, h.counit, bad_s)))
    return variants


class TestHopfLevel:
    def test_valid_structures_agree(self):
        for h in [group_algebra(2, Q), group_algebra(3, Q), group_algebra(4, Q),
                  group_algebra(6, Q), sweedler_h4(Q)]:
            classical = oracle.hopf_ok(nested(h.mult), list(h.unit),
                                       nested(h.comult), list(h.counit),
                                       nested(h.antipode))
            assert check_hom_hopf(h).passed == classical is True

    def test_corrupted_structures_agree(self):
        for base in [group_algebra(2, Q), sweedler_h4(Q)]:
            for name, h in corrupted_hopf_variants(base):
                classical = oracle.hopf_ok(nested(h.mult), list(h.unit),
                                           nested(h.comult), list(h.counit),
                                           nested(h.antipode))
                hom = check_hom_hopf(h).passed
                assert hom == classical, f"{name}: hom={hom} classical={classical}"

    def test_algebra_and_coalgebra_pieces_agree(self):
        h = sweedler_h4(Q)
        assert check_hom_algebra(h.as_algebra()).passed == \
            oracle.algebra_ok(nested(h.mult), list(h.unit))
        assert check_hom_coalgebra(h.as_coalgebra()).passed == \
            oracle.coalgebra_ok(nested(h.comult), list(h.counit))


class TestModuleLevel:
    def test_modules_agree(self):
        h = group_algebra(2, Q)
        rng = random.Random(50)
        candidates = []
        for _ in range(4):
            m = random_module_over_group_algebra(h, rng.randint(1, 3), rng)
            if m.mu.is_identity():
                candidates.append(m)
        # force a few identity-twist modules: take mu = id variants directly
        from homhopf.core import HomModule
        g = Matrix.from_rows(Q, [[0, 1], [1, 0]])
        action = Tensor3.build(Q, 2, 2, 2,
                               lambda m, a, mm: (g if a else Matrix.identity(Q, 2)).at(mm, m))
        candidates.append(HomModule(Q, 2, Matrix.identity(Q, 2), action))
        bad = HomModule(Q, 2, Matrix.identity(Q, 2), Tensor3.zeros(Q, 2, 2, 2))
        candidates.append(bad)
        for m in candidates:
            classical = oracle.module_ok(nested(h.mult), list(h.unit),
                                         nested(m.action))
            assert check_hom_module(m, h.as_algebra()).passed == classical

    def test_comodules_agree(self):
        h = group_algebra(2, Q)
        candidates = []
        degrees_options = [[0], [1], [0, 1], [0, 0], [1, 1]]
        for degs in degrees_options:
            dim = len(degs)
            coaction = Tensor3.build(Q, dim, dim, 2,
                                     lambda i, j, c, d=degs: Q.one()
                                     if i == j and c == d[i] else Q.zero())
            candidates.append(HomComodule(Q, dim, Matrix.identity(Q, dim), coaction))
        candidates.append(HomComodule(Q, 2, Matrix.identity(Q, 2), Tensor3.zeros(Q, 2, 2, 2)))
        for m in candidates:
            classical = oracle.comodule_ok(nested(h.comult), list(h.counit),
                                           nested(m.coaction))
            assert check_hom_comodule(m, h.as_coalgebra()).passed == classical


class TestDoiLevel:
    def test_comodule_algebra_agrees(self):
        h = group_algebra(2, Q)
        good = regular_comodule_algebra(h)
        from homhopf.doi import ComoduleAlgebra
        bad = ComoduleAlgebra(h.as_algebra(), Tensor3.zeros(Q, 2, 2, 2))
        for a in [good, bad]:
            classical = oracle.comodule_algebra_ok(
                nested(a.algebra.mult), list(a.algebra.unit), nested(a.coaction),
                nested(h.mult), list(h.unit), nested(h.comult), list(h.counit))
            assert check_comodule_algebra(a, h).passed == classical

    def test_module_coalgebra_agrees(self):
        h = group_algebra(2, Q)
        from homhopf.doi import ModuleCoalgebra
        good = ModuleCoalgebra(h.as_coalgebra(), h.mult)
        bad = ModuleCoalgebra(h.as_coalgebra(), Tensor3.zeros(Q, 2, 2, 2))
        for c in [good, bad]:
            classical = oracle.module_coalgebra_ok(
                nested(c.coalgebra.comult), list(c.coalgebra.counit),
                nested(c.action),
                nested(h.mult), list(h.unit), nested(h.comult), list(h.counit))
            assert check_module_coalgebra(c, h).passed == classical

    def test_doi_modules_agree(self):
        h = group_algebra(2, Q)
        d = relative_datum(h, regular_comodule_algebra(h))
        rng = random.Random(60)
        candidates = []
        from homhopf.core import HomModule
        g = Matrix.from_rows(Q, [[0, 1], [1, 0]])
        action = Tensor3.build(Q, 2, 2, 2,
                               lambda m, a, mm: (g if a else Matrix.identity(Q, 2)).at(mm, m))
        n = HomModule(Q, 2, Matrix.identity(Q, 2), action)
        candidates.append(induce(n, d))
        good = candidates[0]
        candidates.append(DoiModule(Q, good.dim, good.mu, good.action,
                                    Tensor3.zeros(Q, good.dim, good.dim, 2)))
        mu_inv = good.mu.inverse()
        trivial_grading = Tensor3.build(Q, good.dim, good.dim, 2,
                                        lambda i, j, c: mu_inv.at(j, i)
                                        if c == 0 else Q.zero())
        candidates.append(DoiModule(Q, good.dim, good.mu, good.action, trivial_grading))
        for m in candidates:
            classical = oracle.doi_module_ok(
                nested(m.action), nested(m.coaction),
                nested(d.algebra.algebra.mult), list(d.algebra.algebra.unit),
                nested(d.algebra.coaction),
                nested(d.coalgebra.coalgebra.comult),
                list(d.coalgebra.coalgebra.counit), nested(d.coalgebra.action))
            assert check_doi_module(m, d).passed == classical

    def test_trivial_datum_comodules_agree(self):
        h = group_algebra(2, Q)
        d = trivial_datum(h)
        rng = random.Random(70)
        for _ in range(5):
            m = random_graded_comodule(h, rng.randint(1, 3), rng)
            if not m.mu.is_identity():
                continue
            doi = comodule_to_doi(m, d)
            classical = oracle.comodule_ok(nested(h.comult), list(h.counit),
                                           nested(m.coaction))
            assert check_doi_module(doi, d).passed == classical
