"""The table-reading checkers against their per-instance references.

``check_hom_algebra`` and ``check_hom_module`` read each side of an instance
from tables built once per call, the coalgebra, comodule and automorphism
checks apply tensor products of maps leg by leg, and the morphism reports
compare images of basis vectors column by column.  The references below are
the plain loops they replaced: one bilinear evaluation per side of each
instance, whole Kronecker products applied to the coproduct or the coaction,
and whole matrix products for the morphism identities.  On random structures
(mostly failing), on zoo structures with one entry changed, and on random
maps between induced Doi modules, the whole report must equal the reference's:
the violations in order, their residual tuples printed alike, and
``checked``.  Each checker must also leave its inputs' fibres as they were
and give the same report when called again, since table entries are shared.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_module_over_group_algebra
from homhopf.applications import regular_comodule_algebra, relative_datum, trivial_datum
from homhopf.core import (HomAlgebra, HomCoalgebra, HomComodule, HomHopfAlgebra, HomModule,
                          check_hom_algebra, check_hom_coalgebra, check_hom_comodule,
                          check_hom_hopf, check_hom_module, hopf_automorphism_report)
from homhopf.doi import (DoiDatum, doi_morphism_report, induce,
                         module_morphism_report)
from homhopf.linalg import Field, Matrix, Tensor3, vec_sparse
from homhopf.report import AxiomReport, ReportBuilder
from homhopf.zoo import (group_algebra, power_automorphism, regular_comodule, regular_module,
                         sweedler_h4, twisted_group_algebra, twisted_sweedler)

FIELDS = st.sampled_from([Field.rationals(), Field.prime(7)])
#: mostly zeros, so that random tensors are sparse like real ones
SCALARS = st.sampled_from([0, 0, 0, 0, 1, 1, -1, 2, 3, Fraction(1, 2)])
NONZERO = st.sampled_from([1, -1, 2, 3, Fraction(1, 2)])


# ---------------------------------------------------------------------------
# references: one evaluation per side of each instance

def reference_hom_algebra(a: HomAlgebra) -> AxiomReport:
    b = ReportBuilder()
    n = a.dim
    one = a.field.one()
    alpha_col = a.alpha.columns()
    prod = [[a.mult.at_pair(i, j) for j in range(n)] for i in range(n)]
    unit = vec_sparse(a.unit)
    b.check_vec("twist_fixes_unit", (), a.alpha.apply(unit), unit, n)
    for i in range(n):
        e_i = {i: one}
        b.check_vec("right_unit", (i,), a.mult.apply(e_i, unit), alpha_col[i], n)
        b.check_vec("left_unit", (i,), a.mult.apply(unit, e_i), alpha_col[i], n)
        for j in range(n):
            b.check_vec("twist_multiplicative", (i, j),
                        a.alpha.apply(prod[i][j]),
                        a.mult.apply(alpha_col[i], alpha_col[j]), n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                b.check_vec("hom_associativity", (i, j, k),
                            a.mult.apply(alpha_col[i], prod[j][k]),
                            a.mult.apply(prod[i][j], alpha_col[k]), n)
    return b.report()


def reference_hom_module(m: HomModule, a: HomAlgebra) -> AxiomReport:
    b = ReportBuilder()
    dm = m.dim
    one = m.field.one()
    mu_col = m.mu.columns()
    alpha_col = a.alpha.columns()
    prod = [[a.mult.at_pair(j, k) for k in range(a.dim)] for j in range(a.dim)]
    unit = vec_sparse(a.unit)
    for i in range(dm):
        b.check_vec("module_unit", (i,), m.action.apply({i: one}, unit), mu_col[i], dm)
        for j in range(a.dim):
            acted = m.action.at_pair(i, j)
            b.check_vec("module_twist", (i, j),
                        m.mu.apply(acted), m.action.apply(mu_col[i], alpha_col[j]), dm)
            for k in range(a.dim):
                b.check_vec("module_hom_associativity", (i, j, k),
                            m.action.apply(acted, alpha_col[k]),
                            m.action.apply(mu_col[i], prod[j][k]), dm)
    return b.report()


def _counit_row(c) -> Matrix:
    """The counit of ``c`` as a 1 x dim matrix."""
    return Matrix.from_rows(c.field, [list(c.counit)])


def _scalar(field, v: dict):
    """The one coordinate of a vector of length 1."""
    return v.get(0, field.zero())


def reference_hom_coalgebra(c: HomCoalgebra) -> AxiomReport:
    b = ReportBuilder()
    n = c.dim
    one = c.field.one()
    delta, eps = c.comult.as_map_to_pair(), _counit_row(c)
    eye = Matrix.identity(c.field, n)
    gamma2 = c.gamma.kron(c.gamma)
    coassoc_left, coassoc_right = c.gamma_inv.kron(delta), delta.kron(c.gamma_inv)
    counit_left, counit_right = eps.kron(eye), eye.kron(eps)
    for i in range(n):
        e_i = {i: one}
        coprod = delta.apply(e_i)
        b.check_scalar("twist_preserves_counit", (i,),
                       _scalar(c.field, eps.apply(c.gamma.apply(e_i))), c.counit[i])
        b.check_vec("twist_comultiplicative", (i,),
                    delta.apply(c.gamma.apply(e_i)), gamma2.apply(coprod), n * n)
        b.check_vec("hom_coassociativity", (i,),
                    coassoc_left.apply(coprod), coassoc_right.apply(coprod), n ** 3)
        b.check_vec("left_counit", (i,), counit_left.apply(coprod), c.gamma_inv.apply(e_i), n)
        b.check_vec("right_counit", (i,), counit_right.apply(coprod), c.gamma_inv.apply(e_i), n)
    return b.report()


def reference_hom_comodule(m: HomComodule, c: HomCoalgebra) -> AxiomReport:
    b = ReportBuilder()
    dm, dc = m.dim, c.dim
    one = m.field.one()
    rho, delta = m.coaction.as_map_to_pair(), c.comult.as_map_to_pair()
    counit_side = Matrix.identity(m.field, dm).kron(_counit_row(c))
    coassoc_left, coassoc_right = rho.kron(c.gamma_inv), m.mu_inv.kron(delta)
    twisted = m.mu.kron(c.gamma)
    for i in range(dm):
        e_i = {i: one}
        coacted = rho.apply(e_i)
        b.check_vec("comodule_counit", (i,), counit_side.apply(coacted), m.mu_inv.apply(e_i), dm)
        b.check_vec("comodule_coassociativity", (i,),
                    coassoc_left.apply(coacted), coassoc_right.apply(coacted), dm * dc * dc)
        b.check_vec("comodule_twist", (i,),
                    rho.apply(m.mu.apply(e_i)), twisted.apply(coacted), dm * dc)
    return b.report()


def reference_automorphism(h: HomHopfAlgebra, a: Matrix) -> AxiomReport:
    b = ReportBuilder()
    n = h.dim
    one = h.field.one()
    if a.inverse() is None:
        b.fail("automorphism_invertible", ())
    delta, eps, a2 = h.comult.as_map_to_pair(), _counit_row(h), a.kron(a)
    unit = vec_sparse(h.unit)
    b.check_vec("automorphism_unit", (), a.apply(unit), unit, n)
    for i in range(n):
        e_i = {i: one}
        a_i = a.apply(e_i)
        b.check_scalar("automorphism_counit", (i,), _scalar(h.field, eps.apply(a_i)),
                       h.counit[i])
        b.check_vec("automorphism_comult", (i,), delta.apply(a_i), a2.apply(delta.apply(e_i)),
                    n * n)
        b.check_vec("automorphism_antipode", (i,),
                    (a @ h.antipode).apply(e_i), (h.antipode @ a).apply(e_i), n)
        for j in range(n):
            b.check_vec("automorphism_mult", (i, j), a.apply(h.mult.at_pair(i, j)),
                        h.mult.apply(a_i, a.apply({j: one})), n)
    return b.report()


def reference_antipode_twist(h: HomHopfAlgebra) -> AxiomReport:
    b = ReportBuilder()
    one = h.field.one()
    left, right = h.antipode @ h.alpha, h.alpha @ h.antipode
    for i in range(h.dim):
        b.check_vec("antipode_twist", (i,), left.apply({i: one}), right.apply({i: one}), h.dim)
    return b.report()


def antipode_twist_report(h: HomHopfAlgebra) -> AxiomReport:
    """The antipode_twist violations of ``check_hom_hopf``'s report, with the
    family's one instance per basis element as ``checked``."""
    rep = check_hom_hopf(h)
    return AxiomReport(tuple(v for v in rep.violations if v.axiom == "antipode_twist"), h.dim)


def _action_matrix(m: HomModule, a_index: int) -> Matrix:
    return Matrix.from_nonzeros(m.field, m.dim, m.dim, {
        (r, c): e for c in range(m.dim) for r, e in m.action.at_pair(c, a_index).items()})


def reference_module_morphism(f, src, dst, a_dim: int) -> AxiomReport:
    b = ReportBuilder()
    for j in range(a_dim):
        b.check_matrix("a_linear", (j,),
                       f @ _action_matrix(src, j), _action_matrix(dst, j) @ f)
    b.check_matrix("twist_commutes", (), f @ src.mu, dst.mu @ f)
    return b.report()


def reference_doi_morphism(f, src, dst, d: DoiDatum) -> AxiomReport:
    b = ReportBuilder()
    for j in range(d.algebra.dim):
        b.check_matrix("a_linear", (j,),
                       f @ _action_matrix(src, j), _action_matrix(dst, j) @ f)
    eye_c = Matrix.identity(d.field, d.coalgebra.dim)
    b.check_matrix("c_colinear", (),
                   dst.coaction.as_map_to_pair() @ f,
                   f.kron(eye_c) @ src.coaction.as_map_to_pair())
    b.check_matrix("twist_commutes", (), f @ src.mu, dst.mu @ f)
    return b.report()


# ---------------------------------------------------------------------------
# comparison

def fibres(*parts) -> tuple:
    return tuple(p._fibres for p in parts)


def assert_same(check, reference, *inputs, parts=()):
    """``check(*inputs)`` equals ``reference(*inputs)`` in every byte of the
    report, leaves ``parts`` as they were, and repeats itself."""
    before = fibres(*parts)
    got, want = check(*inputs), reference(*inputs)
    assert got == want
    assert got.format(verbose=True) == want.format(verbose=True)
    assert [[type(x) for x in v.residual] for v in got.violations] == \
        [[type(x) for x in v.residual] for v in want.violations]
    assert fibres(*parts) == before
    assert check(*inputs) == got
    return got


# ---------------------------------------------------------------------------
# strategies

def _entries(draw, count: int) -> tuple:
    return tuple(draw(st.lists(SCALARS, min_size=count, max_size=count)))


def _invertible(draw, field: Field, n: int) -> Matrix:
    """The identity, or P.U for a permutation P and an upper triangular U
    with a nonzero diagonal."""
    if draw(st.booleans()):
        return Matrix.identity(field, n)
    perm = draw(st.permutations(range(n)))
    diag = draw(st.lists(NONZERO, min_size=n, max_size=n))
    upper = _entries(draw, n * n)
    u = Matrix.build(field, n, n, lambda r, c: field.of(
        diag[r] if r == c else upper[r * n + c] if c > r else 0))
    p = Matrix.from_nonzeros(field, n, n, {(perm[c], c): field.one() for c in range(n)})
    return p @ u


@st.composite
def random_algebras(draw):
    field = draw(FIELDS)
    n = draw(st.integers(1, 4))
    return HomAlgebra(field, n, _invertible(draw, field, n),
                      Tensor3(field, n, n, n, _entries(draw, n ** 3)), _entries(draw, n))


@st.composite
def random_modules(draw):
    a = draw(random_algebras())
    dm = draw(st.integers(1, 5))
    action = Tensor3(a.field, dm, a.dim, dm, _entries(draw, dm * a.dim * dm))
    return HomModule(a.field, dm, _invertible(draw, a.field, dm), action), a


@st.composite
def random_coalgebras(draw):
    field = draw(FIELDS)
    n = draw(st.integers(1, 4))
    return HomCoalgebra(field, n, _invertible(draw, field, n),
                        Tensor3(field, n, n, n, _entries(draw, n ** 3)), _entries(draw, n))


@st.composite
def random_comodules(draw):
    c = draw(random_coalgebras())
    dm = draw(st.integers(1, 4))
    coaction = Tensor3(c.field, dm, dm, c.dim, _entries(draw, dm * dm * c.dim))
    return HomComodule(c.field, dm, _invertible(draw, c.field, dm), coaction), c


@st.composite
def random_hopf_algebras(draw):
    field = draw(FIELDS)
    n = draw(st.integers(1, 4))
    return HomHopfAlgebra(field, n, _invertible(draw, field, n),
                          Tensor3(field, n, n, n, _entries(draw, n ** 3)), _entries(draw, n),
                          Tensor3(field, n, n, n, _entries(draw, n ** 3)), _entries(draw, n),
                          Matrix(field, n, n, _entries(draw, n * n)))


@st.composite
def random_automorphisms(draw):
    """A random Hopf structure and a random map on it, invertible or not."""
    h = draw(random_hopf_algebras())
    n = h.dim
    a = (_invertible(draw, h.field, n) if draw(st.booleans())
         else Matrix(h.field, n, n, _entries(draw, n * n)))
    return h, a


ZOO = [lambda f: group_algebra(1, f), lambda f: group_algebra(2, f),
       lambda f: group_algebra(3, f), lambda f: group_algebra(4, f),
       lambda f: twisted_group_algebra(3, 2, f), lambda f: twisted_group_algebra(4, 3, f),
       sweedler_h4, twisted_sweedler]


def _changed(draw, t: Tensor3) -> Tensor3:
    """``t`` with one entry moved by a drawn amount (possibly zero)."""
    ent = list(t.entries)
    idx = draw(st.integers(0, len(ent) - 1))
    ent[idx] = ent[idx] + t.field.of(draw(SCALARS))
    return Tensor3(t.field, t.d1, t.d2, t.d3, tuple(ent))


@st.composite
def zoo_algebras(draw):
    h = draw(st.sampled_from(ZOO))(draw(FIELDS))
    return HomAlgebra(h.field, h.dim, h.alpha, _changed(draw, h.mult), h.unit)


@st.composite
def zoo_modules(draw):
    h = draw(st.sampled_from(ZOO))(draw(FIELDS))
    a = h.as_algebra()
    m = regular_module(a)
    return HomModule(m.field, m.dim, m.mu, _changed(draw, m.action)), a


def _changed_matrix(draw, m: Matrix) -> Matrix:
    """``m`` with one entry moved by a drawn amount (possibly zero)."""
    ent = list(m.entries)
    idx = draw(st.integers(0, len(ent) - 1))
    ent[idx] = ent[idx] + m.field.of(draw(SCALARS))
    return Matrix(m.field, m.rows, m.cols, tuple(ent))


@st.composite
def zoo_coalgebras(draw):
    c = draw(st.sampled_from(ZOO))(draw(FIELDS)).as_coalgebra()
    return HomCoalgebra(c.field, c.dim, c.gamma, _changed(draw, c.comult), c.counit)


@st.composite
def zoo_comodules(draw):
    c = draw(st.sampled_from(ZOO))(draw(FIELDS)).as_coalgebra()
    m = regular_comodule(c)
    return HomComodule(m.field, m.dim, m.mu, _changed(draw, m.coaction)), c


@st.composite
def zoo_automorphisms(draw):
    """A zoo Hopf algebra and its twist, the identity or the basis
    permutation of g -> g^-1 (an automorphism of the group algebras only),
    with one entry changed."""
    h = draw(st.sampled_from(ZOO))(draw(FIELDS))
    candidates = [h.alpha, Matrix.identity(h.field, h.dim)]
    if h.dim > 1:
        candidates.append(power_automorphism(h.dim, h.dim - 1, h.field))
    return h, _changed_matrix(draw, draw(st.sampled_from(candidates)))


@st.composite
def zoo_antipodes(draw):
    h = draw(st.sampled_from(ZOO))(draw(FIELDS))
    return HomHopfAlgebra(h.field, h.dim, h.alpha, h.mult, h.unit, h.comult, h.counit,
                          _changed_matrix(draw, h.antipode))


# ---------------------------------------------------------------------------
# the checkers

class TestHomAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(random_algebras())
    def test_random_structures(self, a):
        assert_same(check_hom_algebra, reference_hom_algebra, a, parts=(a.alpha, a.mult))

    @settings(max_examples=40, deadline=None)
    @given(zoo_algebras())
    def test_zoo_structures_with_one_entry_changed(self, a):
        assert_same(check_hom_algebra, reference_hom_algebra, a, parts=(a.alpha, a.mult))

    def test_the_zoo_passes(self):
        for build in ZOO:
            a = build(Field.prime(7)).as_algebra()
            assert assert_same(check_hom_algebra, reference_hom_algebra, a).passed


class TestHomModule:
    @settings(max_examples=60, deadline=None)
    @given(random_modules())
    def test_random_structures(self, case):
        m, a = case
        assert_same(check_hom_module, reference_hom_module, m, a,
                    parts=(m.mu, m.action, a.alpha, a.mult))

    @settings(max_examples=40, deadline=None)
    @given(zoo_modules())
    def test_zoo_modules_with_one_entry_changed(self, case):
        m, a = case
        assert_same(check_hom_module, reference_hom_module, m, a,
                    parts=(m.mu, m.action, a.alpha, a.mult))


class TestHomCoalgebra:
    @settings(max_examples=60, deadline=None)
    @given(random_coalgebras())
    def test_random_structures(self, c):
        assert_same(check_hom_coalgebra, reference_hom_coalgebra, c,
                    parts=(c.gamma, c.gamma_inv, c.comult))

    @settings(max_examples=40, deadline=None)
    @given(zoo_coalgebras())
    def test_zoo_structures_with_one_entry_changed(self, c):
        assert_same(check_hom_coalgebra, reference_hom_coalgebra, c,
                    parts=(c.gamma, c.gamma_inv, c.comult))

    def test_the_zoo_passes(self):
        for build in ZOO:
            c = build(Field.prime(7)).as_coalgebra()
            assert assert_same(check_hom_coalgebra, reference_hom_coalgebra, c).passed


class TestHomComodule:
    @settings(max_examples=60, deadline=None)
    @given(random_comodules())
    def test_random_structures(self, case):
        m, c = case
        assert_same(check_hom_comodule, reference_hom_comodule, m, c,
                    parts=(m.mu, m.mu_inv, m.coaction, c.gamma, c.gamma_inv, c.comult))

    @settings(max_examples=40, deadline=None)
    @given(zoo_comodules())
    def test_zoo_comodules_with_one_entry_changed(self, case):
        m, c = case
        assert_same(check_hom_comodule, reference_hom_comodule, m, c,
                    parts=(m.mu, m.mu_inv, m.coaction, c.gamma, c.gamma_inv, c.comult))

    def test_the_zoo_passes(self):
        for build in ZOO:
            c = build(Field.prime(7)).as_coalgebra()
            assert assert_same(check_hom_comodule, reference_hom_comodule,
                               regular_comodule(c), c).passed


class TestHopfAutomorphism:
    @settings(max_examples=60, deadline=None)
    @given(random_automorphisms())
    def test_random_structures(self, case):
        h, a = case
        assert_same(hopf_automorphism_report, reference_automorphism, h, a,
                    parts=(a, h.mult, h.comult, h.antipode))

    @settings(max_examples=40, deadline=None)
    @given(zoo_automorphisms())
    def test_zoo_maps_with_one_entry_changed(self, case):
        h, a = case
        assert_same(hopf_automorphism_report, reference_automorphism, h, a,
                    parts=(a, h.mult, h.comult, h.antipode))

    def test_twists_of_the_zoo_pass(self):
        for build in ZOO:
            h = build(Field.prime(7))
            assert assert_same(hopf_automorphism_report, reference_automorphism,
                               h, h.alpha).passed


class TestAntipodeTwist:
    @settings(max_examples=40, deadline=None)
    @given(random_hopf_algebras())
    def test_random_structures(self, h):
        assert_same(antipode_twist_report, reference_antipode_twist, h,
                    parts=(h.alpha, h.antipode))

    @settings(max_examples=40, deadline=None)
    @given(zoo_antipodes())
    def test_zoo_antipodes_with_one_entry_changed(self, h):
        assert_same(antipode_twist_report, reference_antipode_twist, h,
                    parts=(h.alpha, h.antipode))


# ---------------------------------------------------------------------------
# the morphism reports

def _datum(kind: str, n: int, field: Field) -> DoiDatum:
    h = group_algebra(n, field)
    return trivial_datum(h) if kind == "trivial" else relative_datum(
        h, regular_comodule_algebra(h))


@st.composite
def induced_pairs(draw):
    """A datum over k[Z_n], two induced Doi modules and a map between them:
    a random matrix, the zero map, or (from a module to itself) the
    identity with at most one entry changed."""
    field = draw(FIELDS)
    d = _datum(draw(st.sampled_from(["trivial", "relative"])), draw(st.integers(2, 3)), field)
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    a = d.algebra.algebra
    src, dst = (induce(random_module_over_group_algebra(a, draw(st.integers(1, 2)), rng), d)
                for _ in range(2))
    kind = draw(st.sampled_from(["random", "zero", "identity"]))
    if kind == "identity":
        dst = src
        ent = list(Matrix.identity(field, src.dim).entries)
        idx = draw(st.integers(0, len(ent) - 1))
        ent[idx] = ent[idx] + field.of(draw(SCALARS))
        f = Matrix(field, src.dim, src.dim, tuple(ent))
    elif kind == "zero":
        f = Matrix.zeros(field, dst.dim, src.dim)
    else:
        f = Matrix(field, dst.dim, src.dim, _entries(draw, dst.dim * src.dim))
    return f, src, dst, d


def _parts(f, src, dst) -> tuple:
    return (f, src.mu, src.action, src.coaction, dst.mu, dst.action, dst.coaction)


class TestMorphismReports:
    @settings(max_examples=40, deadline=None)
    @given(induced_pairs())
    def test_doi_morphism_report(self, case):
        f, src, dst, d = case
        assert_same(doi_morphism_report, reference_doi_morphism, f, src, dst, d,
                    parts=_parts(f, src, dst))

    @settings(max_examples=40, deadline=None)
    @given(induced_pairs())
    def test_module_morphism_report(self, case):
        f, src, dst, d = case
        a = d.algebra.algebra
        assert_same(module_morphism_report,
                    lambda f, s, t, a: reference_module_morphism(f, s, t, a.dim),
                    f, src, dst, a, parts=_parts(f, src, dst))

    def test_adjunction_maps_pass(self):
        # the unit M -> induce(M) and the counit induce(N) -> N are morphisms
        field = Field.prime(7)
        d = _datum("relative", 3, field)
        n = random_module_over_group_algebra(d.algebra.algebra, 2, random.Random(5))
        m = induce(n, d)
        g = induce(m, d)
        eta = m.coaction.as_map_to_pair()
        assert assert_same(doi_morphism_report, reference_doi_morphism, eta, m, g, d).passed
        dc = d.coalgebra.dim
        eps = d.coalgebra.coalgebra.counit
        delta = Matrix.from_nonzeros(field, n.dim, m.dim, {
            (r, c * dc + s): eps[s] * e for r, c, e in n.mu.nonzero() for s in range(dc)})
        a = d.algebra.algebra
        assert assert_same(module_morphism_report,
                           lambda f, s, t, a: reference_module_morphism(f, s, t, a.dim),
                           delta, m, n, a).passed
