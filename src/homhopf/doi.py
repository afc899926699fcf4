"""Doi data and modules: comodule algebras, module coalgebras, the induction
functor and the unit/counit of its adjunction.

A Doi datum is a triple (H, A, C) with A a comodule algebra and C a module
coalgebra over H.  A Doi module is simultaneously an A-module and a
C-comodule subject to

    rho(m.a) = m0 . a0  (x)  m1 . a1

where a0 (x) a1 is the H-coaction on A and m1 . a1 the H-action on C.  The
induction functor sends an A-module N to N (x) C with

    (n (x) c) . a = n.a0 (x) c.a1,
    rho(n (x) c) = (mu^-1(n) (x) c1) (x) gamma(c2).

Its unit is the coaction, ``coaction.as_map_to_pair()``, and its counit
``_counit`` is (n (x) c) -> eps(c) mu(n); both triangle identities hold as
exact matrix identities.  ``tests/test_doi.py`` checks over a corpus of twists
that the unit is a Doi morphism and the counit A-linear.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (HomAlgebra, HomCoalgebra, HomComodule, HomHopfAlgebra,
                   HomModule, _check_parts, _evaluated, _hopf_report, _module_report,
                   _require_over, _view, check_hom_comodule, check_hom_module, leg_products,
                   product_table)
from .linalg import (Field, Matrix, Tensor3, require_same_field, vec_add_scaled,
                     vec_combine, vec_dot, vec_sparse, vec_tensor)
from .report import AxiomReport, ReportBuilder, require
from .zoo import block_diag


@dataclass
class ComoduleAlgebra:
    """A Hom-algebra with a multiplicative, unital H-coaction."""

    algebra: HomAlgebra
    coaction: Tensor3  # [a][a'][h]

    def __post_init__(self):
        _check_parts(self.algebra, ("coaction tensor", self.coaction, (self.dim, self.dim, None)))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def as_comodule(self) -> HomComodule:
        """A view of the algebra's twist and the coaction as an H-comodule,
        sharing the twist inverse the algebra holds."""
        a = self.algebra
        return _view(HomComodule, field=a.field, dim=a.dim, mu=a.alpha,
                     coaction=self.coaction, mu_inv=a.alpha_inv)


@dataclass
class ModuleCoalgebra:
    """A Hom-coalgebra with an H-action compatible with Delta and eps."""

    coalgebra: HomCoalgebra
    action: Tensor3  # [c][h][c']

    def __post_init__(self):
        _check_parts(self.coalgebra, ("action tensor", self.action, (self.dim, None, self.dim)))

    @property
    def dim(self) -> int:
        return self.coalgebra.dim

    def as_module(self) -> HomModule:
        """A view of the coalgebra's twist and the action as an H-module,
        sharing the twist inverse the coalgebra holds."""
        c = self.coalgebra
        return _view(HomModule, field=c.field, dim=c.dim, mu=c.gamma,
                     action=self.action, mu_inv=c.gamma_inv)


@dataclass
class DoiDatum:
    """(H, A, C): the parts must share H's field, A must coact by and C be
    acted on by an algebra of H's dimension."""

    hopf: HomHopfAlgebra
    algebra: ComoduleAlgebra
    coalgebra: ModuleCoalgebra

    def __post_init__(self):
        h = self.hopf
        for part, f in (("comodule algebra", self.algebra.algebra.field),
                        ("module coalgebra", self.coalgebra.coalgebra.field)):
            if f != h.field:
                raise ValueError(f"the {part} is over {f} but the Hopf algebra is over {h.field}")
        for what, dim in (("comodule algebra's coaction is into a {}-dimensional coalgebra",
                           self.algebra.coaction.d3),
                          ("module coalgebra's action is by a {}-dimensional algebra",
                           self.coalgebra.action.d2)):
            if dim != h.dim:
                raise ValueError(f"the {what.format(dim)} but the Hopf algebra has dimension {h.dim}")

    @property
    def field(self) -> Field:
        return self.hopf.field


@dataclass
class DoiModule(HomModule):
    """An A-module (M, mu) that is also a C-comodule, subject to the mixed
    compatibility law.

    The one twist ``mu`` intertwines both structures.  The module side is
    the inherited ``HomModule``; ``check_hom_comodule`` reads only ``field``,
    ``dim``, ``mu``, ``mu_inv`` and ``coaction``, so the module itself is
    also checked as the comodule.
    """

    coaction: Tensor3  # [m][m'][c]

    def __post_init__(self):
        super().__post_init__()
        _check_parts(self, ("coaction tensor", self.coaction, (self.dim, self.dim, None)))


# ---------------------------------------------------------------------------
# checks

def check_comodule_algebra(a: ComoduleAlgebra, h: HomHopfAlgebra) -> AxiomReport:
    """Comodule axioms plus multiplicativity and unitality of the coaction."""
    return _comodule_algebra_report(a, h, product_table(h.mult))


def _comodule_algebra_report(a: ComoduleAlgebra, h: HomHopfAlgebra, prod_h: list) -> AxiomReport:
    rep = check_hom_comodule(a.as_comodule(), h.as_coalgebra())
    b = ReportBuilder()
    da, dh = a.dim, h.dim
    unit = vec_sparse(a.algebra.unit)
    b.check_vec("coaction_unit", (), a.coaction.apply_left(unit),
                vec_tensor(unit, vec_sparse(h.unit), dh), da * dh)
    prod = product_table(a.algebra.mult)
    coacted, = _evaluated(prod, a.coaction.apply_left)
    for i, j, rhs in leg_products(a.coaction, a.coaction, prod, prod_h, dh):
        b.check_vec("coaction_multiplicative", (i, j), coacted[i][j], rhs, da * dh)
    return rep.merged(b.report())


def check_module_coalgebra(c: ModuleCoalgebra, h: HomHopfAlgebra) -> AxiomReport:
    """Module axioms plus compatibility of the action with Delta and eps."""
    return _module_coalgebra_report(c, h, product_table(h.mult))


def _module_coalgebra_report(c: ModuleCoalgebra, h: HomHopfAlgebra, prod: list) -> AxiomReport:
    acted = product_table(c.action)
    rep = _module_report(c.as_module(), h.as_algebra(), acted, prod)
    b = ReportBuilder()
    dc, comult, counit = c.dim, c.coalgebra.comult, c.coalgebra.counit
    coproduct, counit_of = _evaluated(acted, comult.apply_left,
                                      lambda v: vec_dot(c.coalgebra.field, v, counit))
    for i, j, rhs in leg_products(comult, h.comult, acted, acted, dc):
        b.check_vec("action_comultiplicative", (i, j), coproduct[i][j], rhs, dc * dc)
        b.check_scalar("action_counit", (i, j), counit_of[i][j], counit[i] * h.counit[j])
    return rep.merged(b.report())


def check_doi_datum(d: DoiDatum) -> AxiomReport:
    # the checks of H, A over H and C over H, merged, with H's product table built once
    h, prod = d.hopf, product_table(d.hopf.mult)
    return (_hopf_report(h, prod).merged(_comodule_algebra_report(d.algebra, h, prod))
            .merged(_module_coalgebra_report(d.coalgebra, h, prod)))


def check_doi_module(m: DoiModule, d: DoiDatum) -> AxiomReport:
    """Module and comodule axioms plus the mixed compatibility law; a module
    over another datum is rejected with a ValueError naming both dimensions."""
    acted = product_table(m.action)
    rep = _module_report(m, d.algebra.algebra, acted, product_table(d.algebra.algebra.mult))
    rep = rep.merged(check_hom_comodule(m, d.coalgebra.coalgebra))
    b, dc = ReportBuilder(), d.coalgebra.dim
    coacted, = _evaluated(acted, m.coaction.apply_left)
    for i, a, rhs in leg_products(m.coaction, d.algebra.coaction, acted,
                                  product_table(d.coalgebra.action), dc):
        b.check_vec("doi_compatibility", (i, a), coacted[i][a], rhs, m.dim * dc)
    return rep.merged(b.report())


# ---------------------------------------------------------------------------
# the induction functor and its adjunction

def induce(n: HomModule, d: DoiDatum) -> DoiModule:
    """N (x) C with the diagonal action through the coaction on A and the
    comultiplication-shifted coaction.  Index (i, c) sits at i*dim(C) + c."""
    require(check_hom_module(n, d.algebra.algebra), "input is not a valid module")
    return _induce(n, d)


def _induce(n: HomModule, d: DoiDatum) -> DoiModule:
    """N (x) C for an N whose A-module laws the caller has checked."""
    field = n.field
    dn, dc = n.dim, d.coalgebra.dim
    da = d.algebra.dim
    dim = dn * dc
    zero = field.zero()
    act = {}
    for a in range(da):
        for a0, h1, v in d.algebra.coaction.nonzero_of(a):
            for i in range(dn):
                for ii, psi in n.action.at_pair(i, a0).items():
                    for c in range(dc):
                        for cc, phi in d.coalgebra.action.at_pair(c, h1).items():
                            key = (i * dc + c, a, ii * dc + cc)
                            act[key] = act.get(key, zero) + v * psi * phi
    action = Tensor3.from_nonzeros(field, dim, da, dim, act)

    coa = {}
    gamma = d.coalgebra.coalgebra.gamma
    gamma_col, mu_inv_col = gamma.columns(), n.mu_inv.columns()
    for c in range(dc):
        for c1, c2, v in d.coalgebra.coalgebra.comult.nonzero_of(c):
            for s, g in gamma_col[c2].items():
                for i in range(dn):
                    for ii, nu in mu_inv_col[i].items():
                        key = (i * dc + c, ii * dc + c1, s)
                        coa[key] = coa.get(key, zero) + v * g * nu
    coaction = Tensor3.from_nonzeros(field, dim, dim, dc, coa)
    # (mu (x) gamma)^-1 = mu^-1 (x) gamma^-1: both inverses are at hand
    return _view(DoiModule, field=field, dim=dim, mu=n.mu.kron(gamma), action=action,
                 coaction=coaction, mu_inv=n.mu_inv.kron(d.coalgebra.coalgebra.gamma_inv))


def module_morphism_report(f: Matrix, src: HomModule, dst: HomModule,
                           a: HomAlgebra) -> AxiomReport:
    """Is f an A-linear morphism of Hom-modules (action- and twist-compatible)?
    Compares images of basis vectors: f(m.a_j) with f(m).a_j, f(mu(m)) with mu(f(m))."""
    return _morphism_report(f, src, dst, a, a.dim, None)


def doi_morphism_report(f: Matrix, src: DoiModule, dst: DoiModule,
                        d: DoiDatum) -> AxiomReport:
    """A-linearity, C-colinearity (rho(f(m)) against the sum of f(m0) (x) m1)
    and twist-compatibility of a matrix, on images of basis vectors."""
    return _morphism_report(f, src, dst, d, d.algebra.dim, d.coalgebra.dim)


def _morphism_report(f: Matrix, src: HomModule, dst: HomModule, over, a_dim: int,
                     c_dim: int | None) -> AxiomReport:
    _require_over(a_dim, c_dim, src, dst)
    require_same_field(f, src, dst, over)
    if f.shape != (dst.dim, src.dim):
        raise ValueError(f"the map is a {f.rows}x{f.cols} matrix but needs {dst.dim}x{src.dim}")
    b, f_col = ReportBuilder(), f.columns()
    for j in range(a_dim):
        dst_acted = [dst.action.at_pair(r, j) for r in range(dst.dim)]
        b.check_columns("a_linear", (j,),
                        [vec_combine(src.action.at_pair(k, j), f_col) for k in range(src.dim)],
                        [vec_combine(v, dst_acted) for v in f_col], f.field, dst.dim)
    if c_dim is not None:
        rho_dst = [dst.coaction.left_slice(r) for r in range(dst.dim)]
        rhs = [{} for _ in range(src.dim)]
        for k, m0, m1, x in src.coaction.nonzero():
            vec_add_scaled(rhs[k], x, {r * c_dim + m1: e for r, e in f_col[m0].items()})
        b.check_columns("c_colinear", (), [vec_combine(v, rho_dst) for v in f_col], rhs,
                        f.field, dst.dim * c_dim)
    mu_dst = dst.mu.columns()
    b.check_columns("twist_commutes", (),
                    [vec_combine(v, f_col) for v in src.mu.columns()],
                    [vec_combine(v, mu_dst) for v in f_col], f.field, dst.dim)
    return b.report()


def _counit(n: HomModule, d: DoiDatum) -> Matrix:
    dc = d.coalgebra.dim
    eps = d.coalgebra.coalgebra.counit
    return Matrix.from_nonzeros(n.field, n.dim, n.dim * dc, {
        (r, c * dc + s): eps[s] * e for r, c, e in n.mu.nonzero() for s in range(dc)})


def check_triangle_identities(d: DoiDatum, m: DoiModule, n: HomModule) -> AxiomReport:
    """Both triangle identities of the adjunction, as exact matrix identities.

    N is induced once, which checks it; M is checked for its field and
    dimensions only, and the two identities are the report on it."""
    b = ReportBuilder()
    field = d.field
    dc = d.coalgebra.dim
    # on the induced side: (counit (x) id_C) . unit_{induce(N)} = id
    gn = induce(n, d)
    eye_c = Matrix.identity(field, dc)
    b.check_matrix("triangle_induced", (),
                   _counit(n, d).kron(eye_c) @ gn.coaction.as_map_to_pair(),
                   Matrix.identity(field, gn.dim))
    # on the forgotten side: counit_{F(M)} . F(unit_M) = id
    require_same_field(d, m)
    _require_over(d.algebra.dim, dc, m)
    b.check_matrix("triangle_forgotten", (),
                   _counit(m, d) @ m.coaction.as_map_to_pair(), Matrix.identity(field, m.dim))
    return b.report()


def direct_sum_doi(m1: DoiModule, m2: DoiModule) -> DoiModule:
    _require_over(m1.action.d2, m1.coaction.d3, m2)
    require_same_field(m1, m2)
    field = m1.field
    d1 = m1.dim
    dim = d1 + m2.dim
    da, dc = m1.action.d2, m1.coaction.d3
    act = {(i, a, j): e for i, a, j, e in m1.action.nonzero()}
    act.update(((i + d1, a, j + d1), e) for i, a, j, e in m2.action.nonzero())
    coa = {(i, j, c): e for i, j, c, e in m1.coaction.nonzero()}
    coa.update(((i + d1, j + d1, c), e) for i, j, c, e in m2.coaction.nonzero())
    return DoiModule(field, dim, block_diag(m1.mu, m2.mu),
                     Tensor3.from_nonzeros(field, dim, da, dim, act),
                     Tensor3.from_nonzeros(field, dim, dim, dc, coa))
