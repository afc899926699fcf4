"""Monoidal Hom-structures by structure constants, with exhaustive checkers.

A monoidal Hom-algebra carries an invertible twist ``alpha`` and satisfies
the twisted axioms

    alpha(ab) = alpha(a) alpha(b),   alpha(1) = 1,
    alpha(a)(bc) = (ab) alpha(c),    a 1 = 1 a = alpha(a),

and dually for Hom-coalgebras (with twist ``gamma``):

    Delta(gamma(c)) = gamma(c1) (x) gamma(c2),    eps(gamma(c)) = eps(c),
    (gamma^-1 (x) Delta) Delta = (Delta (x) gamma^-1) Delta,
    eps(c1) c2 = eps(c2) c1 = gamma^-1(c).

Hom-Hopf algebras add the bialgebra compatibilities and the antipode
convolution identities S*I = I*S = unit.counit with S alpha = alpha S.
Checkers evaluate every axiom on every basis tuple and report exact
residuals; nothing is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (Field, Matrix, Tensor3, unit_vector, vec_add_scaled,
                     vec_dot, vec_scale, vec_tensor, vec_zero)
from .report import AxiomReport, ConstructionError, ReportBuilder, require


def _require_invertible(m: Matrix, what: str) -> Matrix:
    inv = m.inverse()
    if inv is None:
        raise ValueError(f"{what} is not invertible")
    return inv


@dataclass
class HomAlgebra:
    """(A, alpha): multiplication tensor ``mult[i][j][k]``, unit vector, twist."""

    field: Field
    dim: int
    alpha: Matrix
    mult: Tensor3
    unit: tuple

    def __post_init__(self):
        if self.alpha.rows != self.dim or self.alpha.cols != self.dim:
            raise ValueError("twist has wrong shape")
        if (self.mult.d1, self.mult.d2, self.mult.d3) != (self.dim,) * 3:
            raise ValueError("multiplication tensor has wrong shape")
        if len(self.unit) != self.dim:
            raise ValueError("unit vector has wrong length")
        self.unit = tuple(self.field.of(x) for x in self.unit)
        self.alpha_inv = _require_invertible(self.alpha, "algebra twist")

    def mul(self, v, w) -> list:
        return self.mult.apply(v, w)


@dataclass
class HomCoalgebra:
    """(C, gamma): comultiplication tensor ``comult[i][j][k]``, counit functional."""

    field: Field
    dim: int
    gamma: Matrix
    comult: Tensor3
    counit: tuple

    def __post_init__(self):
        if self.gamma.rows != self.dim or self.gamma.cols != self.dim:
            raise ValueError("twist has wrong shape")
        if (self.comult.d1, self.comult.d2, self.comult.d3) != (self.dim,) * 3:
            raise ValueError("comultiplication tensor has wrong shape")
        if len(self.counit) != self.dim:
            raise ValueError("counit vector has wrong length")
        self.counit = tuple(self.field.of(x) for x in self.counit)
        self.gamma_inv = _require_invertible(self.gamma, "coalgebra twist")


@dataclass
class HomHopfAlgebra:
    """All structure maps on one space; the algebra and coalgebra share alpha."""

    field: Field
    dim: int
    alpha: Matrix
    mult: Tensor3
    unit: tuple
    comult: Tensor3
    counit: tuple
    antipode: Matrix

    def __post_init__(self):
        self.unit = tuple(self.field.of(x) for x in self.unit)
        self.counit = tuple(self.field.of(x) for x in self.counit)
        self.alpha_inv = _require_invertible(self.alpha, "twist")
        # bijectivity of the antipode is recorded eagerly: several
        # constructions (opposite tensor squares, dual integrals) require it
        self.antipode_inv = self.antipode.inverse()

    @property
    def antipode_invertible(self) -> bool:
        return self.antipode_inv is not None

    def as_algebra(self) -> HomAlgebra:
        return HomAlgebra(self.field, self.dim, self.alpha, self.mult, self.unit)

    def as_coalgebra(self) -> HomCoalgebra:
        return HomCoalgebra(self.field, self.dim, self.alpha, self.comult, self.counit)

    def mul(self, v, w) -> list:
        return self.mult.apply(v, w)


@dataclass
class HomModule:
    """Right module (M, mu) over a Hom-algebra; ``action[m][a][m']``."""

    field: Field
    dim: int
    mu: Matrix
    action: Tensor3

    def __post_init__(self):
        if self.mu.rows != self.dim or self.mu.cols != self.dim:
            raise ValueError("twist has wrong shape")
        if self.action.d1 != self.dim or self.action.d3 != self.dim:
            raise ValueError("action tensor has wrong shape")
        self.mu_inv = _require_invertible(self.mu, "module twist")

    def act(self, v, a) -> list:
        return self.action.apply(v, a)


@dataclass
class HomComodule:
    """Right comodule (M, mu) over a Hom-coalgebra; ``coaction[m][m'][c]``."""

    field: Field
    dim: int
    mu: Matrix
    coaction: Tensor3

    def __post_init__(self):
        if self.mu.rows != self.dim or self.mu.cols != self.dim:
            raise ValueError("twist has wrong shape")
        if self.coaction.d1 != self.dim or self.coaction.d2 != self.dim:
            raise ValueError("coaction tensor has wrong shape")
        self.mu_inv = _require_invertible(self.mu, "comodule twist")


# ---------------------------------------------------------------------------
# checkers

def check_hom_algebra(a: HomAlgebra) -> AxiomReport:
    """Evaluate every Hom-algebra identity on all basis tuples."""
    b = ReportBuilder()
    n = a.dim
    alpha_col = [a.alpha.column(i) for i in range(n)]
    unit = list(a.unit)
    b.check_vec("twist_fixes_unit", (), a.alpha.apply(unit), unit)
    for i in range(n):
        e_i = unit_vector(a.field, n, i)
        b.check_vec("right_unit", (i,), a.mul(e_i, unit), alpha_col[i])
        b.check_vec("left_unit", (i,), a.mul(unit, e_i), alpha_col[i])
        for j in range(n):
            b.check_vec("twist_multiplicative", (i, j),
                        a.alpha.apply(a.mult.at_pair(i, j)),
                        a.mul(alpha_col[i], alpha_col[j]))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                b.check_vec("hom_associativity", (i, j, k),
                            a.mul(alpha_col[i], a.mult.at_pair(j, k)),
                            a.mul(a.mult.at_pair(i, j), alpha_col[k]))
    return b.report()


def check_hom_coalgebra(c: HomCoalgebra) -> AxiomReport:
    """Evaluate every Hom-coalgebra identity on all basis elements."""
    b = ReportBuilder()
    n = c.dim
    gamma_col = [c.gamma.column(i) for i in range(n)]
    gamma_inv_col = [c.gamma_inv.column(i) for i in range(n)]
    gg = c.gamma.kron(c.gamma)
    for i in range(n):
        b.check_scalar("twist_preserves_counit", (i,),
                       vec_dot(c.field, gamma_col[i], c.counit), c.counit[i])
        b.check_vec("twist_comultiplicative", (i,),
                    c.comult.apply_left(gamma_col[i]),
                    gg.apply(c.comult.left_slice(i)))
        lhs = vec_zero(c.field, n * n * n)
        rhs = vec_zero(c.field, n * n * n)
        left = vec_zero(c.field, n)
        right = vec_zero(c.field, n)
        for j, k, coeff in c.comult.nonzero_of(i):
            # (gamma^-1 (x) Delta) Delta  vs  (Delta (x) gamma^-1) Delta
            vec_add_scaled(lhs, coeff, vec_tensor(gamma_inv_col[j], c.comult.left_slice(k)))
            vec_add_scaled(rhs, coeff, vec_tensor(c.comult.left_slice(j), gamma_inv_col[k]))
            if c.counit[j]:
                vec_add_scaled(left, coeff * c.counit[j], unit_vector(c.field, n, k))
            if c.counit[k]:
                vec_add_scaled(right, coeff * c.counit[k], unit_vector(c.field, n, j))
        b.check_vec("hom_coassociativity", (i,), lhs, rhs)
        b.check_vec("left_counit", (i,), left, gamma_inv_col[i])
        b.check_vec("right_counit", (i,), right, gamma_inv_col[i])
    return b.report()


def check_hom_hopf(h: HomHopfAlgebra) -> AxiomReport:
    """Full Hom-Hopf check: algebra and coalgebra axioms, bialgebra
    compatibilities, both antipode convolution identities, S alpha = alpha S."""
    rep = check_hom_algebra(h.as_algebra()).merged(check_hom_coalgebra(h.as_coalgebra()))
    b = ReportBuilder()
    n = h.dim
    field = h.field
    unit = list(h.unit)
    s_col = [h.antipode.column(i) for i in range(n)]
    b.check_vec("comult_unit", (), h.comult.apply_left(unit), vec_tensor(unit, unit))
    b.check_scalar("counit_unit", (), vec_dot(field, unit, h.counit), field.one())
    for i in range(n):
        for j in range(n):
            lhs = h.comult.apply_left(h.mult.at_pair(i, j))
            rhs = vec_zero(field, n * n)
            for a1, a2, ca in h.comult.nonzero_of(i):
                for b1, b2, cb in h.comult.nonzero_of(j):
                    vec_add_scaled(rhs, ca * cb,
                                   vec_tensor(h.mult.at_pair(a1, b1), h.mult.at_pair(a2, b2)))
            b.check_vec("comult_multiplicative", (i, j), lhs, rhs)
            b.check_scalar("counit_multiplicative", (i, j),
                           vec_dot(field, h.mult.at_pair(i, j), h.counit),
                           h.counit[i] * h.counit[j])
    for i in range(n):
        conv_left = vec_zero(field, n)
        conv_right = vec_zero(field, n)
        for j, k, coeff in h.comult.nonzero_of(i):
            vec_add_scaled(conv_left, coeff, h.mul(s_col[j], unit_vector(field, n, k)))
            vec_add_scaled(conv_right, coeff, h.mul(unit_vector(field, n, j), s_col[k]))
        target = vec_scale(h.counit[i], unit)
        b.check_vec("antipode_left", (i,), conv_left, target)
        b.check_vec("antipode_right", (i,), conv_right, target)
        b.check_vec("antipode_twist", (i,),
                    h.antipode.apply(h.alpha.column(i)), h.alpha.apply(s_col[i]))
    return rep.merged(b.report())


def check_hom_module(m: HomModule, a: HomAlgebra) -> AxiomReport:
    """Right Hom-module axioms over (A, alpha) on all basis tuples."""
    if m.action.d2 != a.dim:
        raise ValueError("action tensor does not match the algebra dimension")
    b = ReportBuilder()
    mu_col = [m.mu.column(i) for i in range(m.dim)]
    alpha_col = [a.alpha.column(i) for i in range(a.dim)]
    unit = list(a.unit)
    for i in range(m.dim):
        e_i = unit_vector(m.field, m.dim, i)
        b.check_vec("module_unit", (i,), m.act(e_i, unit), mu_col[i])
        for j in range(a.dim):
            b.check_vec("module_twist", (i, j),
                        m.mu.apply(m.action.at_pair(i, j)),
                        m.act(mu_col[i], alpha_col[j]))
            for k in range(a.dim):
                b.check_vec("module_hom_associativity", (i, j, k),
                            m.act(m.action.at_pair(i, j), alpha_col[k]),
                            m.act(mu_col[i], a.mult.at_pair(j, k)))
    return b.report()


def check_hom_comodule(m: HomComodule, c: HomCoalgebra) -> AxiomReport:
    """Right Hom-comodule axioms over (C, gamma) on all basis elements."""
    if m.coaction.d3 != c.dim:
        raise ValueError("coaction tensor does not match the coalgebra dimension")
    b = ReportBuilder()
    dm, dc = m.dim, c.dim
    field = m.field
    mu_inv_col = [m.mu_inv.column(i) for i in range(dm)]
    gamma_inv_col = [c.gamma_inv.column(i) for i in range(dc)]
    mu_gamma = m.mu.kron(c.gamma)
    for i in range(dm):
        counit_side = vec_zero(field, dm)
        lhs = vec_zero(field, dm * dc * dc)
        rhs = vec_zero(field, dm * dc * dc)
        for m0, c1, coeff in m.coaction.nonzero_of(i):
            if c.counit[c1]:
                vec_add_scaled(counit_side, coeff * c.counit[c1],
                               unit_vector(field, dm, m0))
            # (rho (x) gamma^-1) rho  vs  (mu^-1 (x) Delta) rho
            vec_add_scaled(lhs, coeff,
                           vec_tensor(m.coaction.left_slice(m0), gamma_inv_col[c1]))
            vec_add_scaled(rhs, coeff,
                           vec_tensor(mu_inv_col[m0], c.comult.left_slice(c1)))
        b.check_vec("comodule_counit", (i,), counit_side, mu_inv_col[i])
        b.check_vec("comodule_coassociativity", (i,), lhs, rhs)
        b.check_vec("comodule_twist", (i,),
                    m.coaction.apply_left(m.mu.column(i)),
                    mu_gamma.apply(m.coaction.left_slice(i)))
    return b.report()


def derived_antipode_properties(h: HomHopfAlgebra) -> AxiomReport:
    """Sanity consequences of the axioms: eps(S(h)) = eps(h) and S(1) = 1."""
    b = ReportBuilder()
    b.check_vec("antipode_fixes_unit", (), h.antipode.apply(list(h.unit)), list(h.unit))
    for i in range(h.dim):
        b.check_scalar("counit_after_antipode", (i,),
                       vec_dot(h.field, h.antipode.column(i), h.counit), h.counit[i])
    return b.report()


# ---------------------------------------------------------------------------
# constructions

def hopf_automorphism_report(h: HomHopfAlgebra, a: Matrix) -> AxiomReport:
    """Check that ``a`` is a Hopf automorphism of ``h``: it preserves
    multiplication, unit, comultiplication, counit, antipode and is invertible."""
    b = ReportBuilder()
    n = h.dim
    if a.inverse() is None:
        b.fail("automorphism_invertible", ())
    a_col = [a.column(i) for i in range(n)]
    b.check_vec("automorphism_unit", (), a.apply(list(h.unit)), list(h.unit))
    aa = a.kron(a)
    for i in range(n):
        b.check_scalar("automorphism_counit", (i,),
                       vec_dot(h.field, a_col[i], h.counit), h.counit[i])
        b.check_vec("automorphism_comult", (i,),
                    h.comult.apply_left(a_col[i]), aa.apply(h.comult.left_slice(i)))
        b.check_vec("automorphism_antipode", (i,),
                    a.apply(h.antipode.column(i)), h.antipode.apply(a_col[i]))
        for j in range(n):
            b.check_vec("automorphism_mult", (i, j),
                        a.apply(h.mult.at_pair(i, j)), h.mul(a_col[i], a_col[j]))
    return b.report()


def yau_twist(h: HomHopfAlgebra, a: Matrix) -> HomHopfAlgebra:
    """Twist a classical Hopf algebra (identity twist) along an automorphism.

    The output multiplies by ``a . m``, comultiplies by ``Delta . a^-1`` and
    carries twist ``a``; unit, counit and antipode are unchanged.  This is the
    convention under which all Hom-axioms verify, and the result is checked
    exhaustively before being returned.
    """
    if not h.alpha.is_identity():
        raise ValueError("input must carry the identity twist")
    require(check_hom_hopf(h), "input fails the classical checks")
    require(hopf_automorphism_report(h, a), "map is not a Hopf automorphism")
    a_inv = a.inverse()
    n = h.dim
    mult = Tensor3.build(h.field, n, n, n,
                         lambda i, j, k: vec_dot(h.field, a.row(k), h.mult.at_pair(i, j)))
    comult = Tensor3.build(h.field, n, n, n,
                           lambda i, j, k: _col_dot(h.comult, a_inv, i, j, k))
    twisted = HomHopfAlgebra(h.field, n, a, mult, h.unit, comult, h.counit, h.antipode)
    require(check_hom_hopf(twisted), "twisted structure failed verification")
    return twisted


def _col_dot(t: Tensor3, m_inv: Matrix, i: int, j: int, k: int) -> object:
    s = t.field.zero()
    for l in range(t.d1):
        c = m_inv.at(l, i)
        if c:
            e = t.at(l, j, k)
            if e:
                s = s + c * e
    return s


#: candidate antipodes for the tensor square with one factor reversed, in the
#: order they are tried; the first one passing the full check wins.
OPPOSITE_TENSOR_ANTIPODES = ("S (x) S^-1", "S^-1 (x) S", "S (x) S", "S^-1 (x) S^-1")


def opposite_tensor(h: HomHopfAlgebra) -> HomHopfAlgebra:
    """The Hom-Hopf algebra on H (x) H whose second tensor factor multiplies
    in the opposite order: (x (x) y)(x' (x) y') = xx' (x) y'y.

    Index convention: basis pair (i, j) sits at i*dim + j.  The coalgebra is
    componentwise, the twist is alpha (x) alpha.  Candidate antipodes are
    tried in the order of ``OPPOSITE_TENSOR_ANTIPODES``; the winner is
    recorded on the result as ``antipode_choice``.  The reversed factor goes
    second because that is the convention under which H becomes a comodule
    algebra and a module coalgebra over the square (a commutative H hides the
    difference; a noncommutative one does not).
    """
    require(check_hom_hopf(h), "input fails the Hom-Hopf checks")
    if not h.antipode_invertible:
        raise ValueError("antipode must be invertible")
    n = h.dim
    N = n * n
    field = h.field
    zero = field.zero()
    m_ent = [zero] * (N * N * N)
    d_ent = [zero] * (N * N * N)
    for i1, j1, k1, e1 in h.mult.nonzero():
        for j2, i2, k2, e2 in h.mult.nonzero():
            # coefficient of (k1,k2) in (i1,i2).(j1,j2) = m[i1][j1][k1] m[j2][i2][k2]
            m_ent[((i1 * n + i2) * N + (j1 * n + j2)) * N + (k1 * n + k2)] = \
                m_ent[((i1 * n + i2) * N + (j1 * n + j2)) * N + (k1 * n + k2)] + e1 * e2
    for i1, j1, k1, e1 in h.comult.nonzero():
        for i2, j2, k2, e2 in h.comult.nonzero():
            d_ent[((i1 * n + i2) * N + (j1 * n + j2)) * N + (k1 * n + k2)] = \
                d_ent[((i1 * n + i2) * N + (j1 * n + j2)) * N + (k1 * n + k2)] + e1 * e2
    mult = Tensor3(field, N, N, N, tuple(m_ent))
    comult = Tensor3(field, N, N, N, tuple(d_ent))
    unit = tuple(vec_tensor(list(h.unit), list(h.unit)))
    counit = tuple(vec_tensor(list(h.counit), list(h.counit)))
    alpha = h.alpha.kron(h.alpha)
    s, s_inv = h.antipode, h.antipode_inv
    candidates = {
        "S (x) S^-1": s.kron(s_inv),
        "S^-1 (x) S": s_inv.kron(s),
        "S (x) S": s.kron(s),
        "S^-1 (x) S^-1": s_inv.kron(s_inv),
    }
    last = None
    for name in OPPOSITE_TENSOR_ANTIPODES:
        cand = HomHopfAlgebra(field, N, alpha, mult, unit, comult, counit, candidates[name])
        rep = check_hom_hopf(cand)
        if rep.passed:
            cand.antipode_choice = name
            return cand
        last = rep
    raise ConstructionError("construction failed axiom check", last)
