"""Second codings of laws the package codes once, for tests to compare with
the package's checkers and constructions, and a second route to a normalized
integral on the trivial datum (k, k, H), through the right integrals of H's
dual, to compare with the solver.  They use the package's types and helpers
but none of the codings they cross-check; ``nested`` feeds
``classical_oracle``, which imports nothing from the package, and
``reduced_mod`` reduces an answer over Q mod p in Python integers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from homhopf.core import HomHopfAlgebra, _require_over
from homhopf.doi import DoiDatum, DoiModule
from homhopf.integrals import IntegralCandidate
from corpus import dense
from homhopf.linalg import (Field, Matrix, Tensor3, require_same_field, vec_add_scaled,
                            vec_dense, vec_dot, vec_sparse, vec_sub, vec_tensor)
from homhopf.maschke import build_retraction
from homhopf.report import AxiomReport, ReportBuilder


def nested(x) -> list:
    """A Matrix as its list of dense rows, or a Tensor3 as t[i][j][k]."""
    if isinstance(x, Matrix):
        return [x.row(r) for r in range(x.rows)]
    return [[[x.at(i, j, k) for k in range(x.d3)] for j in range(x.d2)] for i in range(x.d1)]


def reduced_mod(theta: Tensor3, p: int) -> dict:
    """The nonzeros of a theta over Q reduced mod p, as {(i, j, k): residue},
    a/b taken to a * b^-1 mod p with Python's ``pow`` and ``%``, no package
    arithmetic; a denominator divisible by p raises ValueError."""
    out = {}
    for i, j, k, x in theta.nonzero():
        x = Fraction(x)
        residue = x.numerator * pow(x.denominator, -1, p) % p
        if residue:
            out[i, j, k] = residue
    return out


def check_k_integral_conditions(cand: IntegralCandidate, h: HomHopfAlgebra) -> AxiomReport:
    """The scalar-valued specialization of the integral conditions:

        twist_compatibility   theta(alpha(g) (x) alpha(h)) = theta(g (x) h)
        colinearity           theta(alpha^-1(g) (x) h1) alpha(h2)
                                = theta(g2 (x) alpha^-1(h)) alpha(g1)
        normalization         theta(h1 (x) h2) = eps(h)

    The module-linearity family is automatic over the scalar base, so on the
    trivial datum the verdict is ``verify_integral``'s.
    """
    if cand.dim_a != 1 or cand.dim_c != h.dim:
        raise ValueError("expected a scalar-valued candidate on H")
    require_same_field(h, cand)
    field = h.field
    n = h.dim
    zero, one = field.zero(), field.one()
    theta = cand.theta
    alpha_col, alpha_inv_col = h.alpha.columns(), h.alpha_inv.columns()
    b = ReportBuilder()

    def theta_val(v, w):
        return theta.apply(v, w).get(0, zero)

    for g in range(n):
        for j in range(n):
            b.check_scalar("twist_compatibility", (g, j),
                           theta_val(alpha_col[g], alpha_col[j]),
                           theta.at(g, j, 0))
    for g in range(n):
        for j in range(n):
            lhs = {}
            for h1, h2, co in h.comult.nonzero_of(j):
                vec_add_scaled(lhs, co * theta_val(alpha_inv_col[g], {h1: one}),
                               alpha_col[h2])
            rhs = {}
            for g1, g2, co in h.comult.nonzero_of(g):
                vec_add_scaled(rhs, co * theta_val({g2: one}, alpha_inv_col[j]),
                               alpha_col[g1])
            b.check_vec("colinearity", (g, j), lhs, rhs, n)
    for j in range(n):
        acc = field.zero()
        for h1, h2, co in h.comult.nonzero_of(j):
            acc = acc + co * theta.at(h1, h2, 0)
        b.check_scalar("normalization", (j,), acc, h.counit[j])
    return b.report()


def coaction_of_action_residuals(m: DoiModule, h: HomHopfAlgebra) -> dict:
    """Residuals of rho(m.h) = m0 . alpha(h21) (x) S(h1)(alpha^-1(m1) h22) on every
    basis pair, all zero exactly when ``check_yd_module``'s braided law holds."""
    require_same_field(h, m)
    _require_over(h.dim, h.dim, m)
    field = m.field
    one = field.one()
    dm, dh = m.dim, h.dim
    alpha_col, alpha_inv_col = h.alpha.columns(), h.alpha_inv.columns()
    s_col = h.antipode.columns()
    out = {}
    for i in range(dm):
        for j in range(dh):
            lhs = m.coaction.apply_left(m.action.at_pair(i, j))
            rhs = {}
            for h1, h2, c1 in h.comult.nonzero_of(j):
                for h21, h22, c2 in h.comult.nonzero_of(h2):
                    for m0, m1, co in m.coaction.nonzero_of(i):
                        inner = h.mult.apply(alpha_inv_col[m1], {h22: one})
                        outer = h.mult.apply(s_col[h1], inner)
                        vec_add_scaled(rhs, c1 * c2 * co,
                                       vec_tensor(m.action.apply({m0: one}, alpha_col[h21]),
                                                  outer, dh))
            out[(i, j)] = vec_dense(vec_sub(lhs, rhs), dm * dh, field.zero())
    return out


def coaction_formula_holds(m: DoiModule, h: HomHopfAlgebra) -> bool:
    return not any(any(r) for r in coaction_of_action_residuals(m, h).values())


def derived_antipode_properties(h: HomHopfAlgebra) -> AxiomReport:
    """eps(S(h)) = eps(h) and S(1) = 1, which follow from the Hom-Hopf axioms."""
    b = ReportBuilder()
    unit, s_col = vec_sparse(h.unit), h.antipode.columns()
    b.check_vec("antipode_fixes_unit", (), h.antipode.apply(unit), unit, h.dim)
    for i in range(h.dim):
        b.check_scalar("counit_after_antipode", (i,),
                       vec_dot(h.field, s_col[i], h.counit), h.counit[i])
    return b.report()


def retraction_naturality_report(f: Matrix, m_src: DoiModule, m_dst: DoiModule,
                                 theta: IntegralCandidate, d: DoiDatum) -> AxiomReport:
    """f . nu_src = nu_dst . (f (x) id_C) for a Doi morphism f: nu is natural."""
    b = ReportBuilder()
    nu_src = build_retraction(theta, m_src, d)
    nu_dst = build_retraction(theta, m_dst, d)
    eye_c = Matrix.identity(d.field, d.coalgebra.dim)
    b.check_matrix("naturality", (), f @ nu_src, nu_dst @ f.kron(eye_c))
    return b.report()


@dataclass
class DualIntegral:
    """A functional phi on H with phi(h1) h2 = phi(h) 1 and phi.alpha = phi."""

    field: Field
    phi: tuple


def dual_right_integrals(h: HomHopfAlgebra) -> list:
    """Basis of the space of right integral functionals, phi(h1) h2 = phi(h) 1
    together with phi . alpha = phi: one vector of the nullspace per free
    column of ``Matrix.rref``, in increasing order, scaled so that its first
    nonzero coordinate is one."""
    field = h.field
    n = h.dim
    zero, one = field.zero(), field.one()
    ent = {}

    def add(r, c, x):
        ent[(r, c)] = ent.get((r, c), zero) + x

    for i in range(n):  # rows i*n + k: coordinate k of phi(h1) h2 - phi(h) 1 at h = e_i
        for j, k, co in h.comult.nonzero_of(i):
            add(i * n + k, j, co)
        for k in range(n):
            add(i * n + k, i, -h.unit[k])
    for j, i, e in h.alpha.nonzero():  # rows n*n + i: phi(alpha(e_i)) - phi(e_i)
        add(n * n + i, j, e)
    for i in range(n):
        add(n * n + i, i, -one)
    red, pivots = Matrix.from_nonzeros(field, n * n + n, n, ent).rref()
    out = []
    for free in (j for j in range(n) if j not in pivots):
        v = [zero] * n
        v[free] = -one
        for r, col in enumerate(pivots):
            v[col] = red.at(r, free)
        lead = next(x for x in v if x)
        out.append(DualIntegral(field, tuple(field.div(x, lead) for x in v)))
    return out


def integral_from_dual(phi: DualIntegral, h: HomHopfAlgebra) -> IntegralCandidate:
    """theta(x (x) y) = phi(y S^-1(x)), a candidate integral on the trivial
    datum of H, returned unverified: the tests verify it."""
    require_same_field(h, phi)
    field = h.field
    n = h.dim
    one = field.one()
    s_inv_col = h.antipode_inv.columns()

    def entry(i, j, _k):
        return vec_dot(field, h.mult.apply({j: one}, s_inv_col[i]), phi.phi)

    return IntegralCandidate(field, n, 1, dense(field, entry, (n, n, 1)))
