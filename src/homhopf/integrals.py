"""Normalized integrals for a Doi datum as an exact linear feasibility problem.

A candidate integral is a bilinear map theta: C (x) C -> A stored as a
coefficient tensor ``theta[c][d][a]``.  It is *normalized* when four condition
families hold with zero residual:

  twist_compatibility   theta(gamma(c) (x) gamma(d)) = beta(theta(c (x) d))
  colinearity           theta(gamma^-1(d) (x) c1) (x) gamma(c2)
                          = beta(theta(d2 (x) gamma^-1(c))[0])
                            (x) d1 . theta(d2 (x) gamma^-1(c))[1]
  normalization         theta(c1 (x) c2) = 1_A eps(c)
  module_linearity      beta^2(a[0][0]) theta(gamma^-1(d).a[0][1]
                          (x) gamma^-1(c).alpha^-1(a[1])) = theta(d (x) c) a

(Sweedler-style implicit sums; [0]/[1] are coaction legs, juxtaposition on C
is the H-action.)  All four are linear or affine in theta, so existence is a
linear feasibility problem.

Two independent routes are kept deliberately separate: ``integral_residuals``
evaluates the conditions directly on vectors, while
``assemble_integral_system`` builds the coefficient rows by explicit index
contraction.  Tests compare them entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .doi import DoiDatum
from .linalg import (Field, Matrix, Tensor3, _rref_rows, canonical, require_same_field,
                     vec_add_scaled, vec_dense, vec_scale, vec_sparse, vec_sub, vec_tensor)
from .report import AxiomReport, Violation


@dataclass
class IntegralCandidate:
    """theta[c][d][a] = coefficient of basis a in theta(e_c (x) e_d)."""

    field: Field
    dim_c: int
    dim_a: int
    theta: Tensor3
    report: AxiomReport | None = dc_field(default=None, compare=False)

    def __post_init__(self):
        if (self.theta.d1, self.theta.d2, self.theta.d3) != (self.dim_c, self.dim_c, self.dim_a):
            raise ValueError("theta tensor has wrong shape")

    def flat(self) -> list:
        return list(self.theta.entries)

    @classmethod
    def from_vector(cls, field: Field, dim_c: int, dim_a: int, vec) -> "IntegralCandidate":
        return cls(field, dim_c, dim_a, Tensor3(field, dim_c, dim_c, dim_a, tuple(vec)))


@dataclass
class Infeasible:
    """Exact inconsistency certificate: a row combination y with y.A = 0 but
    y.b != 0, reported with the originating equation instances."""

    witness_row: int
    witness_value: object
    combination: tuple  # ((family, instance, coord), coefficient) pairs

    def provenance(self) -> tuple:
        return tuple(label for label, _ in self.combination)

    def message(self) -> str:
        rows = ", ".join(f"{fam}{idx}@{coord}" for (fam, idx, coord), _ in self.combination[:6])
        more = "" if len(self.combination) <= 6 else f" (+{len(self.combination) - 6} more)"
        return (f"infeasible: row {self.witness_row} reduces to 0 = {self.witness_value}; "
                f"combined from {rows}{more}")


@dataclass
class IntegralSystem:
    """All condition instances linearized over the theta coefficients.

    Unknown (i, j, k) -- the coefficient of basis k in theta(e_i (x) e_j) --
    sits at flat index (i*dim_c + j)*dim_a + k.
    """

    field: Field
    dim_c: int
    dim_a: int
    homogeneous: Matrix
    homogeneous_labels: tuple
    affine_lhs: Matrix
    affine_rhs: tuple
    affine_labels: tuple

    @property
    def unknown_count(self) -> int:
        return self.dim_a * self.dim_c * self.dim_c


def theta_index(i: int, j: int, k: int, dim_c: int, dim_a: int) -> int:
    return (i * dim_c + j) * dim_a + k


# ---------------------------------------------------------------------------
# route 1: direct evaluation

def integral_residuals(cand: IntegralCandidate, d: DoiDatum) -> dict:
    """Evaluate every condition instance directly; maps (family, instance) to
    the exact residual vector, dense."""
    require_same_field(d, cand)
    field = d.field
    zero, one = field.zero(), field.one()
    theta = cand.theta
    alg = d.algebra.algebra
    coalg = d.coalgebra.coalgebra
    phi = d.coalgebra.action
    rho_a = d.algebra.coaction
    da, dc, dh = alg.dim, coalg.dim, d.hopf.dim
    if (cand.dim_c, cand.dim_a) != (dc, da):
        raise ValueError("candidate dimensions do not match the datum")
    beta_col = [alg.alpha.column(i) for i in range(da)]
    gam_col = [coalg.gamma.column(i) for i in range(dc)]
    gam_inv_col = [coalg.gamma_inv.column(i) for i in range(dc)]
    alpha_h_inv = d.hopf.alpha_inv
    out = {}

    def residual(lhs, rhs, n):
        return vec_dense(vec_sub(lhs, rhs), n, zero)

    for p in range(dc):
        for q in range(dc):
            lhs = theta.apply(gam_col[p], gam_col[q])
            rhs = alg.alpha.apply(theta.at_pair(p, q))
            out[("twist_compatibility", (p, q))] = residual(lhs, rhs, da)

    for p in range(dc):          # d = e_p
        for q in range(dc):      # c = e_q
            lhs = {}
            for c1, c2, co in coalg.comult.nonzero_of(q):
                t1 = theta.apply(gam_inv_col[p], {c1: one})
                vec_add_scaled(lhs, co, vec_tensor(t1, gam_col[c2], dc))
            rhs = {}
            for d1, d2, co in coalg.comult.nonzero_of(p):
                t = theta.apply({d2: one}, gam_inv_col[q])
                for leg, s in rho_a.apply_left(t).items():  # in A (x) H
                    u, hh = divmod(leg, dh)
                    vec_add_scaled(rhs, co * s, vec_tensor(beta_col[u], phi.at_pair(d1, hh), dc))
            out[("colinearity", (p, q))] = residual(lhs, rhs, da * dc)

    unit_a = vec_sparse(alg.unit)
    for p in range(dc):
        acc = {}
        for c1, c2, co in coalg.comult.nonzero_of(p):
            vec_add_scaled(acc, co, theta.at_pair(c1, c2))
        out[("normalization", (p,))] = residual(acc, vec_scale(coalg.counit[p], unit_a), da)

    beta2_col = [alg.alpha.apply(beta_col[i]) for i in range(da)]
    alpha_inv_col = [alpha_h_inv.column(i) for i in range(dh)]
    for t_idx in range(da):      # a = e_t
        for p in range(dc):      # d = e_p
            for q in range(dc):  # c = e_q
                lhs = {}
                for u, hh, c1 in rho_a.nonzero_of(t_idx):
                    for u2, h2, c2 in rho_a.nonzero_of(u):
                        arg1 = phi.apply(gam_inv_col[p], {h2: one})
                        arg2 = phi.apply(gam_inv_col[q], alpha_inv_col[hh])
                        tt = theta.apply(arg1, arg2)
                        vec_add_scaled(lhs, c1 * c2, alg.mult.apply(beta2_col[u2], tt))
                rhs = alg.mult.apply(theta.at_pair(p, q), {t_idx: one})
                out[("module_linearity", (t_idx, p, q))] = residual(lhs, rhs, da)
    return out


def verify_integral(cand: IntegralCandidate, d: DoiDatum) -> AxiomReport:
    """Direct exhaustive evaluation of all four condition families; the
    independent oracle for the assembled system."""
    residuals = integral_residuals(cand, d)
    violations = []
    for (family, instance), res in residuals.items():
        if any(res):
            violations.append(Violation(family, instance, tuple(res)))
    return AxiomReport(tuple(violations), len(residuals))


# ---------------------------------------------------------------------------
# route 2: row assembly by index contraction

def assemble_integral_system(d: DoiDatum) -> IntegralSystem:
    field = d.field
    alg = d.algebra.algebra
    coalg = d.coalgebra.coalgebra
    phi = d.coalgebra.action
    rho_a = d.algebra.coaction
    comult = coalg.comult
    da, dc = alg.dim, coalg.dim
    nunk = da * dc * dc
    zero = field.zero()
    gam_col = [coalg.gamma.column(i) for i in range(dc)]
    gam_inv_col = [coalg.gamma_inv.column(i) for i in range(dc)]
    beta = alg.alpha
    beta_col = [beta.column(k) for k in range(da)]
    alpha_inv_col = [d.hopf.alpha_inv.column(h) for h in range(d.hopf.dim)]

    hom_rows: list = []
    hom_labels: list = []

    def idx(i, j, k):
        return (i * dc + j) * da + k

    def add(row, col, x):
        row[col] = row.get(col, zero) + x

    # twist compatibility: sum_ij gam[i,p] gam[j,q] theta[i][j][r]
    #                      - sum_k beta[r,k] theta[p][q][k] = 0
    for p in range(dc):
        for q in range(dc):
            rows = [{} for _ in range(da)]
            for i, gi in gam_col[p].items():
                for j, gj in gam_col[q].items():
                    g = gi * gj
                    for r in range(da):
                        add(rows[r], idx(i, j, r), g)
            for r, k, bk in beta.nonzero():
                add(rows[r], idx(p, q, k), -bk)
            hom_rows.extend(rows)
            hom_labels.extend(("twist_compatibility", (p, q), (r,)) for r in range(da))

    # colinearity: coefficient of e_r (x) e_s
    #   lhs: gam_inv[i,p] Delta[q][j][l] gam[s,l]       on theta[i][j][r]
    #   rhs: Delta[p][u][v] gam_inv[j,q] rho_a[k][k2][h] beta[r,k2] phi[u][h][s]
    #                                                   on theta[v][j][k]
    for p in range(dc):
        for q in range(dc):
            rows = [{} for _ in range(da * dc)]
            for i, gi in gam_inv_col[p].items():
                for j, l, co in comult.nonzero_of(q):
                    for s, gs in gam_col[l].items():
                        c = gi * co * gs
                        for r in range(da):
                            add(rows[r * dc + s], idx(i, j, r), c)
            for u, v, co1 in comult.nonzero_of(p):
                for j, gj in gam_inv_col[q].items():
                    c0 = -(co1 * gj)
                    for k in range(da):
                        col = idx(v, j, k)
                        for k2, hh, co2 in rho_a.nonzero_of(k):
                            c1 = c0 * co2
                            for r, br in beta_col[k2].items():
                                c2 = c1 * br
                                for s, ph in phi.at_pair(u, hh).items():
                                    add(rows[r * dc + s], col, c2 * ph)
            hom_rows.extend(rows)
            hom_labels.extend(("colinearity", (p, q), (r, s)) for r in range(da) for s in range(dc))

    # module linearity: coefficient of e_r
    #   lhs: rho_a[t][u][h] rho_a[u][u2][h2]
    #        (gam_inv[i,p] phi[i][h2][i2]) (gam_inv[j,q] alpha_inv[h3,h] phi[j][h3][j2])
    #        (beta^2 m)[u2][k][r]                        on theta[i2][j2][k]
    #   rhs: mult[k][t][r]                               on theta[p][q][k]
    beta2 = beta @ beta
    prod_b2 = [[{} for _ in range(da)] for _ in range(da)]
    for x, u2, b in beta2.nonzero():
        for k in range(da):
            vec_add_scaled(prod_b2[u2][k], b, alg.mult.at_pair(x, k))
    for t in range(da):
        for p in range(dc):
            for q in range(dc):
                rows = [{} for _ in range(da)]
                for u, hh, c1 in rho_a.nonzero_of(t):
                    for u2, h2, c2 in rho_a.nonzero_of(u):
                        arg1 = {}
                        for i, gi in gam_inv_col[p].items():
                            vec_add_scaled(arg1, gi, phi.at_pair(i, h2))
                        arg2 = {}
                        for j, gj in gam_inv_col[q].items():
                            for h3, ai in alpha_inv_col[hh].items():
                                vec_add_scaled(arg2, gj * ai, phi.at_pair(j, h3))
                        cc = c1 * c2
                        for i2, a1 in arg1.items():
                            for j2, a2 in arg2.items():
                                w = cc * a1 * a2
                                for k, pb in enumerate(prod_b2[u2]):
                                    col = idx(i2, j2, k)
                                    for r, x in pb.items():
                                        add(rows[r], col, w * x)
                for k in range(da):
                    for r, mk in alg.mult.at_pair(k, t).items():
                        add(rows[r], idx(p, q, k), -mk)
                hom_rows.extend(rows)
                hom_labels.extend(("module_linearity", (t, p, q), (r,)) for r in range(da))

    # normalization (affine): sum_ij Delta[p][i][j] theta[i][j][r] = eps[p] unit[r]
    aff_rows: list = []
    aff_rhs: list = []
    aff_labels: list = []
    for p in range(dc):
        for r in range(da):
            row = {}
            for i, j, co in comult.nonzero_of(p):
                add(row, idx(i, j, r), co)
            aff_rows.append(row)
            aff_rhs.append(coalg.counit[p] * alg.unit[r])
            aff_labels.append(("normalization", (p,), (r,)))

    def matrix(rows):
        return Matrix.from_nonzeros(field, len(rows), nunk, {
            (r, c): x for r, row in enumerate(rows) for c, x in row.items()})

    return IntegralSystem(field, dc, da, matrix(hom_rows), tuple(hom_labels),
                          matrix(aff_rows), tuple(aff_rhs), tuple(aff_labels))


# ---------------------------------------------------------------------------
# solving

def solve_normalized_integral(d: DoiDatum) -> IntegralCandidate | Infeasible:
    """Deterministic particular solution (free coefficients zero) of the
    combined system, certified by the direct evaluator; or an Infeasible
    answer carrying an exact inconsistency witness."""
    system = assemble_integral_system(d)
    field = system.field
    zero = field.zero()
    nunk = system.unknown_count
    labels = list(system.homogeneous_labels) + list(system.affine_labels)
    aug = list(system.homogeneous._fibres)
    aug.extend(fibre + ((nunk, b),) if b else fibre
               for fibre, b in zip(system.affine_lhs._fibres, system.affine_rhs))
    red, pivots, transform = _rref_rows(aug, field)
    if nunk in pivots:
        ri = pivots.index(nunk)
        y = transform[ri]
        _assert_certificate(aug, y, nunk, field)
        combo = [(labels[j], canonical(y[j])) for j in sorted(y)]
        return Infeasible(ri, canonical(red[ri][nunk]), tuple(combo))
    particular = [zero] * nunk
    for r, col in enumerate(pivots):
        particular[col] = red[r].get(nunk, zero)
    cand = IntegralCandidate.from_vector(field, system.dim_c, system.dim_a, particular)
    rep = verify_integral(cand, d)
    if not rep.passed:
        raise RuntimeError("solver produced a solution the direct evaluator rejects; "
                           "assembly and evaluation disagree")
    cand.report = rep
    return cand


def _assert_certificate(aug, y, nunk, field) -> None:
    """y . [A | b] must be zero on A's columns and nonzero at b (column nunk)."""
    comb = {}
    for r, coeff in y.items():
        for c, x in aug[r]:
            comb[c] = comb.get(c, field.zero()) + coeff * x
    if any(x for c, x in comb.items() if c != nunk) or not comb.get(nunk):
        raise RuntimeError("inconsistency witness failed exact validation")
