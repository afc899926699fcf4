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

Two independent routes are kept deliberately separate.  One row builder
writes each side of a condition as the map it is, Post o (theta (x) id_X)
o Pre, where Pre sends an instance to C (x) C (x) X and Post sends A (x) X
to the output.  A term's Pre over every instance of its family is one flat
entry list, and one contraction with the Post table turns each term into
the family's sparse rows; the row and column layout lives in that one
helper.  The builder gives each family's instances and coordinates, not a
label per row; ``assemble_integral_system`` wraps its rows as matrices with
every label.  ``integral_sides`` evaluates both sides of every condition
directly on vectors for a given theta and shares no term or table with the
assembler, so a wrong term on either side shows as a disagreement: tests
compare the two entry for entry, and every solution is certified by the
direct route.

The solver returns the theta of the normalization rows alone if the direct
evaluator passes it; otherwise it eliminates every row as it is, labelling
only the rows its certificate names.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from .core import _check_parts
from .doi import DoiDatum
from .linalg import (Field, Matrix, Tensor3, _rref_rows, _transform_row, canonical,
                     require_same_field, vec_add_scaled, vec_scale, vec_sparse, vec_tensor,
                     vec_tensor_combine)
from .report import AxiomReport, ReportBuilder


@dataclass
class IntegralCandidate:
    """theta[c][d][a] = coefficient of basis a in theta(e_c (x) e_d)."""

    field: Field
    dim_c: int
    dim_a: int
    theta: Tensor3
    report: AxiomReport | None = dc_field(default=None, compare=False)

    def __post_init__(self):
        _check_parts(self, ("theta tensor", self.theta, (self.dim_c, self.dim_c, self.dim_a)))

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

def integral_sides(cand: IntegralCandidate, d: DoiDatum):
    """Evaluate every condition instance directly: yield ``(family, instance,
    lhs, rhs, length)`` with both sides as sparse vectors of that length.
    The tables that hold theta are summed from its nonempty fibres through
    the rows of gamma and gamma^-1; like every table here, they are read
    through the datum's own readers and share nothing with the row builder."""
    require_same_field(d, cand)
    one = d.field.one()
    theta = cand.theta
    alg, coalg = d.algebra.algebra, d.coalgebra.coalgebra
    phi, rho_a = d.coalgebra.action, d.algebra.coaction
    da, dc, dh = alg.dim, coalg.dim, d.hopf.dim
    if (cand.dim_c, cand.dim_a) != (dc, da):
        raise ValueError("candidate dimensions do not match the datum")
    beta_col = alg.alpha.columns()
    gam_col = coalg.gamma.columns()
    gam_inv_col = coalg.gamma_inv.columns()
    gam_row, gam_inv_row = ([vec_sparse(m.row(i)) for i in range(dc)]
                            for m in (coalg.gamma, coalg.gamma_inv))
    delta = [list(coalg.comult.nonzero_of(i)) for i in range(dc)]
    legs = [list(rho_a.nonzero_of(i)) for i in range(da)]
    # (i, j) -> theta(e_i (x) e_j), the nonempty ones
    fibres = {(i, j): v for i in range(dc) for j in range(dc) if (v := theta.at_pair(i, j))}
    # theta(gamma(e_p) (x) gamma(e_q)), theta(gamma^-1(e_p) (x) e_c) and
    # theta(e_c (x) gamma^-1(e_q)), summed over the nonempty fibres: fibre
    # (i, j) lands where row i or j of gamma or gamma^-1 has a nonzero
    twisted, th_left, th_right = ([[{} for _ in range(dc)] for _ in range(dc)] for _ in range(3))
    for (i, j), v in fibres.items():
        for p, a in gam_row[i].items():
            for q, b in gam_row[j].items():
                vec_add_scaled(twisted[p][q], a * b, v)
        for p, a in gam_inv_row[i].items():
            vec_add_scaled(th_left[p][j], a, v)
        for q, a in gam_inv_row[j].items():
            vec_add_scaled(th_right[i][q], a, v)
    for p in range(dc):
        for q in range(dc):
            v = fibres.get((p, q))
            yield "twist_compatibility", (p, q), twisted[p][q], alg.alpha.apply(v) if v else {}, da

    # rho_A(theta(e_c (x) gamma^-1(e_q))), formed once for each nonempty one
    rho_th = [[rho_a.apply_left(v) if v else {} for v in row] for row in th_right]
    for p in range(dc):          # d = e_p
        left = th_left[p]
        for q in range(dc):      # c = e_q
            lhs = (vec_tensor_combine(delta[q], left, gam_col, dc)
                   if any(left[j] for j, _, _ in delta[q]) else {})
            rhs = {}
            for d1, d2, co in delta[p]:
                for leg, s in rho_th[d2][q].items():  # in A (x) H
                    u, hh = divmod(leg, dh)
                    vec_add_scaled(rhs, co * s, vec_tensor(beta_col[u], phi.at_pair(d1, hh), dc))
            yield "colinearity", (p, q), lhs, rhs, da * dc

    unit_a = vec_sparse(alg.unit)
    for p in range(dc):
        acc = {}
        for c1, c2, co in delta[p]:
            vec_add_scaled(acc, co, theta.at_pair(c1, c2))
        yield "normalization", (p,), acc, vec_scale(coalg.counit[p], unit_a), da

    beta2_col = [alg.alpha.apply(beta_col[i]) for i in range(da)]
    # gamma^-1(e_p).e_h and gamma^-1(e_q).alpha^-1(e_h)
    act = [[phi.apply(g, {h: one}) for h in range(dh)] for g in gam_inv_col]
    alpha_inv_col = d.hopf.alpha_inv.columns()
    act_inv = [[phi.apply(g, a) for a in alpha_inv_col] for g in gam_inv_col]
    for t_idx in range(da):      # a = e_t
        for p in range(dc):      # d = e_p
            for q in range(dc):  # c = e_q
                lhs = {}
                for u, hh, c1 in legs[t_idx]:
                    for u2, h2, c2 in legs[u]:
                        tt = theta.apply(act[p][h2], act_inv[q][hh])
                        vec_add_scaled(lhs, c1 * c2, alg.mult.apply(beta2_col[u2], tt))
                rhs = alg.mult.apply(theta.at_pair(p, q), {t_idx: one})
                yield "module_linearity", (t_idx, p, q), lhs, rhs, da


def verify_integral(cand: IntegralCandidate, d: DoiDatum) -> AxiomReport:
    """Direct exhaustive evaluation of all four condition families; the
    independent oracle for the assembled system."""
    b = ReportBuilder()
    for family, instance, lhs, rhs, n in integral_sides(cand, d):
        b.check_vec(family, instance, lhs, rhs, n)
    return b.report()


# ---------------------------------------------------------------------------
# route 2: row assembly, one contraction per condition term

def _contract(count: int, width: int, terms) -> list:
    """The ``count * width`` rows of one family, ``width`` per instance (one per
    output coordinate, row-major), each the sum over ``terms`` of
    Post o (theta (x) id_X) o Pre.  A term is ``(entries, post)``: ``entries``
    is Pre over every instance as one flat list of ``(n, b, x, c)``, c the
    coefficient of e_i (x) e_j (x) e_x in Pre of instance n, where b is the
    unknown of (i, j, 0); ``post[x]`` lists the (o, k, e) with e the
    coefficient of e_o in Post(e_k (x) e_x), whose unknown is b + k.  Each
    row is a sparse vector: sums that cancel are deleted."""
    rows = [{} for _ in range(count * width)]
    for entries, post in terms:
        for n, b, x, c in entries:
            first = n * width
            for o, k, e in post[x]:
                row, col = rows[first + o], b + k
                s = row.get(col)
                if s is None:
                    row[col] = c * e
                elif s := s + c * e:
                    row[col] = s
                else:
                    del row[col]
    return rows


def _integral_rows(d: DoiDatum) -> tuple:
    """(rows, layout): the three linear families, then normalization
    (``_normalization_rows``), as sparse rows over the unknowns laid out by
    ``theta_index``.  ``layout`` lists ``(family, instances, coords)`` in row
    order, each instance holding one row per coordinate."""
    one = d.field.one()
    alg, coalg = d.algebra.algebra, d.coalgebra.coalgebra
    phi, rho_a, mult = d.coalgebra.action, d.algebra.coaction, alg.mult
    da, dc = alg.dim, coalg.dim
    gam = coalg.gamma.columns()
    gam_inv = coalg.gamma_inv.columns()
    beta = alg.alpha.columns()
    delta = [list(coalg.comult.nonzero_of(i)) for i in range(dc)]
    legs = [list(rho_a.nonzero_of(k)) for k in range(da)]
    base = [[theta_index(i, j, 0, dc, da) for j in range(dc)] for i in range(dc)]
    pairs = list(product(range(dc), repeat=2))
    triples = list(product(range(da), range(dc), range(dc)))
    ident = [[(r, r, one) for r in range(da)]]  # id_A, X trivial

    # twist compatibility: (gamma (x) gamma, id_A) and (id, -beta)
    twist = [([(n, base[i][j], 0, a * b) for n, (p, q) in enumerate(pairs)
               for i, a in gam[p].items() for j, b in gam[q].items()], ident),
             ([(n, base[p][q], 0, one) for n, (p, q) in enumerate(pairs)],
              [[(r, k, -b) for k in range(da) for r, b in beta[k].items()]])]
    # colinearity, X = C: (gamma^-1 (x) Delta, id_A (x) gamma) and
    # (d (x) c -> d2 (x) gamma^-1(c) (x) d1, -(beta (x) phi) o (rho_A (x) id))
    colin = [([(n, base[i][j], x, a * b) for n, (p, q) in enumerate(pairs)
               for i, a in gam_inv[p].items() for j, x, b in delta[q]],
              [[(r * dc + s, r, g) for r in range(da) for s, g in gam[x].items()]
               for x in range(dc)]),
             ([(n, base[d2][j], d1, b * a) for n, (p, q) in enumerate(pairs)
               for d1, d2, b in delta[p] for j, a in gam_inv[q].items()],
              [[(r * dc + s, k, -(c * b * f)) for k in range(da)
                for k2, h, c in legs[k] for r, b in beta[k2].items()
                for s, f in phi.at_pair(x, h).items()] for x in range(dc)])]

    # module linearity, X = A: (a (x) d (x) c -> gamma^-1(d).a[0][1]
    # (x) gamma^-1(c).alpha^-1(a[1]) (x) a[0][0], m o (beta^2 (x) id)), and (id, -m);
    # the actions gamma^-1(e_p).e_h and gamma^-1(e_q).alpha^-1(e_h) are formed once
    act = [[phi.apply(g, {h: one}) for h in range(d.hopf.dim)] for g in gam_inv]
    alpha_inv_col = d.hopf.alpha_inv.columns()
    act_inv = [[phi.apply(g, a) for a in alpha_inv_col] for g in gam_inv]
    legs2 = [[(x, h2, h, c1 * c2) for u, h, c1 in legs[t] for x, h2, c2 in legs[u]]
             for t in range(da)]
    beta2 = [alg.alpha.apply(b) for b in beta]
    module = [([(n, base[i][j], x, c * a * b) for n, (t, p, q) in enumerate(triples)
                for x, h2, h, c in legs2[t]
                for i, a in act[p][h2].items() for j, b in act_inv[q][h].items()],
               [[(r, k, e) for k in range(da) for r, e in mult.apply(beta2[x], {k: one}).items()]
                for x in range(da)]),
              ([(n, base[p][q], t, one) for n, (t, p, q) in enumerate(triples)],
               [[(r, k, -e) for k in range(da) for r, e in mult.at_pair(k, x).items()]
                for x in range(da)])]

    blocks, layout = [], []
    for family, instances, shape, terms in (
            ("twist_compatibility", pairs, (da,), twist),
            ("colinearity", pairs, (da, dc), colin),
            ("module_linearity", triples, (da,), module)):
        coords = list(product(*map(range, shape)))
        blocks.append(_contract(len(instances), len(coords), terms))
        layout.append((family, instances, coords))
    layout.append(("normalization", [(p,) for p in range(dc)], [(r,) for r in range(da)]))
    return [row for block in blocks for row in block] + _normalization_rows(d), layout


def _normalization_rows(d: DoiDatum) -> list:
    """Normalization, theta(c1 (x) c2) = eps(c) 1_A, as (Delta, id_A) with X
    trivial: row (p, r) holds its nonzero right-hand side at ``unknown_count``,
    where an integral ``Fraction`` may stand for an int, never in the answer."""
    alg, coalg, one = d.algebra.algebra, d.coalgebra.coalgebra, d.field.one()
    da, dc = alg.dim, coalg.dim
    rows = _contract(dc, da, [([(p, theta_index(i, j, 0, dc, da), 0, c) for p in range(dc)
                                for i, j, c in coalg.comult.nonzero_of(p)],
                               [[(r, r, one) for r in range(da)]])])
    rhs = (coalg.counit[p] * alg.unit[r] for p in range(dc) for r in range(da))
    return [{**row, da * dc * dc: b} if b else row for row, b in zip(rows, rhs)]


def _row_label(layout, i: int) -> tuple:
    """The (family, instance, coord) label of row ``i`` of ``layout``."""
    j = i
    if j >= 0:
        for family, instances, coords in layout:
            n, r = divmod(j, len(coords))
            if n < len(instances):
                return family, instances[n], coords[r]
            j -= len(instances) * len(coords)
    raise IndexError(f"no row {i} in the integral system")


def assemble_integral_system(d: DoiDatum) -> IntegralSystem:
    """Homogeneous rows for the three linear families and affine rows for
    normalization, over the unknowns laid out by ``theta_index``: the rows
    the solver eliminates, as matrices, with every row's label."""
    rows, layout = _integral_rows(d)
    labels = tuple((family, inst, coord) for family, instances, coords in layout
                   for inst in instances for coord in coords)
    da, dc = d.algebra.algebra.dim, d.coalgebra.coalgebra.dim
    n, nunk = len(rows) - da * dc, da * dc * dc  # the da * dc affine rows come last
    rhs = tuple(row.pop(nunk, d.field.zero()) for row in rows[n:])
    return IntegralSystem(d.field, dc, da, Matrix._of_rows(d.field, nunk, rows[:n]), labels[:n],
                          Matrix._of_rows(d.field, nunk, rows[n:]), rhs, labels[n:])


# ---------------------------------------------------------------------------
# solving

def solve_normalized_integral(d: DoiDatum) -> IntegralCandidate | Infeasible:
    """Deterministic particular solution (free coefficients zero) of the
    combined system, certified by the direct evaluator; or an Infeasible
    answer carrying an exact inconsistency witness.

    theta_N, read from the normalization rows alone, is the answer if the
    direct evaluator finds no violation at it; else ``_solve_all_rows``
    eliminates every row, and gives every Infeasible.  theta_N is then the
    full answer: the normalization rows span a subspace of the augmented row
    space, so their pivot columns are among the full system's, and theta_N
    is zero on its free columns; solving it, theta_N is its one particular
    solution with those columns zero."""
    red, pivots, _ = _rref_rows(_normalization_rows(d), d.field)
    if d.algebra.algebra.dim * d.coalgebra.coalgebra.dim ** 2 not in pivots:
        cand = _read_theta(d, red, pivots)
        for checked, (_, _, lhs, rhs, _) in enumerate(integral_sides(cand, d), 1):
            if lhs != rhs:  # sparse sides hold no zeros, as in ``check_vec``
                break
        else:
            cand.report = AxiomReport((), checked)
            return cand
    return _solve_all_rows(d)


def _solve_all_rows(d: DoiDatum) -> IntegralCandidate | Infeasible:
    """The solve on all of ``assemble_integral_system``'s rows, unlabelled but
    for the rows a certificate names."""
    nunk = d.algebra.algebra.dim * d.coalgebra.coalgebra.dim ** 2
    aug, layout = _integral_rows(d)
    red, pivots, steps = _rref_rows(aug, d.field)
    if nunk in pivots:
        ri = pivots.index(nunk)
        y = _transform_row(steps, ri, d.field)
        _assert_certificate(aug, y, nunk)
        combo = [(_row_label(layout, j), canonical(y[j])) for j in sorted(y)]
        return Infeasible(ri, canonical(red[ri][nunk]), tuple(combo))
    cand = _read_theta(d, red, pivots)
    rep = verify_integral(cand, d)
    if not rep.passed:
        raise RuntimeError("solver produced a solution the direct evaluator rejects; "
                           "assembly and evaluation disagree")
    cand.report = rep
    return cand


def _read_theta(d: DoiDatum, red: list, pivots: list) -> IntegralCandidate:
    """theta, free coefficients zero, from a consistent RREF of augmented rows."""
    field, dc, da = d.field, d.coalgebra.coalgebra.dim, d.algebra.algebra.dim
    theta = [field.zero()] * (da * dc * dc)
    for r, col in enumerate(pivots):
        theta[col] = red[r].get(len(theta), field.zero())
    return IntegralCandidate.from_vector(field, dc, da, theta)


def _assert_certificate(aug, y, nunk) -> None:
    """y . [A | b] must be zero on A's columns and nonzero at b (column nunk)."""
    comb = {}
    for r, coeff in y.items():
        vec_add_scaled(comb, coeff, aug[r])  # keeps only the entries that do not cancel
    if comb.keys() != {nunk}:
        raise RuntimeError("inconsistency witness failed exact validation")
