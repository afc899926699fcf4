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
residuals; nothing is sampled.  Each side of an instance combines entries of
tables built once per check (a Doi datum's included) and only read: products,
and maps as ``columns()`` tables (``vec_combine``; ``vec_tensor_combine`` for
a tensor product of maps).  Products of basis vectors repeat (group-like and
monomial bases, their twists and tensor squares), so a side that a product
determines is evaluated once per distinct product, listed once by its table,
and read for each instance; every instance is still compared.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (Field, Matrix, Tensor3, require_same_field, vec_add_scaled,
                     vec_combine, vec_dot, vec_scale, vec_sparse, vec_tensor, vec_tensor_combine)
from .report import AxiomReport, ReportBuilder, require


def _inverse(m: Matrix) -> Matrix | None:
    """The inverse of ``m``, or None if it is singular."""
    # matrices are immutable, so the identity is shared as its own inverse
    return m if m.is_identity() else m.inverse()


def _require_invertible(m: Matrix, what: str) -> Matrix:
    inv = _inverse(m)
    if inv is None:
        raise ValueError(f"{what} is not invertible")
    return inv


def _view(cls, **attrs):
    """An instance of the dataclass ``cls`` holding ``attrs`` as they are,
    without ``__post_init__``: for parts already checked or built to shape,
    with their inverses."""
    obj = object.__new__(cls)
    obj.__dict__.update(attrs)
    return obj


def _check_parts(s, *parts) -> None:
    """Reject a part of the structure ``s`` that is not of its shape or whose
    field is not ``s.field``.  ``parts`` are (name, value) pairs, shaped by
    ``s.dim`` (matrices dim x dim, tensors dim x dim x dim, vectors of length
    dim), or (name, value, shape) triples, where None in ``shape`` admits any
    length on that axis."""
    for name, part, *shape in parts:
        if not isinstance(part, (Matrix, Tensor3)):
            if len(part) != s.dim:
                raise ValueError(f"{name} has wrong length")
            continue
        got = part.shape
        want = shape[0] if shape else (s.dim,) * len(got)
        if got != want and (len(got) != len(want) or any(
                w is not None and w != g for w, g in zip(want, got))):
            raise ValueError(f"{name} has wrong shape")
        if part.field != s.field:
            raise ValueError(f"the {name} is over {part.field} but the "
                             f"{type(s).__name__} is over {s.field}")


@dataclass
class HomAlgebra:
    """(A, alpha): multiplication tensor ``mult[i][j][k]``, unit vector, twist."""

    field: Field
    dim: int
    alpha: Matrix
    mult: Tensor3
    unit: tuple

    def __post_init__(self):
        _check_parts(self, ("twist", self.alpha), ("multiplication tensor", self.mult),
                     ("unit vector", self.unit))
        self.unit = tuple(self.field.of(x) for x in self.unit)
        self.alpha_inv = _require_invertible(self.alpha, "algebra twist")


@dataclass
class HomCoalgebra:
    """(C, gamma): comultiplication tensor ``comult[i][j][k]``, counit functional."""

    field: Field
    dim: int
    gamma: Matrix
    comult: Tensor3
    counit: tuple

    def __post_init__(self):
        _check_parts(self, ("twist", self.gamma), ("comultiplication tensor", self.comult),
                     ("counit vector", self.counit))
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
        _check_parts(self, ("twist", self.alpha), ("multiplication tensor", self.mult),
                     ("unit vector", self.unit), ("comultiplication tensor", self.comult),
                     ("counit vector", self.counit), ("antipode", self.antipode))
        self.unit = tuple(self.field.of(x) for x in self.unit)
        self.counit = tuple(self.field.of(x) for x in self.counit)
        self.alpha_inv = _require_invertible(self.alpha, "twist")
        # bijectivity of the antipode is recorded eagerly: the opposite
        # tensor square and the Yetter-Drinfeld datum require it
        self.antipode_inv = _inverse(self.antipode)

    @property
    def antipode_invertible(self) -> bool:
        return self.antipode_inv is not None

    # views on the parts checked, and the twist inverted, when self was built
    def as_algebra(self) -> HomAlgebra:
        return _view(HomAlgebra, field=self.field, dim=self.dim, alpha=self.alpha,
                     mult=self.mult, unit=self.unit, alpha_inv=self.alpha_inv)

    def as_coalgebra(self) -> HomCoalgebra:
        return _view(HomCoalgebra, field=self.field, dim=self.dim, gamma=self.alpha,
                     comult=self.comult, counit=self.counit, gamma_inv=self.alpha_inv)


@dataclass
class HomModule:
    """Right module (M, mu) over a Hom-algebra; ``action[m][a][m']``."""

    field: Field
    dim: int
    mu: Matrix
    action: Tensor3

    def __post_init__(self):
        _check_parts(self, ("twist", self.mu),
                     ("action tensor", self.action, (self.dim, None, self.dim)))
        self.mu_inv = _require_invertible(self.mu, "module twist")


@dataclass
class HomComodule:
    """Right comodule (M, mu) over a Hom-coalgebra; ``coaction[m][m'][c]``."""

    field: Field
    dim: int
    mu: Matrix
    coaction: Tensor3

    def __post_init__(self):
        _check_parts(self, ("twist", self.mu),
                     ("coaction tensor", self.coaction, (self.dim, self.dim, None)))
        self.mu_inv = _require_invertible(self.mu, "comodule twist")


# ---------------------------------------------------------------------------
# checkers

class ProductTable(list):
    """``table[i][j]`` = t[i][j][:], e.g. the product of basis vectors i and j,
    one shared dict per distinct product, to be only read; ``products`` lists
    them once each and ``where[i][j]`` is the position of ``table[i][j]`` there.
    A checker applies a map to each distinct product once (``_evaluated``)."""

    __slots__ = ("products", "where")


def product_table(t: Tensor3) -> ProductTable:
    """``t``'s table, one dict per distinct fibre, built in one pass over the fibres."""
    d2, fibres, first, table = t.d2, t._fibres, {}, ProductTable()
    table.where = [[first.setdefault(id(f), (len(first), f))[0]
                    for f in fibres[i * d2:(i + 1) * d2]] for i in range(t.d1)]
    table.products = [dict(f) for _, f in first.values()]
    table.extend([table.products[q] for q in row] for row in table.where)
    return table


def _evaluated(table: list, *maps) -> list:
    """For each map f of ``maps``, the table of ``f(table[i][j])``, with f
    called once per distinct product."""
    return [[[values[q] for q in row] for row in table.where]
            for values in ([f(p) for p in table.products] for f in maps)]


def leg_products(left: Tensor3, right: Tensor3, prod1: list, prod2: list, n2: int):
    """Yield ``(i, j, x0y0 (x) x1y1)`` for every basis pair in row-major order,
    where x0 (x) x1 = left(e_i), y0 (x) y1 = right(e_j), and the tables ``prod1``
    and ``prod2`` (into dimension ``n2``) multiply the legs.  This is the product
    side of Doi's compatibility law rho(m.a) = m0.a0 (x) m1.a1 and of its
    cases: the bialgebra law Delta(ab) = a1b1 (x) a2b2, the comodule-algebra
    law rho(ab) = a0b0 (x) a1b1, the module-coalgebra law
    Delta(c.h) = c1.h1 (x) c2.h2, and the side m0.h1 (x) m1h2 of the
    Yetter-Drinfeld law.  Each x0y0 (x) x1y1 is formed once per pair of
    distinct products of the shared tables, and the legs of a tensor that is
    both factors are listed once."""
    legs_l = [list(left.nonzero_of(i)) for i in range(left.d1)]
    legs_r = legs_l if right is left else [list(right.nonzero_of(j)) for j in range(right.d1)]
    products1, at1, products2, at2 = prod1.products, prod1.where, prod2.products, prod2.where
    width, tensors = len(products2), {}  # q1 * width + q2 -> x0y0 (x) x1y1
    for i, xs in enumerate(legs_l):
        for j, ys in enumerate(legs_r):
            out = {}
            for x0, x1, cx in xs:
                row1, row2 = at1[x0], at2[x1]
                for y0, y1, cy in ys:
                    q1, q2 = row1[y0], row2[y1]
                    uv = tensors.get(q1 * width + q2)
                    if uv is None:
                        uv = tensors[q1 * width + q2] = vec_tensor(products1[q1],
                                                                   products2[q2], n2)
                    vec_add_scaled(out, cx * cy, uv)
            yield i, j, out


def check_hom_algebra(a: HomAlgebra) -> AxiomReport:
    """Evaluate every Hom-algebra identity on all basis tuples; Hom-associativity
    combines tables of alpha(e_i) e_l by e_j e_k and of e_l alpha(e_k) by e_i e_j."""
    return _algebra_report(a, product_table(a.mult))


def _algebra_report(a: HomAlgebra, prod: list) -> AxiomReport:
    b = ReportBuilder()
    n = a.dim
    alpha_col = a.alpha.columns()
    by_right = [[prod[r][l] for r in range(n)] for l in range(n)]  # [l][r] = e_r e_l
    left = [[vec_combine(alpha_col[i], by_right[l]) for l in range(n)] for i in range(n)]
    right = [[vec_combine(alpha_col[k], prod[l]) for l in range(n)] for k in range(n)]
    products, where = prod.products, prod.where
    twisted = [vec_combine(p, alpha_col) for p in products]  # alpha(e_i e_j)
    unit = vec_sparse(a.unit)
    b.check_vec("twist_fixes_unit", (), vec_combine(unit, alpha_col), unit, n)
    for i in range(n):
        b.check_vec("right_unit", (i,), vec_combine(unit, prod[i]), alpha_col[i], n)
        b.check_vec("left_unit", (i,), vec_combine(unit, by_right[i]), alpha_col[i], n)
        for j in range(n):
            b.check_vec("twist_multiplicative", (i, j), twisted[where[i][j]],
                        vec_combine(alpha_col[j], left[i]), n)
    # alpha(e_i)(e_j e_k) = (e_i e_j) alpha(e_k), each side evaluated once per
    # distinct product: the left side for each i, the right side for each k
    flat = [q for row in where for q in row]
    rhs_of = [[vec_combine(p, right[k]) for k in range(n)] for p in products]
    for i in range(n):
        lhs_of = [vec_combine(p, left[i]) for p in products]
        b.check_block([lhs_of[q] for q in flat], [x for q in where[i] for x in rhs_of[q]], n,
                      (("hom_associativity", (i, j, k)) for j in range(n) for k in range(n)))
    return b.report()


def check_hom_coalgebra(c: HomCoalgebra) -> AxiomReport:
    """Evaluate every Hom-coalgebra identity on all basis elements."""
    b = ReportBuilder()
    n = c.dim
    one = c.field.one()
    gamma_col = c.gamma.columns()
    gamma_inv_col = c.gamma_inv.columns()
    coprod = [c.comult.left_slice(i) for i in range(n)]
    for i in range(n):
        legs = list(c.comult.nonzero_of(i))
        b.check_scalar("twist_preserves_counit", (i,),
                       vec_dot(c.field, gamma_col[i], c.counit), c.counit[i])
        b.check_vec("twist_comultiplicative", (i,), c.comult.apply_left(gamma_col[i]),
                    vec_tensor_combine(legs, gamma_col, gamma_col, n), n * n)
        # (gamma^-1 (x) Delta) Delta  vs  (Delta (x) gamma^-1) Delta
        b.check_vec("hom_coassociativity", (i,),
                    vec_tensor_combine(legs, gamma_inv_col, coprod, n * n),
                    vec_tensor_combine(legs, coprod, gamma_inv_col, n), n * n * n)
        left, right = {}, {}
        for j, k, coeff in legs:
            vec_add_scaled(left, coeff * c.counit[j], {k: one})
            vec_add_scaled(right, coeff * c.counit[k], {j: one})
        b.check_vec("left_counit", (i,), left, gamma_inv_col[i], n)
        b.check_vec("right_counit", (i,), right, gamma_inv_col[i], n)
    return b.report()


def check_hom_hopf(h: HomHopfAlgebra) -> AxiomReport:
    """Full Hom-Hopf check: algebra and coalgebra axioms, bialgebra
    compatibilities, both antipode convolution identities, S alpha = alpha S."""
    return _hopf_report(h, product_table(h.mult))


def _hopf_report(h: HomHopfAlgebra, prod: list) -> AxiomReport:
    rep = _algebra_report(h.as_algebra(), prod).merged(check_hom_coalgebra(h.as_coalgebra()))
    b = ReportBuilder()
    n = h.dim
    field = h.field
    one = field.one()
    unit = vec_sparse(h.unit)
    alpha_col, s_col = h.alpha.columns(), h.antipode.columns()
    b.check_vec("comult_unit", (), h.comult.apply_left(unit), vec_tensor(unit, unit, n), n * n)
    b.check_scalar("counit_unit", (), vec_dot(field, unit, h.counit), one)
    coproduct, counit = _evaluated(prod, h.comult.apply_left,
                                   lambda p: vec_dot(field, p, h.counit))
    for i, j, rhs in leg_products(h.comult, h.comult, prod, prod, n):
        b.check_vec("comult_multiplicative", (i, j), coproduct[i][j], rhs, n * n)
        b.check_scalar("counit_multiplicative", (i, j),
                       counit[i][j], h.counit[i] * h.counit[j])
    for i in range(n):
        conv_left, conv_right = {}, {}
        for j, k, coeff in h.comult.nonzero_of(i):
            vec_add_scaled(conv_left, coeff, h.mult.apply(s_col[j], {k: one}))
            vec_add_scaled(conv_right, coeff, h.mult.apply({j: one}, s_col[k]))
        target = vec_scale(h.counit[i], unit)
        b.check_vec("antipode_left", (i,), conv_left, target, n)
        b.check_vec("antipode_right", (i,), conv_right, target, n)
        b.check_vec("antipode_twist", (i,),
                    h.antipode.apply(alpha_col[i]), h.alpha.apply(s_col[i]), n)
    return rep.merged(b.report())


def _require_over(a_dim: int | None, c_dim: int | None, *modules) -> None:
    """Reject a module not acted on by an ``a_dim``-dimensional algebra or a
    comodule not coacting into a ``c_dim``-dimensional coalgebra (None: no check)."""
    for m in modules:
        if a_dim is not None and m.action.d2 != a_dim:
            raise ValueError(f"the module's action is by a {m.action.d2}-dimensional "
                             f"algebra but the algebra has dimension {a_dim}")
        if c_dim is not None and m.coaction.d3 != c_dim:
            raise ValueError(f"the comodule's coaction is into a {m.coaction.d3}-dimensional "
                             f"coalgebra but the coalgebra has dimension {c_dim}")


def check_hom_module(m: HomModule, a: HomAlgebra) -> AxiomReport:
    """Right Hom-module axioms over (A, alpha) on all basis tuples; Hom-associativity
    combines tables of e_l.alpha(a_k) by e_i.a_j and of mu(e_i).a_l by a_j a_k."""
    return _module_report(m, a, product_table(m.action), product_table(a.mult))


def _module_report(m: HomModule, a: HomAlgebra, acted: list, prod: list) -> AxiomReport:
    require_same_field(a, m)
    _require_over(a.dim, None, m)
    b = ReportBuilder()
    dm, da = m.dim, a.dim
    mu_col = m.mu.columns()
    alpha_col = a.alpha.columns()
    by_algebra = [[acted[r][l] for r in range(dm)] for l in range(da)]  # [l][r] = e_r.a_l
    twisted = [[vec_combine(mu_col[i], by_algebra[l]) for l in range(da)] for i in range(dm)]
    by_twist = [[vec_combine(alpha_col[k], acted[l]) for l in range(dm)] for k in range(da)]
    # per distinct e_i.a_j: mu(e_i.a_j), then (e_i.a_j).alpha(a_k) for each k
    actions, acted_at = acted.products, acted.where
    lhs_of = [[vec_combine(v, mu_col), *(vec_combine(v, twist) for twist in by_twist)]
              for v in actions]
    products, prod_at = prod.products, prod.where
    unit = vec_sparse(a.unit)
    for i in range(dm):
        b.check_vec("module_unit", (i,), vec_combine(unit, acted[i]), mu_col[i], dm)
        # mu(e_i).(a_j a_k), once per distinct product
        rhs_of = [vec_combine(p, twisted[i]) for p in products]
        lhs, rhs = [], []
        for j in range(da):
            lhs += lhs_of[acted_at[i][j]]
            rhs.append(vec_combine(alpha_col[j], twisted[i]))
            rhs += [rhs_of[q] for q in prod_at[j]]
        # module_twist (i, j) before module_hom_associativity (i, j, k)
        b.check_block(lhs, rhs, dm, (inst for j in range(da) for inst in (
            ("module_twist", (i, j)),
            *(("module_hom_associativity", (i, j, k)) for k in range(da)))))
    return b.report()


def check_hom_comodule(m: HomComodule, c: HomCoalgebra) -> AxiomReport:
    """Right Hom-comodule axioms over (C, gamma) on all basis elements."""
    require_same_field(c, m)
    _require_over(None, c.dim, m)
    b = ReportBuilder()
    dm, dc = m.dim, c.dim
    one = m.field.one()
    mu_col, mu_inv_col = m.mu.columns(), m.mu_inv.columns()
    gamma_col, gamma_inv_col = c.gamma.columns(), c.gamma_inv.columns()
    rho = [m.coaction.left_slice(i) for i in range(dm)]
    coprod = [c.comult.left_slice(i) for i in range(dc)]
    for i in range(dm):
        legs = list(m.coaction.nonzero_of(i))
        counit_side = {}
        for m0, c1, coeff in legs:
            vec_add_scaled(counit_side, coeff * c.counit[c1], {m0: one})
        b.check_vec("comodule_counit", (i,), counit_side, mu_inv_col[i], dm)
        # (rho (x) gamma^-1) rho  vs  (mu^-1 (x) Delta) rho
        b.check_vec("comodule_coassociativity", (i,),
                    vec_tensor_combine(legs, rho, gamma_inv_col, dc),
                    vec_tensor_combine(legs, mu_inv_col, coprod, dc * dc), dm * dc * dc)
        b.check_vec("comodule_twist", (i,), m.coaction.apply_left(mu_col[i]),
                    vec_tensor_combine(legs, mu_col, gamma_col, dc), dm * dc)
    return b.report()


# ---------------------------------------------------------------------------
# constructions

def hopf_automorphism_report(h: HomHopfAlgebra, a: Matrix) -> AxiomReport:
    """Check that ``a`` is a Hopf automorphism of ``h``: it preserves
    multiplication, unit, comultiplication, counit, antipode and is invertible."""
    return _automorphism_report(h, a)[0]


def _automorphism_report(h: HomHopfAlgebra, a: Matrix) -> tuple:
    """(the report of ``hopf_automorphism_report``, the inverse of ``a`` or None)."""
    require_same_field(h, a)
    n = h.dim
    if a.shape != (n, n):
        raise ValueError(f"the automorphism is a {a.rows}x{a.cols} matrix but the "
                         f"Hopf algebra has dimension {n}, which needs {n}x{n}")
    b = ReportBuilder()
    a_inv = a.inverse()
    if a_inv is None:
        b.fail("automorphism_invertible", ())
    a_col, s_col = a.columns(), h.antipode.columns()
    unit = vec_sparse(h.unit)
    b.check_vec("automorphism_unit", (), a.apply(unit), unit, n)
    for i in range(n):
        b.check_scalar("automorphism_counit", (i,),
                       vec_dot(h.field, a_col[i], h.counit), h.counit[i])
        b.check_vec("automorphism_comult", (i,), h.comult.apply_left(a_col[i]),
                    vec_tensor_combine(h.comult.nonzero_of(i), a_col, a_col, n), n * n)
        b.check_vec("automorphism_antipode", (i,),
                    a.apply(s_col[i]), h.antipode.apply(a_col[i]), n)
        for j in range(n):
            b.check_vec("automorphism_mult", (i, j),
                        a.apply(h.mult.at_pair(i, j)), h.mult.apply(a_col[i], a_col[j]), n)
    return b.report(), a_inv


def yau_twist(h: HomHopfAlgebra, a: Matrix) -> HomHopfAlgebra:
    """Twist a classical Hopf algebra (identity twist) along an automorphism.

    The output multiplies by ``a . m``, comultiplies by ``Delta . a^-1`` and
    carries twist ``a``; unit, counit and antipode are unchanged.  Only the
    input and ``a`` are checked: the Yau twist of a Hopf algebra along a Hopf
    automorphism is a monoidal Hom-Hopf algebra (Yau, Int. Electron. J.
    Algebra 8 (2010); Caenepeel and Goyvaerts, Comm. Algebra 39 (2011)).
    """
    if not h.alpha.is_identity():
        raise ValueError("input must carry the identity twist")
    require(check_hom_hopf(h), "input fails the classical checks")
    report, a_inv = _automorphism_report(h, a)
    require(report, "map is not a Hopf automorphism")
    n = h.dim
    mult = {(i, j, k): e for i in range(n) for j in range(n)
            for k, e in a.apply(h.mult.at_pair(i, j)).items()}
    comult = {(i, *divmod(q, n)): e for i, col in enumerate(a_inv.columns())
              for q, e in h.comult.apply_left(col).items()}
    # the parts are built here, shaped and over h's field; a and the
    # antipode are inverted already
    return _view(HomHopfAlgebra, field=h.field, dim=n, alpha=a,
                 mult=Tensor3.from_nonzeros(h.field, n, n, n, mult), unit=h.unit,
                 comult=Tensor3.from_nonzeros(h.field, n, n, n, comult), counit=h.counit,
                 antipode=h.antipode, alpha_inv=a_inv, antipode_inv=h.antipode_inv)


#: the antipode of the tensor square with one factor reversed, as recorded
#: in its ``antipode_choice``: S (x) S^-1 is the only one there is
OPPOSITE_TENSOR_ANTIPODES = ("S (x) S^-1",)


def opposite_tensor(h: HomHopfAlgebra) -> HomHopfAlgebra:
    """H (x) H^op: the Hom-Hopf algebra on H (x) H whose second factor
    multiplies in the opposite order, (x (x) y)(x' (x) y') = xx' (x) y'y.

    Basis pair (i, j) sits at i*dim + j; the coalgebra is componentwise, the
    twist alpha (x) alpha and the antipode S (x) S^-1 (``antipode_choice``).
    Only with the reversed factor second is a noncommutative H a comodule
    algebra and a module coalgebra over the square.  H is checked, O(dim^3)
    instances, and nothing built from it: H^op = (H, m^op, alpha, Delta, S^-1)
    satisfies H's laws read in reverse, and S is a bijective anti-algebra map
    fixing 1, so S(h2 S^-1(h1)) = h1 S(h2) = eps(h) 1 and S^-1 is an antipode
    of H^op; and a tensor product of monoidal Hom-Hopf algebras is one, with
    antipode S (x) S' (Caenepeel and Goyvaerts, Monoidal Hom-Hopf algebras,
    Comm. Algebra 39 (2011)).
    """
    require(check_hom_hopf(h), "input fails the Hom-Hopf checks")
    if not h.antipode_invertible:
        raise ValueError("antipode must be invertible")
    n, N, field = h.dim, h.dim * h.dim, h.field
    mult_op = Tensor3.from_nonzeros(field, n, n, n,
                                    {(j, i, k): e for i, j, k, e in h.mult.nonzero()})

    def kron3(t, u):  # each product of two nonzeros lands on its own index
        return Tensor3.from_nonzeros(field, N, N, N, {
            (i1 * n + i2, j1 * n + j2, k1 * n + k2): e1 * e2
            for i1, j1, k1, e1 in t.nonzero() for i2, j2, k2, e2 in u.nonzero()})

    unit, counit = (tuple(field.of(x * y) for x in v for y in v) for v in (h.unit, h.counit))
    # the parts are built here, shaped and over h's field; the inverses are
    # those of the factors
    return _view(HomHopfAlgebra, field=field, dim=N, alpha=h.alpha.kron(h.alpha),
                 mult=kron3(h.mult, mult_op), unit=unit, comult=kron3(h.comult, h.comult),
                 counit=counit, antipode=h.antipode.kron(h.antipode_inv),
                 alpha_inv=h.alpha_inv.kron(h.alpha_inv),
                 antipode_inv=h.antipode_inv.kron(h.antipode),
                 antipode_choice=OPPOSITE_TENSOR_ANTIPODES[0])
