"""Instantiations of the Doi machinery: relative Hopf-module data, the
trivial datum (k, k, H), and Yetter-Drinfeld modules over the reversed
tensor square.

A right-right Hom-Yetter-Drinfeld module over (H, alpha) is a module and
comodule on one space satisfying the braided compatibility

    m0.h1 (x) m1 h2 = mu((mu^-1(m).h2)[0]) (x) h1 (mu^-1(m).h2)[1],

equivalently the closed coaction-of-action formula

    rho(m.h) = m0 . alpha(h21) (x) S(h1)(alpha^-1(m1) h22).

Such modules are exactly the Doi modules over ``yd_datum(h)``; the closed
form is coded only as a test oracle, in ``tests/law_oracles.py``.
"""

from __future__ import annotations

from .core import (HomComodule, HomHopfAlgebra, _require_over, check_hom_coalgebra,
                   check_hom_comodule, check_hom_hopf, check_hom_module, leg_products,
                   opposite_tensor, product_table)
from .doi import (ComoduleAlgebra, DoiDatum, DoiModule, ModuleCoalgebra,
                  check_comodule_algebra)
from .linalg import Matrix, Tensor3, require_same_field, vec_add_scaled, vec_tensor
from .report import AxiomReport, ReportBuilder, require
from .zoo import one_dimensional_hopf


# ---------------------------------------------------------------------------
# data constructors

def relative_datum(h: HomHopfAlgebra, a: ComoduleAlgebra) -> DoiDatum:
    """The datum (H, A, H) with H acting on itself by multiplication.  C is
    not checked apart from H: its module-coalgebra families are, instance for
    instance, check_hom_hopf's right_unit, twist_multiplicative,
    hom_associativity, comult_multiplicative and counit_multiplicative."""
    datum = DoiDatum(h, a, ModuleCoalgebra(h.as_coalgebra(), h.mult))
    require(check_hom_hopf(h).merged(check_comodule_algebra(a, h)),
            "relative datum failed verification")
    return datum


def regular_comodule_algebra(h: HomHopfAlgebra) -> ComoduleAlgebra:
    """H over itself: the comultiplication as coaction."""
    return ComoduleAlgebra(h.as_algebra(), h.comult)


def trivial_datum(h: HomHopfAlgebra) -> DoiDatum:
    """The datum (k, k, H): Doi modules over it are exactly (H, alpha)-comodules.
    k is built here, and of the datum's laws only H's twist_comultiplicative
    and twist_preserves_counit can fail, so H's coalgebra is what is checked."""
    require(check_hom_coalgebra(h.as_coalgebra()), "trivial datum failed verification")
    k = one_dimensional_hopf(h.field)
    c = ModuleCoalgebra(h.as_coalgebra(), _twist_action(h.alpha))
    return DoiDatum(k, regular_comodule_algebra(k), c)


def _twist_action(mu: Matrix) -> Tensor3:
    # the action of k on a space with twist mu: v . 1 = mu(v)
    return Tensor3.from_nonzeros(mu.field, mu.cols, 1, mu.rows,
                                 {(c, 0, r): e for r, c, e in mu.nonzero()})


def comodule_to_doi(m: HomComodule, d: DoiDatum) -> DoiModule:
    """Over the trivial datum the only A-action is m . 1 = mu(m)."""
    require_same_field(d, m)
    if d.algebra.dim != 1:
        raise ValueError("expected a trivial datum")
    _require_over(None, d.coalgebra.dim, m)
    return DoiModule(m.field, m.dim, m.mu, _twist_action(m.mu), m.coaction)


def yd_datum(h: HomHopfAlgebra) -> DoiDatum:
    """The Doi datum (K, H, H), K = H (x) H^op, of Yetter-Drinfeld modules: H
    coacts by h -> alpha(h21) (x) (h22 (x) S(alpha^-1(h1))), and K acts on it
    by c <| (x (x) y) = alpha(y)(alpha^-1(c)x).  ``opposite_tensor`` checks H;
    nothing over K is checked, by the Hom form of the classical proof
    (Caenepeel, Militaru and Zhu, Trans. AMS 349 (1997)).  x.y = alpha^-1(xy)
    and Delta'(x) = Delta(alpha(x)) make H' = (H, ., 1, Delta', eps, S) a Hopf
    algebra with Hopf automorphism alpha (each classical law is a Hom law
    with the twists moved through), and H is its Yau twist along alpha; so
    K is the Yau twist of K' = H' (x) H'^op along a = alpha (x) alpha.  In
    these terms c <| b = alpha(c > a(b)) and the coaction is (alpha^-1 (x)
    a^-2) rho, where c > (x (x) y) = y.c.x and rho(h) = h2 (x) (h3 (x) S(h1))
    make H a module coalgebra and a comodule algebra over K' (CMZ).  So do
    c > a(b) and (id (x) a^-1) rho, as a is a Hopf automorphism commuting
    with both; and the Yau twist of such a structure, m <| b = mu(m > b) or
    (mu^-1 (x) a^-1) rho, is a Hom one: with the twists moved through, each
    Hom law is the classical one."""
    if not h.antipode_invertible:
        raise ValueError("antipode must be invertible")
    square = opposite_tensor(h)
    field, n = h.field, h.dim
    zero, one = field.zero(), field.one()
    alpha_col = h.alpha.columns()

    # coaction  h -> alpha(h21) (x) (h22 (x) S(alpha^-1(h1)))
    coa = {}
    s_of_alpha_inv_col = (h.antipode @ h.alpha_inv).columns()
    for i, h1, h2, c1 in h.comult.nonzero():
        for h21, h22, c2 in h.comult.nonzero_of(h2):
            for w, aw in alpha_col[h21].items():
                for z, sz in s_of_alpha_inv_col[h1].items():
                    key = (i, w, h22 * n + z)
                    coa[key] = coa.get(key, zero) + c1 * c2 * aw * sz
    a = ComoduleAlgebra(h.as_algebra(), Tensor3.from_nonzeros(field, n, n, n * n, coa))

    # action  c <| (x (x) y) = alpha(y)(alpha^-1(c) x)
    inner = [[h.mult.apply(a, {x: one}) for x in range(n)] for a in h.alpha_inv.columns()]
    action = Tensor3.from_nonzeros(field, n, n * n, n, {
        (c, x * n + y, k): e for c in range(n) for x in range(n) for y in range(n)
        for k, e in h.mult.apply(alpha_col[y], inner[c][x]).items()})
    return DoiDatum(square, a, ModuleCoalgebra(h.as_coalgebra(), action))


# ---------------------------------------------------------------------------
# Yetter-Drinfeld checks.  A YD module over H is a DoiModule over yd_datum(h):
# there A = C = H, so its action and coaction are indexed by the basis of H.

def yd_sides(m: DoiModule, h: HomHopfAlgebra):
    """Yield ``(i, j, lhs, rhs)``: both sides of the braided compatibility on
    the basis pair (e_i of M, e_j of H), as sparse vectors of M (x) H."""
    require_same_field(h, m)
    _require_over(h.dim, h.dim, m)
    one = m.field.one()
    dh = h.dim
    mu_col = m.mu.columns()
    mu_inv_col = m.mu_inv.columns()
    for i, j, lhs in leg_products(m.coaction, h.comult, product_table(m.action),
                                  product_table(h.mult), dh):
        rhs = {}
        for h1, h2, cd in h.comult.nonzero_of(j):
            v = m.action.apply(mu_inv_col[i], {h2: one})
            for q, s in m.coaction.apply_left(v).items():
                m0, m1 = divmod(q, dh)
                vec_add_scaled(rhs, cd * s, vec_tensor(mu_col[m0], h.mult.at_pair(h1, m1), dh))
        yield i, j, lhs, rhs


def check_yd_module(m: DoiModule, h: HomHopfAlgebra) -> AxiomReport:
    """The braided compatibility on all basis pairs (substructures assumed
    valid; check them with the module/comodule checkers)."""
    b = ReportBuilder()
    for i, j, lhs, rhs in yd_sides(m, h):
        b.check_vec("yd_compatibility", (i, j), lhs, rhs, m.dim * h.dim)
    return b.report()


def check_yd_substructures(m: DoiModule, h: HomHopfAlgebra) -> AxiomReport:
    return check_hom_module(m, h.as_algebra()).merged(
        check_hom_comodule(m, h.as_coalgebra()))


def trivial_yd_module(h: HomHopfAlgebra) -> DoiModule:
    """k with action by the counit and coaction by the unit."""
    field = h.field
    action = Tensor3(field, 1, h.dim, 1, tuple(h.counit))
    coaction = Tensor3(field, 1, 1, h.dim, tuple(h.unit))
    return DoiModule(field, 1, Matrix.identity(field, 1), action, coaction)
