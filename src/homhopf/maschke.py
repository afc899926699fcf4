"""Separability retractions and Maschke-style splittings.

From a normalized integral theta the adjunction unit acquires a natural
retraction, one linear map per module:

    nu_M(m (x) c) = mu(m0) . theta(m1 (x) gamma^-1(c)),

a Doi morphism M (x) C -> M with nu_M . rho_M = id_M, natural in M: the
source paper's Maschke-type theorem, the Hom form of Doi, J. Algebra 153
(1992), and Caenepeel, Militaru and Zhu, Trans. AMS 349 (1997); the tests
check naturality with ``retraction_naturality_report`` in tests/law_oracles.py.
Conversely a retraction on the canonical module A (x) C yields an integral by

    theta(c (x) d) = beta((id (x) eps) nu((1_A (x) gamma^-1(c)) (x) d)),

and the two directions are mutually inverse on that object.  Splittings of
epimorphisms (and monomorphisms) that split A-linearly are the theorem's one
candidate nu_M . (g (x) id_C) . rho_N, a composite of three Doi morphisms.

The theorem takes (H, A, C) to be a Doi datum, and nothing here checks the
datum's own laws.  The command line has one rule for it: ``find-integral``,
``certify`` and ``split`` each check the datum they read, A's and C's own
laws included, and exit 1 before answering when it fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _require_over, check_hom_module
from .doi import (DoiDatum, DoiModule, _induce, check_doi_module, doi_morphism_report,
                  induce, module_morphism_report)
from .integrals import (Infeasible, IntegralCandidate, solve_normalized_integral,
                        verify_integral)
from .linalg import (Matrix, Tensor3, require_same_field, vec_add_scaled, vec_sparse,
                     vec_tensor)
from .report import AxiomReport, ReportBuilder, require
from .zoo import regular_module


def build_retraction(theta: IntegralCandidate, m: DoiModule, d: DoiDatum) -> Matrix:
    """The retraction nu_M of the adjunction unit on M.

    Checks theta as a normalized integral of d (a report attached to it may
    be for another datum) and M as a Doi module over d, first; for d a Doi
    datum the theorem (module docstring) covers nu_M, which is unchecked."""
    require(verify_integral(theta, d).merged(check_doi_module(m, d)),
            "the integral or the module failed verification")
    return _retraction(theta, m, d)


def _retraction(theta: IntegralCandidate, m: DoiModule, d: DoiDatum) -> Matrix:
    """nu_M; M is checked for its field and dimensions only, theta by the caller."""
    require_same_field(d, theta, m)
    dm, dc, da = m.dim, d.coalgebra.dim, d.algebra.dim
    _require_over(da, dc, m)
    field = m.field
    gam_inv_col = d.coalgebra.coalgebra.gamma_inv.columns()
    mu_col = m.mu.columns()
    one = field.one()
    ent = {}
    for i in range(dm):
        for c in range(dc):
            acc = {}
            for m0, c1, co in m.coaction.nonzero_of(i):
                t = theta.theta.apply({c1: one}, gam_inv_col[c])
                vec_add_scaled(acc, co, m.action.apply(mu_col[m0], t))
            ent.update(((r, i * dc + c), x) for r, x in acc.items())
    return Matrix.from_nonzeros(field, dm, dm * dc, ent)


def retraction_report(nu: Matrix, m: DoiModule, d: DoiDatum) -> AxiomReport:
    """nu retracts the adjunction unit and is a Doi morphism M (x) C -> M;
    the caller checks M's A-module laws, which M (x) C is induced from."""
    require_same_field(d, nu, m)
    _require_over(d.algebra.dim, d.coalgebra.dim, m)
    dm, dc = m.dim, d.coalgebra.dim
    if nu.shape != (dm, dm * dc):
        raise ValueError(f"the map is a {nu.rows}x{nu.cols} matrix but needs {dm}x{dm * dc}")
    b = ReportBuilder()
    eta = m.coaction.as_map_to_pair()
    b.check_matrix("retracts_unit", (), nu @ eta, Matrix.identity(m.field, m.dim))
    return b.report().merged(doi_morphism_report(nu, _induce(m, d), m, d))


def canonical_module(d: DoiDatum) -> DoiModule:
    """The module A (x) C induced from A acting on itself, the object on
    which retractions and integrals determine each other."""
    return induce(regular_module(d.algebra.algebra), d)


def extract_integral(nu: Matrix, d: DoiDatum) -> IntegralCandidate:
    """Read an integral off a retraction of the canonical module A (x) C.

    The first theta argument enters through gamma^-1 so that extraction
    inverts ``build_retraction`` exactly (with the literal composite the
    round trip would return theta . (gamma (x) id) instead).

    Only nu is checked.  Doi-morphism retractions of the unit on A (x) C
    and normalized integrals correspond (CMZ 1997, and their LNM 1787
    (2002)), so the theta returned is one; it carries no report.
    """
    field = d.field
    require(retraction_report(nu, canonical_module(d), d),
            "input is not a retraction of the canonical module")
    alg = d.algebra.algebra
    coalg = d.coalgebra.coalgebra
    da, dc = alg.dim, coalg.dim
    gam_inv_col = coalg.gamma_inv.columns()
    unit_a = vec_sparse(alg.unit)
    eps = coalg.counit
    one = field.one()
    ent = {}
    for c in range(dc):
        base_vec = vec_tensor(unit_a, gam_inv_col[c], dc)
        for dd in range(dc):
            y = nu.apply(vec_tensor(base_vec, {dd: one}, dc))
            z = {}  # (id (x) eps) y
            for q, x in y.items():
                u, s = divmod(q, dc)
                vec_add_scaled(z, eps[s], {u: x})
            ent.update(((c, dd, k), e) for k, e in alg.alpha.apply(z).items())
    return IntegralCandidate(field, dc, da, Tensor3.from_nonzeros(field, dc, dc, da, ent))


# ---------------------------------------------------------------------------
# Maschke splittings

def split_epimorphism(f: Matrix, g: Matrix, m: DoiModule, n: DoiModule,
                      theta: IntegralCandidate, d: DoiDatum) -> Matrix:
    """Upgrade an A-linear section of an epimorphism of Doi modules to a
    section in the Doi category.

    Checks that f: M -> N is a Doi morphism, g: N -> M is A-linear and
    twist-compatible and f . g = id_N, and theta and M as
    ``build_retraction`` does.  By ``_split`` the section returned is then a
    Doi morphism with f . section = id_N.
    """
    return _split(f, g, m, n, theta, d, epi=True)


def split_monomorphism(f: Matrix, g: Matrix, m: DoiModule, n: DoiModule,
                       theta: IntegralCandidate, d: DoiDatum) -> Matrix:
    """Symmetric variant: f: M -> N a Doi monomorphism with an A-linear
    retraction g (g . f = id_M); returns the Doi retraction
    nu_M . (g (x) id_C) . rho_N.  N is also checked, as a Doi module."""
    return _split(f, g, m, n, theta, d, epi=False)


def _split(f: Matrix, g: Matrix, m: DoiModule, n: DoiModule,
           theta: IntegralCandidate, d: DoiDatum, epi: bool) -> Matrix:
    """f: M -> N a Doi morphism and g: N -> M an A-linear map with f . g = id
    (epi) or g . f = id; returns sigma = nu_M . (g (x) id_C) . rho_N, unchecked.

    Epi: f is a surjective Doi morphism, so N's laws are images of M's, e.g.
    mu(f(m)).(ab) = f(mu(m).(ab)) = f((m.a).beta(b)) = (f(m).a).beta(b); the
    same holds for coassociativity and the Doi law.  Mono: f is injective, so
    only M's laws follow from N's, and N is checked.  rho_N, g (x) id_C and
    nu_M are then Doi morphisms, so sigma is one; naturality of nu gives
    f . sigma = nu_N . ((f . g) (x) id_C) . rho_N = id_N, and colinearity of
    f gives sigma . f = nu_M . ((g . f) (x) id_C) . rho_M = id_M.
    """
    require(doi_morphism_report(f, m, n, d), "f is not a morphism of Doi modules")
    require(module_morphism_report(g, n, m, d.algebra.algebra),
            "g is not an A-linear twist-compatible map")
    b, split = ReportBuilder(), f @ g if epi else g @ f
    b.check_matrix("f_after_g" if epi else "g_after_f", (), split,
                   Matrix.identity(d.field, split.rows))
    require(b.report(), "g does not split f on the module level")
    if not epi:
        require(check_doi_module(n, d), "the target is not a valid Doi module")
    eye_c = Matrix.identity(d.field, d.coalgebra.dim)
    return build_retraction(theta, m, d) @ g.kron(eye_c) @ n.coaction.as_map_to_pair()


# ---------------------------------------------------------------------------
# separability certificates

@dataclass
class SeparabilityCertificate:
    theta: IntegralCandidate
    checked_modules: tuple  # (descriptor, passed) pairs

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok in self.checked_modules)


def separability_report(d: DoiDatum, test_modules) -> SeparabilityCertificate | Infeasible:
    """Solve for an integral; if one exists, build the retraction on every
    test module and certify each whose A-module laws and ``retraction_report`` pass."""
    result = solve_normalized_integral(d)
    if isinstance(result, Infeasible):
        return result
    checked = []
    for name, module in test_modules:
        nu = _retraction(result, module, d)
        checked.append((name, check_hom_module(module, d.algebra.algebra).passed
                        and retraction_report(nu, module, d).passed))
    return SeparabilityCertificate(result, tuple(checked))
