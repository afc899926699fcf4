"""Separability retractions and Maschke-style splittings.

From a certified integral theta the adjunction unit acquires a natural
retraction, one linear map per module:

    nu_M(m (x) c) = mu(m0) . theta(m1 (x) gamma^-1(c)),

verified to satisfy nu_M . unit = id, A-linearity, C-colinearity and
twist-compatibility before being returned.  Conversely a retraction on the
canonical module A (x) C yields an integral by

    theta(c (x) d) = beta((id (x) eps) nu((1_A (x) gamma^-1(c)) (x) d)),

and the two directions are mutually inverse on that object.  Splittings of
epimorphisms (and monomorphisms) that split A-linearly are the theorem's one
candidate nu_M . (g (x) id_C) . rho_N, a composite of three Doi morphisms;
every returned section is verified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .doi import (DoiDatum, DoiModule, doi_morphism_report, induce,
                  module_morphism_report)
from .integrals import (Infeasible, IntegralCandidate, solve_normalized_integral,
                        verify_integral)
from .linalg import (Matrix, Tensor3, require_same_field, vec_add_scaled, vec_sparse,
                     vec_tensor)
from .report import AxiomReport, ConstructionError, ReportBuilder, require
from .zoo import regular_module


def build_retraction(theta: IntegralCandidate, m: DoiModule, d: DoiDatum) -> Matrix:
    """The retraction nu_M of the adjunction unit on M, fully verified."""
    require_same_field(d, theta, m)
    field = m.field
    dm, dc, da = m.dim, d.coalgebra.dim, d.algebra.dim
    if (theta.dim_c, theta.dim_a) != (dc, da):
        raise ValueError("integral dimensions do not match the datum")
    gam_inv_col = [d.coalgebra.coalgebra.gamma_inv.column(i) for i in range(dc)]
    mu_col = [m.mu.column(i) for i in range(dm)]
    one = field.one()
    ent = {}
    for i in range(dm):
        for c in range(dc):
            acc = {}
            for m0, c1, co in m.coaction.nonzero_of(i):
                t = theta.theta.apply({c1: one}, gam_inv_col[c])
                vec_add_scaled(acc, co, m.action.apply(mu_col[m0], t))
            ent.update(((r, i * dc + c), x) for r, x in acc.items())
    nu = Matrix.from_nonzeros(field, dm, dm * dc, ent)
    require(retraction_report(nu, m, d),
            "retraction failed verification (invalid integral or inconsistent bracketing)")
    return nu


def retraction_report(nu: Matrix, m: DoiModule, d: DoiDatum) -> AxiomReport:
    """nu retracts the adjunction unit and is a Doi morphism M (x) C -> M."""
    b = ReportBuilder()
    eta = m.coaction.as_map_to_pair()
    b.check_matrix("retracts_unit", (), nu @ eta, Matrix.identity(m.field, m.dim))
    return b.report().merged(doi_morphism_report(nu, induce(m, d), m, d))


def canonical_module(d: DoiDatum) -> DoiModule:
    """The module A (x) C induced from A acting on itself, the object on
    which retractions and integrals determine each other."""
    return induce(regular_module(d.algebra.algebra), d)


def extract_integral(nu: Matrix, d: DoiDatum) -> IntegralCandidate:
    """Read an integral off a retraction of the canonical module A (x) C.

    The first theta argument enters through gamma^-1 so that extraction
    inverts ``build_retraction`` exactly (with the literal composite the
    round trip would return theta . (gamma (x) id) instead).
    """
    field = d.field
    require(retraction_report(nu, canonical_module(d), d),
            "input is not a retraction of the canonical module")
    alg = d.algebra.algebra
    coalg = d.coalgebra.coalgebra
    da, dc = alg.dim, coalg.dim
    gam_inv_col = [coalg.gamma_inv.column(i) for i in range(dc)]
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
    cand = IntegralCandidate(field, dc, da, Tensor3.from_nonzeros(field, dc, dc, da, ent))
    cand.report = require(verify_integral(cand, d),
                          "extracted map is not a normalized integral")
    return cand


# ---------------------------------------------------------------------------
# Maschke splittings

def split_epimorphism(f: Matrix, g: Matrix, m: DoiModule, n: DoiModule,
                      theta: IntegralCandidate, d: DoiDatum) -> Matrix:
    """Upgrade an A-linear section of an epimorphism of Doi modules to a
    section in the Doi category.

    Preconditions (all verified): f: M -> N is a Doi morphism, g: N -> M is
    A-linear and twist-compatible, f . g = id_N.  The returned section
    nu_M . (g (x) id_C) . rho_N satisfies f . section = id_N and is A-linear,
    C-colinear and twist-compatible, all verified.
    """
    return _split(f, g, m, n, theta, d, epi=True)


def split_monomorphism(f: Matrix, g: Matrix, m: DoiModule, n: DoiModule,
                       theta: IntegralCandidate, d: DoiDatum) -> Matrix:
    """Symmetric variant: f: M -> N a Doi monomorphism with an A-linear
    retraction g (g . f = id_M); returns the Doi retraction
    nu_M . (g (x) id_C) . rho_N, verified the same way."""
    return _split(f, g, m, n, theta, d, epi=False)


def _split(f: Matrix, g: Matrix, m: DoiModule, n: DoiModule,
           theta: IntegralCandidate, d: DoiDatum, epi: bool) -> Matrix:
    """f: M -> N a Doi morphism and g: N -> M an A-linear map with f . g = id
    (epi) or g . f = id; returns sigma = nu_M . (g (x) id_C) . rho_N, verified.

    No twist correction is needed: rho_N, g (x) id_C and nu_M are Doi
    morphisms, naturality of nu gives f . sigma = nu_N . ((f . g) (x) id_C)
    . rho_N = id_N, and colinearity of f gives sigma . f = nu_M . ((g . f)
    (x) id_C) . rho_M = id_M.
    """
    require(doi_morphism_report(f, m, n, d), "f is not a morphism of Doi modules")
    require(module_morphism_report(g, n, m, d.algebra.algebra),
            "g is not an A-linear twist-compatible map")
    given, found, dim = (("f_after_g", "splits_epimorphism", n.dim) if epi
                         else ("g_after_f", "splits_monomorphism", m.dim))
    identity = Matrix.identity(d.field, dim)
    b = ReportBuilder()
    b.check_matrix(given, (), f @ g if epi else g @ f, identity)
    require(b.report(), "g does not split f on the module level")
    section = _section_candidate(g, m, n, theta, d)
    b = ReportBuilder()
    b.check_matrix(found, (), f @ section if epi else section @ f, identity)
    require(b.report().merged(doi_morphism_report(section, n, m, d)),
            "the section nu_M . (g (x) id_C) . rho_N does not verify")
    return section


def _section_candidate(g: Matrix, m: DoiModule, n: DoiModule,
                       theta: IntegralCandidate, d: DoiDatum) -> Matrix:
    nu_m = build_retraction(theta, m, d)
    eye_c = Matrix.identity(d.field, d.coalgebra.dim)
    return nu_m @ g.kron(eye_c) @ n.coaction.as_map_to_pair()


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
    """Solve for an integral; if one exists, build and verify retractions on
    every test module and certify."""
    result = solve_normalized_integral(d)
    if isinstance(result, Infeasible):
        return result
    checked = []
    for name, module in test_modules:
        try:
            build_retraction(result, module, d)
            checked.append((name, True))
        except ConstructionError:
            checked.append((name, False))
    return SeparabilityCertificate(result, tuple(checked))


def retraction_naturality_report(f: Matrix, m_src: DoiModule, m_dst: DoiModule,
                                 theta: IntegralCandidate, d: DoiDatum) -> AxiomReport:
    """f . nu_src = nu_dst . (f (x) id_C) for a Doi morphism f."""
    b = ReportBuilder()
    nu_src = build_retraction(theta, m_src, d)
    nu_dst = build_retraction(theta, m_dst, d)
    eye_c = Matrix.identity(d.field, d.coalgebra.dim)
    b.check_matrix("naturality", (), f @ nu_src, nu_dst @ f.kron(eye_c))
    return b.report()
