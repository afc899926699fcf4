"""Acceptance suite: every criterion runs at its stated (exact) tolerance and
prints one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import subprocess
import sys
import time

import classical_oracle as oracle
from corpus import random_module_over_group_algebra, random_module_over_scalars
from homhopf.applications import (check_yd_module, check_yd_substructures, comodule_to_doi,
                                  regular_comodule_algebra, relative_datum,
                                  trivial_datum, yd_datum)
from homhopf.core import (HomHopfAlgebra, check_hom_comodule, check_hom_hopf,
                          check_hom_module)
from homhopf.doi import (check_comodule_algebra, check_doi_module,
                         check_module_coalgebra, check_triangle_identities,
                         direct_sum_doi, doi_morphism_report, induce)
from homhopf.integrals import (Infeasible, IntegralCandidate,
                               solve_normalized_integral, verify_integral)
from homhopf.linalg import Field, Tensor3
from homhopf.maschke import (build_retraction, canonical_module,
                             extract_integral, split_epimorphism)
from homhopf.zoo import (group_algebra, inclusion_matrix, projection_matrix,
                         regular_comodule, regular_module, sweedler_h4,
                         trivial_comodule, twisted_group_algebra,
                         twisted_sweedler)
from law_oracles import (check_k_integral_conditions, coaction_formula_holds,
                         dual_right_integrals, integral_from_dual, nested)

Q = Field.rationals()
GF7 = Field.prime(7)


def report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def golden_suite(field):
    # nontrivial Hopf automorphisms of a group algebra permute the grouplikes,
    # so k[Z_2] only has the identity; the twisted variants start at n = 3
    out = [("kZ2", group_algebra(2, field)),
           ("kZ3", group_algebra(3, field)),
           ("kZ4", group_algebra(4, field)),
           ("kZ6", group_algebra(6, field)),
           ("kZ3_twisted", twisted_group_algebra(3, 2, field)),
           ("kZ4_twisted", twisted_group_algebra(4, 3, field)),
           ("kZ6_twisted", twisted_group_algebra(6, 5, field)),
           ("H4", sweedler_h4(field)),
           ("H4_twisted", twisted_sweedler(field, 2))]
    return out


def corrupt(h):
    ent = list(h.mult.entries)
    ent[0] = ent[0] + h.field.one()
    return HomHopfAlgebra(h.field, h.dim, h.alpha,
                          Tensor3(h.field, h.dim, h.dim, h.dim, tuple(ent)),
                          h.unit, h.comult, h.counit, h.antipode)


def test_criterion_1_axiom_suites():
    ok = True
    for name, h in golden_suite(Q):
        start = time.perf_counter()
        full = check_hom_hopf(h)
        module = check_hom_module(regular_module(h.as_algebra()), h.as_algebra())
        comodule = check_hom_comodule(regular_comodule(h.as_coalgebra()),
                                      h.as_coalgebra())
        elapsed = time.perf_counter() - start
        ok &= full.passed and module.passed and comodule.passed
        ok &= elapsed < 1.0
        bad = check_hom_hopf(corrupt(h))
        ok &= (not bad.passed) and len(bad.violations) > 0
        ok &= all(v.index is not None and v.residual for v in bad.violations[:1])
    report(1, "axiom suites with located corruptions, < 1 s each", ok)


def test_criterion_2_induction_and_triangles():
    h = group_algebra(2, Q)
    d = relative_datum(h, regular_comodule_algebra(h))
    rng = random.Random(2024)
    ok = True
    for i in range(20):
        n = random_module_over_group_algebra(h, rng.randint(1, 4), rng)
        ok &= check_hom_module(n, d.algebra.algebra).passed
        gn = induce(n, d)
        ok &= check_doi_module(gn, d).passed
        ok &= check_triangle_identities(d, gn, n).passed
    report(2, "20 random modules: induction valid, triangle identities exact", ok)


def _criterion_3(field):
    ok = True
    for n in (2, 3, 4, 6):
        h = group_algebra(n, field)
        d = trivial_datum(h)
        sol = solve_normalized_integral(d)
        ok &= isinstance(sol, IntegralCandidate)
        if isinstance(sol, IntegralCandidate):
            ok &= verify_integral(sol, d).passed
            ok &= check_k_integral_conditions(sol, h).passed
    return ok


def test_criterion_3_integral_existence():
    report(3, "normalized integrals exist for group algebras over Q", _criterion_3(Q))


def test_criterion_4_integral_nonexistence():
    h = sweedler_h4(Q)
    d = trivial_datum(h)
    sol = solve_normalized_integral(d)
    ok = isinstance(sol, Infeasible)
    if ok:
        ok &= bool(sol.witness_value) and len(sol.combination) > 0
    duals = dual_right_integrals(h)
    ok &= len(duals) == 1
    cand = integral_from_dual(duals[0], h)
    ok &= verify_integral(cand, d).failing_axioms() == ("normalization",)
    report(4, "no integral for Sweedler's algebra; dual integral unnormalizable", ok)


def test_criterion_5_retraction_equivalence():
    h = group_algebra(2, Q)
    d = trivial_datum(h)
    theta = solve_normalized_integral(d)
    ok = isinstance(theta, IntegralCandidate)
    nu = build_retraction(theta, canonical_module(d), d)
    back = extract_integral(nu, d)
    ok &= back.theta.entries == theta.theta.entries
    rng = random.Random(2025)
    corpus = [comodule_to_doi(regular_comodule(h.as_coalgebra()), d),
              comodule_to_doi(trivial_comodule(h), d),
              canonical_module(d)]
    for _ in range(7):
        n = random_module_over_scalars(Q, rng.randint(1, 3), rng)
        corpus.append(induce(n, d))
    corpus.append(direct_sum_doi(corpus[0], corpus[1]))
    ok &= len(corpus) >= 10
    for m in corpus:
        nu_m = build_retraction(theta, m, d)
        ok &= (nu_m @ m.coaction.as_map_to_pair()).is_identity()
    report(5, "integral/retraction round trip and unit retraction on corpus", ok)


def test_criterion_6_maschke_splitting():
    h = group_algebra(2, Q)
    d = trivial_datum(h)
    theta = solve_normalized_integral(d)
    reg = comodule_to_doi(regular_comodule(h.as_coalgebra()), d)
    tri = comodule_to_doi(trivial_comodule(h), d)
    big = direct_sum_doi(reg, tri)
    f = projection_matrix(Q, 3, 0, 2)
    g = inclusion_matrix(Q, 3, 0, 2)
    section = split_epimorphism(f, g, big, reg, theta, d)
    ok = (f @ section).is_identity()
    ok &= doi_morphism_report(section, reg, big, d).passed
    report(6, "projection splits in the Doi category", ok)


def test_criterion_7_yetter_drinfeld():
    ok = True
    corpora = 0
    for h in [group_algebra(2, Q), twisted_sweedler(Q, 2)]:
        d = yd_datum(h)
        ok &= check_comodule_algebra(d.algebra, d.hopf).passed
        ok &= check_module_coalgebra(d.coalgebra, d.hopf).passed
        from test_applications import yd_corpus
        for name, m, _ in yd_corpus(h, random.Random(77)):
            ok &= check_yd_substructures(m, h).passed
            yd_ok = check_yd_module(m, h).passed
            ok &= yd_ok == coaction_formula_holds(m, h)
            doi_ok = check_doi_module(m, d).passed
            ok &= (yd_ok == doi_ok)
            corpora += 1
    ok &= corpora >= 10
    report(7, "YD data verify; compatibility forms and Doi checks agree", ok)


def criterion_8_hopf_inputs():
    """The Hopf algebras criterion 8 hands the classical oracle in-process."""
    h = sweedler_h4(Q)
    return [h] + [group_algebra(n, Q) for n in (2, 3, 4, 6)] + [corrupt(h)]


def test_criterion_8_classical_limit():
    ok = True
    for h in criterion_8_hopf_inputs():
        ok &= check_hom_hopf(h).passed == oracle.hopf_ok(
            nested(h.mult), list(h.unit), nested(h.comult),
            list(h.counit), nested(h.antipode))
    # module/comodule/datum-level agreement runs in the dedicated suite; here
    # we assert the aggregated verdict of that suite's own checks
    rc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                         "tests/test_classical_limit.py"],
                        capture_output=True, text=True)
    ok &= rc.returncode == 0
    report(8, "Hom checkers at identity twist match the classical oracle", ok)


def test_criterion_9_determinism_and_gf7():
    from homhopf.golden import golden_file
    from homhopf.io import serialize_structure_file
    import tempfile, os
    ok = _criterion_3(GF7)
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "d.json")
        with open(p, "w") as fh:
            fh.write(serialize_structure_file(golden_file("kZ4_trivial_datum", Q)))
        runs = [subprocess.run([sys.executable, "-m", "homhopf.cli",
                                "find-integral", p, "D"],
                               capture_output=True, text=True) for _ in range(2)]
        ok &= runs[0].stdout == runs[1].stdout and runs[0].returncode == runs[1].returncode
        checks = [subprocess.run([sys.executable, "-m", "homhopf.cli",
                                  "examples", "H4_twisted"],
                                 capture_output=True, text=True) for _ in range(2)]
        ok &= checks[0].stdout == checks[1].stdout
    report(9, "byte-identical reruns; GF(7) integrals succeed", ok)
