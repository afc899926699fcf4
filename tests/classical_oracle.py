"""Independent brute-force checker for classical (untwisted) structures.

Deliberately written against nested-list structure constants with plain index
sums, sharing no evaluation code with the package: when every twist is the
identity, the package's checkers must agree with these verdicts exactly.  The
four-index sums skip the zero coefficients of their outer factors, which
leaves every sum and verdict as it was.
"""

from __future__ import annotations

from fractions import Fraction


def _zero():
    return Fraction(0)


def _nonzero_pairs(t, i):
    """[(p, q, t[i][p][q])] over the nonzero entries of the plane t[i]."""
    return [(p, q, x) for p, row in enumerate(t[i]) for q, x in enumerate(row) if x]


def algebra_ok(mult, unit) -> bool:
    n = len(mult)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    lhs = sum((mult[i][j][l] * mult[l][k][m] for l in range(n)), _zero())
                    rhs = sum((mult[j][k][l] * mult[i][l][m] for l in range(n)), _zero())
                    if lhs != rhs:
                        return False
    for i in range(n):
        for m in range(n):
            right = sum((unit[j] * mult[i][j][m] for j in range(n)), _zero())
            left = sum((unit[j] * mult[j][i][m] for j in range(n)), _zero())
            want = Fraction(1) if i == m else Fraction(0)
            if right != want or left != want:
                return False
    return True


def coalgebra_ok(comult, counit) -> bool:
    n = len(comult)
    for i in range(n):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    lhs = sum((comult[i][l][c] * comult[l][a][b] for l in range(n)), _zero())
                    rhs = sum((comult[i][a][l] * comult[l][b][c] for l in range(n)), _zero())
                    if lhs != rhs:
                        return False
    for i in range(n):
        for m in range(n):
            left = sum((comult[i][j][m] * counit[j] for j in range(n)), _zero())
            right = sum((comult[i][m][j] * counit[j] for j in range(n)), _zero())
            want = Fraction(1) if i == m else Fraction(0)
            if left != want or right != want:
                return False
    return True


def bialgebra_compat_ok(mult, unit, comult, counit) -> bool:
    n = len(mult)
    delta = [_nonzero_pairs(comult, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            for a in range(n):
                for b in range(n):
                    lhs = sum((mult[i][j][l] * comult[l][a][b] for l in range(n)), _zero())
                    rhs = sum((x * y * mult[p][r][a] * mult[q][s][b]
                               for p, q, x in delta[i] for r, s, y in delta[j]), _zero())
                    if lhs != rhs:
                        return False
            eps_prod = sum((mult[i][j][l] * counit[l] for l in range(n)), _zero())
            if eps_prod != counit[i] * counit[j]:
                return False
    for a in range(n):
        for b in range(n):
            lhs = sum((unit[l] * comult[l][a][b] for l in range(n)), _zero())
            if lhs != unit[a] * unit[b]:
                return False
    if sum((unit[l] * counit[l] for l in range(n)), _zero()) != 1:
        return False
    return True


def hopf_ok(mult, unit, comult, counit, antipode) -> bool:
    if not (algebra_ok(mult, unit) and coalgebra_ok(comult, counit)
            and bialgebra_compat_ok(mult, unit, comult, counit)):
        return False
    n = len(mult)
    for i in range(n):
        for m in range(n):
            conv_l = sum((comult[i][a][b] * antipode[c][a] * mult[c][b][m]
                          for a in range(n) for b in range(n) for c in range(n)), _zero())
            conv_r = sum((comult[i][a][b] * antipode[c][b] * mult[a][c][m]
                          for a in range(n) for b in range(n) for c in range(n)), _zero())
            want = counit[i] * unit[m]
            if conv_l != want or conv_r != want:
                return False
    return True


def module_ok(mult, unit, action) -> bool:
    dm = len(action)
    da = len(mult)
    for m in range(dm):
        for a in range(da):
            for b in range(da):
                for t in range(dm):
                    lhs = sum((action[m][a][l] * action[l][b][t] for l in range(dm)), _zero())
                    rhs = sum((mult[a][b][l] * action[m][l][t] for l in range(da)), _zero())
                    if lhs != rhs:
                        return False
        for t in range(dm):
            val = sum((unit[a] * action[m][a][t] for a in range(da)), _zero())
            if val != (Fraction(1) if m == t else Fraction(0)):
                return False
    return True


def comodule_ok(comult, counit, coaction) -> bool:
    dm = len(coaction)
    dc = len(comult)
    for m in range(dm):
        for t in range(dm):
            for a in range(dc):
                for b in range(dc):
                    lhs = sum((coaction[m][l][b] * coaction[l][t][a]
                               for l in range(dm)), _zero())
                    rhs = sum((coaction[m][t][l] * comult[l][a][b]
                               for l in range(dc)), _zero())
                    if lhs != rhs:
                        return False
        for t in range(dm):
            val = sum((coaction[m][t][c] * counit[c] for c in range(dc)), _zero())
            if val != (Fraction(1) if m == t else Fraction(0)):
                return False
    return True


def comodule_algebra_ok(mult, unit, coaction, h_mult, h_unit, h_comult, h_counit) -> bool:
    if not comodule_ok(h_comult, h_counit, coaction):
        return False
    da = len(mult)
    dh = len(h_mult)
    rho = [_nonzero_pairs(coaction, i) for i in range(da)]
    for i in range(da):
        for j in range(da):
            for t in range(da):
                for hh in range(dh):
                    lhs = sum((mult[i][j][l] * coaction[l][t][hh] for l in range(da)), _zero())
                    rhs = sum((x * y * mult[u][v][t] * h_mult[p][q][hh]
                               for u, p, x in rho[i] for v, q, y in rho[j]), _zero())
                    if lhs != rhs:
                        return False
    for t in range(da):
        for hh in range(dh):
            val = sum((unit[l] * coaction[l][t][hh] for l in range(da)), _zero())
            if val != unit[t] * h_unit[hh]:
                return False
    return True


def module_coalgebra_ok(comult, counit, action, h_mult, h_unit, h_comult, h_counit) -> bool:
    if not module_ok(h_mult, h_unit, action):
        return False
    dc = len(comult)
    dh = len(h_mult)
    delta = [_nonzero_pairs(comult, c) for c in range(dc)]
    h_delta = [_nonzero_pairs(h_comult, hh) for hh in range(dh)]
    for c in range(dc):
        for hh in range(dh):
            for a in range(dc):
                for b in range(dc):
                    lhs = sum((action[c][hh][l] * comult[l][a][b] for l in range(dc)), _zero())
                    rhs = sum((x * y * action[p][r][a] * action[q][s][b]
                               for p, q, x in delta[c] for r, s, y in h_delta[hh]), _zero())
                    if lhs != rhs:
                        return False
            val = sum((action[c][hh][l] * counit[l] for l in range(dc)), _zero())
            if val != counit[c] * h_counit[hh]:
                return False
    return True


def doi_module_ok(action, coaction, a_mult, a_unit, a_coaction,
                  c_comult, c_counit, c_action) -> bool:
    if not module_ok(a_mult, a_unit, action):
        return False
    if not comodule_ok(c_comult, c_counit, coaction):
        return False
    dm = len(action)
    da = len(a_mult)
    dc = len(c_comult)
    rho = [_nonzero_pairs(coaction, m) for m in range(dm)]
    a_rho = [_nonzero_pairs(a_coaction, a) for a in range(da)]
    for m in range(dm):
        for a in range(da):
            for t in range(dm):
                for cc in range(dc):
                    lhs = sum((action[m][a][l] * coaction[l][t][cc] for l in range(dm)), _zero())
                    rhs = sum((x * y * action[u][v][t] * c_action[p][q][cc]
                               for u, p, x in rho[m] for v, q, y in a_rho[a]), _zero())
                    if lhs != rhs:
                        return False
    return True
