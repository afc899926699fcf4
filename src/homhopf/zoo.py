"""Built-in golden structures: cyclic group algebras, the Taft algebras (Sweedler's
H4 is T_2), their Yau twists, and small helper modules."""

from __future__ import annotations

from math import gcd

from .core import (HomAlgebra, HomCoalgebra, HomComodule, HomHopfAlgebra,
                   HomModule, yau_twist)
from .linalg import Field, Matrix, Tensor3


def group_algebra(n: int, field: Field) -> HomHopfAlgebra:
    """The cyclic group algebra k[Z_n] with identity twist.

    Basis g^0 .. g^(n-1); grouplike comultiplication, antipode g -> g^-1.
    """
    one, zero = field.one(), field.zero()
    mult = Tensor3.from_nonzeros(field, n, n, n,
                                 {(i, j, (i + j) % n): one for i in range(n) for j in range(n)})
    comult = Tensor3.from_nonzeros(field, n, n, n, {(i, i, i): one for i in range(n)})
    unit = tuple(one if i == 0 else zero for i in range(n))
    counit = (one,) * n
    antipode = Matrix.from_nonzeros(field, n, n, {(-c % n, c): one for c in range(n)})
    return HomHopfAlgebra(field, n, Matrix.identity(field, n), mult, unit,
                          comult, counit, antipode)


def power_automorphism(n: int, k: int, field: Field) -> Matrix:
    """The Hopf automorphism of k[Z_n] induced by g -> g^k (gcd(k, n) = 1)."""
    if gcd(k, n) != 1:
        raise ValueError(f"g -> g^{k} is not invertible on Z_{n}")
    return Matrix.from_nonzeros(field, n, n, {(k * c % n, c): field.one() for c in range(n)})


def twisted_group_algebra(n: int, k: int, field: Field) -> HomHopfAlgebra:
    return yau_twist(group_algebra(n, field), power_automorphism(n, k, field))


def sweedler_h4(field: Field) -> HomHopfAlgebra:
    """Sweedler's Hopf algebra H4 = T_2 at zeta = -1: basis 1, g, x, gx with
    g^2 = 1, x^2 = 0, xg = -gx; Delta(g) = g(x)g, Delta(x) = x(x)1 + g(x)x."""
    if field.p == 2:
        raise ValueError("needs a field of characteristic different from 2")
    return taft_algebra(2, -1, field)


def sweedler_scaling(field: Field, lam) -> Matrix:
    """The Hopf automorphism of Sweedler's algebra fixing 1, g and scaling
    x and gx by ``lam`` (any nonzero scalar)."""
    lam = field.of(lam)
    if not lam:
        raise ValueError("scaling must be nonzero")
    z, o = field.zero(), field.one()
    return Matrix.from_rows(field, [[o, z, z, z], [z, o, z, z],
                                    [z, z, lam, z], [z, z, z, lam]])


def twisted_sweedler(field: Field, lam=2) -> HomHopfAlgebra:
    return yau_twist(sweedler_h4(field), sweedler_scaling(field, lam))


def taft_algebra(n: int, zeta, field: Field) -> HomHopfAlgebra:
    """The Taft algebra T_n (Taft, PNAS 68 (1971)): basis g^i x^j at j*n + i,
    x-major, with g^n = 1, x^n = 0 and xg = zeta gx for a primitive n-th root
    of unity zeta; Delta(g) = g (x) g, Delta(x) = x (x) 1 + g (x) x,
    S(x) = -g^-1 x.  Identity twist.  T_2 at zeta = -1 is Sweedler's H4."""
    zeta = field.of(zeta)
    one, zero = field.one(), field.zero()
    pw = [one]                                  # pw[e] = zeta^e, e mod n
    for _ in range(n - 1):
        pw.append(pw[-1] * zeta)
    if pw[-1] * zeta != one or one in pw[1:]:
        raise ValueError(f"{zeta} is not a primitive {n}-th root of unity in {field}")
    # (g^i x^j)(g^k x^l) = zeta^(jk) g^(i+k) x^(j+l)
    mult = {(j * n + i, l * n + k, (j + l) * n + (i + k) % n): pw[j * k % n]
            for i in range(n) for j in range(n) for k in range(n) for l in range(n - j)}
    # Delta(g^i x^j) = sum_k [j, k]_q zeta^(k(j-k)) g^(i+j-k) x^k (x) g^i x^(j-k),
    # q = zeta^-1, with Gaussian binomials [j, k]_q = [j-1, k-1]_q + q^k [j-1, k]_q
    binom = [[one]]
    for j in range(1, n):
        prev = binom[-1] + [zero]
        binom.append([one] + [prev[k - 1] + pw[-k % n] * prev[k] for k in range(1, j + 1)])
    comult = {(j * n + i, k * n + (i + j - k) % n, (j - k) * n + i):
              binom[j][k] * pw[k * (j - k) % n]
              for i in range(n) for j in range(n) for k in range(j + 1)}
    # S(g^i x^j) = (-1)^j zeta^(-j(j-1)/2 - ij) g^(-i-j) x^j
    antipode = {(j * n + (-i - j) % n, j * n + i):
                (-one if j % 2 else one) * pw[(-j * (j - 1) // 2 - i * j) % n]
                for i in range(n) for j in range(n)}
    d = n * n
    return HomHopfAlgebra(field, d, Matrix.identity(field, d),
                          Tensor3.from_nonzeros(field, d, d, d, mult),
                          tuple(one if q == 0 else zero for q in range(d)),
                          Tensor3.from_nonzeros(field, d, d, d, comult),
                          tuple(one if q < n else zero for q in range(d)),
                          Matrix.from_nonzeros(field, d, d, antipode))


def one_dimensional_hopf(field: Field) -> HomHopfAlgebra:
    """The one-dimensional Hopf algebra k, the group algebra of Z_1."""
    return group_algebra(1, field)


# ---------------------------------------------------------------------------
# derived module-style structures

def regular_module(a: HomAlgebra) -> HomModule:
    """A acting on itself by multiplication, twisted by its own alpha."""
    return HomModule(a.field, a.dim, a.alpha, a.mult)


def regular_comodule(c: HomCoalgebra) -> HomComodule:
    """C coacting on itself by comultiplication, twisted by its own gamma."""
    return HomComodule(c.field, c.dim, c.gamma, c.comult)


def trivial_comodule(h: HomHopfAlgebra) -> HomComodule:
    """The one-dimensional comodule 1 -> 1 (x) 1_H."""
    field = h.field
    coaction = Tensor3(field, 1, 1, h.dim, tuple(h.unit))
    return HomComodule(field, 1, Matrix.identity(field, 1), coaction)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    ent = {(r, c): e for r, c, e in a.nonzero()}
    ent.update(((a.rows + r, a.cols + c), e) for r, c, e in b.nonzero())
    return Matrix.from_nonzeros(a.field, a.rows + b.rows, a.cols + b.cols, ent)


def inclusion_matrix(field: Field, total: int, offset: int, dim: int) -> Matrix:
    """Inclusion of a summand of dimension ``dim`` at ``offset`` into k^total."""
    return Matrix.from_nonzeros(field, total, dim,
                                {(offset + c, c): field.one() for c in range(dim)})


def projection_matrix(field: Field, total: int, offset: int, dim: int) -> Matrix:
    """Projection of k^total onto the summand at ``offset``."""
    return Matrix.from_nonzeros(field, dim, total,
                                {(r, offset + r): field.one() for r in range(dim)})
