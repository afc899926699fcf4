"""Shared deterministic generators for test structures.

Everything is seeded; reruns produce identical corpora.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd

from homhopf.applications import regular_comodule_algebra, relative_datum, trivial_datum
from homhopf.core import HomComodule, HomHopfAlgebra, HomModule
from homhopf.doi import DoiModule, induce
from homhopf.integrals import Infeasible, IntegralCandidate, solve_normalized_integral
from homhopf.linalg import Field, GFElement, Matrix, Tensor3
from homhopf.zoo import (regular_module, sweedler_h4, twisted_group_algebra,
                         twisted_sweedler)


def is_canonical(x, field: Field) -> bool:
    """Is ``x`` a scalar of ``field`` in its one canonical form?  Over Q an
    integral value is an ``int`` (never a ``bool``) and any other value a
    ``Fraction``; over GF(p) every value is the field's shared
    ``GFElement`` of its residue."""
    if field.p is not None:
        return type(x) is GFElement and x.p == field.p and x is GFElement(x.value, field.p)
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def dense(field: Field, entries, shape: tuple | None = None) -> Matrix | Tensor3:
    """The Matrix (``shape`` (rows, cols)) or Tensor3 (``shape`` (d1, d2, d3))
    with the dense ``entries``, built from their nonzeros with
    ``from_nonzeros``, whose store makes each value canonical in ``field``
    (an int, a Fraction or a string like "3/2") and drops the zeros.  Without
    ``shape`` the entries are nested: a matrix's rows, or a tensor's planes
    of rows; with it they are row-major, or a function of the index."""
    if shape is None:
        shape, part = (), entries
        while isinstance(part, (list, tuple)):
            shape += (len(part),)
            part = part[0] if part else None
        entries = _flat(entries, shape)
    index = list(product(*map(range, shape)))
    if callable(entries):
        entries = [entries(*at) for at in index]
    if len(entries) != len(index):
        raise ValueError("entry count does not match dimensions")
    cls = Matrix if len(shape) == 2 else Tensor3
    return cls.from_nonzeros(field, *shape, {at: x for at, x in zip(index, entries) if x})


def _flat(part, shape: tuple) -> list:
    """The nested ``part`` of ``shape`` as one row-major list."""
    if not shape:
        return [part]
    if len(part) != shape[0]:
        raise ValueError("ragged entries")
    return [x for sub in part for x in _flat(sub, shape[1:])]


def dense_entries(x: Matrix | Tensor3) -> tuple:
    """The row-major entries of ``x``, zeros included, read through ``at``."""
    return tuple(x.at(*at) for at in product(*map(range, x.shape)))


def candidate(field: Field, dim_c: int, dim_a: int, vec) -> IntegralCandidate:
    """The integral candidate whose coefficient of e_k in theta(e_i (x) e_j)
    is ``vec[theta_index(i, j, k)]``, built from the nonzero entries of the
    dense ``vec`` with :func:`dense`."""
    return IntegralCandidate(field, dim_c, dim_a, dense(field, vec, (dim_c, dim_c, dim_a)))


def random_invertible(field: Field, n: int, rng: random.Random, span: int = 3) -> Matrix:
    while True:
        m = dense(field, lambda r, c: rng.randint(-span, span), (n, n))
        if m.inverse() is not None:
            return m


def cyclic_rep(field: Field, dim: int, order: int, rng: random.Random) -> Matrix:
    """A random matrix G with G^order = I: a permutation with cycle lengths
    dividing the order, conjugated by a random invertible matrix."""
    sizes = []
    left = dim
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    while left > 0:
        sizes.append(rng.choice([d for d in divisors if d <= left]))
        left -= sizes[-1]
    zero, one = field.zero(), field.one()
    ent = [[zero] * dim for _ in range(dim)]
    start = 0
    for d in sizes:
        for i in range(d):
            ent[start + (i + 1) % d][start + i] = one
        start += d
    g0 = dense(field, ent)
    p = random_invertible(field, dim, rng)
    return p @ g0 @ p.inverse()


def commuting_twist(field: Field, g: Matrix, rng: random.Random) -> Matrix:
    """An invertible polynomial in g (hence commuting with it)."""
    dim = g.rows
    while True:
        mu = Matrix.zeros(field, dim, dim)
        power = Matrix.identity(field, dim)
        for _ in range(rng.randint(1, 3)):
            mu = mu.add(power.scale(field.of(rng.randint(-2, 2))))
            power = power @ g
        if mu.inverse() is not None:
            return mu


def seeded_twist(base, field: Field, rng: random.Random) -> HomHopfAlgebra:
    """A seeded Yau twist of kZn (``base`` = n >= 2) by g -> g^k for a unit
    k mod n, or of Sweedler's H4 (``base`` = "H4") by the scaling with a
    seeded lam; k = 1 and lam = 1 leave the algebra untwisted."""
    if base == "H4":
        return twisted_sweedler(field, rng.choice([1, 2, 3, -2]))
    return twisted_group_algebra(base, rng.choice([k for k in range(1, base)
                                                   if gcd(k, base) == 1]), field)


def twist_corpus(field: Field, max_n: int) -> list:
    """kZn for n <= ``max_n`` twisted along g -> g^k for every unit k of Z_n
    (k = 1 leaves kZn untwisted), H4, and H4 twisted by lam in {2, -1, 1/2}
    over Q or {2, 3, 6} over GF(p).  The twists of kZ5 and kZ7 and the lam
    with lam^2 != 1 have alpha != alpha^-1, so an alpha/alpha^-1 mix-up shows
    on them."""
    lams = (2, 3, 6) if field.p else (2, -1, Fraction(1, 2))
    corpus = [twisted_group_algebra(n, k, field) for n in range(1, max_n + 1)
              for k in range(1, n + 1) if gcd(k, n) == 1]
    return corpus + [sweedler_h4(field)] + [twisted_sweedler(field, lam) for lam in lams]


def integral_corpus(field: Field, max_n: int) -> list:
    """(d, theta, twisted summand) for the trivial datum (k, k, H) and the
    relative datum (H, H, H) of every H in ``twist_corpus(field, max_n)``
    that has a normalized integral theta (the trivial data over H4 and its
    twists have none).  The summand is an induced module to set beside the
    canonical one: over k a module with a twist from ``random_invertible``,
    over H the regular module, whose twist is alpha."""
    rng, out = random.Random(2101), []
    for h in twist_corpus(field, max_n):
        for d in (trivial_datum(h), relative_datum(h, regular_comodule_algebra(h))):
            theta = solve_normalized_integral(d)
            if isinstance(theta, Infeasible):
                continue
            n = (random_module_over_scalars(field, rng.randint(1, 2), rng) if d.algebra.dim == 1
                 else regular_module(d.algebra.algebra))
            out.append((d, theta, induce(n, d)))
    return out


def twist_breaking_module(field: Field) -> DoiModule:
    """A 2-dimensional module over the trivial datum of kZ2 that is not a Doi
    module: k acts through the twist [[1, 1], [0, 1]], and the grading
    coaction e_i -> e_i (x) g^i ignores the twist, so the comodule twist,
    counit and coassociativity laws and the Doi law all fail."""
    mu = dense(field, [[1, 1], [0, 1]])
    action = dense(field, lambda i, _, j: mu.at(j, i), (2, 1, 2))
    coaction = dense(field, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    return DoiModule(field, 2, mu, action, coaction)


def random_module_over_group_algebra(h: HomHopfAlgebra, dim: int,
                                     rng: random.Random) -> HomModule:
    """A valid Hom-module over the classical group algebra k[Z_n]: a
    representation G of Z_n composed with a commuting invertible twist."""
    field = h.field
    n = h.dim
    g = cyclic_rep(field, dim, n, rng)
    mu = commuting_twist(field, g, rng)
    powers = [Matrix.identity(field, dim)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ g)
    mats = [mu @ powers[a] for a in range(n)]
    action = dense(field, lambda m, a, mm: mats[a].at(mm, m), (dim, n, dim))
    return HomModule(field, dim, mu, action)


def random_module_over_scalars(field: Field, dim: int, rng: random.Random) -> HomModule:
    """A module over the one-dimensional Hopf algebra: any invertible twist."""
    mu = random_invertible(field, dim, rng)
    action = dense(field, lambda m, _, mm: mu.at(mm, m), (dim, 1, dim))
    return HomModule(field, dim, mu, action)


def graded_comodule(h: HomHopfAlgebra, degrees, mu: Matrix) -> HomComodule:
    """Comodule over a classical group algebra from a Z_n-grading; the twist
    must preserve degrees."""
    field = h.field
    dim = len(degrees)
    mu_inv = mu.inverse()
    coaction = dense(field, lambda i, j, c: mu_inv.at(j, i) if c == degrees[i] else 0,
                     (dim, dim, h.dim))
    return HomComodule(field, dim, mu, coaction)


def random_graded_comodule(h: HomHopfAlgebra, dim: int, rng: random.Random) -> HomComodule:
    field = h.field
    degrees = sorted(rng.randrange(h.dim) for _ in range(dim))
    # block-diagonal invertible twist along equal degrees
    while True:
        ent = [[field.zero()] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                if degrees[i] == degrees[j]:
                    ent[i][j] = field.of(rng.randint(-2, 2))
        mu = dense(field, ent)
        if mu.inverse() is not None:
            return graded_comodule(h, degrees, mu)


# ---------------------------------------------------------------------------
# Yetter-Drinfeld candidates (valid and invalid, substructures always valid),
# as Doi modules over yd_datum(h)

def yd_regular_action_trivial_coaction(h: HomHopfAlgebra, mu: Matrix | None = None) -> DoiModule:
    field = h.field
    n = h.dim
    mu = mu if mu is not None else h.alpha
    mu_inv = mu.inverse()
    # action m.a = (mu alpha^-1)(m a); for mu = alpha this is the regular action
    action = _compose_output(h.mult, mu @ h.alpha_inv)
    coaction = dense(field, lambda i, j, c: (mu_inv @ h.alpha_inv).at(j, i) * _unit_coeff(h, c),
                     (n, n, h.dim))
    return DoiModule(field, n, mu, action, coaction)


def _unit_coeff(h: HomHopfAlgebra, c: int):
    return h.unit[c]


def _compose_output(t: Tensor3, m: Matrix) -> Tensor3:
    field = t.field

    def entry(i, j, k):
        s = field.zero()
        for l in range(t.d3):
            v = t.at(i, j, l)
            if v:
                e = m.at(k, l)
                if e:
                    s = s + e * v
        return s

    return dense(field, entry, t.shape)


def yd_trivial_action_group_coaction(h: HomHopfAlgebra) -> DoiModule:
    """For a classical group algebra: action by the counit, coaction by the
    grouplike grading of the regular basis."""
    field = h.field
    n = h.dim
    action = dense(field, lambda m, a, mm: h.counit[a] if mm == m else 0, (n, n, n))
    coaction = dense(field, lambda i, j, c: 1 if i == j == c else 0, (n, n, n))
    return DoiModule(field, n, Matrix.identity(field, n), action, coaction)


def yd_both_regular(h: HomHopfAlgebra) -> DoiModule:
    """Multiplication action plus comultiplication coaction; generally not
    Yetter-Drinfeld, but both substructures are valid."""
    return DoiModule(h.field, h.dim, h.alpha, h.mult, h.comult)


def yd_regular_action_unit_coaction(h: HomHopfAlgebra) -> DoiModule:
    """Multiplication action with the coaction m -> alpha^-1(m) (x) 1."""
    field = h.field
    n = h.dim
    coaction = dense(field, lambda i, j, c: h.alpha_inv.at(j, i) * h.unit[c], (n, n, n))
    return DoiModule(field, n, h.alpha, h.mult, coaction)

