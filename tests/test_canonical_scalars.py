"""Every scalar the package hands out is in canonical form.

Over Q an integral value is an ``int`` and any other value a ``Fraction``;
over GF(p) a value is the field's one shared ``GFElement`` of its residue.
Arithmetic that mixes the two Q forms can produce an integral ``Fraction``
(1/2 * 2), so these properties draw non-integer entries over Q and check
that no ``float``, no ``bool`` and no non-canonical value reaches a matrix,
a tensor, a solution, a certificate or a report.  GF(7) runs the same
properties.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import dense, dense_entries, is_canonical
from homhopf.applications import regular_comodule_algebra, relative_datum, trivial_datum, yd_datum
from homhopf.core import HomHopfAlgebra, check_hom_hopf
from homhopf.integrals import (Infeasible, IntegralCandidate, solve_normalized_integral,
                               verify_integral)
from homhopf.linalg import Field, Matrix, Tensor3
from homhopf.report import AxiomReport
from homhopf.zoo import group_algebra, twisted_sweedler
from law_oracles import dual_right_integrals

Q = Field.rationals()
GF7 = Field.prime(7)
FIELDS = [Q, GF7]

# Q entries include halves and thirds so that products and sums of
# non-integers land on integers
q_values = st.one_of(st.just(0), st.fractions(min_value=-3, max_value=3, max_denominator=3))
gf_values = st.integers(0, 6)
nonzero_q = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
nonzero_gf = st.integers(1, 6)


def values(field):
    return q_values if field.p is None else gf_values


def scalars(x):
    """Every scalar held by ``x``: matrices, tensors, sparse vectors,
    sequences, solutions, integrals, certificates and reports."""
    if isinstance(x, (Matrix, Tensor3)):
        yield from dense_entries(x)
    elif isinstance(x, dict):
        yield from x.values()
    elif isinstance(x, (list, tuple)):
        for y in x:
            yield from scalars(y)
    elif isinstance(x, IntegralCandidate):
        yield from scalars(x.theta)
    elif isinstance(x, Infeasible):
        yield x.witness_value
        yield from (coeff for _, coeff in x.combination)
    elif isinstance(x, AxiomReport):
        for v in x.violations:
            yield from v.residual
    else:
        yield x


def assert_canonical(x, field):
    for s in scalars(x):
        assert not isinstance(s, (float, bool)), repr(s)
        assert is_canonical(s, field), repr(s)


@st.composite
def matrices(draw, field, rows=None, cols=None):
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4)) if cols is None else cols
    ent = draw(st.lists(values(field), min_size=rows * cols, max_size=rows * cols))
    if field.p is None:
        # the store is handed every value as a Fraction, also a Fraction(2, 1)
        return dense(field, [Fraction(x) for x in ent], (rows, cols))
    return dense(field, [field.of(x) for x in ent], (rows, cols))


class TestFieldScalars:
    @given(n=st.integers(-10**20, 10**20))
    def test_integral_fraction_is_its_int(self, n):
        x = Q.of(Fraction(n))
        assert type(x) is int and x == n
        assert hash(x) == hash(Fraction(n)) and str(x) == str(Fraction(n))
        assert type(Q.of(str(n))) is int and type(Q.of(n)) is int

    def test_units_and_bools(self):
        assert type(Q.zero()) is int and type(Q.one()) is int
        assert type(Q.of(True)) is int and Q.of(True) == 1

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @given(data=st.data())
    def test_div(self, field, data):
        a = field.of(data.draw(values(field)))
        b = field.of(data.draw(nonzero_q if field.p is None else nonzero_gf))
        q = field.div(a, b)
        assert_canonical(q, field)
        assert q * b == a
        assert field.div(b * b, b) == b and is_canonical(field.div(b * b, b), field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
class TestMatrixScalars:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_operations_are_canonical(self, field, data):
        a = data.draw(matrices(field))
        b = data.draw(matrices(field, rows=a.cols))
        sq = data.draw(matrices(field, rows=a.rows, cols=a.rows))
        v = {i: field.of(x) for i, x in
             enumerate(data.draw(st.lists(values(field), min_size=a.cols, max_size=a.cols))) if x}
        assert_canonical(a, field)
        assert_canonical(a.rref()[0], field)
        assert_canonical(a @ b, field)
        assert_canonical(a.kron(b), field)
        assert_canonical(a.apply(v), field)
        assert_canonical(a.add(a.scale(-field.of(data.draw(values(field))))), field)
        inv = sq.inverse()
        if inv is not None:
            assert_canonical(inv, field)
            assert (sq @ inv).is_identity()


def _lams(field):
    return nonzero_q if field.p is None else nonzero_gf


@pytest.mark.parametrize("field", FIELDS, ids=str)
class TestConstructionScalars:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_yau_twist_is_canonical(self, field, data):
        lam = data.draw(_lams(field))
        h = twisted_sweedler(field, lam)
        assert_canonical([h.alpha, h.alpha_inv, h.mult, h.comult, h.antipode,
                          h.unit, h.counit], field)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_integral_solves_and_certificates_are_canonical(self, field, data):
        n = data.draw(st.integers(2, 4))
        h = group_algebra(n, field)
        for d in (trivial_datum(h), relative_datum(h, regular_comodule_algebra(h))):
            theta = solve_normalized_integral(d)
            assert isinstance(theta, IntegralCandidate)
            assert_canonical(theta, field)
        # elimination meets this certificate as Fraction(1, 1)
        certificate = solve_normalized_integral(yd_datum(
            twisted_sweedler(field, data.draw(_lams(field)))))
        assert isinstance(certificate, Infeasible)
        assert_canonical(certificate, field)
        assert_canonical([phi.phi for phi in dual_right_integrals(h)], field)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_failing_report_residuals_are_canonical(self, field, data):
        h = twisted_sweedler(field, data.draw(_lams(field)))
        entries = {(i, j, k): e for i, j, k, e in h.mult.nonzero()}
        key = data.draw(st.sampled_from(sorted(entries)))
        entries[key] = entries[key] + field.of(data.draw(_lams(field)))
        bad = HomHopfAlgebra(field, 4, h.alpha, Tensor3.from_nonzeros(field, 4, 4, 4, entries),
                             h.unit, h.comult, h.counit, h.antipode)
        rep = check_hom_hopf(bad)
        assert not rep.passed
        assert_canonical(rep, field)
        d = trivial_datum(group_algebra(2, field))
        theta = solve_normalized_integral(d).theta
        scaled = Tensor3.from_nonzeros(field, 2, 2, 1, {
            (i, j, k): e * field.of(data.draw(_lams(field))) for i, j, k, e in theta.nonzero()})
        rep = verify_integral(IntegralCandidate(field, 2, 1, scaled), d)
        assert_canonical(rep, field)
