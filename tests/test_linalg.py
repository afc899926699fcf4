import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homhopf.core import opposite_tensor
from homhopf.linalg import (Field, GFElement, Matrix, Tensor3, _rref_rows, _transform_row,
                            vec_add_scaled, vec_dense, vec_dot, vec_scale, vec_sparse,
                            vec_sub, vec_tensor, vec_tensor_combine)
from homhopf.zoo import group_algebra
from corpus import is_canonical
from law_oracles import nested

Q = Field.rationals()


def mat(rows, field=Q):
    return Matrix.from_rows(field, rows)


class TestScalars:
    def test_gf_canonical_representatives(self):
        x = GFElement(10, 7)
        assert x.value == 3
        assert -x == GFElement(4, 7)
        assert x + 5 == GFElement(1, 7)

    def test_gf_division(self):
        assert GFElement(1, 7) / GFElement(2, 7) == GFElement(4, 7)
        with pytest.raises(ZeroDivisionError):
            GFElement(1, 7) / GFElement(0, 7)

    def test_gf_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            GFElement(1, 7) + GFElement(1, 5)

    def test_field_of_string(self):
        assert Q.of("3/2") == Fraction(3, 2)
        assert Field.prime(7).of("3/2") == GFElement(3, 7) / GFElement(2, 7)

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            Field.prime(6)

    @pytest.mark.parametrize("p", [1, 0, -7])
    def test_modulus_below_two_is_refused(self, p):
        # GF(1) would be a field in which 1 = 0
        with pytest.raises(ValueError, match=rf"^modulus {p} is not a prime below 2\*\*31$"):
            Field.prime(p)

    @given(a=st.integers(-50, 50), p=st.sampled_from([2, 3, 7, 31]))
    def test_gf_equal_to_int_hashes_alike(self, a, p):
        # only the canonical residue equals an int, and equal values share a hash
        x = GFElement(a, p)
        for v in range(-20, 20):
            assert (x == v) == (v == x.value)
            if x == v:
                assert hash(x) == hash(v)
        assert len({x, x.value}) == 1

    @given(a=st.integers(-100, 100), b=st.integers(-100, 100),
           p=st.sampled_from([2, 3, 7, 31]))
    def test_gf_arithmetic_is_int_arithmetic_on_shared_elements(self, a, b, p):
        # one object per value and field, and results read from it agree
        # with int arithmetic mod p, for element and int operands alike
        x, y = GFElement(a, p), GFElement(b, p)
        assert x is GFElement(a + p, p) and x is GFElement(a % p, p)
        results = [(x + y, a + b), (x - y, a - b), (x * y, a * b), (-x, -a),
                   (x + b, a + b), (b + x, a + b), (x - b, a - b), (b - x, b - a),
                   (x * b, a * b), (b * x, a * b)]
        if b % p:
            inverse = pow(b, p - 2, p)
            results += [(x / y, a * inverse), (x / b, a * inverse)]
        for got, want in results:
            assert type(got) is GFElement and got.p == p
            assert got.value == want % p and got is GFElement(want, p)
        # a bool coerces as the int it equals
        for flag in (False, True):
            assert x + flag is GFElement(a + flag, p) and flag * x is GFElement(a * flag, p)
            assert flag - x is GFElement(flag - a, p)
            assert Field.prime(p).of(flag) is GFElement(flag, p)

    def test_gf_errors_on_every_operator(self):
        x = GFElement(3, 7)
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
                   lambda a, b: a / b):
            with pytest.raises(ValueError, match="mixed moduli 7 and 5"):
                op(x, GFElement(3, 5))
            with pytest.raises(TypeError):
                op(x, 1.5)
        for zero in (GFElement(0, 7), GFElement(7, 7), 0, 14, False):
            with pytest.raises(ZeroDivisionError, match=r"division by zero in GF\(7\)"):
                x / zero

    def test_gf_large_modulus_keeps_a_bounded_table(self):
        # 140,000 distinct values of GF(2**31 - 1): past 2**16 a result is
        # made and not kept, and every answer is still int arithmetic mod p
        p, g, n = 2**31 - 1, 16807, 70_000
        x, total, x_int, total_int = GFElement(1, p), GFElement(0, p), 1, 0
        for _ in range(n):
            x, x_int = x * g, x_int * g % p
            total, total_int = total + x, (total_int + x_int) % p
        assert x.value == x_int == pow(g, n, p) and total.value == total_int
        assert len(GFElement(0, p)._elements) == 2**16
        again = GFElement(x.value, p)
        assert again == x and hash(again) == hash(x) and again + x == 2 * x.value % p
        assert Matrix.from_rows(Field.prime(p), [[x.value, 1], [0, 1]]).inverse().at(0, 0) * x == 1

    @given(a=st.integers(-50, 50), b=st.integers(-50, 50), c=st.integers(-50, 50))
    def test_gf_field_laws(self, a, b, c):
        p = 7
        x, y, z = GFElement(a, p), GFElement(b, p), GFElement(c, p)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        if y:
            assert (x / y) * y == x


    @pytest.mark.parametrize("op", [
        lambda a, b: a @ b, lambda a, b: a.add(b), lambda a, b: a.kron(b),
    ], ids=["matmul", "add", "kron"])
    def test_matrices_over_different_fields_rejected(self, op):
        # an int over Q would pass for an element of GF(7); this used to be
        # a TypeError on Fraction * GFElement
        q, gf = Matrix.identity(Q, 2), mat([[1, 2], [3, 4]], Field.prime(7))
        for a, b in ((q, gf), (gf, q)):
            with pytest.raises(ValueError, match=r"the Matrix is over .* but the Matrix is over"):
                op(a, b)


class TestRref:
    def test_identity(self):
        m = Matrix.identity(Q, 2)
        r, pivots = m.rref()
        assert r == m
        assert pivots == (0, 1)

    def test_zero_row(self):
        m = mat([[0, 0]])
        r, pivots = m.rref()
        assert r == m
        assert pivots == ()

    def test_rank_deficient(self):
        # hand Gaussian elimination: row2 - 2*row1 annihilates the second row
        m = mat([[1, 2], [2, 4]])
        r, pivots = m.rref()
        assert r == mat([[1, 2], [0, 0]])
        assert pivots == (0,)

    def test_idempotent_on_example(self):
        m = mat([[2, 4, 1], [3, 1, 0], [5, 5, 1]])
        r, _ = m.rref()
        assert r.rref()[0] == r


small_matrices = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


class TestRrefProperties:
    @settings(max_examples=60)
    @given(rows=small_matrices)
    def test_idempotent(self, rows):
        r, pivots = mat(rows).rref()
        again, pivots2 = r.rref()
        assert again == r
        assert pivots == pivots2

    @settings(max_examples=40)
    @given(rows=small_matrices)
    def test_idempotent_over_gf7(self, rows):
        m = mat(rows, Field.prime(7))
        r, pivots = m.rref()
        again, pivots2 = r.rref()
        assert again == r and pivots == pivots2

    @settings(max_examples=60)
    @given(rows=small_matrices)
    def test_pivots_increasing_with_unit_columns(self, rows):
        r, pivots = mat(rows).rref()
        assert list(pivots) == sorted(pivots)
        for row_idx, col in enumerate(pivots):
            assert r.columns()[col] == {row_idx: Fraction(1)}


def dense_gauss_jordan(rows, field):
    """Reference elimination on dense row lists, with a dense transform: the
    pivot rule the sparse kernel must reproduce row operation for row
    operation."""
    rows = [list(row) for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    transform = [[field.one() if c == r else field.zero() for c in range(nrows)]
                 for r in range(nrows)]
    piv_row = 0
    pivots = []
    for col in range(ncols):
        sel = None
        for r in range(piv_row, nrows):
            if rows[r][col]:
                sel = r
                break
        if sel is None:
            continue
        if sel != piv_row:
            rows[piv_row], rows[sel] = rows[sel], rows[piv_row]
            transform[piv_row], transform[sel] = transform[sel], transform[piv_row]
        inv = field.div(field.one(), rows[piv_row][col])
        if inv != field.one():
            rows[piv_row] = [inv * x for x in rows[piv_row]]
            transform[piv_row] = [inv * x for x in transform[piv_row]]
        for r in range(nrows):
            if r == piv_row:
                continue
            f = rows[r][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[piv_row])]
                transform[r] = [a - f * b for a, b in zip(transform[r], transform[piv_row])]
        pivots.append(col)
        piv_row += 1
        if piv_row == nrows:
            break
    return rows, pivots, transform


small_ints = st.one_of(st.just(0), st.integers(-3, 3))


def int_rows(nrows, ncols):
    return st.lists(st.lists(small_ints, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@st.composite
def needs_swap(draw):
    # the first row is zero in a column that a later row is not
    rows = draw(st.integers(2, 5).flatmap(
        lambda r: st.integers(1, 5).flatmap(lambda c: int_rows(r, c))))
    col = draw(st.integers(0, len(rows[0]) - 1))
    later = draw(st.integers(1, len(rows) - 1))
    for row in rows[:later]:
        row[col] = 0
    rows[later][col] = draw(st.integers(1, 3))
    return rows


nonzero_ints = st.sampled_from([-3, -2, -1, 1, 2, 3])


@st.composite
def sparse_with_fill_in(draw):
    # up to 20x15 and mostly zeros, with an empty row and an empty column;
    # the first pivot (column c, row p) fills column d into row q
    nrows, ncols = draw(st.integers(3, 20)), draw(st.integers(3, 15))
    rows = [[0] * ncols for _ in range(nrows)]
    cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), nonzero_ints)
    for r, c, x in draw(st.lists(cells, max_size=nrows * ncols // 6)):
        rows[r][c] = x
    p, q, empty_row = draw(st.lists(st.integers(0, nrows - 1), min_size=3, max_size=3,
                                    unique=True))
    c, d, empty_col = draw(st.lists(st.integers(0, ncols - 1), min_size=3, max_size=3,
                                    unique=True))
    (p, q), (c, d) = sorted((p, q)), sorted((c, d))
    for r, row in enumerate(rows):
        row[empty_col] = 0
        row[:c + (r < p)] = [0] * (c + (r < p))
    rows[empty_row] = [0] * ncols
    rows[p][c], rows[p][d], rows[q][c] = draw(nonzero_ints), draw(nonzero_ints), draw(nonzero_ints)
    rows[q][d] = 0
    return rows


SHAPES = {
    "no_rows": st.just([]),
    "all_zero": st.integers(1, 4).flatmap(
        lambda r: st.integers(1, 4).map(lambda c: [[0] * c for _ in range(r)])),
    "single_row": st.integers(1, 6).flatmap(lambda c: int_rows(1, c)),
    "tall": st.integers(1, 3).flatmap(
        lambda c: st.integers(c + 1, 7).flatmap(lambda r: int_rows(r, c))),
    "wide": st.integers(1, 3).flatmap(
        lambda r: st.integers(r + 1, 7).flatmap(lambda c: int_rows(r, c))),
    "needs_swap": needs_swap(),
    "sparse": sparse_with_fill_in(),
}


def densify(sparse_rows, ncols, field):
    return [[row.get(c, field.zero()) for c in range(ncols)] for row in sparse_rows]


class TestSparseKernelOracle:
    @pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=str)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_dense_gauss_jordan(self, field, shape, data):
        ints = data.draw(SHAPES[shape])
        a = [[field.of(x) for x in row] for row in ints]
        nrows, ncols = len(a), len(a[0]) if a else 0
        sparse_a = [{c: x for c, x in enumerate(row) if x} for row in a]
        red, pivots, steps = _rref_rows(sparse_a, field)
        # T is not carried; each of its rows is replayed from the logged steps
        transform = [_transform_row(steps, i, field) for i in range(nrows)]
        want_red, want_pivots, want_transform = dense_gauss_jordan(a, field)
        assert densify(red, ncols, field) == want_red
        assert pivots == want_pivots
        assert densify(transform, nrows, field) == want_transform
        # stored entries are nonzero and the input is left as it was
        assert all(x for row in red + transform for x in row.values())
        assert sparse_a == [{c: x for c, x in enumerate(row) if x} for row in a]
        # T . A == R
        for i in range(nrows):
            for j in range(ncols):
                acc = field.zero()
                for k, t in transform[i].items():
                    acc = acc + t * a[k][j]
                assert acc == red[i].get(j, field.zero())

    @pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=str)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_inverse_is_the_dense_transform(self, field, data):
        # an invertible P L U: P a permutation, L unit lower triangular, U
        # upper triangular with a nonzero diagonal
        n = data.draw(st.integers(1, 7))
        perm = data.draw(st.permutations(range(n)))
        below = iter(data.draw(st.lists(small_ints, min_size=n * n, max_size=n * n)))
        above = iter(data.draw(st.lists(small_ints, min_size=n * n, max_size=n * n)))
        diag = data.draw(st.lists(nonzero_ints, min_size=n, max_size=n))
        p = [[int(c == perm[r]) for c in range(n)] for r in range(n)]
        lower = [[next(below) if c < r else int(c == r) for c in range(n)] for r in range(n)]
        upper = [[next(above) if c > r else diag[r] if c == r else 0 for c in range(n)]
                 for r in range(n)]
        m = mat(p, field) @ mat(lower, field) @ mat(upper, field)
        _, pivots, transform = dense_gauss_jordan(nested(m), field)
        assert pivots == list(range(n))
        assert m.inverse() == Matrix.from_rows(field, transform)

    @pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=str)
    @pytest.mark.parametrize("shape", ["monomial", "shared_column", "empty_row"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_monomial_inverse_is_the_dense_transform(self, field, shape, data):
        # one nonzero per row, in distinct columns, is inverted entry by
        # entry; a row moved onto another's column or emptied makes the
        # matrix singular, and the reduction of [A | I] says so
        n = data.draw(st.integers(1 if shape == "monomial" else 2, 7))
        perm = data.draw(st.permutations(range(n)))
        values = data.draw(st.lists(nonzero_ints, min_size=n, max_size=n))
        rows = [[values[r] if c == perm[r] else 0 for c in range(n)] for r in range(n)]
        if shape != "monomial":
            r, s = data.draw(st.permutations(range(n)))[:2]
            rows[r] = ([values[r] if c == perm[s] else 0 for c in range(n)]
                       if shape == "shared_column" else [0] * n)
        m = mat(rows, field)
        _, pivots, transform = dense_gauss_jordan(nested(m), field)
        inv = m.inverse()
        if shape != "monomial":
            assert len(pivots) < n and inv is None
            return
        assert pivots == list(range(n))
        assert inv == Matrix.from_rows(field, transform)
        assert inv.entries == tuple(x for row in transform for x in row)
        assert (m @ inv).is_identity() and (inv @ m).is_identity()
        for e in inv.entries:
            if field.is_rational:
                assert type(e) is (int if e.denominator == 1 else Fraction)
            else:
                assert type(e) is GFElement and e.p == field.p


class TestComposeTensorApply:
    def test_compose_identity(self):
        m = mat([[1, 2], [3, 4]])
        assert Matrix.identity(Q, 2) @ m == m
        assert m @ Matrix.identity(Q, 2) == m

    def test_tensor_of_identities(self):
        assert Matrix.identity(Q, 2).kron(Matrix.identity(Q, 3)) == Matrix.identity(Q, 6)

    def test_tensor_index_order(self):
        a = mat([[2]])
        b = mat([[0, 1], [1, 0]])
        t = a.kron(b)
        assert t == mat([[0, 2], [2, 0]])

    @settings(max_examples=30)
    @given(a=small_matrices, b=small_matrices, c=small_matrices)
    def test_tensor_associative_under_flattening(self, a, b, c):
        ma, mb, mc = mat(a), mat(b), mat(c)
        assert ma.kron(mb).kron(mc) == ma.kron(mb.kron(mc))

    @settings(max_examples=30)
    @given(a=small_matrices, b=small_matrices)
    def test_tensor_mixed_product(self, a, b):
        # (f (x) g) = (f (x) id) . (id (x) g)
        ma, mb = mat(a), mat(b)
        lhs = ma.kron(mb)
        rhs = ma.kron(Matrix.identity(Q, mb.rows)) @ Matrix.identity(Q, ma.cols).kron(mb)
        assert lhs == rhs

    def test_tensor_apply_group_multiplication(self):
        # multiplication table of the 2-element group: g.g = 1
        t = Tensor3.from_nested(Q, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
        e_g = {1: Q.one()}
        assert t.apply(e_g, e_g) == {0: Q.one()}

    def test_tensor_apply_dimension_mismatch(self):
        t = Tensor3.zeros(Q, 2, 2, 2)
        with pytest.raises(ValueError):
            t.apply({2: Fraction(1)}, {})
        with pytest.raises(ValueError):
            t.apply({0: Fraction(1)}, {2: Fraction(1)})
        with pytest.raises(ValueError):
            t.apply_left({2: Fraction(1)})
        with pytest.raises(ValueError):
            Matrix.identity(Q, 2).apply({2: Fraction(1)})

    def test_tensor_apply_rejects_negative_index(self):
        # -1 would wrap to the fibre t[1][0] = 5 e1
        t = Tensor3.from_nonzeros(Q, 2, 2, 2, {(0, 0, 0): 1, (1, 0, 1): 5})
        for v, w in (({-1: 1}, {0: 1}), ({0: 1}, {-1: 1}), ({-1: 1}, {})):
            with pytest.raises(ValueError, match="operand index out of range"):
                t.apply(v, w)
        with pytest.raises(ValueError, match="operand index out of range"):
            t.apply_left({-1: 1})

    def test_matrix_apply_rejects_negative_index(self):
        m = Matrix.identity(Q, 2)
        with pytest.raises(ValueError, match="vector index -1 applied to 2x2 matrix"):
            m.apply({-1: 1})
        with pytest.raises(ValueError, match="vector index 2 applied to 2x2 matrix"):
            m.apply({2: 1})


class TestTensor3Views:
    def test_as_map_to_pair_roundtrip(self):
        t = Tensor3.from_nested(Q, [[[1, 2], [0, 1]], [[3, 0], [1, 1]]])
        m = t.as_map_to_pair()
        for i in range(2):
            assert m.apply({i: Q.one()}) == t.left_slice(i)

    def test_flat_index_convention(self):
        t = Tensor3.from_nested(Q, [[[0, 1], [2, 3]], [[4, 5], [6, 7]]])
        assert t.at(1, 0, 1) == Fraction(5)
        assert t.entries[1 * 4 + 0 * 2 + 1] == Fraction(5)


class TestFibreStore:
    def test_equal_fibres_stored_once(self, field):
        # kZ3 (x) kZ3^op repeats each of its 9 distinct product rows 9 times
        fibres = opposite_tensor(group_algebra(3, field)).mult._fibres
        seen = {}
        for fibre in fibres:
            if fibre:
                assert seen.setdefault(fibre, fibre) is fibre
            else:
                assert fibre is ()
        assert len(fibres) == 81 and len(seen) == 9

    def test_integral_fraction_stored_as_int(self):
        two = Fraction(4, 2)
        stored = [Matrix.from_nonzeros(Q, 2, 2, {(0, 1): two}),
                  Matrix.identity(Q, 2).scale(two),
                  Matrix(Q, 1, 2, (two, 0)),
                  Tensor3(Q, 1, 1, 2, (0, two))]
        for m in stored:
            values = [e for fibre in m._fibres for _, e in fibre]
            assert values and all(type(e) is int and e == 2 for e in values)

    def test_gf_entries_stored_as_reduced_elements(self):
        gf7 = Field.prime(7)
        one = gf7.of(1)
        stored = [Matrix(gf7, 1, 2, (8, 0)),
                  Tensor3(gf7, 1, 1, 2, (Fraction(15, 1), 7)),
                  Matrix.from_nonzeros(gf7, 1, 2, {(0, 0): 8, (0, 1): 14}),
                  Tensor3.from_nonzeros(gf7, 1, 1, 2, {(0, 0, 0): Fraction(8), (0, 0, 1): 7})]
        for m in stored:
            # an entry that reduces to zero is dropped like any other zero
            assert m._fibres == (((0, one),),)
            assert type(m._fibres[0][0][1]) is GFElement
        assert stored[0] == Matrix(gf7, 1, 2, (one, 0))
        assert stored[1] == Tensor3(gf7, 1, 1, 2, (one, 0))
        assert Matrix(gf7, 1, 1, (Fraction(1, 2),)).at(0, 0) == 4

    def test_element_of_another_modulus_is_rejected(self):
        # over GF(7) an element of GF(5); over Q an element of GF(7) and a float
        cases = [(Field.prime(7), GFElement(1, 5), ValueError,
                  r"element of GF\(5\) in field GF\(7\)"),
                 (Q, GFElement(8, 7), ValueError, r"element of GF\(7\) in field Q"),
                 (Q, 1.5, TypeError, r"cannot coerce float into Q")]
        for field, other, error, message in cases:
            for build in (lambda: Matrix(field, 1, 1, (other,)),
                          lambda: Tensor3(field, 1, 1, 1, (other,)),
                          lambda: Matrix.from_nonzeros(field, 1, 1, {(0, 0): other}),
                          lambda: Tensor3.from_nonzeros(field, 1, 1, 1, {(0, 0, 0): other})):
                with pytest.raises(error, match=message):
                    build()

    def test_copies_and_pickles_keep_the_fibres(self, field):
        # a slots dataclass copies and pickles its declared fields alone, so
        # these came back without their fibres
        m = Matrix.from_rows(field, [[1, 0, 2], [0, 3, 0]])
        t = opposite_tensor(group_algebra(2, field)).mult
        for obj in (m, t):
            for copied in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert type(copied) is type(obj) and copied == obj and hash(copied) == hash(obj)
                assert copied.field == obj.field and copied.shape == obj.shape
                assert copied.entries == obj.entries
                assert all(is_canonical(e, field) for *_, e in copied.nonzero())
        assert pickle.loads(pickle.dumps(m)).apply({0: field.one()}) == m.apply({0: field.one()})
        assert copy.deepcopy(m) @ Matrix.identity(field, 3) == m
        for x in (field.one(), field.of(5)):
            for copied in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert copied == x and is_canonical(copied, field)

    def test_q_entries_coerced_into_the_field(self):
        # a string is parsed and a bool is the int it equals; "0" is dropped
        m = Matrix(Q, 1, 4, ("3", True, "1/2", "0"))
        assert m._fibres == (((0, 3), (1, 1), (2, Fraction(1, 2))),)
        assert [type(e) for _, e in m._fibres[0]] == [int, int, Fraction]
        assert m == Matrix(Q, 1, 4, (3, 1, Fraction(1, 2), 0))

    def test_equality_and_hashing(self, field):
        rows = [[1, 0, 2], [0, 0, 0], [1, 0, 2]]
        dense = Matrix.from_rows(field, rows)
        sparse = Matrix.from_nonzeros(field, 3, 3, {(r, c): field.of(x)
                                                    for r, row in enumerate(rows)
                                                    for c, x in enumerate(row)})
        assert dense == sparse and hash(dense) == hash(sparse)
        assert dense.entries == tuple(field.of(x) for row in rows for x in row)
        assert dense != Matrix.from_rows(field, [[1, 0, 2], [0, 0, 0], [1, 0, 3]])
        other = Field.rationals() if field.p is not None else Field.prime(7)
        assert dense != Matrix.from_rows(other, rows)
        # equal fibres under different shapes are different objects
        assert Matrix.zeros(field, 1, 4) != Matrix.zeros(field, 2, 2)
        t = Tensor3.from_nested(field, [[[1, 0], [1, 0]]])
        assert t == Tensor3.from_nonzeros(field, 1, 2, 2, {(0, 0, 0): field.one(),
                                                           (0, 1, 0): field.one()})
        assert hash(t) == hash(Tensor3.from_nested(field, [[[1, 0], [1, 0]]]))
        assert t != Tensor3.from_nested(field, [[[1, 0]], [[1, 0]]])

    @pytest.mark.parametrize("cut", [slice(1, 3), slice(-2, None), slice(None, None, -1)])
    def test_dense_entries_slice_like_their_tuple(self, field, cut):
        m = Matrix.from_rows(field, [[1, 0, 2], [0, 3, 0]])
        t = Tensor3.from_nested(field, [[[1, 0], [0, 2]], [[0, 0], [3, 4]]])
        for entries in (m.entries, t.entries):
            assert entries[cut] == tuple(entries)[cut]
            assert type(entries[cut]) is tuple

    def test_accessors_reject_indices_outside_the_shape(self, field):
        m = Matrix.from_rows(field, [[1, 2], [3, 4]])
        t = Tensor3.from_nested(field, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
        for read, index in [(lambda: m.at(-1, 0), r"\(-1, 0\)"),
                            (lambda: m.at(0, 5), r"\(0, 5\)"),
                            (lambda: m.row(-1), "row -1"),
                            (lambda: m.row(2), "row 2")]:
            with pytest.raises(IndexError, match=index + " outside a 2x2 "):
                read()
        for read, index in [(lambda: t.at(0, 2, 0), r"\(0, 2, 0\)"),
                            (lambda: t.at(0, 0, -1), r"\(0, 0, -1\)"),
                            (lambda: t.at_pair(0, 2), r"\(0, 2\)"),
                            (lambda: t.at_pair(-1, 0), r"\(-1, 0\)"),
                            (lambda: t.left_slice(2), "index 2")]:
            with pytest.raises(IndexError, match=index + " outside a 2x2x2 "):
                read()
        assert m.at(1, 0) == 3 and m.row(1) == [3, 4] and m.columns()[1] == {0: 2, 1: 4}
        assert t.at_pair(1, 0) == {1: 1} and t.at(1, 1, 0) == 1


class DenseTensor:
    """Reference for Tensor3: the row-major entry list, read by index."""

    def __init__(self, field, d1, d2, d3, ent):
        self.field, self.d1, self.d2, self.d3, self.ent = field, d1, d2, d3, list(ent)

    def at(self, i, j, k):
        return self.ent[(i * self.d2 + j) * self.d3 + k]

    def at_pair(self, i, j):
        return [self.at(i, j, k) for k in range(self.d3)]

    def left_slice(self, i):
        return [self.at(i, j, k) for j in range(self.d2) for k in range(self.d3)]

    def nonzero(self):
        return [(i, j, k, self.at(i, j, k)) for i in range(self.d1)
                for j in range(self.d2) for k in range(self.d3) if self.at(i, j, k)]

    def nonzero_of(self, i):
        return [(j, k, e) for ii, j, k, e in self.nonzero() if ii == i]

    def apply(self, v, w):
        out = [self.field.zero()] * self.d3
        for i in range(self.d1):
            for j in range(self.d2):
                for k in range(self.d3):
                    out[k] = out[k] + self.at(i, j, k) * v[i] * w[j]
        return out

    def apply_left(self, v):
        out = [self.field.zero()] * (self.d2 * self.d3)
        for i in range(self.d1):
            for s in range(self.d2 * self.d3):
                out[s] = out[s] + v[i] * self.left_slice(i)[s]
        return out

    def as_map_to_pair(self):
        return Matrix.build(self.field, self.d2 * self.d3, self.d1,
                            lambda r, i: self.at(i, r // self.d3, r % self.d3)
                            if self.d3 else self.field.zero())


def dense_vec_tensor(u, v):
    return [a * b for a in u for b in v]


sparse_ints = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
dims = st.integers(1, 4)


@st.composite
def tensor_ints(draw, shape):
    d1, d2, d3 = draw(dims), draw(dims), draw(dims)
    if shape == "zero_dim":
        d = [d1, d2, d3]
        d[draw(st.integers(0, 2))] = 0
        d1, d2, d3 = d
    n = d1 * d2 * d3
    if shape == "random":
        ent = draw(st.lists(sparse_ints, min_size=n, max_size=n))
    else:
        ent = [0] * n
        if shape == "single_nonzero":
            ent[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-2, -1, 1, 3]))
    return d1, d2, d3, ent


class TestTensor3Oracle:
    """Tensor3 keeps only its nonzero fibres; every view of it must match
    the dense row-major entries it was built from."""

    @pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=str)
    @pytest.mark.parametrize("shape", ["all_zero", "zero_dim", "single_nonzero", "random"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_dense_reference(self, field, shape, data):
        d1, d2, d3, ints = data.draw(tensor_ints(shape))
        dense = [field.of(x) for x in ints]
        n = len(dense)
        t = Tensor3(field, d1, d2, d3, tuple(dense))
        ref = DenseTensor(field, d1, d2, d3, dense)

        assert t.entries == tuple(dense)
        assert tuple(dense) == t.entries
        assert list(t.entries) == dense
        assert len(t.entries) == n
        assert hash(t.entries) == hash(tuple(dense))
        for idx in range(-n, n):
            assert t.entries[idx] == dense[idx]
        for idx in (n, -n - 1):
            with pytest.raises(IndexError):
                t.entries[idx]

        for i in range(d1):
            assert t.left_slice(i) == vec_sparse(ref.left_slice(i))
            assert list(t.nonzero_of(i)) == ref.nonzero_of(i)
            for j in range(d2):
                assert t.at_pair(i, j) == vec_sparse(ref.at_pair(i, j))
                for k in range(d3):
                    assert t.at(i, j, k) == ref.at(i, j, k)
        assert list(t.nonzero()) == ref.nonzero()
        assert t.as_map_to_pair() == ref.as_map_to_pair()

        v = [field.of(x) for x in data.draw(st.lists(sparse_ints, min_size=d1, max_size=d1))]
        w = [field.of(x) for x in data.draw(st.lists(sparse_ints, min_size=d2, max_size=d2))]
        assert t.apply(vec_sparse(v), vec_sparse(w)) == vec_sparse(ref.apply(v, w))
        assert t.apply_left(vec_sparse(v)) == vec_sparse(ref.apply_left(v))
        assert vec_tensor(vec_sparse(v), vec_sparse(w), d2) == vec_sparse(dense_vec_tensor(v, w))
        assert (vec_tensor(vec_sparse(dense), vec_sparse(w), d2)
                == vec_sparse(dense_vec_tensor(dense, w)))

        again = Tensor3(field, d1, d2, d3, [field.of(str(x)) for x in ints])
        assert again == t and hash(again) == hash(t)
        assert Tensor3(field, d1, d2, d3, t.entries) == t
        if n:
            changed = list(dense)
            changed[-1] = changed[-1] + field.one()
            assert Tensor3(field, d1, d2, d3, tuple(changed)) != t
        with pytest.raises(ValueError):
            Tensor3(field, d1, d2, d3, tuple(dense) + (field.zero(),))

    @pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=str)
    @pytest.mark.parametrize("shape", ["zero_dim", "single_nonzero", "random"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_slices_read_off_the_fibres_as_nonzero_of_gives_them(self, field, shape, data):
        # left_slice and apply_left read the fibres directly; the reference
        # slices through nonzero_of and adds slice by slice with
        # vec_add_scaled, and the keys must come in its order, cancellations included
        d1, d2, d3, ints = data.draw(tensor_ints(shape))
        t = Tensor3(field, d1, d2, d3, tuple(field.of(x) for x in ints))
        slices = [{j * d3 + k: e for j, k, e in t.nonzero_of(i)} for i in range(d1)]
        for i in range(d1):
            assert list(t.left_slice(i).items()) == list(slices[i].items())
        v = vec_sparse([field.of(x) for x in data.draw(
            st.lists(sparse_ints, min_size=d1, max_size=d1))])
        want = {}
        for i, x in v.items():
            vec_add_scaled(want, x, slices[i])
        assert list(t.apply_left(v).items()) == list(want.items())


def test_vec_add_scaled_in_place(field):
    acc = {0: field.of(1), 2: field.of(2)}
    out = vec_add_scaled(acc, field.of(3), {1: field.of(1), 2: field.of(-1)})
    assert out is None
    assert acc == {0: field.of(1), 1: field.of(3), 2: field.of(-1)}


def test_inverse_round_trip(field):
    m = Matrix.from_rows(field, [[1, 2, 0], [0, 1, 4], [1, 0, 1]])
    inv = m.inverse()
    assert inv is not None
    assert (m @ inv).is_identity()
    assert (inv @ m).is_identity()


def test_singular_has_no_inverse(field):
    m = Matrix.from_rows(field, [[1, 2], [2, 4]])
    assert m.inverse() is None


def dense_matmul(a, b, field):
    """Reference product of dense row lists."""
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum((row[k] * b[k][c] for k in range(inner)), field.zero()) for c in range(cols)]
            for row in a]


def dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def dense_apply(rows, v, field):
    return [sum((x * y for x, y in zip(row, v)), field.zero()) for row in rows]


def stores_no_zero(v):
    return all(v.values())


def legs(v: dict, n: int) -> list:
    """The ``(j, k, c)`` triples of a sparse vector on a tensor product whose
    right factor has dimension ``n``."""
    return [(*divmod(q, n), c) for q, c in v.items()]


@st.composite
def int_matrix(draw, rows, cols):
    return [draw(st.lists(sparse_ints, min_size=cols, max_size=cols)) for _ in range(rows)]


class TestSparseVectorOracle:
    """Every sparse vector operation agrees with a dense reference, and no
    sparse vector or fibre ever stores a zero (a stored zero would make two
    equal vectors compare unequal)."""

    @pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=str)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_vector_operations(self, field, data):
        n, m = data.draw(dims), data.draw(dims)
        u = [field.of(x) for x in data.draw(st.lists(sparse_ints, min_size=n, max_size=n))]
        v = [field.of(x) for x in data.draw(st.lists(sparse_ints, min_size=n, max_size=n))]
        w = [field.of(x) for x in data.draw(st.lists(sparse_ints, min_size=m, max_size=m))]
        c = field.of(data.draw(sparse_ints))
        if data.draw(st.booleans()):
            v = [-x for x in u]  # every sum with u cancels
        su, sv, sw = vec_sparse(u), vec_sparse(v), vec_sparse(w)
        zero = field.zero()

        assert vec_dense(su, n, zero) == u
        acc = dict(su)
        vec_add_scaled(acc, c, sv)
        results = [vec_sub(su, sv), vec_scale(c, su), acc, vec_tensor(su, sw, m)]
        assert results == [vec_sparse([a - b for a, b in zip(u, v)]),
                           vec_sparse([c * a for a in u]),
                           vec_sparse([a + c * b for a, b in zip(u, v)]),
                           vec_sparse(dense_vec_tensor(u, w))]
        assert vec_dot(field, su, v) == sum((a * b for a, b in zip(u, v)), zero)
        assert all(stores_no_zero(r) for r in results + [su, sv, sw])
        cancelled = dict(su)
        vec_add_scaled(cancelled, -field.one(), su)
        assert cancelled == {} and vec_sub(su, su) == {}

    @pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=str)
    @pytest.mark.parametrize("shape", ["all_zero", "zero_dim", "single_nonzero", "random"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_tensor_operations(self, field, shape, data):
        d1, d2, d3, ints = data.draw(tensor_ints(shape))
        dense = [field.of(x) for x in ints]
        t = Tensor3(field, d1, d2, d3, tuple(dense))
        ref = DenseTensor(field, d1, d2, d3, dense)
        v = [field.of(x) for x in data.draw(st.lists(sparse_ints, min_size=d1, max_size=d1))]
        w = [field.of(x) for x in data.draw(st.lists(sparse_ints, min_size=d2, max_size=d2))]
        results = [t.apply(vec_sparse(v), vec_sparse(w)), t.apply_left(vec_sparse(v))]
        assert results == [vec_sparse(ref.apply(v, w)), vec_sparse(ref.apply_left(v))]
        for i in range(d1):
            results.append(t.left_slice(i))
            results += [t.at_pair(i, j) for j in range(d2)]
        assert all(stores_no_zero(r) for r in results)
        assert all(e for fibre in t._fibres for _, e in fibre)

        # from its nonzeros, with zero values and cancelled sums dropped
        nonzeros = {(i, j, k): e for i, j, k, e in ref.nonzero()}
        built = Tensor3.from_nonzeros(field, d1, d2, d3, nonzeros)
        assert built == t and hash(built) == hash(t) and built.entries == tuple(dense)
        if d1 * d2 * d3:
            last = (d1 - 1, d2 - 1, d3 - 1)
            padded = dict(nonzeros)
            padded[last] = padded.get(last, field.zero()) - padded.get(last, field.zero())
            dropped = Tensor3.from_nonzeros(field, d1, d2, d3, padded)
            assert all(e for fibre in dropped._fibres for _, e in fibre)
            assert dropped.at(*last) == field.zero()
            with pytest.raises(ValueError):
                Tensor3.from_nonzeros(field, d1, d2, d3, {(d1, 0, 0): field.one()})
            with pytest.raises(ValueError):
                Tensor3.from_nonzeros(field, d1, d2, d3, {(0, 0, d3): field.one()})

    @pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=str)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matrix_operations(self, field, data):
        r, c, s, p, q = (data.draw(dims) for _ in range(5))
        a = [[field.of(x) for x in row] for row in data.draw(int_matrix(r, c))]
        b = [[field.of(x) for x in row] for row in data.draw(int_matrix(c, s))]
        g = [[field.of(x) for x in row] for row in data.draw(int_matrix(p, q))]
        v = [field.of(x) for x in data.draw(st.lists(sparse_ints, min_size=c, max_size=c))]
        vv = [field.of(x) for x in data.draw(st.lists(sparse_ints, min_size=c * q,
                                                       max_size=c * q))]
        ma, mb, mg = (Matrix.from_rows(field, x) for x in (a, b, g))

        assert ma @ mb == Matrix.from_rows(field, dense_matmul(a, b, field))
        assert ma.kron(mg) == Matrix.from_rows(field, dense_kron(a, g))
        assert list(ma.nonzero()) == [(i, j, x) for i, row in enumerate(a)
                                      for j, x in enumerate(row) if x]
        columns = ma.columns()
        results = [ma.apply(vec_sparse(v)),
                   vec_tensor_combine(legs(vec_sparse(vv), q), columns, mg.columns(), p)]
        assert results == [vec_sparse(dense_apply(a, v, field)),
                           vec_sparse(dense_apply(dense_kron(a, g), vv, field))]
        assert columns == [vec_sparse([row[j] for row in a]) for j in range(c)]
        assert all(stores_no_zero(x) for x in results + columns)

    def test_sums_that_cancel_leave_nothing(self, field):
        one = field.one()
        ma = Matrix.from_rows(field, [[1, 1], [0, 2]])
        assert ma.apply({0: one, 1: -one}) == {1: -(one + one)}
        assert Matrix.from_rows(field, [[1, 1]]).apply({0: one, 1: -one}) == {}
        t = Tensor3.from_nested(field, [[[1], [1]], [[0], [0]]])
        assert t.apply({0: one}, {0: one, 1: -one}) == {}
        assert t.apply_left({0: one, 1: -one}) == {0: one, 1: one}
        flip = Matrix.from_rows(field, [[1, 1], [1, -1]]).columns()
        assert vec_tensor_combine([(0, 0, one), (1, 1, -one)], flip, flip, 2) == \
            {1: one + one, 2: one + one}


class DenseMatrix:
    """Reference for Matrix: the row-major entry list, read by index."""

    def __init__(self, field, rows, cols, ent):
        self.field, self.rows, self.cols, self.ent = field, rows, cols, list(ent)

    def at(self, r, c):
        return self.ent[r * self.cols + c]

    def row(self, r):
        return [self.at(r, c) for c in range(self.cols)]

    def column(self, c):
        return [self.at(r, c) for r in range(self.rows)]

    def to_rows(self):
        return [self.row(r) for r in range(self.rows)]

    def matrix(self):
        return Matrix(self.field, self.rows, self.cols, tuple(self.ent))

    def of_rows(self, rows, cols):
        return Matrix(self.field, len(rows), cols, tuple(x for row in rows for x in row))

    def matmul(self, other):
        zero = self.field.zero()
        return self.of_rows([[sum((self.at(r, k) * other.at(k, c) for k in range(self.cols)), zero)
                              for c in range(other.cols)] for r in range(self.rows)], other.cols)

    def kron(self, other):
        return self.of_rows([[self.at(i, j) * other.at(k, l) for j in range(self.cols)
                              for l in range(other.cols)]
                             for i in range(self.rows) for k in range(other.rows)],
                            self.cols * other.cols)

    def combine(self, other, f):
        return Matrix(self.field, self.rows, self.cols,
                      tuple(f(a, b) for a, b in zip(self.ent, other.ent)))

    def is_identity(self):
        return self.rows == self.cols and all(
            self.at(r, c) == (self.field.one() if r == c else self.field.zero())
            for r in range(self.rows) for c in range(self.cols))

    def inverse(self):
        if self.rows != self.cols:
            return None
        _, pivots, transform = dense_gauss_jordan(self.to_rows(), self.field)
        return self.of_rows(transform, self.rows) if len(pivots) == self.rows else None


@st.composite
def matrix_ints(draw, shape):
    rows, cols = draw(dims), draw(dims)
    if shape == "zero_dim":
        if draw(st.booleans()):
            rows = 0
        else:
            cols = 0
    n = rows * cols
    if shape == "random":
        ent = draw(st.lists(sparse_ints, min_size=n, max_size=n))
    elif shape == "square_random":
        cols = rows
        ent = draw(st.lists(small_ints, min_size=rows * rows, max_size=rows * rows))
    else:
        ent = [0] * n
        if shape == "single_nonzero":
            ent[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-2, -1, 1, 3]))
    return rows, cols, ent


class TestMatrixOracle:
    """Matrix keeps only its nonzeros, one fibre per row; every view of it
    and every operation on it must match the dense row-major entries."""

    @pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=str)
    @pytest.mark.parametrize("shape", ["all_zero", "zero_dim", "single_nonzero", "random",
                                       "square_random"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_dense_reference(self, field, shape, data):
        rows, cols, ints = data.draw(matrix_ints(shape))
        dense = [field.of(x) for x in ints]
        n = len(dense)
        m = Matrix(field, rows, cols, tuple(dense))
        ref = DenseMatrix(field, rows, cols, dense)
        zero = field.zero()

        # views
        assert m.entries == tuple(dense) and tuple(dense) == m.entries
        assert list(m.entries) == dense and len(m.entries) == n
        assert hash(m.entries) == hash(tuple(dense))
        for idx in range(-n, n):
            assert m.entries[idx] == dense[idx]
        for idx in (n, -n - 1):
            with pytest.raises(IndexError):
                m.entries[idx]
        for r in range(rows):
            assert m.row(r) == ref.row(r)
            for c in range(cols):
                assert m.at(r, c) == ref.at(r, c)
        columns = m.columns()
        # one pass over the fibres gives each column's entries in row order
        assert [list(col.items()) for col in columns] == \
            [list(vec_sparse(ref.column(c)).items()) for c in range(cols)]
        assert all(e for fibre in m._fibres for _, e in fibre)

        # operations, each against the dense reference
        draw_ints = lambda k: [field.of(x) for x in data.draw(  # noqa: E731
            st.lists(sparse_ints, min_size=k, max_size=k))]
        s, p, q = data.draw(dims), data.draw(dims), data.draw(dims)
        other = DenseMatrix(field, cols, s, draw_ints(cols * s))
        same = DenseMatrix(field, rows, cols, draw_ints(n))
        g = DenseMatrix(field, p, q, draw_ints(p * q))
        v, vv = draw_ints(cols), draw_ints(cols * q)
        scalar = field.of(data.draw(sparse_ints))
        assert m @ other.matrix() == ref.matmul(other)
        assert m.kron(g.matrix()) == ref.kron(g)
        results = [m.apply(vec_sparse(v)),
                   vec_tensor_combine(legs(vec_sparse(vv), q), columns, g.matrix().columns(), p)]
        assert results == [vec_sparse(dense_apply(ref.to_rows(), v, field)),
                           vec_sparse(dense_apply(nested(ref.kron(g)), vv, field))]
        assert all(stores_no_zero(x) for x in results + columns)
        assert m.add(same.matrix()) == ref.combine(same, lambda a, b: a + b)
        assert m.scale(scalar) == ref.combine(ref, lambda a, _: scalar * a)
        assert m.is_identity() == ref.is_identity()
        assert m.inverse() == ref.inverse()
        red, pivots, _ = dense_gauss_jordan(ref.to_rows(), field)
        assert m.rref() == (ref.of_rows(red, cols), tuple(pivots))
        for result in (m @ other.matrix(), m.kron(g.matrix()), m.add(same.matrix()),
                       m.scale(scalar), m.inverse() or m):
            assert all(e for fibre in result._fibres for _, e in fibre)

        # dense-built and nonzero-built matrices are one store
        nonzeros = {(r, c): ref.at(r, c) for r in range(rows) for c in range(cols)
                    if ref.at(r, c)}
        built = Matrix.from_nonzeros(field, rows, cols, nonzeros)
        assert built == m and hash(built) == hash(m) and built.entries == tuple(dense)
        assert Matrix.build(field, rows, cols, ref.at) == m
        assert Matrix(field, rows, cols, m.entries) == m
        if n:
            padded = dict(nonzeros)
            padded[(rows - 1, cols - 1)] = zero
            padded[(0, 0)] = padded.get((0, 0), zero) - padded.get((0, 0), zero)
            dropped = Matrix.from_nonzeros(field, rows, cols, padded)
            assert all(e for fibre in dropped._fibres for _, e in fibre)
            assert dropped.at(rows - 1, cols - 1) == zero and dropped.at(0, 0) == zero
            changed = list(dense)
            changed[-1] = changed[-1] + field.one()
            assert Matrix(field, rows, cols, tuple(changed)) != m
        for bad in ((rows, 0), (0, cols), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="outside"):
                Matrix.from_nonzeros(field, rows, cols, {bad: field.one()})
        with pytest.raises(ValueError):
            Matrix(field, rows, cols, tuple(dense) + (zero,))

    def test_identity_and_zero_predicates(self, field):
        for k in range(4):
            eye = Matrix.identity(field, k)
            assert eye.is_identity() and eye == Matrix.build(
                field, k, k, lambda r, c: field.one() if r == c else field.zero())
            assert not any(Matrix.zeros(field, k, k + 1).entries)
        assert not Matrix.from_rows(field, [[1, 0], [0, 2]]).is_identity()
        assert not Matrix.from_rows(field, [[1, 0, 0], [0, 1, 0]]).is_identity()
        assert not Matrix.from_rows(field, [[1, 1], [0, 1]]).is_identity()
