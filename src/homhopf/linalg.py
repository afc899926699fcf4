"""Exact linear algebra over the rationals and prime fields.

Every scalar has one canonical form: over Q an integral value is an
``int`` and any other a ``fractions.Fraction`` (the two compare equal, hash
alike and print the same), over GF(p) a :class:`GFElement` in ``[0, p)``.
GF(p) has one shared object per value: elements are read from the field's
table, which keeps at most 2**16 of them (past that a result is a new
object), and arithmetic on two elements looks its result up there instead
of building it.  Each field hands out one shared zero and one;
:meth:`Field.div` is the one way to divide.  Stored entries,
``Matrix.apply``, solutions and residuals are made canonical, not every
intermediate sum.  Vectors are sparse: a dict ``{index: nonzero scalar}``
that never holds a zero.  Matrices and order-3
tensors (structure constants, which are mostly zero) share one store that
keeps only their nonzeros: one fibre of ``(index, value)`` pairs per matrix
row, or per index pair (i, j) of a tensor, and the package builds every
object from its nonzeros (``from_nonzeros``).  Kronecker products, induced
modules and twists repeat whole rows, so equal fibres are stored once per
object; the store looks up no value or ``(index, value)`` pair, since that
would cost a lookup per nonzero (a decoded object shares its file's
fibres, kept with no second walk: ``io``).  Products, Kronecker products,
evaluations and elimination read the fibres, so they cost the nonzeros.
Checkers hold a map as its ``columns()`` table, the images of basis vectors
read in one pass over the fibres, and apply it with :func:`vec_combine`, a
tensor product of two maps with :func:`vec_tensor_combine`.  Matrices and
tensors are treated as immutable; every operation returns a fresh object.

Elimination is sparse: :func:`_rref_rows` works on rows held as
``{column: nonzero scalar}`` dicts (or matrix fibres), visits only the rows
holding each pivot column and logs its row operations, not the transform;
a row operation skips the pivot column, which cancels by construction.

All solving is deterministic so that serialized results are reproducible:
reduced row echelon form picks the leftmost pivot column and the first
nonzero row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from collections.abc import Callable, Iterator, Sequence


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


_TABLE_SIZE = 2**16  # the most elements one field's table keeps


class _Elements(dict):
    """The shared elements of one GF(p), value in ``[0, p)`` -> element, each
    made on its first lookup.  Past ``_TABLE_SIZE`` entries an element is
    made and not kept, so a modulus near 2**31 cannot grow memory without
    bound; such an element still equals and hashes like any other."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        super().__init__()
        self.p = p

    def __missing__(self, value: int) -> "GFElement":
        x = object.__new__(GFElement)
        x.value, x.p, x._elements = value, self.p, self
        if len(self) < _TABLE_SIZE:
            self[value] = x
        return x


_ELEMENTS: dict = {}  # p -> the _Elements of GF(p)


class GFElement:
    """An element of the prime field GF(p), stored as an int in ``[0, p)``.

    There is one shared object per value and field: ``GFElement(v, p)`` is
    the entry ``v % p`` of the field's table, so ``GFElement(a, p) is
    GFElement(a + p, p)``, and ``+``, ``-``, ``*``, ``/`` and unary ``-`` on
    elements of one field look their result up in that table instead of
    building it.  Equality still compares values, identity being only its
    fast exit, so no result rests on the sharing.  A table keeps at most
    2**16 elements; past that a result is made as a new object."""

    __slots__ = ("value", "p", "_elements")

    def __new__(cls, value: int, p: int):
        elements = _ELEMENTS.get(p)
        if elements is None:
            elements = _ELEMENTS.setdefault(p, _Elements(p))
        return elements[value % p]

    def __reduce__(self):
        # copy and pickle hand back the shared element
        return GFElement, (self.value, self.p)

    def _coerce(self, other):
        """``other`` as an element of this field: an int is reduced mod p, an
        element of another modulus is a ValueError."""
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return self._elements[other % self.p]
        return NotImplemented

    # Each operator reads an element of its own field with one class check
    # and one table lookup; an int or an element of another field coerces.
    def __add__(self, other):
        elements = self._elements
        if other.__class__ is not GFElement or other._elements is not elements:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return elements[(self.value + other.value) % self.p]

    __radd__ = __add__

    def __sub__(self, other):
        elements = self._elements
        if other.__class__ is not GFElement or other._elements is not elements:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return elements[(self.value - other.value) % self.p]

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._elements[(other.value - self.value) % self.p]

    def __mul__(self, other):
        elements = self._elements
        if other.__class__ is not GFElement or other._elements is not elements:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return elements[self.value * other.value % self.p]

    __rmul__ = __mul__

    def __truediv__(self, other):
        elements = self._elements
        if other.__class__ is not GFElement or other._elements is not elements:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        p = self.p
        return elements[self.value * pow(other.value, p - 2, p) % p]

    def __neg__(self):
        return self._elements[-self.value % self.p]

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if other is self:
            return True
        if isinstance(other, GFElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            # only the canonical residue equals an int, so that equal values
            # hash alike (hash(GFElement(1, 7)) == hash(1) != hash(8))
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"GF({self.p}):{self.value}"

    def __str__(self):
        return str(self.value)


Scalar = int | Fraction | GFElement


def canonical(x):
    """The canonical form of a field scalar: an integral ``Fraction`` as
    its ``int``, any other scalar unchanged."""
    if x.__class__ is Fraction and x.denominator == 1:
        return x.numerator
    return x


@dataclass(frozen=True)
class Field:
    """Coefficient field descriptor: the rationals (``p is None``) or GF(p)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not (self.p < 2**31 and _is_prime(self.p)):
                raise ValueError(f"modulus {self.p} is not a prime below 2**31")
        # one zero and one one per field, shared by every Field(p) as every
        # element of GF(p) is: comparing mostly-zero vectors then stops at
        # identity instead of calling __eq__ on each pair of zeros
        p = self.p
        object.__setattr__(self, "_zero", 0 if p is None else GFElement(0, p))
        object.__setattr__(self, "_one", 1 if p is None else GFElement(1, p))

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(p)

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def zero(self) -> Scalar:
        return self._zero

    def one(self) -> Scalar:
        return self._one

    def of(self, x) -> Scalar:
        """Coerce an int, string ("3/2", "5"), Fraction or element into the
        field, in canonical form."""
        if isinstance(x, GFElement):
            if self.p != x.p:
                raise ValueError(f"element of GF({x.p}) in field {self}")
            return x
        if isinstance(x, Fraction):
            if self.p is None:
                return canonical(x)
            num = GFElement(x.numerator, self.p)
            den = GFElement(x.denominator, self.p)
            return num / den
        if isinstance(x, int):
            return int(x) if self.p is None else GFElement(x, self.p)
        if isinstance(x, str):
            return self.of(Fraction(x))
        raise TypeError(f"cannot coerce {type(x).__name__} into {self}")

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        """a / b for field scalars, ``b`` nonzero; the one way to divide."""
        if self.p is not None:
            return a / b
        return canonical(Fraction(a, b))

    def __str__(self):
        return "Q" if self.p is None else f"GF({self.p})"


def require_same_field(base, *parts) -> None:
    """Reject a part over another field than ``base`` with a ``ValueError``
    naming both: an int scalar over Q would otherwise mix silently with the
    elements of GF(p)."""
    for part in parts:
        if part.field != base.field:
            raise ValueError(f"the {type(part).__name__} is over {part.field} but the "
                             f"{type(base).__name__} is over {base.field}")


# ---------------------------------------------------------------------------
# vectors: sparse dicts ``{index: nonzero scalar}``.  No entry is ever an
# explicit zero (a sum that cancels is deleted), so two vectors are equal
# exactly when their dicts are, and every operation costs the nonzeros.

def vec_sparse(v: Sequence) -> dict:
    """The sparse form of a dense sequence."""
    return {i: x for i, x in enumerate(v) if x}


def vec_dense(v: dict, n: int, zero: Scalar) -> list:
    """The dense list of length ``n`` holding ``v``."""
    out = [zero] * n
    for i, x in v.items():
        out[i] = x
    return out


def vec_sub(u: dict, v: dict) -> dict:
    """u - v in canonical form: residuals are made of it."""
    out = dict(u)
    vec_add_scaled(out, -1, v)
    return {i: canonical(x) for i, x in out.items()}


def vec_scale(s: Scalar, v: dict) -> dict:
    return {i: s * x for i, x in v.items()} if s else {}


def vec_dot(field: Field, u: dict, v: Sequence) -> Scalar:
    """sum of u[i] * v[i] over the nonzeros of the sparse ``u`` against the
    dense ``v``; the field's zero if none."""
    s = field.zero()
    for i, a in u.items():
        b = v[i]
        if b:
            s = s + a * b
    return s


def vec_add_scaled(acc: dict, coeff: Scalar, v: dict) -> None:
    """acc += coeff * v in place, deleting entries that cancel."""
    if not coeff:
        return
    for i, x in v.items():
        y = acc.get(i)
        if y is None:
            acc[i] = coeff * x
        else:
            y = y + coeff * x
            if y:
                acc[i] = y
            else:
                del acc[i]


def vec_combine(coeffs: dict, table: Sequence) -> dict:
    """sum of coeffs[l] * table[l], a map applied through its images of basis
    vectors; a lone coefficient one returns ``table[l]`` itself, to be only read."""
    if len(coeffs) == 1:
        for l in coeffs:
            x = coeffs[l]
            # an element of GF(p) is read as its int: no Python-level __eq__
            if (x.value if x.__class__ is GFElement else x) == 1:
                return table[l]
    out = {}
    for l, x in coeffs.items():
        vec_add_scaled(out, x, table[l])
    return out


def vec_tensor(u: dict, v: dict, n: int) -> dict:
    """Kronecker product of coordinate vectors, ``v`` of length ``n``:
    index (i, j) -> i*n + j.  Only products of two nonzeros are formed."""
    return {i * n + j: a * b for i, a in u.items() for j, b in v.items()}


def vec_tensor_combine(legs, left: Sequence, right: Sequence, n: int) -> dict:
    """(F (x) G)(sum of c e_j (x) e_k) for the ``(j, k, c)`` triples ``legs``
    (a coproduct or a coaction), where ``left[j]`` = F(e_j) and ``right[k]`` =
    G(e_k) has length ``n``; the Kronecker product F (x) G is not formed."""
    out = {}
    for j, k, c in legs:
        vec_add_scaled(out, c, vec_tensor(left[j], right[k], n))
    return out


class _DenseEntries:
    """The row-major entries of a :class:`Matrix` or a :class:`Tensor3`,
    zeros included, computed from its nonzero fibres as they are iterated."""

    __slots__ = ("_fibres", "_width", "_zero")

    def __init__(self, fibres: tuple, width: int, zero: Scalar):
        self._fibres = fibres
        self._width = width
        self._zero = zero

    def __len__(self) -> int:
        return len(self._fibres) * self._width

    def __iter__(self) -> Iterator:
        width, zero = self._width, self._zero
        for fibre in self._fibres:
            row = [zero] * width
            for k, e in fibre:
                row[k] = e
            yield from row


class _FibreStore:
    """The one store of :class:`Matrix` and :class:`Tensor3`: ``_fibres``
    holds one fibre per matrix row or tensor index pair (i, j), a tuple of
    ``(index, nonzero value)`` pairs in increasing index.  The package
    builds every object from its nonzeros, with ``from_nonzeros`` or
    ``_shaped(...)._store``; the dense constructor, ``build``, ``from_rows``
    and the iterable row-major ``entries`` remain for perfbench's inputs
    alone.  Two objects are equal when their shapes and fibres are."""

    # with ``slots=True`` on both subclasses an object holds no __dict__
    __slots__ = ("_fibres", "_zero")

    def _store(self, fibres, width: int):
        """``_keep`` ``fibres`` (one iterable of pairs each), canonical and interned."""
        # Kronecker products, induced modules and twists repeat whole rows:
        # each nonempty fibre is swapped for the equal one already seen in
        # this call, so equal fibres are stored once per object (a decoded
        # object shares its file's fibres instead, see ``io``).  Values and
        # pairs are not looked up; a lookup per nonzero cost more time than
        # the memory it saved (GF(p) values are shared by the arithmetic).
        # Values are stored in the field's canonical form:
        # the field's own scalars, an int over Q and an element of GF(p) over
        # GF(p), nearly every value, are kept without a call; anything else
        # goes through ``Field.of`` (a Fraction to its canonical form, an
        # element of another field is a ValueError, a float a TypeError) and
        # is dropped if it is zero there.
        p, of = self.field.p, self.field.of
        kept = int if p is None else GFElement
        fibres = (tuple([(k, x) for k, e in fibre
                         if (x := e if e.__class__ is kept and (p is None or e.p == p)
                             else of(e) or None) is not None]) if fibre else ()
                  for fibre in fibres)
        fibre_of = {}.setdefault
        return self._keep(tuple([fibre_of(t, t) if t else () for t in fibres]), width)

    def _keep(self, fibres: tuple, width: int):
        """Keep finished ``fibres`` and the dense view on them; return self."""
        zero = self.field.zero()
        object.__setattr__(self, "_fibres", fibres)
        object.__setattr__(self, "_zero", zero)
        object.__setattr__(self, "entries", _DenseEntries(fibres, width, zero))
        return self

    def _store_dense(self, count: int, width: int) -> None:
        """Store the ``count`` fibres of ``width`` entries each held by the
        dense row-major ``entries`` the constructor was given."""
        entries = self.entries
        if len(entries) != count * width:
            raise ValueError("entry count does not match dimensions")
        if not isinstance(entries, (tuple, list)):
            entries = tuple(entries)
        fibres = (((k, e) for k, e in enumerate(entries[q * width:(q + 1) * width]) if e)
                  for q in range(count))
        self._store(fibres, width)

    @classmethod
    def _shaped(cls, **shape):
        """An object of ``shape`` (its field and dimensions), to ``_store`` or ``_keep``."""
        obj = cls.__new__(cls)
        for name, value in shape.items():
            object.__setattr__(obj, name, value)
        return obj

    def __reduce__(self):
        # the slots dataclass would copy and pickle its declared fields only,
        # without the fibres
        shape = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "entries"}
        return _rebuilt, (type(self), self._fibres, self.shape[-1], shape)

    def _outside(self, what: str, index) -> IndexError:
        """The error for ``index`` (a ``what``) outside this object's shape."""
        shape = "x".join(map(str, self.shape))
        return IndexError(f"{what} {index} outside a {shape} {type(self).__name__}")

    def _key(self) -> tuple:
        return self.field, self.shape, self._fibres

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _rebuilt(cls, fibres, width: int, shape: dict):
    """The copied or unpickled :class:`_FibreStore` object."""
    return cls._shaped(**shape)._store(fibres, width)


@dataclass(frozen=True, eq=False, slots=True)
class Matrix(_FibreStore):
    """Matrix stored as its nonzeros: ``_fibres[r]`` holds the ``(c, value)``
    pairs of row r, and entry (r, c) of the dense ``entries`` is at
    ``r*cols + c``.  Products, Kronecker products, ``apply`` and elimination
    read the fibres.

    Columns are images of basis vectors: ``M.columns()[j]`` is ``M`` applied
    to the j-th unit vector, a sparse vector like every result of ``apply``,
    and a checker reads every column it needs from one ``columns()`` table.
    """

    field: Field
    rows: int
    cols: int
    entries: Sequence

    def __post_init__(self):
        self._store_dense(self.rows, self.cols)

    # -- constructors --------------------------------------------------
    @classmethod
    def from_nonzeros(cls, field: Field, rows: int, cols: int, nonzeros: dict) -> "Matrix":
        """The matrix with entry ``nonzeros[(r, c)]`` at (r, c) and zero
        elsewhere; zero values (sums that cancelled) are dropped."""
        fibres = [[] for _ in range(rows)]
        for (r, c), e in sorted(nonzeros.items()):
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"index ({r}, {c}) outside a {rows}x{cols} matrix")
            if e:
                fibres[r].append((c, e))
        return cls._shaped(field=field, rows=rows, cols=cols)._store(fibres, cols)

    @classmethod
    def _of_rows(cls, field: Field, cols: int, rows: Sequence[dict]) -> "Matrix":
        """The matrix whose rows are the sparse vectors ``rows``."""
        return cls._shaped(field=field, rows=len(rows), cols=cols)._store(
            (sorted(row.items()) for row in rows), cols)

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        ent = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            ent.extend(field.of(x) for x in row)
        return cls(field, r, c, tuple(ent))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls.from_nonzeros(field, n, n, {(i, i): field.one() for i in range(n)})

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls.from_nonzeros(field, rows, cols, {})

    @classmethod
    def build(cls, field: Field, rows: int, cols: int, fn: Callable[[int, int], Scalar]) -> "Matrix":
        return cls(field, rows, cols, tuple(fn(r, c) for r in range(rows) for c in range(cols)))

    @property
    def shape(self) -> tuple:
        return self.rows, self.cols

    # -- access ---------------------------------------------------------
    def at(self, r: int, c: int) -> Scalar:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise self._outside("index", (r, c))
        for cc, e in self._fibres[r]:
            if cc == c:
                return e
        return self._zero

    def row(self, r: int) -> list:
        if not 0 <= r < self.rows:
            raise self._outside("row", r)
        return vec_dense(dict(self._fibres[r]), self.cols, self._zero)

    def columns(self) -> list:
        """Every column as a sparse vector, entries in increasing row order,
        read in one pass over the fibres."""
        out = [{} for _ in range(self.cols)]
        for r, fibre in enumerate(self._fibres):
            for c, e in fibre:
                out[c][r] = e
        return out

    def nonzero(self) -> Iterator[tuple]:
        for r, fibre in enumerate(self._fibres):
            for c, e in fibre:
                yield r, c, e

    # -- arithmetic -----------------------------------------------------
    def __matmul__(self, other: "Matrix") -> "Matrix":
        require_same_field(self, other)
        if self.cols != other.rows:
            raise ValueError(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        right = [dict(fibre) for fibre in other._fibres]
        out = [vec_combine(dict(fibre), right) for fibre in self._fibres]
        return Matrix._of_rows(self.field, other.cols, out)

    def add(self, other: "Matrix") -> "Matrix":
        require_same_field(self, other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        out = [dict(mine) for mine in self._fibres]
        for acc, theirs in zip(out, other._fibres):
            vec_add_scaled(acc, self.field.one(), dict(theirs))
        return Matrix._of_rows(self.field, self.cols, out)

    def scale(self, s: Scalar) -> "Matrix":
        if not s:
            return Matrix.zeros(self.field, self.rows, self.cols)
        return Matrix._shaped(field=self.field, rows=self.rows, cols=self.cols)._store(
            (((c, s * e) for c, e in fibre) for fibre in self._fibres), self.cols)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; row/column index (i, j) -> i*other.dim + j."""
        require_same_field(self, other)
        oc = other.cols
        fibres = [[(c1 * oc + c2, a * b) for c1, a in mine for c2, b in theirs]
                  for mine in self._fibres for theirs in other._fibres]
        return Matrix._shaped(field=self.field, rows=self.rows * other.rows,
                              cols=self.cols * oc)._store(fibres, self.cols * oc)

    def apply(self, v: dict) -> dict:
        # a loop over the few nonzeros costs less than calling max and min
        for c in v:
            if not 0 <= c < self.cols:
                raise ValueError(f"vector index {c} applied to {self.rows}x{self.cols} matrix")
        out = {}
        for r, fibre in enumerate(self._fibres):
            s = None
            for c, e in fibre:
                x = v.get(c)
                if x is not None:
                    s = e * x if s is None else s + e * x
            if s:
                out[r] = canonical(s)
        return out

    # -- predicates -----------------------------------------------------
    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one = self.field.one()
        return all(fibre == ((r, one),) for r, fibre in enumerate(self._fibres))

    # -- elimination ----------------------------------------------------
    def rref(self) -> tuple["Matrix", tuple]:
        """Reduced row echelon form and the pivot columns in increasing order."""
        R, pivots, _ = _rref_rows(self._fibres, self.field)
        return Matrix._of_rows(self.field, self.cols, R), tuple(pivots)

    def inverse(self) -> "Matrix | None":
        """T with T @ self == I, read off the reduced ``[self | I]``; a
        monomial matrix (one nonzero per row, in distinct columns, as the
        twists and antipodes of group algebras and Taft algebras are) is
        inverted entry by entry, as that reduction would."""
        n, one, fibres = self.rows, self.field.one(), self._fibres
        if n != self.cols:
            return None
        if all(len(f) == 1 for f in fibres) and len({f[0][0] for f in fibres}) == n:
            # row r holds e at column c, so row c of the inverse holds 1/e at
            # column r; like the reduction, it keeps the field's one where e is one
            inv = [()] * n
            for r, ((c, e),) in enumerate(fibres):
                inv[c] = ((r, one if e == one else self.field.div(one, e)),)
            return Matrix._shaped(field=self.field, rows=n, cols=n)._store(inv, n)
        red, pivots, _ = _rref_rows([f + ((n + r, one),) for r, f in enumerate(fibres)],
                                    self.field)
        if pivots != list(range(n)):
            return None
        return Matrix._shaped(field=self.field, rows=n, cols=n)._store(
            [sorted([(c - n, x) for c, x in row.items() if c >= n]) for row in red], n)


def _rref_rows(rows: Sequence[dict], field: Field) -> tuple[list, list, list]:
    """Sparse Gauss-Jordan reduced row echelon form.

    ``rows`` holds each row as a ``{column: nonzero scalar}`` dict or as a
    matrix fibre of ``(column, nonzero scalar)`` pairs and is not modified.
    Returns (reduced rows as sparse dicts, pivot columns, steps), where
    ``steps`` logs one ``(p, sel, inv, [(r, f), ...])`` per pivot: swap rows
    p and sel, scale row p by inv, subtract f * row p from each row r.  No
    transform T (T @ original == reduced) is carried: :func:`_transform_row`
    replays the log for one of its rows, and ``Matrix.inverse`` reduces [A | I].

    The pivot rule is fixed: the leftmost column with a nonzero at or below
    the current pivot row, the first such row, swapped up and scaled unless
    the pivot is one.  ``where`` maps each column to a superset of the rows
    holding it (a row joins on fill-in and on a swap; entries are checked
    when used), so a step visits only those rows; yet each row gets the
    operations of a sweep over all rows in the same order, so reduced rows,
    pivots, dict orders, solutions and certificates are those of the sweep,
    whose zero f - f * 1 in the pivot column is deleted here unread.
    """
    rows = [dict(row) for row in rows]
    one = field.one()
    where = {}
    for r, row in enumerate(rows):
        for c in row:
            where.setdefault(c, []).append(r)
    piv_row = 0
    pivots, steps = [], []
    for col in sorted(where):
        held = where[col]
        sel = min((r for r in held if r >= piv_row and col in rows[r]), default=None)
        if sel is None:
            continue
        if sel != piv_row:
            rows[piv_row], rows[sel] = rows[sel], rows[piv_row]
            for r in (piv_row, sel):
                for c in rows[r]:
                    where[c].append(r)
        inv = field.div(one, rows[piv_row][col])
        if inv != one:
            rows[piv_row] = {c: inv * x for c, x in rows[piv_row].items()}
        elim = [(r, rows[r][col]) for r in dict.fromkeys(held) if r != piv_row and col in rows[r]]
        # row r -= f * pivot: the pivot's entries off its column, listed once
        rest = [(c, b) for c, b in rows[piv_row].items() if c != col] if elim else ()
        for r, f in elim:
            row = rows[r]
            del row[col]  # f - f * 1, zero by construction
            for c, b in rest:
                x = row.get(c)
                if x is None:
                    row[c] = -(f * b)
                    where[c].append(r)  # fill-in: r joins column c
                else:
                    x = x - f * b
                    if x:
                        row[c] = x
                    else:
                        del row[c]
        steps.append((piv_row, sel, inv, elim))
        pivots.append(col)
        piv_row += 1
        if piv_row == len(rows):
            break
    return rows, pivots, steps


def _transform_row(steps: list, i: int, field: Field) -> dict:
    """Row i of T, e_i . E_k ... E_1, replayed from the steps last first."""
    zero = field.zero()
    y = {i: field.one()}
    for p, sel, inv, elim in reversed(steps):
        x = y.pop(p, zero) - sum((f * y[r] for r, f in elim if r in y), zero)
        if sel in y:
            y[p] = y.pop(sel)
        if x:
            y[sel] = x * inv
    return y


@dataclass(frozen=True, eq=False, slots=True)
class Tensor3(_FibreStore):
    """Order-3 tensor stored as its nonzeros: ``_fibres[i*d2 + j]`` holds the
    ``(k, value)`` pairs of t[i][j], and entry (i, j, k) of the dense
    ``entries`` is at ``i*d2*d3 + j*d3 + k``.  Slices and evaluations are
    sparse vectors read straight from the fibres.

    Used for bilinear maps (multiplication ``m[i][j][k]`` = coefficient of
    basis k in the product of basis i and j, actions likewise) and for maps
    into a tensor square (comultiplication ``D[i][j][k]`` = coefficient of
    ``e_j (x) e_k`` in the image of ``e_i``, coactions likewise).
    """

    field: Field
    d1: int
    d2: int
    d3: int
    entries: Sequence

    def __post_init__(self):
        self._store_dense(self.d1 * self.d2, self.d3)

    @classmethod
    def from_nonzeros(cls, field: Field, d1: int, d2: int, d3: int,
                      nonzeros: dict) -> "Tensor3":
        """The tensor with entry ``nonzeros[(i, j, k)]`` at (i, j, k) and zero
        elsewhere; zero values (sums that cancelled) are dropped."""
        fibres = [[] for _ in range(d1 * d2)]
        for (i, j, k), e in sorted(nonzeros.items()):
            if not (0 <= i < d1 and 0 <= j < d2 and 0 <= k < d3):
                raise ValueError(f"index ({i}, {j}, {k}) outside a {d1}x{d2}x{d3} tensor")
            if e:
                fibres[i * d2 + j].append((k, e))
        return cls._shaped(field=field, d1=d1, d2=d2, d3=d3)._store(fibres, d3)

    @property
    def shape(self) -> tuple:
        return self.d1, self.d2, self.d3

    @classmethod
    def zeros(cls, field: Field, d1: int, d2: int, d3: int) -> "Tensor3":
        return cls.from_nonzeros(field, d1, d2, d3, {})

    @classmethod
    def build(cls, field: Field, d1: int, d2: int, d3: int,
              fn: Callable[[int, int, int], Scalar]) -> "Tensor3":
        return cls(field, d1, d2, d3,
                   tuple(fn(i, j, k) for i in range(d1) for j in range(d2) for k in range(d3)))

    def at(self, i: int, j: int, k: int) -> Scalar:
        if not (0 <= i < self.d1 and 0 <= j < self.d2 and 0 <= k < self.d3):
            raise self._outside("index", (i, j, k))
        for kk, e in self._fibres[i * self.d2 + j]:
            if kk == k:
                return e
        return self._zero

    def at_pair(self, i: int, j: int) -> dict:
        """The slice t[i][j][:], e.g. the product of two basis vectors."""
        if not (0 <= i < self.d1 and 0 <= j < self.d2):
            raise self._outside("index pair", (i, j))
        return dict(self._fibres[i * self.d2 + j])

    def left_slice(self, i: int) -> dict:
        """The flattened slice t[i][:][:], e.g. a coproduct of a basis
        vector; entry (j, k) at j*d3 + k."""
        if not 0 <= i < self.d1:
            raise self._outside("index", i)
        d2, d3, fibres = self.d2, self.d3, self._fibres
        return {j * d3 + k: e for j in range(d2) for k, e in fibres[i * d2 + j]}

    def nonzero(self) -> Iterator[tuple]:
        d2 = self.d2
        for q, fibre in enumerate(self._fibres):
            if fibre:
                i, j = divmod(q, d2)
                for k, e in fibre:
                    yield i, j, k, e

    def nonzero_of(self, i: int) -> Iterator[tuple]:
        """Nonzero (j, k, value) triples of the slice t[i]."""
        if not 0 <= i < self.d1:
            raise self._outside("index", i)
        d2, fibres = self.d2, self._fibres
        for j in range(d2):
            for k, e in fibres[i * d2 + j]:
                yield j, k, e

    def apply(self, v: dict, w: dict) -> dict:
        """Evaluate the bilinear map: out[k] = sum_ij t[i][j][k] v[i] w[j]."""
        d1, d2, fibres = self.d1, self.d2, self._fibres
        for j in w:
            if not 0 <= j < d2:
                raise ValueError("operand index out of range")
        out = {}
        for i, x in v.items():
            if not 0 <= i < d1:
                raise ValueError("operand index out of range")
            ibase = i * d2
            for j, y in w.items():
                fibre = fibres[ibase + j]
                if fibre:
                    c = x * y
                    # vec_add_scaled, inlined on the fibre's pairs: this is
                    # the innermost loop of every checker
                    for k, e in fibre:
                        s = out.get(k)
                        if s is None:
                            out[k] = c * e
                        else:
                            s = s + c * e
                            if s:
                                out[k] = s
                            else:
                                del out[k]
        return out

    def apply_left(self, v: dict) -> dict:
        """Evaluate a map into the tensor square: v -> sum_i v[i] t[i][:][:],
        entry (j, k) at j*d3 + k."""
        d1, d2, d3, fibres = self.d1, self.d2, self.d3, self._fibres
        out = {}
        for i, x in v.items():
            if not 0 <= i < d1:
                raise ValueError("operand index out of range")
            # vec_add_scaled(out, x, self.left_slice(i)), read off the fibres
            for j in range(d2):
                base = j * d3
                for k, e in fibres[i * d2 + j]:
                    q = base + k
                    s = out.get(q)
                    if s is None:
                        out[q] = x * e
                    else:
                        s = s + x * e
                        if s:
                            out[q] = s
                        else:
                            del out[q]
        return out

    def as_map_to_pair(self) -> Matrix:
        """The map into a tensor square as a matrix V1 -> V2 (x) V3."""
        return Matrix.from_nonzeros(self.field, self.d2 * self.d3, self.d1,
                                    {(j * self.d3 + k, i): e for i, j, k, e in self.nonzero()})
