"""Exact integer linear algebra: determinants, echelon forms, Smith normal form.

Everything here is arbitrary precision.  Entries are Python ints and no
result is ever approximated.  Determinants use fraction-free (Bareiss)
elimination because glue matrices assembled from long words can have large
entries and the cross-checks downstream demand exactness.  Smith normal
form is one loop over the diagonal: the least nonzero |entry| left is the
pivot, and a nonzero floor remainder replaces it, so the pivot only
shrinks; this bounds coefficient growth without affecting the (unique)
invariant factors.

A matrix is reduced once.  ``echelon`` row-reduces every column without
building a transform and returns a pivot per column; a lattice index, a
rank and the index of a kernel's image under a projection are read off
them, which is all the cohomology computation needs.  Its Euclid steps
take least remainders: the quotient is rounded to the nearest integer, so
each remainder is at most half the pivot.  A floor quotient leaves up to
the whole pivot, so a column takes more rounds, and each round adds a
multiple of the pivot row to the entries the other rows carry on.  Least
remainders are the classical remedy for that coefficient growth in
integer echelon forms (Havas, Majewski & Matthews, Exp. Math. 7, 1998).
The pivots are invariants of the row lattice, so the rounding does not
change them, only how large the carried entries get.  An echelon of 11
columns or more runs with each row packed into one nonnegative int,
entry j in bits [j w, (j + 1) w), so that one big-int subtraction does a
row operation (Kronecker substitution; Harvey, J. Symb. Comput. 44,
2009).  The packed loop takes the same steps as the list loop and
returns equal pivots; ``echelon`` states its layout and why it stays
exact.

``SnfResult`` reads its rank, cokernel order and kernel basis off one
factorization with both transforms, so a caller needing several of them
pays for one SNF.  No pipeline or CLI command calls ``smith_normal_form``
or ``cokernel_order``: they serve the SNF property suite (criterion 8 of
the acceptance tests) and the tests' independent reference values.

Degenerate shapes are legal throughout: ``det`` of a 0x0 matrix is 1 and the
cokernel of the empty map Z^0 -> Z^0 has order 1, which is what degenerate
splittings produce.

No function here mutates a matrix, and all functions are pure.

Two constructors.  ``IntMat(...)`` is the public one: it checks that every
entry is an int and that the rows have one width, because matrices built
from caller data enter the package there.  ``IntMat._trusted`` checks
nothing and keeps the tuple of row tuples it is given.  The package uses
it only for matrices whose entries it computed itself from checked data
(sums and differences of ints, read from validated words or from another
``IntMat``), so the public constructor's checks could not fail on them; a
trusted matrix equals and hashes like the validated one of the same rows.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from decimal import Decimal


class ShapeError(ValueError):
    """Matrix shape incompatible with the requested operation."""


class SingularMatrixError(ValueError):
    """The torus oracle needs a nonsingular acting matrix."""


class DomainLimitError(ValueError):
    """Input outside an oracle's admissible size box."""


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__``, in constructor order,
    and its ``__init__`` checks them and stores each through the slot's
    setter (see :func:`_slot_setters`), since assignment and deletion are
    refused.  Two values are equal when they are of one class with equal
    fields, and a value hashes as the tuple of its fields; ``repr`` names
    the fields.  Pickling and copying call the constructor again, so its
    checks run on the copy too.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _not_int(x) -> bool:
    """Whether ``x`` is no int or is a bool; the caller has seen that
    ``type(x) is not int``, the one test an exact int takes."""
    return not isinstance(x, int) or isinstance(x, bool)


def _slot_setters(cls) -> tuple:
    """The setters of ``cls``'s slots, in order: the fastest store of a
    field that plain assignment refuses."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class _Infinite:
    """Order of an abelian group with a free direct summand."""

    def __repr__(self) -> str:
        return "INFINITE"

    def __reduce__(self):
        # A global name: pickling and copying return the one instance.
        return "INFINITE"


INFINITE = _Infinite()


def format_int(x) -> str:
    """Exact decimal text of an int of any length, or ``'INFINITE'``.

    ``str`` refuses ints past CPython's int-to-str digit limit (4,300 by
    default); the decimal module's conversion has no such limit.  Raising
    the limit instead would be process-wide and would also lift the guard
    that stops the parsers reading overlong numbers.

    >>> format_int(-36), format_int(INFINITE)
    ('-36', 'INFINITE')
    """
    return repr(x) if x is INFINITE else str(Decimal(x))


class IntMat(_Frozen):
    """Integer matrix, stored row major, immutable.

    ``cols`` must be given explicitly when there are no rows, since the
    width cannot be inferred from an empty row list.

    >>> IntMat([[1, 2], [3, 4]])[1, 0]
    3
    >>> IntMat([], cols=3).cols
    3
    """

    __slots__ = ("data", "cols")

    def __init__(self, data: Sequence[Sequence[int]], cols: int | None = None):
        rows = []
        for row in data:
            entries = tuple(row)
            for x in entries:
                if type(x) is not int and _not_int(x):
                    raise TypeError(f"matrix entries must be ints, got {type(x).__name__}")
            rows.append(entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ShapeError("ragged rows")
            if cols is not None and cols != width:
                raise ShapeError(f"declared cols={cols} but rows have width {width}")
            cols = width
        elif cols is None:
            cols = 0
        if cols < 0:
            raise ShapeError("negative column count")
        _set_data(self, tuple(rows))
        _set_cols(self, cols)

    @classmethod
    def _trusted(cls, data: tuple[tuple[int, ...], ...], cols: int) -> "IntMat":
        """A matrix of ``data``, row tuples of ``cols`` ints each, unchecked."""
        m = object.__new__(cls)
        _set_data(m, data)
        _set_cols(m, cols)
        return m

    @property
    def rows(self) -> int:
        return len(self.data)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.data[i][j]

    def transpose(self) -> "IntMat":
        # zip of no rows yields no columns, so a 0 x n matrix is spelled out.
        data = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return IntMat._trusted(data, self.rows)

    def __matmul__(self, other: "IntMat") -> "IntMat":
        if not isinstance(other, IntMat):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            a = self.data[i]
            out.append(
                [sum(a[k] * other.data[k][j] for k in range(self.cols)) for j in range(other.cols)]
            )
        return IntMat(out, cols=other.cols)

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"IntMat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"IntMat[{body}]"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


_set_data, _set_cols = _slot_setters(IntMat)


def det(a: IntMat) -> int:
    """Exact determinant via fraction-free Bareiss elimination.

    >>> det(IntMat([[2, 1], [0, 3]]))
    6
    >>> det(IntMat([], cols=0))
    1
    """
    if not a.is_square:
        raise ShapeError(f"determinant of non-square {a.rows}x{a.cols} matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact division: Bareiss guarantees prev divides the product.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def echelon(a: IntMat) -> tuple[int, ...]:
    """Row-reduce ``a`` to echelon form; returns one absolute pivot per
    column, 0 for a column that has none.

    The row operations are unimodular: Euclid down each column, the first
    row of least nonzero |entry| as pivot, with no transform accumulated
    and no back-reduction.  Each step subtracts the nearest-integer
    multiple of the pivot row, leaving a remainder of at most half the
    pivot, so a column clears in fewer rounds and the entries carried to
    later columns stay small.

    The pivots depend only on the row lattice, not on the remainders
    chosen.  Over the first k columns the nonzero pivots number the rank
    and, when none is 0, multiply to the index of the lattice's
    projection there; the rows they leave zero span the lattice's kernel
    there, and the later pivots are that kernel's.  Echelon ``[A^T | I]``:
    the first ``A.rows`` pivots multiply to |coker A|, or to 0 when it is
    infinite, and ``A.cols`` less the count of nonzero ones is rank ker A.
    Here A = [[2, 4]], with cokernel Z/2 and kernel spanned by (-2, 1):

    >>> echelon(IntMat([[2, 1, 0], [4, 0, 1]]))
    (2, 2, 0)

    Two loops take these steps and return equal pivots, not merely the
    same products.  When ``a.cols`` is below ``_PACKED_MIN_COLS`` = 11 the
    rows are lists of ints.  From 11 on, each active row is one
    nonnegative int, v = sum_j (x_j + 2^(w-1)) 2^(j w): entry j in field
    j of w bits, offset to be nonnegative.  A row step is one big-int
    expression, v_r - q (v_p - C) with C the packed offsets; the leading
    entry is (v & (2^w - 1)) - 2^(w-1); dropping a column is v >> w.
    That is exact while every entry fits its field, so no field borrows
    from or carries into the next.  Each row keeps a bound b >= max
    |entry|, raised to b_r + |q| b_p before each step.  A step that would
    bring a bound to 2^(w-1) first decodes every active row, whose fields
    all still hold their entries, sets the bounds exact and re-encodes
    every row at the width for 1 + |q| times the largest bound: the bits
    it needs, a quarter more and ``_PACKED_HEADROOM`` = 64, rounded up to
    whole bytes, so a field is read, compared and resized as a byte
    string.  When the exact bounds fit the fields as they are, no row is
    re-encoded.  Under CPython 3.11.7 on a 2-vCPU Intel Xeon VM, per
    echelon on each benchmark workload's own matrices (seed 1, best of
    5): the 95 ten-column echelons of one ``corpus`` pass took 38.5 us on
    lists against 65.9 us packed; on ``exterior_ladder`` the lists led at
    10 columns (114 against 121 us), the two were level at 11 (145
    against 143 us), and packed rows led from 12 (173 against 157 us);
    ``homology_ladder``'s echelons start at 14 columns, where packed rows
    lead.
    """
    if a.cols >= _PACKED_MIN_COLS:
        return _echelon_packed(a)
    # Each active row holds its entries from the current column on: the
    # columns before it are zero in every active row, so they are dropped.
    active = [list(row) for row in a.data]
    pivots = []
    for _ in range(a.cols):
        column = [row for row in active if row[0]]
        pivot = None
        if column:
            while len(column) > 1:
                pivot = column[0]  # the first row of least |entry|
                for row in column:
                    if abs(row[0]) < abs(pivot[0]):
                        pivot = row
                p = pivot[0]
                p2 = 2 * p
                left = [pivot]
                for row in column:
                    if row is not pivot:
                        # The nearest integer to row[0] / p leaves |row[0]| <= |p| / 2.
                        q = (2 * row[0] + p) // p2
                        row[:] = [x - q * y for x, y in zip(row, pivot)]
                        if row[0]:
                            left.append(row)
                column = left
            pivot = column[0]
        pivots.append(abs(pivot[0]) if column else 0)
        active = [row[1:] for row in active if row is not pivot]
    return tuple(pivots)


# Echelons over at least this many columns run on packed rows.
_PACKED_MIN_COLS = 11
# Spare bits a field gets past the bits its widest entry needs and a quarter more.
_PACKED_HEADROOM = 64


def _field_width(bound: int) -> int:
    """Bits per field for entries of |x| <= ``bound``, a whole number of bytes."""
    bits = bound.bit_length() + 1
    return -(-(bits + bits // 4 + _PACKED_HEADROOM) // 8) * 8


def _pack(row, w: int) -> int:
    """``row`` as one int: entry j plus 2^(w-1) in bits [j w, (j+1) w)."""
    half, size = 1 << (w - 1), w // 8
    return int.from_bytes(b"".join([(x + half).to_bytes(size, "big") for x in reversed(row)]),
                          "big")


def _repack(vals: list[int], bounds: list[int], active: list[int], width: int,
            w: int, scale: int) -> int:
    """Set the active rows' ``bounds`` exact and, where entries up to
    ``scale`` times the largest need wider fields, re-encode the rows at
    that width; returns the field width.

    A field's bytes compare as its value, so each row's extreme fields are
    found without converting the others.  Padded with zero bytes, a field
    keeps its value, and one addition moves every field of a row from the
    old offset to the new."""
    half, size = 1 << (w - 1), w // 8
    rows = []
    for i in active:
        data = vals[i].to_bytes(width * size, "big")
        fields = [data[o:o + size] for o in range(0, width * size, size)]
        bounds[i] = max(int.from_bytes(max(fields), "big") - half,
                        half - int.from_bytes(min(fields), "big"))
        rows.append(fields)
    new_w = _field_width(scale * max(bounds[i] for i in active))
    if new_w <= w:
        return w
    offsets = _pack((0,) * width, new_w)
    pad = bytes(new_w // 8 - size)
    shift = offsets - half * (offsets >> (new_w - 1))
    for i, fields in zip(active, rows):
        vals[i] = int.from_bytes(pad + pad.join(fields), "big") + shift
    return new_w


def _echelon_packed(a: IntMat) -> tuple[int, ...]:
    """:func:`echelon` on rows packed by :func:`_pack`, step for step.

    ``vals[i]`` and ``bounds[i]`` are row i's packed int and its bound;
    ``active`` lists the rows not yet taken as pivots, in their order, and
    ``width`` counts the columns they still hold."""
    width = a.cols
    bounds = [max(map(abs, row), default=0) for row in a.data]
    w = _field_width(max(bounds, default=0))
    vals = [_pack(row, w) for row in a.data]
    offsets = _pack((0,) * width, w)
    active = list(range(a.rows))
    pivots = []
    for _ in range(a.cols):
        mask, half = (1 << w) - 1, 1 << (w - 1)
        column, leads = [], []
        for i in active:
            x = (vals[i] & mask) - half
            if x:
                column.append(i)
                leads.append(x)
        pivot = None
        if column:
            while len(column) > 1:
                sizes = list(map(abs, leads))
                t = sizes.index(min(sizes))  # the first row of least |entry|
                pivot, p = column.pop(t), leads.pop(t)
                p2 = 2 * p
                d, bp = vals[pivot] - offsets, bounds[pivot]
                left, left_leads = [pivot], [p]
                for i, x in zip(column, leads):
                    q = (2 * x + p) // p2
                    b = bounds[i] + abs(q) * bp
                    if b >= half:
                        w = _repack(vals, bounds, active, width, w, 1 + abs(q))
                        mask, half = (1 << w) - 1, 1 << (w - 1)
                        offsets = _pack((0,) * width, w)
                        d, bp = vals[pivot] - offsets, bounds[pivot]
                        b = bounds[i] + abs(q) * bp
                    vals[i] = v = vals[i] - q * d
                    bounds[i] = b
                    x = (v & mask) - half
                    if x:
                        left.append(i)
                        left_leads.append(x)
                column, leads = left, left_leads
            pivot = column[0]
        pivots.append(abs(leads[0]) if column else 0)
        active = [i for i in active if i != pivot]
        for i in active:
            vals[i] >>= w
        width -= 1
        offsets >>= w
    return tuple(pivots)


class SnfResult(_Frozen):
    """Smith normal form U @ A @ V == D with unimodular U, V.

    ``diag`` lists the diagonal of D (length min(rows, cols)); nonzero
    entries form a divisibility chain d1 | d2 | ... with trailing zeros.
    The properties below are read from ``diag`` and ``V`` without
    factoring again.
    """

    __slots__ = ("U", "D", "V", "diag")

    def __init__(self, U: IntMat, D: IntMat, V: IntMat, diag: tuple[int, ...]):
        _set_U(self, U)
        _set_D(self, D)
        _set_V(self, V)
        _set_diag(self, diag)

    @property
    def rank(self) -> int:
        """Rank over Q: the number of nonzero invariant factors."""
        return sum(1 for x in self.diag if x != 0)

    @property
    def cokernel_order(self):
        """Order of Z^rows / (column span of A), or INFINITE."""
        # Full row rank leaves exactly ``rows`` factors, all nonzero.
        return INFINITE if self.rank < self.D.rows else math.prod(self.diag)

    @property
    def kernel_basis(self) -> IntMat:
        """The last ``cols - rank`` columns of V: a Z-basis of ker A."""
        r = self.rank
        return IntMat([row[r:] for row in self.V.data], cols=self.V.cols - r)


_set_U, _set_D, _set_V, _set_diag = _slot_setters(SnfResult)


def smith_normal_form(a: IntMat) -> SnfResult:
    """Diagonalize ``a`` by unimodular row/column operations.

    One loop over the diagonal position t: the least nonzero |entry| of
    the block from (t, t) on is the pivot p.  Column t and row t are
    cleared by floor quotients, and a nonzero remainder, below |p|, is the
    pivot at once; then a row holding an entry p does not divide is added
    into row t and cleared again.  Each step zeroes an entry or shrinks
    |p|, so the loop ends with p dividing the rest, which makes the
    diagonal a divisibility chain.  A negative p is negated with its row.

    >>> smith_normal_form(IntMat([[2, 0], [0, 3]])).diag
    (1, 6)
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_sub(i: int, k: int, q: int) -> None:
        di, dk = d[i], d[k]
        for j in range(n):
            di[j] -= q * dk[j]
        ui, uk = u[i], u[k]
        for j in range(m):
            ui[j] -= q * uk[j]

    def col_sub(j: int, k: int, q: int) -> None:
        for i in range(m):
            d[i][j] -= q * d[i][k]
        for i in range(n):
            v[i][j] -= q * v[i][k]

    def row_swap(i: int, k: int) -> None:
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]

    def col_swap(j: int, k: int) -> None:
        for row in d:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    k = min(m, n)
    for t in range(k):
        block = [(abs(x), i, j) for i in range(t, m) for j in range(t, n) if (x := d[i][j])]
        if not block:
            break
        _, i, j = min(block)  # the first least nonzero |entry|
        row_swap(t, i)
        col_swap(t, j)
        while True:
            p = d[t][t]
            # Clear column t, then row t; a nonzero remainder is the pivot.
            for i in range(t + 1, m):
                if d[i][t]:
                    row_sub(i, t, d[i][t] // p)
                    if d[i][t]:
                        row_swap(t, i)
                        break
            else:
                for j in range(t + 1, n):
                    if d[t][j]:
                        col_sub(j, t, d[t][j] // p)
                        if d[t][j]:
                            col_swap(t, j)
                            break
                else:
                    # Both are clear: add in a row that p does not divide.
                    i = next((i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1:])), 0)
                    if not i:
                        break
                    row_sub(t, i, -1)
        if d[t][t] < 0:
            d[t][t] = -d[t][t]
            u[t] = [-x for x in u[t]]

    return SnfResult(
        U=IntMat(u, cols=m),
        D=IntMat(d, cols=n),
        V=IntMat(v, cols=n),
        diag=tuple(d[i][i] for i in range(k)),
    )


def cokernel_order(a: IntMat):
    """Order of Z^rows / (column span of ``a``), or INFINITE.

    >>> cokernel_order(IntMat([[2, 1], [0, 3]]))
    6
    >>> cokernel_order(IntMat([[1, 0], [0, 0]]))
    INFINITE
    """
    return smith_normal_form(a).cokernel_order

