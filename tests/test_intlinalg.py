import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repcount import intlinalg
from repcount import (
    INFINITE,
    IntMat,
    ShapeError,
    cokernel_order,
    det,
    echelon,
    format_int,
    smith_normal_form,
)
from support import (
    echelon_reference,
    identity_matrix,
    random_int_mat,
    zero_matrix,
)


def square_strategy(max_n=4, bound=5):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-bound, max_value=bound),
                     min_size=n, max_size=n),
            min_size=n, max_size=n,
        ).map(lambda rows: IntMat(rows, cols=n))
    )


@st.composite
def snf_matrices(draw):
    """Shapes 0..6 x 0..6 with entries up to 10^6, built with ``cols=`` so
    that a matrix of no rows keeps its width; some draws make the last row
    an integer combination of the others, so the rank falls short."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.integers(-10**6, 10**6)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=m - 1, max_size=m - 1))
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    return IntMat(rows, cols=n)


def cofactor_det(a: IntMat) -> int:
    """Naive cofactor expansion; the independent determinant oracle."""
    n = a.rows
    if n == 0:
        return 1
    if n == 1:
        return a[0, 0]
    total = 0
    for j in range(n):
        minor = IntMat(
            [[a[i, c] for c in range(n) if c != j] for i in range(1, n)],
            cols=n - 1,
        )
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


class TestIntMat:
    def test_empty_shapes(self):
        assert IntMat([], cols=3).rows == 0
        assert IntMat([[], []]).cols == 0
        assert (IntMat([]).rows, IntMat([]).cols) == (0, 0)

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            IntMat([[1, 2], [3]])

    @pytest.mark.parametrize("data, cols, message", [
        ([[1, 2], [3, 4]], 3, "declared cols=3 but rows have width 2"),
        ([], -1, "negative column count"),
    ], ids=["declared-width", "negative-width"])
    def test_bad_column_count_rejected(self, data, cols, message):
        with pytest.raises(ShapeError, match=message):
            IntMat(data, cols=cols)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            IntMat([[1.5]])

    @pytest.mark.parametrize("entry", [True, False])
    def test_bool_rejected(self, entry):
        with pytest.raises(TypeError) as err:
            IntMat([[1, entry]])
        assert str(err.value) == "matrix entries must be ints, got bool"

    def test_int_subclass_accepted(self):
        class Entry(int):
            pass
        assert IntMat([[Entry(3)]]) == IntMat([[3]])

    def test_matmul_and_transpose(self):
        a = IntMat([[1, 2], [3, 4]])
        b = IntMat([[0, 1], [1, 0]])
        assert (a @ b).data == ((2, 1), (4, 3))
        assert a.transpose().data == ((1, 3), (2, 4))

    def test_matmul_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="cannot multiply 1x2 by 1x2"):
            IntMat([[1, 2]]) @ IntMat([[3, 4]])

    def test_repr(self):
        assert repr(IntMat([], cols=3)) == "IntMat(0x3)"
        assert repr(IntMat([[], []])) == "IntMat(2x0)"
        assert repr(IntMat([[1, 2], [3, -4]])) == "IntMat[1 2; 3 -4]"


class TestDet:
    def test_identity(self):
        assert det(identity_matrix(4)) == 1

    def test_triangular(self):
        assert det(IntMat([[2, 1], [0, 3]])) == 6

    def test_empty(self):
        assert det(IntMat([], cols=0)) == 1

    def test_non_square(self):
        with pytest.raises(ShapeError):
            det(IntMat([[1, 2]]))

    def test_against_cofactor_oracle(self):
        rng = random.Random(4)
        for _ in range(40):
            a = random_int_mat(rng, 4, 4, -5, 5)
            assert det(a) == cofactor_det(a)

    @settings(max_examples=60)
    @given(square_strategy(max_n=3, bound=4), square_strategy(max_n=3, bound=4))
    def test_multiplicative(self, a, b):
        if a.rows != b.rows:
            b = identity_matrix(a.rows)
        assert det(a @ b) == det(a) * det(b)


def low_rank_strategy(max_dim=5, bound=4):
    """m x n products of an m x k and a k x n matrix, k in 0..max_dim: every
    shape from 0 rows or 0 columns up, and rank deficient whenever k is
    below min(m, n)."""
    def build(shape):
        m, n, k = shape
        entries = st.integers(-bound, bound)
        left = st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m)
        right = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k)
        return st.tuples(left, right).map(
            lambda lr: IntMat(lr[0], cols=k) @ IntMat(lr[1], cols=n))

    dims = st.integers(0, max_dim)
    return st.tuples(dims, dims, dims).flatmap(build)


def beside_identity(a: IntMat) -> IntMat:
    """``[A | I]``: the identity block records each row's combination, so
    the rows the columns of A leave zero feed the identity block's pivots."""
    return IntMat([row + tuple(int(i == j) for j in range(a.rows))
                   for i, row in enumerate(a.data)], cols=a.cols + a.rows)


def with_identity(a: IntMat) -> IntMat:
    """``[A^T | I]``: its first ``a.rows`` pivots read coker A, and the rows
    they leave zero span ker A in the identity block."""
    return beside_identity(a.transpose())


class TestEchelon:
    @settings(max_examples=200)
    @given(st.one_of(low_rank_strategy(), low_rank_strategy(max_dim=3, bound=30)))
    def test_against_smith_normal_form(self, a):
        snf = smith_normal_form(a)
        pivots = echelon(with_identity(a))
        assert len(pivots) == a.rows + a.cols
        head, tail = pivots[:a.rows], pivots[a.rows:]
        assert all(p >= 0 for p in pivots)
        # What P3 reads: the product of the first a.rows pivots is the
        # cokernel order, and the rows they leave zero number ker A.
        assert (math.prod(head) or INFINITE) == snf.cokernel_order
        assert a.rows - head.count(0) == snf.rank
        assert a.cols - (a.rows - head.count(0)) == snf.kernel_basis.cols
        # Those rows span ker A, the lattice of the SNF kernel basis, and
        # pivots are invariants of the row lattice.
        assert tail == echelon_reference(snf.kernel_basis.transpose())

    def test_pivots_without_trailing_columns(self):
        pivots = echelon(IntMat([[2, 1], [0, 3]]).transpose())
        assert pivots == (1, 6)
        assert math.prod(pivots) == 6

    def test_zero_columns_keep_every_row(self):
        assert echelon(IntMat([[], []])) == ()
        # A zero first column takes no row, so both reach the second.
        assert echelon(IntMat([[0, 2], [0, 3]])) == (0, 1)

    def test_empty(self):
        assert echelon(IntMat([], cols=3)) == (0, 0, 0)

    def test_zero_matrix(self):
        assert echelon(zero_matrix(3, 2)) == (0, 0)

    def test_input_unchanged(self):
        a = IntMat([[4, 6, 1], [6, 9, 0]])
        data = a.data
        echelon(a)
        assert a.data == data


class TestEchelonEquivalence:
    """``echelon`` takes least remainders on shrinking rows; the floor
    quotient reference must give the same pivots, those of the columns
    its rows leave zero included."""

    @staticmethod
    def assert_equivalent(a: IntMat):
        assert echelon(a) == echelon_reference(a)

    def test_seeded_matrices(self):
        # Up to 24 columns, so echelons of 11 or more run on packed rows.
        rng = random.Random(14)
        for _ in range(400):
            rows, cols = rng.randint(0, 12), rng.randint(0, 24)
            bound = rng.choice((1, 3, 20, 10**6))
            self.assert_equivalent(random_int_mat(rng, rows, cols, -bound, bound))

    def test_seeded_low_rank_with_identity(self):
        # [A^T | I] with dependent rows: some columns have no pivot and
        # the identity block's pivots are those of the kernel.
        rng = random.Random(41)
        for _ in range(150):
            k, n = rng.randint(1, 3), rng.randint(1, 6)
            left = random_int_mat(rng, rng.randint(1, 6), k, -9, 9)
            a = left @ random_int_mat(rng, k, n, -9, 9)
            self.assert_equivalent(with_identity(a))

    @pytest.mark.parametrize("rows, cols, ncols",
                             [(0, 0, 0), (0, 4, 2), (3, 0, 0), (3, 4, 0), (3, 4, 4)])
    def test_degenerate_shapes(self, rows, cols, ncols):
        for a in (zero_matrix(rows, cols), random_int_mat(random.Random(rows), rows, cols)):
            self.assert_equivalent(a)
            # The first ncols pivots are those of the first ncols columns.
            left = IntMat([row[:ncols] for row in a.data], cols=ncols)
            assert echelon(a)[:ncols] == echelon(left)

    def test_negative_pivots(self):
        # The least |entry| is negative in every column; pivots are returned
        # as absolute values.
        a = IntMat([[-3, 5, 1, 0], [7, -2, 0, 1], [-3, -4, 2, 2]])
        assert echelon(a)[:2] == (1, 1)
        self.assert_equivalent(a)
        rng = random.Random(5)
        for _ in range(100):
            self.assert_equivalent(random_int_mat(rng, 4, 5, -30, -1))

    def test_large_entries_terminate(self):
        rng = random.Random(64)
        bound = 2**64
        for _ in range(60):
            a = random_int_mat(rng, rng.randint(1, 6), rng.randint(1, 6), -bound, bound)
            self.assert_equivalent(a)
        # Consecutive Fibonacci numbers are Euclid's slowest case for
        # floor quotients.
        fib = [1, 1]
        while fib[-1] < bound:
            fib.append(fib[-1] + fib[-2])
        a = IntMat([[fib[-1], 1, 0], [fib[-2], 0, 1]])
        assert echelon(a)[:1] == (1,)
        self.assert_equivalent(a)


def echelon_on(path: str, a: IntMat):
    """``echelon`` on packed rows (``path == "packed"``) or on the list loop,
    whatever the width of ``a``."""
    threshold = 0 if path == "packed" else a.cols + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlinalg, "_PACKED_MIN_COLS", threshold)
        return echelon(a)


def wide_strategy(max_rows=14, max_cols=24):
    """Matrices of 0..max_rows rows and 0..max_cols columns, entries small
    or near 2^64."""
    entries = st.one_of(st.integers(-9, 9), st.integers(-2**64, 2**64))

    def build(shape):
        m, n = shape
        rows = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)
        return rows.map(lambda r: IntMat(r, cols=n))

    return st.tuples(st.integers(0, max_rows), st.integers(0, max_cols)).flatmap(build)


def fibonacci_rows(count: int, cols: int, start: int) -> IntMat:
    """Rows of consecutive Fibonacci numbers from F(start + i), the slowest
    inputs of Euclid's algorithm with floor quotients."""
    fib = [0, 1]
    while len(fib) < start + count + cols:
        fib.append(fib[-1] + fib[-2])
    return IntMat([fib[start + i:start + i + cols] for i in range(count)], cols=cols)


class TestPackedEchelon:
    """Echelons of ``_PACKED_MIN_COLS`` columns or more run on packed rows.
    They take the list loop's steps, so the pivots are equal to the list
    loop's."""

    @staticmethod
    def wide_matrices():
        rng = random.Random(2024)
        for _ in range(120):
            rows, cols = rng.randint(0, 16), rng.randint(10, 24)
            bound = rng.choice((1, 3, 20, 10**6, 2**64))
            yield random_int_mat(rng, rows, cols, -bound, bound)
        for _ in range(20):
            # Every entry is negative, so is every column's least entry.
            yield random_int_mat(rng, rng.randint(2, 12), rng.randint(10, 24), -2**64, -1)
        for count, cols, start in ((2, 10, 90), (6, 12, 40), (12, 24, 1), (3, 16, 300)):
            yield fibonacci_rows(count, cols, start)
        for cols, start in ((12, 90), (24, 300)):
            # One column of consecutive Fibonacci numbers beside the identity.
            yield with_identity(fibonacci_rows(1, cols, start))

    @staticmethod
    def assert_paths_equal(a: IntMat):
        # Beside the identity, the rows the columns of a leave zero carry
        # on into more columns.
        for m in (a, beside_identity(a)):
            packed = echelon_on("packed", m)
            assert packed == echelon_on("lists", m)
            assert len(packed) == m.cols
            if m.cols >= intlinalg._PACKED_MIN_COLS:
                assert echelon(m) == packed

    def test_seeded_wide_matrices(self):
        for a in self.wide_matrices():
            self.assert_paths_equal(a)

    @pytest.mark.parametrize("cols, packed", [(9, False), (10, False), (11, True), (13, True)])
    def test_loop_chosen_by_width(self, monkeypatch, cols, packed):
        calls = []
        packed_loop = intlinalg._echelon_packed
        monkeypatch.setattr(intlinalg, "_echelon_packed",
                            lambda a: calls.append(a.cols) or packed_loop(a))
        echelon(random_int_mat(random.Random(cols), 4, cols))
        assert calls == ([cols] if packed else [])

    @pytest.mark.parametrize("headroom", [1, 2])
    def test_little_headroom_widens_often(self, monkeypatch, headroom):
        # With almost no spare bits the fields are widened whenever an
        # entry's bound outgrows them; the results must not move.
        monkeypatch.setattr(intlinalg, "_PACKED_HEADROOM", headroom)
        repack = intlinalg._repack
        widths = []

        def counted(vals, bounds, active, width, w, scale):
            widths.append((w, repack(vals, bounds, active, width, w, scale)))
            return widths[-1][1]

        monkeypatch.setattr(intlinalg, "_repack", counted)
        for a in self.wide_matrices():
            self.assert_paths_equal(a)
        # Some steps widen the fields; others find the exact bounds fit.
        assert any(new > old for old, new in widths)
        assert any(new == old for old, new in widths)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(wide_strategy(), wide_strategy(max_rows=5, max_cols=6)))
    def test_hypothesis_matrices(self, a):
        self.assert_paths_equal(a)

    @pytest.mark.parametrize("path", ["lists", "packed"])
    @pytest.mark.parametrize("cols", [5, 14])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_pivotless_columns(self, path, cols, where):
        # A zero column, or one equal to an earlier column, gets pivot 0:
        # the rows left after that earlier column are zero on both.  It
        # takes no row, so every other pivot is that of the matrix without it.
        rng = random.Random(cols)
        at = {"first": 0, "middle": cols // 2, "last": cols - 1}[where]
        for rows in (3, cols - 1, cols + 2):
            base = random_int_mat(rng, rows, cols - 1, -2**40, 2**40)
            fills = [lambda row: 0] + ([lambda row: row[0], lambda row: row[at - 1]] if at else [])
            for fill in fills:
                a = IntMat([row[:at] + (fill(row),) + row[at:] for row in base.data], cols=cols)
                pivots = echelon_on(path, a)
                assert pivots[at] == 0
                assert pivots[:at] + pivots[at + 1:] == echelon_on(path, base)
                assert pivots == echelon_reference(a)

    def test_input_unchanged(self):
        a = with_identity(random_int_mat(random.Random(8), 12, 14, -2**70, 2**70))
        data = a.data
        rows = [list(row) for row in data]
        echelon(a)
        assert a.data is data and [list(row) for row in a.data] == rows


class TestSmithNormalForm:
    @pytest.mark.parametrize("rows,diag", [
        ([[2, 0], [0, 3]], (1, 6)),
        ([[1, 0], [0, 0]], (1, 0)),
        ([[2, 4], [4, 8]], (2, 0)),
        ([[6, 0], [0, 10]], (2, 30)),
        ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], (1, 1, 6)),  # 2 does not divide 3 at t = 1
    ])
    def test_known_diagonals(self, rows, diag):
        assert smith_normal_form(IntMat(rows)).diag == diag

    def test_zero_matrix(self):
        assert smith_normal_form(zero_matrix(2, 3)).diag == (0, 0)

    def test_empty(self):
        s = smith_normal_form(IntMat([], cols=0))
        assert s.diag == ()

    @settings(max_examples=150)
    @given(snf_matrices())
    def test_reconstruction_and_chain(self, a):
        s = smith_normal_form(a)
        assert s.U @ a @ s.V == s.D
        assert abs(det(s.U)) == 1
        assert abs(det(s.V)) == 1
        nonzero = [x for x in s.diag if x != 0]
        assert all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        # zeros trail
        seen_zero = False
        for x in s.diag:
            if x == 0:
                seen_zero = True
            else:
                assert not seen_zero
        # off-diagonal of D is zero
        for i in range(s.D.rows):
            for j in range(s.D.cols):
                if i != j:
                    assert s.D[i, j] == 0

    def test_independent_of_echelon_and_det(self, monkeypatch):
        # The reference for P3's echelon and P1's determinant uses neither.
        def refuse(a):
            raise AssertionError("smith_normal_form called a pipeline's reduction")

        monkeypatch.setattr(intlinalg, "echelon", refuse)
        monkeypatch.setattr(intlinalg, "det", refuse)
        assert smith_normal_form(IntMat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])).diag == (1, 1, 6)
        assert smith_normal_form(IntMat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])).diag == (2, 2, 156)

    def test_diag_unique_under_unimodular_change(self):
        a = IntMat([[2, 1], [0, 3]])
        e = IntMat([[1, 5], [0, 1]])
        assert smith_normal_form(a).diag == smith_normal_form(e @ a).diag


class TestCokernelOrder:
    def test_z2(self):
        assert cokernel_order(IntMat([[2]])) == 2

    def test_free_factor(self):
        assert cokernel_order(IntMat([[1, 0], [0, 0]])) is INFINITE

    def test_det6(self):
        assert cokernel_order(IntMat([[2, 1], [0, 3]])) == 6

    def test_empty_map(self):
        assert cokernel_order(IntMat([], cols=0)) == 1

    def test_brute_force_small(self):
        # Coset count of Z^2 / column span by direct enumeration, entries
        # in [-2, 2]; independent of the oracle module on purpose.
        rng = random.Random(6)
        for _ in range(100):
            a = random_int_mat(rng, 2, 2, -2, 2)
            expected = cokernel_order(a)
            if det(a) == 0:
                # For 2x2, finite cokernel needs full rank.
                assert expected is INFINITE
                continue
            # All lattice points with coefficients up to 30 covers every
            # lattice vector with coordinates in [-6, 6] here.
            lattice = {
                (c0 * a[0, 0] + c1 * a[0, 1], c0 * a[1, 0] + c1 * a[1, 1])
                for c0, c1 in product(range(-30, 31), repeat=2)
            }
            reps: list[tuple[int, int]] = []
            # Every coset has a representative with coordinates in [-3, 3].
            for p in product(range(-3, 4), repeat=2):
                if not any((p[0] - q[0], p[1] - q[1]) in lattice for q in reps):
                    reps.append(p)
            assert len(reps) == expected


class TestKernelBasis:
    def test_identity_trivial_kernel(self):
        kb = smith_normal_form(identity_matrix(3)).kernel_basis
        assert (kb.rows, kb.cols) == (3, 0)

    def test_sum_map(self):
        kb = smith_normal_form(IntMat([[1, 1]])).kernel_basis
        assert kb.cols == 1
        assert kb.transpose().data[0] in {(1, -1), (-1, 1)}

    def test_random_annihilation(self):
        rng = random.Random(8)
        for _ in range(40):
            a = random_int_mat(rng, 3, 5, -4, 4)
            snf = smith_normal_form(a)
            kb = snf.kernel_basis
            assert kb.cols == 5 - snf.rank
            assert a @ kb == zero_matrix(3, kb.cols)


class TestRank:
    def test_zero(self):
        assert smith_normal_form(zero_matrix(2, 2)).rank == 0

    def test_identity(self):
        assert smith_normal_form(identity_matrix(3)).rank == 3

    def test_dependent_rows(self):
        assert smith_normal_form(IntMat([[2, 4], [1, 2]])).rank == 1


class TestFormatInt:
    def test_small_and_infinite(self):
        assert [format_int(x) for x in (0, 7, -36, INFINITE)] == ["0", "7", "-36", "INFINITE"]

    def test_past_str_digit_limit(self):
        # str() refuses ints of more than 4,300 digits; compare against
        # base-10**1000 chunks, each short enough for str().
        x = 7**6000
        chunks, rest = [], x
        while rest:
            rest, low = divmod(rest, 10**1000)
            chunks.append(low)
        expected = str(chunks[-1]) + "".join(f"{c:01000d}" for c in reversed(chunks[:-1]))
        assert len(expected) > 5000
        assert format_int(x) == expected
        assert format_int(-x) == "-" + expected
