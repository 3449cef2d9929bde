import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from support import echelon_reference, random_int_mat, same_row_lattice


def square_strategy(max_n=4, bound=5):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-bound, max_value=bound),
                     min_size=n, max_size=n),
            min_size=n, max_size=n,
        ).map(lambda rows: IntMat(rows, cols=n))
    )


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
    def test_identity_and_zeros(self):
        assert IntMat.identity(2).data == ((1, 0), (0, 1))
        assert IntMat.zeros(2, 3).data == ((0, 0, 0), (0, 0, 0))

    def test_empty_shapes(self):
        assert IntMat([], cols=3).rows == 0
        assert IntMat([[], []]).cols == 0

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            IntMat([[1, 2], [3]])

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            IntMat([[1.5]])

    def test_matmul_and_transpose(self):
        a = IntMat([[1, 2], [3, 4]])
        b = IntMat([[0, 1], [1, 0]])
        assert (a @ b).data == ((2, 1), (4, 3))
        assert a.transpose().data == ((1, 3), (2, 4))


class TestDet:
    def test_identity(self):
        assert det(IntMat.identity(4)) == 1

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
            b = IntMat.identity(a.rows)
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


def with_identity(a: IntMat) -> IntMat:
    """``[A^T | I]``: its echelon over ``a.rows`` columns carries ker A."""
    n = a.cols
    return IntMat([row + tuple(int(i == j) for j in range(n))
                   for i, row in enumerate(a.transpose().data)], cols=a.rows + n)


class TestEchelon:
    @settings(max_examples=200)
    @given(st.one_of(low_rank_strategy(), low_rank_strategy(max_dim=3, bound=30)))
    def test_against_smith_normal_form(self, a):
        snf = smith_normal_form(a)
        pivots, rest = echelon(with_identity(a), a.rows)
        assert len(pivots) == snf.rank
        assert all(p > 0 for p in pivots)
        order = math.prod(pivots) if len(pivots) == a.rows else INFINITE
        assert order == snf.cokernel_order
        # The rows left zero lie in ker A and number its rank.  ker A is
        # saturated, so they span the same lattice as the SNF kernel basis
        # exactly when their own lattice is saturated: all invariant
        # factors 1.
        kb = snf.kernel_basis
        assert (rest.rows, rest.cols) == (kb.cols, a.cols)
        assert a @ rest.transpose() == IntMat.zeros(a.rows, rest.rows)
        assert smith_normal_form(rest).diag == (1,) * rest.rows
        assert smith_normal_form(kb.transpose()).diag == (1,) * kb.cols

    def test_pivots_without_trailing_columns(self):
        pivots, rest = echelon(IntMat([[2, 1], [0, 3]]).transpose(), 2)
        assert math.prod(pivots) == 6
        assert (rest.rows, rest.cols) == (0, 0)

    def test_zero_columns_keep_every_row(self):
        a = IntMat([[1, 2], [3, 4]])
        assert echelon(a, 0) == ((), a)

    def test_empty(self):
        assert echelon(IntMat([], cols=3), 2) == ((), IntMat([], cols=1))

    def test_zero_matrix(self):
        assert echelon(IntMat.zeros(3, 2), 2) == ((), IntMat([[], [], []], cols=0))

    @pytest.mark.parametrize("ncols", [-1, 3])
    def test_bad_column_count(self, ncols):
        with pytest.raises(ShapeError):
            echelon(IntMat.zeros(2, 2), ncols)

    def test_input_unchanged(self):
        a = IntMat([[4, 6, 1], [6, 9, 0]])
        data = a.data
        echelon(a, 2)
        assert a.data == data


class TestEchelonEquivalence:
    """``echelon`` takes least remainders on shrinking rows; the floor
    quotient reference must give the same pivots and a kernel of the same
    lattice."""

    @staticmethod
    def assert_equivalent(a: IntMat, ncols: int):
        pivots, rest = echelon(a, ncols)
        ref_pivots, ref_rest = echelon_reference(a, ncols)
        assert pivots == ref_pivots
        assert (rest.rows, rest.cols) == (ref_rest.rows, ref_rest.cols)
        assert same_row_lattice(rest, ref_rest)

    def test_seeded_matrices(self):
        rng = random.Random(14)
        for _ in range(400):
            rows, cols = rng.randint(0, 7), rng.randint(0, 7)
            bound = rng.choice((1, 3, 20, 10**6))
            a = random_int_mat(rng, rows, cols, -bound, bound)
            self.assert_equivalent(a, rng.randint(0, cols))

    def test_seeded_low_rank_with_identity(self):
        # [A^T | I] with dependent rows: some columns have no pivot and
        # the kernel carries the identity part.
        rng = random.Random(41)
        for _ in range(150):
            k, n = rng.randint(1, 3), rng.randint(1, 6)
            left = random_int_mat(rng, rng.randint(1, 6), k, -9, 9)
            a = left @ random_int_mat(rng, k, n, -9, 9)
            self.assert_equivalent(with_identity(a), a.rows)

    @pytest.mark.parametrize("rows, cols, ncols",
                             [(0, 0, 0), (0, 4, 2), (3, 0, 0), (3, 4, 0), (3, 4, 4)])
    def test_degenerate_shapes(self, rows, cols, ncols):
        self.assert_equivalent(IntMat.zeros(rows, cols), ncols)
        self.assert_equivalent(random_int_mat(random.Random(rows), rows, cols), ncols)

    def test_negative_pivots(self):
        # The least |entry| is negative in every column; pivots are returned
        # as absolute values.
        a = IntMat([[-3, 5, 1, 0], [7, -2, 0, 1], [-3, -4, 2, 2]])
        assert echelon(a, 2)[0] == (1, 1)
        self.assert_equivalent(a, 2)
        rng = random.Random(5)
        for _ in range(100):
            a = random_int_mat(rng, 4, 5, -30, -1)
            self.assert_equivalent(a, rng.randint(1, 5))

    def test_large_entries_terminate(self):
        rng = random.Random(64)
        bound = 2**64
        for _ in range(60):
            a = random_int_mat(rng, rng.randint(1, 6), rng.randint(1, 6), -bound, bound)
            self.assert_equivalent(a, rng.randint(0, a.cols))
        # Consecutive Fibonacci numbers are Euclid's slowest case for
        # floor quotients.
        fib = [1, 1]
        while fib[-1] < bound:
            fib.append(fib[-1] + fib[-2])
        a = IntMat([[fib[-1], 1, 0], [fib[-2], 0, 1]])
        assert echelon(a, 1)[0] == (1,)
        self.assert_equivalent(a, 1)


class TestSmithNormalForm:
    @pytest.mark.parametrize("rows,diag", [
        ([[2, 0], [0, 3]], (1, 6)),
        ([[1, 0], [0, 0]], (1, 0)),
        ([[2, 4], [4, 8]], (2, 0)),
        ([[6, 0], [0, 10]], (2, 30)),
    ])
    def test_known_diagonals(self, rows, diag):
        assert smith_normal_form(IntMat(rows)).diag == diag

    def test_zero_matrix(self):
        assert smith_normal_form(IntMat.zeros(2, 3)).diag == (0, 0)

    def test_empty(self):
        s = smith_normal_form(IntMat([], cols=0))
        assert s.diag == ()

    @settings(max_examples=80)
    @given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-6, 6), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        ).map(IntMat)
    ))
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
        kb = smith_normal_form(IntMat.identity(3)).kernel_basis
        assert (kb.rows, kb.cols) == (3, 0)

    def test_sum_map(self):
        kb = smith_normal_form(IntMat([[1, 1]])).kernel_basis
        assert kb.cols == 1
        assert tuple(kb.column(0)) in {(1, -1), (-1, 1)}

    def test_random_annihilation(self):
        rng = random.Random(8)
        for _ in range(40):
            a = random_int_mat(rng, 3, 5, -4, 4)
            snf = smith_normal_form(a)
            kb = snf.kernel_basis
            assert kb.cols == 5 - snf.rank
            assert a @ kb == IntMat.zeros(3, kb.cols)


class TestRank:
    def test_zero(self):
        assert smith_normal_form(IntMat.zeros(2, 2)).rank == 0

    def test_identity(self):
        assert smith_normal_form(IntMat.identity(3)).rank == 3

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
