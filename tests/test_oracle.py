import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repcount import (
    INFINITE,
    DomainLimitError,
    FreeHom,
    IntMat,
    SingularMatrixError,
    Word,
    assembled_word_map,
    cokernel_enumeration,
    cokernel_order,
    det,
    lambda_invariant,
    numeric_degree_u1,
    torus_preimage_count,
    unitary,
)
from repcount import oracle
from repcount.cli import oracle_targets
from repcount.oracle import TORUS_MAX_WORK
from support import (
    cokernel_enumeration_reference,
    det6_splitting,
    random_int_mat,
    random_t0_splitting,
)


class TestTorusPreimageCount:
    def test_power_map(self):
        for r in (1, 2, 5):
            assert torus_preimage_count(IntMat([[r]]), (Fraction(1, 2 * r),)) == r

    def test_identity(self):
        for n in (1, 2, 3):
            for t in oracle_targets(0, n):
                assert torus_preimage_count(IntMat.identity(n), t) == 1

    def test_det6_matrix(self):
        assert torus_preimage_count(
            IntMat([[2, 1], [0, 3]]), (Fraction(1, 7), Fraction(2, 7))) == 6

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            torus_preimage_count(IntMat([[1, 1], [1, 1]]), (Fraction(1, 3),) * 2)

    def test_non_square_rejected(self):
        with pytest.raises(SingularMatrixError):
            torus_preimage_count(IntMat([[1, 1]]), (Fraction(1, 3),))

    def test_zero_target_counts_det(self):
        # x = 0 and x = 1/2 solve 2x == 0; x = 1 is the same torus point as 0
        assert torus_preimage_count(IntMat([[2]]), (Fraction(0),)) == 2

    def test_torus_det_limit(self):
        # For a 1x1 matrix [[m]] the box's W is |m| + 1.
        with pytest.raises(DomainLimitError):
            torus_preimage_count(IntMat([[600000]]), (Fraction(1, 7),))
        with pytest.raises(DomainLimitError):
            torus_preimage_count(IntMat([[-TORUS_MAX_WORK]]), (Fraction(1, 7),))
        assert torus_preimage_count(IntMat([[TORUS_MAX_WORK - 1]]), (0,)) == TORUS_MAX_WORK - 1
        assert torus_preimage_count(IntMat([[1, 1], [-100, 100]]), (0, 0)) == 200

    def test_box_refuses_before_solving(self, monkeypatch):
        def no_solve(a):
            raise AssertionError("the box must refuse before any solve")

        monkeypatch.setattr(oracle, "_det_and_adjugate", no_solve)
        start = time.perf_counter()
        with pytest.raises(DomainLimitError):
            torus_preimage_count(IntMat.identity(1000), (0,) * 1000)
        assert time.perf_counter() - start < 0.1
        # a zero row would add no factor to W, so it is refused as singular
        with pytest.raises(SingularMatrixError):
            torus_preimage_count(IntMat([[1, 0], [0, 0]]), (0, 0))

    def test_negative_determinant(self):
        assert torus_preimage_count(IntMat([[-3]]), (Fraction(2, 3),)) == 3

    def test_count_is_abs_det(self):
        rng = random.Random(17)
        done = 0
        while done < 40:
            n = rng.randint(1, 5)
            a = random_int_mat(rng, n, n, -3, 3)
            d = det(a)
            if d == 0:
                continue
            for t in oracle_targets(17 * done, n):
                assert torus_preimage_count(a, t) == abs(d), (a, t)
            done += 1

    def test_target_independence(self):
        a = IntMat([[3, 1], [1, 2]])
        targets = [(0, 0), (Fraction(1, 2), 0), (Fraction(1, 5), Fraction(3, 5)),
                   (Fraction(2, 3), Fraction(1, 7))]
        assert {torus_preimage_count(a, t) for t in targets} == {abs(det(a))}


square_matrices = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n))


class TestHalfOpenCount:
    @settings(max_examples=200, deadline=None)
    @given(square_matrices, st.sampled_from((1, 2, 3, "det")), st.data())
    def test_any_target_counts_abs_det(self, rows, q, data):
        # [0,1)^N holds one representative of each torus point, so every
        # target has exactly |det| preimages there, boundary ones included.
        a = IntMat(rows)
        d = det(a)
        assume(d != 0)
        q = abs(d) if q == "det" else q
        t = tuple(Fraction(k, q) for k in data.draw(
            st.lists(st.integers(0, q - 1), min_size=a.rows, max_size=a.rows)))
        assert torus_preimage_count(a, t) == abs(d)


class TestNumericDegreeU1:
    def test_identity(self):
        f = FreeHom.identity(2)
        assert [numeric_degree_u1(f, t) for t in oracle_targets(0, 2)] == [1, 1, 1]

    def test_cube_map(self):
        f = FreeHom(1, 1, (Word(((1, 3),)),))
        assert numeric_degree_u1(f, (Fraction(1, 7),)) == 3

    def test_det6_assembled_map(self):
        f = assembled_word_map(det6_splitting())
        assert [numeric_degree_u1(f, t) for t in oracle_targets(0, 2)] == [6, 6, 6]

    def test_matches_invariant_pipeline(self):
        rng = random.Random(19)
        done = 0
        while done < 25:
            s = random_t0_splitting(rng)
            f = assembled_word_map(s)
            expected = lambda_invariant(s, unitary(1)).abs_value
            if expected == 0:
                continue
            for t in oracle_targets(done, s.u):
                assert numeric_degree_u1(f, t) == expected
            done += 1


class TestCokernelEnumeration:
    def test_z2(self):
        assert cokernel_enumeration(IntMat([[2]])) == 2

    def test_det6(self):
        assert cokernel_enumeration(IntMat([[2, 1], [0, 3]])) == 6

    def test_free_direction(self):
        assert cokernel_enumeration(IntMat([[1, 0], [0, 0]])) is INFINITE

    def test_zero_matrix(self):
        assert cokernel_enumeration(IntMat([[0]])) is INFINITE

    def test_wide_matrix(self):
        assert cokernel_enumeration(IntMat([[2, 4]])) == 2

    def test_no_columns(self):
        assert cokernel_enumeration(IntMat([[], []], cols=0)) is INFINITE

    def test_empty_matrix(self):
        assert cokernel_enumeration(IntMat([], cols=0)) == 1

    def test_rank_deficient_square(self):
        # third row = first + second: rank 2 in 3 rows leaves a free direction
        assert cokernel_enumeration(IntMat([[1, 2, 0], [0, 1, 3], [1, 3, 3]])) is INFINITE

    def test_size_limits(self):
        with pytest.raises(DomainLimitError):
            cokernel_enumeration(IntMat.identity(4))
        with pytest.raises(DomainLimitError):
            cokernel_enumeration(IntMat([[5]]))

    def test_matches_per_point_reference(self):
        # Every shape up to 3x3, entry magnitudes 0..4; one matrix in four
        # with two or more rows repeats its first row, so it is singular.
        rng = random.Random(13)
        shapes = [(r, c) for r in range(4) for c in range(4)]
        matrices = [
            IntMat([[4, 4, 4], [4, -4, 4], [4, 4, -4]]),
            IntMat([[4, 1, 0], [0, 4, 1], [1, 0, 4]]),
            IntMat([[3, 1, 2], [1, -3, 1], [2, 2, 3]]),
        ]
        for i in range(2000):
            rows, cols = shapes[i % len(shapes)]
            m = rng.randint(0, 4)
            data = random_int_mat(rng, rows, cols, -m, m).data
            if rows >= 2 and rng.random() < 0.25:
                data = data[:-1] + data[:1]
            matrices.append(IntMat(data, cols=cols))
        counts = [cokernel_enumeration(a) for a in matrices]
        assert counts == [cokernel_enumeration_reference(a) for a in matrices]
        assert counts[:3] == [256, 65, 18]
        assert INFINITE in counts and sum(c is not INFINITE for c in counts) > 500

    def test_matches_snf_on_admissible_domain(self):
        rng = random.Random(20)
        for _ in range(250):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            a = random_int_mat(rng, rows, cols, -4, 4)
            expected = cokernel_order(a)
            got = cokernel_enumeration(a)
            if expected is INFINITE:
                assert got is INFINITE
            else:
                assert got == expected
