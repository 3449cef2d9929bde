import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repcount import (
    INFINITE,
    DomainLimitError,
    FreeHom,
    IntMat,
    NonGenericTargetError,
    SingularMatrixError,
    Word,
    abelianize,
    assembled_word_map,
    cokernel_enumeration,
    cokernel_order,
    det,
    generic_target,
    lambda_invariant,
    numeric_degree_u1,
    torus_preimage_count,
    unitary,
)
from repcount.oracle import TORUS_MAX_DET
from support import det6_splitting, random_int_mat, random_t0_splitting


class TestTorusPreimageCount:
    def test_power_map(self):
        for r in (1, 2, 5):
            res = torus_preimage_count(IntMat([[r]]), (Fraction(1, 2 * r),))
            assert res.count == r

    def test_identity(self):
        for n in (1, 2, 3):
            a = IntMat.identity(n)
            res = torus_preimage_count(a, generic_target(a))
            assert res.count == 1

    def test_det6_matrix(self):
        res = torus_preimage_count(
            IntMat([[2, 1], [0, 3]]), (Fraction(1, 7), Fraction(2, 7))
        )
        assert res.count == 6
        assert res.target == (Fraction(1, 7), Fraction(2, 7))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            torus_preimage_count(IntMat([[1, 1], [1, 1]]), (Fraction(1, 3),) * 2)

    def test_non_square_rejected(self):
        with pytest.raises(SingularMatrixError):
            torus_preimage_count(IntMat([[1, 1]]), (Fraction(1, 3),))

    def test_boundary_hit_signals_retry(self):
        # x = 0 solves A x == 0 and sits on the domain boundary
        with pytest.raises(NonGenericTargetError):
            torus_preimage_count(IntMat([[2]]), (Fraction(0),))

    def test_torus_det_limit(self):
        with pytest.raises(DomainLimitError):
            torus_preimage_count(IntMat([[600000]]), (Fraction(1, 7),))
        with pytest.raises(DomainLimitError):
            torus_preimage_count(IntMat([[TORUS_MAX_DET + 1]]), (Fraction(1, 7),))
        a = IntMat([[1, 1], [-100, 100]])
        assert torus_preimage_count(a, generic_target(a)).count == 200

    def test_negative_determinant(self):
        a = IntMat([[-3]])
        res = torus_preimage_count(a, generic_target(a))
        assert res.count == 3

    def test_count_is_abs_det(self):
        rng = random.Random(17)
        done = 0
        while done < 40:
            n = rng.randint(1, 5)
            a = random_int_mat(rng, n, n, -3, 3)
            d = det(a)
            if d == 0:
                continue
            for salt in (0, 1, 2):
                res = torus_preimage_count(a, generic_target(a, salt=17 * salt))
                assert res.count == abs(d), (a, res)
            done += 1

    def test_target_independence(self):
        a = IntMat([[3, 1], [1, 2]])
        counts = set()
        targets = set()
        for salt in (0, 1, 2, 3):
            res = torus_preimage_count(a, generic_target(a, salt=salt))
            counts.add(res.count)
            targets.add(res.target)
        assert counts == {abs(det(a))}
        assert len(targets) >= 3


square_matrices = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n))


class TestGenericTarget:
    @settings(max_examples=200, deadline=None)
    @given(square_matrices, st.integers(-1000, 10**6))
    def test_never_on_boundary(self, rows, salt):
        # no NonGenericTargetError, whatever the salt
        a = IntMat(rows)
        assume(det(a) != 0)
        assert torus_preimage_count(a, generic_target(a, salt=salt)).count == abs(det(a))

    def test_denominator_coprime_to_det(self):
        from math import gcd

        rng = random.Random(18)
        for _ in range(30):
            a = random_int_mat(rng, 3, 3, -3, 3)
            if det(a) == 0:
                continue
            t = generic_target(a, salt=rng.randint(0, 9))
            for x in t:
                assert 0 < x < 1
                assert gcd(x.denominator, det(a)) == 1


class TestNumericDegreeU1:
    def test_identity(self):
        f = FreeHom.identity(2)
        assert numeric_degree_u1(f, generic_target(abelianize(f))) == 1

    def test_cube_map(self):
        f = FreeHom(1, 1, (Word(((1, 3),)),))
        assert numeric_degree_u1(f, (Fraction(1, 7),)) == 3

    def test_det6_assembled_map(self):
        s = det6_splitting()
        f = assembled_word_map(s)
        acting = abelianize(f)
        assert numeric_degree_u1(f, generic_target(acting)) == 6

    def test_matches_invariant_pipeline(self):
        rng = random.Random(19)
        done = 0
        while done < 25:
            s = random_t0_splitting(rng)
            f = assembled_word_map(s)
            acting = abelianize(f)
            if det(acting) == 0:
                continue
            expected = lambda_invariant(s, unitary(1)).abs_value
            assert numeric_degree_u1(f, generic_target(acting, salt=done)) == expected
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
