import inspect
import itertools
import math
import random
import sys
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
    abelianize,
    assembled_word_map,
    cokernel_enumeration,
    cokernel_order,
    det,
    lambda_invariant,
    numeric_degree_u1,
    parse_splitting_document,
    torus_preimage_count,
    unitary,
)
from repcount import oracle
from repcount.cli import oracle_targets
from repcount.oracle import TORUS_MAX_WORK
from support import (
    DENSE6_DOCUMENT,
    cokernel_enumeration_reference,
    det6_splitting,
    det_and_adjugate_reference,
    identity_hom,
    identity_matrix,
    random_int_mat,
    random_t0_splitting,
    torus_preimage_count_reference,
)


class TestTorusPreimageCount:
    def test_power_map(self):
        for r in (1, 2, 5):
            assert torus_preimage_count(IntMat([[r]]), [(Fraction(1, 2 * r),)]) == (r,)

    def test_identity(self):
        for n in (0, 1, 2, 3):  # Z^0 is one point
            assert torus_preimage_count(identity_matrix(n), oracle_targets(0, n)) == (1, 1, 1)

    def test_det6_matrix(self):
        assert torus_preimage_count(
            IntMat([[2, 1], [0, 3]]), [(Fraction(1, 7), Fraction(2, 7))]) == (6,)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            torus_preimage_count(IntMat([[1, 1], [1, 1]]), [(Fraction(1, 3),) * 2])

    def test_non_square_rejected(self):
        with pytest.raises(SingularMatrixError):
            torus_preimage_count(IntMat([[1, 1]]), [(Fraction(1, 3),)])

    @pytest.mark.parametrize("targets", [[(0,)], [(0, 0), (0, 0, 0)]], ids=["short", "long-second"])
    def test_target_length_rejected(self, targets):
        bad = len(targets[-1])
        with pytest.raises(ValueError, match=f"target length {bad} != 2"):
            torus_preimage_count(IntMat([[2, 1], [0, 3]]), targets)

    def test_zero_target_counts_det(self):
        # x = 0 and x = 1/2 solve 2x == 0; x = 1 is the same torus point as 0
        assert torus_preimage_count(IntMat([[2]]), [(Fraction(0),)]) == (2,)

    def test_torus_det_limit(self):
        # For a 1x1 matrix [[m]] the box's W is |m| + 1.
        with pytest.raises(DomainLimitError):
            torus_preimage_count(IntMat([[600000]]), [(Fraction(1, 7),)])
        with pytest.raises(DomainLimitError):
            torus_preimage_count(IntMat([[-TORUS_MAX_WORK]]), [(Fraction(1, 7),)])
        assert torus_preimage_count(
            IntMat([[TORUS_MAX_WORK - 1]]), [(0,)]) == (TORUS_MAX_WORK - 1,)
        assert torus_preimage_count(IntMat([[1, 1], [-100, 100]]), [(0, 0)]) == (200,)

    def test_box_refuses_before_solving(self, monkeypatch):
        def no_solve(a):
            raise AssertionError("the box must refuse before any solve")

        monkeypatch.setattr(oracle, "_det_and_adjugate", no_solve)
        a = identity_matrix(1000)  # built before the clock starts
        start = time.perf_counter()
        with pytest.raises(DomainLimitError):
            torus_preimage_count(a, [(0,) * 1000])
        assert time.perf_counter() - start < 0.1
        # a zero row would add no factor to W, so it is refused as singular
        with pytest.raises(SingularMatrixError):
            torus_preimage_count(IntMat([[1, 0], [0, 0]]), [(0, 0)])

    def test_negative_determinant(self):
        assert torus_preimage_count(IntMat([[-3]]), [(Fraction(2, 3),)]) == (3,)

    def test_count_is_abs_det(self):
        rng = random.Random(17)
        done = 0
        while done < 40:
            n = rng.randint(1, 5)
            a = random_int_mat(rng, n, n, -3, 3)
            d = det(a)
            if d == 0:
                continue
            assert torus_preimage_count(a, oracle_targets(17 * done, n)) == (abs(d),) * 3, a
            done += 1

    def test_empty_target_list(self, monkeypatch):
        # No targets, no counts; the matrix is still checked and solved once,
        # so a singular matrix is refused whatever the targets.
        solves = []

        def counting(a):
            solves.append(a)
            return solve(a)

        solve = oracle._det_and_adjugate
        monkeypatch.setattr(oracle, "_det_and_adjugate", counting)
        assert torus_preimage_count(IntMat([[2, 1], [0, 3]]), []) == ()
        assert len(solves) == 1
        with pytest.raises(SingularMatrixError):
            torus_preimage_count(IntMat([[1, 1], [1, 1]]), [])
        with pytest.raises(DomainLimitError):
            torus_preimage_count(IntMat([[TORUS_MAX_WORK]]), [])
        assert numeric_degree_u1(identity_hom(2), ()) == ()

    def test_target_independence(self):
        a = IntMat([[3, 1], [1, 2]])
        targets = [(0, 0), (Fraction(1, 2), 0), (Fraction(1, 5), Fraction(3, 5)),
                   (Fraction(2, 3), Fraction(1, 7))]
        assert torus_preimage_count(a, targets) == (abs(det(a)),) * 4


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
        assert torus_preimage_count(a, [t]) == (abs(d),)


    @settings(max_examples=100, deadline=None)
    @given(square_matrices, st.lists(st.integers(1, 12), min_size=1, max_size=4), st.data())
    def test_several_targets_match_reference(self, rows, dens, data):
        # One call counts every target with one solve; each count is the
        # per-target reference's, for components below 0 and past 1 too.
        a = IntMat(rows)
        d = det(a)
        assume(d != 0)
        targets = [tuple(Fraction(k, q) for k in data.draw(
            st.lists(st.integers(-3 * q, 3 * q), min_size=a.rows, max_size=a.rows)))
            for q in dens]
        counts = torus_preimage_count(a, targets)
        assert counts == tuple(torus_preimage_count_reference(a, t) for t in targets)
        assert counts == (abs(d),) * len(targets)


class TestSolve:
    """The torus oracle's solve, integer rows over one denominator, against
    the Fraction Gauss-Jordan it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)),
        st.sampled_from(("as drawn", "last row a multiple of the first", "zero column")),
        st.integers(-3, 3))
    def test_matches_fraction_reference(self, rows, singular, factor):
        # The second and third variants are singular, as are some drawn ones.
        n = len(rows)
        if singular == "last row a multiple of the first" and n >= 2:
            rows[-1] = [factor * x for x in rows[0]]
        elif singular == "zero column":
            rows = [row[:-1] + [0] for row in rows]
        a = IntMat(rows)
        if det(a) == 0:
            with pytest.raises(SingularMatrixError):
                oracle._det_and_adjugate(a)
            with pytest.raises(SingularMatrixError):
                det_and_adjugate_reference(a)
            return
        d, adj = oracle._det_and_adjugate(a)
        assert (d, adj) == det_and_adjugate_reference(a)
        assert d == det(a)
        assert IntMat(adj) @ a == IntMat([[d * int(i == j) for j in range(n)] for i in range(n)])

    def test_empty_matrix(self):
        empty = IntMat([], cols=0)
        assert oracle._det_and_adjugate(empty) == det_and_adjugate_reference(empty) == (1, [])


class TestReferenceCount:
    def test_matches_reference(self):
        # Seeded nonsingular matrices up to 5x5 inside the box, each with
        # the zero target and targets of denominator up to 12 whose
        # components run from -3 to 3.
        rng = random.Random(29)
        dets = []
        while len(dets) < 40:
            n = rng.randint(1, 5)
            a = random_int_mat(rng, n, n, -3, 3)
            d = det(a)
            if d == 0 or math.prod(sum(map(abs, row)) + 1 for row in a.data) > TORUS_MAX_WORK:
                continue
            targets = [(0,) * n]
            for q in rng.sample(range(1, 13), 4):
                targets.append(tuple(Fraction(rng.randint(-3 * q, 3 * q), q) for _ in range(n)))
            counts = torus_preimage_count(a, targets)
            assert counts == tuple(torus_preimage_count_reference(a, t) for t in targets), a
            assert counts == (abs(d),) * 5
            dets.append(d)
        assert min(dets) < 0 < max(dets)
        assert any(abs(d) > 12 for d in dets)

    def test_box_edge(self):
        # [[499999]] has W = 500,000, the largest the box admits; the last
        # offset runs over 499,999 values, all of them preimages.
        a = IntMat([[TORUS_MAX_WORK - 1]])
        targets = [(0,), (Fraction(-7, 3),), (Fraction(5, 2),)]
        counts = torus_preimage_count(a, targets)
        assert counts == (TORUS_MAX_WORK - 1,) * 3
        assert counts[1] == torus_preimage_count_reference(a, targets[1])


def diagonal(*entries):
    return [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]


class TestWidestLastWalk:
    """The walk covers the narrow offsets and counts the widest as one
    interval.  The shapes: many rows of sum 1 or 2, which an integer target
    would slow if the offset ranges kept their unreachable ends; one
    offset range far wider than the rest, or a thin 4x4, which slow a walk
    in natural order; and the slowest shape measured for this walk, a
    dense 6x6 with row sums 7, 8, 8, 8, 8, 8."""

    SHAPES = {
        "I_18": diagonal(*[1] * 18),
        # row i has -1 or 1 in column 5i + 3 mod 18
        "signed permutation 18x18": [
            [(-1 if i % 3 == 0 else 1) if j == (5 * i + 3) % 18 else 0 for j in range(18)]
            for i in range(18)],
        "diag(2, 1 x 16)": diagonal(2, *[1] * 16),
        # W = 497,664
        "I_16 plus ones at (i, i + 1), i < 5": [
            [int(j == i or (j == i + 1 and i < 5)) for j in range(16)] for i in range(16)],
        "diag(124999, 1, 1)": diagonal(124999, 1, 1),
        "[[249,248,0],[248,247,1],[0,0,1]]": [[249, 248, 0], [248, 247, 1], [0, 0, 1]],
        "thin 4x4": [[11, 18, -17, -13], [12, 20, -17, -15], [11, 19, -18, -15], [1, 0, 0, 0]],
        # W = 472,392: up to 8^4 * 7 = 28,672 intervals per target
        "dense 6x6": [[0, -2, 1, 1, -3, 0], [0, -1, 0, -3, -2, -2], [2, 0, 2, 1, -2, 1],
                      [2, 2, 1, 2, 0, -1], [1, -1, -2, 0, 1, -3], [-3, 0, 1, 3, 0, -1]],
    }

    @pytest.mark.parametrize("seed", [0, 7])  # seed 0's first target is 0
    @pytest.mark.parametrize("name", SHAPES)
    def test_counts_abs_det_in_bounded_time(self, name, seed):
        a = IntMat(self.SHAPES[name])
        assert math.prod(sum(map(abs, row)) + 1 for row in a.data) <= TORUS_MAX_WORK
        targets = oracle_targets(seed, a.rows)
        start = time.perf_counter()
        counts = torus_preimage_count(a, targets)
        assert time.perf_counter() - start < 5.0
        assert counts == (abs(det(a)),) * 3
        if a.rows <= 4:
            assert counts == tuple(torus_preimage_count_reference(a, t) for t in targets)

    def test_dense6_document_acts_by_the_dense_6x6(self):
        s, _ = parse_splitting_document(DENSE6_DOCUMENT)
        assert abelianize(assembled_word_map(s)) == IntMat(self.SHAPES["dense 6x6"])


def intervals_walked(a, target):
    """The count of ``a`` at ``target`` and the intervals its walk reaches.

    The walk's depth before the last is one flat loop, and each of its
    passes computes one interval of the last offset, starting at the line
    ``lo_k, hi_k = last_lo, last_hi``; those lines are counted by tracing.
    N = 1 is one direct interval, outside the walk."""
    lines, first = inspect.getsourcelines(oracle._count_offsets)
    (interval_line,) = [first + i for i, line in enumerate(lines)
                        if line.strip() == "lo_k, hi_k = last_lo, last_hi"]
    passes = []

    def local_trace(frame, event, arg):
        if event == "line" and frame.f_lineno == interval_line:
            passes.append(1)
        return local_trace

    def trace(frame, event, arg):
        if frame.f_code.co_name == "walk" and frame.f_globals is vars(oracle):
            return local_trace
        return None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        (count,) = torus_preimage_count(a, [target])
    finally:
        sys.settrace(previous)
    return count, 1 if a.rows == 1 else len(passes)


class TestOpenRangeEnds:
    """Row d of a @ x, x in [0,1)^N, stays below its sum of positive
    entries when it has one and above its sum of negative entries when it
    has one, so offset d takes at most r_d values (r_d the row's sum of
    |entries|), and the walk at most prod r_d / max r_d intervals."""

    def test_walk_within_bound(self):
        rng = random.Random(43)
        matrices = [identity_matrix(12), IntMat(TestWidestLastWalk.SHAPES["diag(2, 1 x 16)"]),
                    IntMat([[1, -1], [1, 1]]), IntMat([[2, -1, 0], [0, 1, 1], [1, 0, -3]])]
        while len(matrices) < 60:
            n = rng.randint(1, 4)
            a = random_int_mat(rng, n, n, -3, 3)
            if det(a) and math.prod(sum(map(abs, row)) + 1 for row in a.data) <= TORUS_MAX_WORK:
                matrices.append(a)
        for a in matrices:
            sums = [sum(map(abs, row)) for row in a.data]
            bound = math.prod(sums) // max(sums)
            n, d = a.rows, abs(det(a))
            integer = tuple(rng.randint(-3, 3) for _ in range(n))
            for target in [(0,) * n, integer, *oracle_targets(7, n)]:
                count, intervals = intervals_walked(a, target)
                assert count == d
                assert intervals <= bound, (a, target)

    def test_integer_target_on_unit_rows_walks_once(self):
        # Every offset range of I_12, or of a diagonal of signs, holds one
        # value, where closed ranges hold two and the walk would reach 2^11
        # intervals.
        for a in (identity_matrix(12), IntMat(diagonal(*[(-1) ** i for i in range(12)]))):
            for target in [(0,) * 12, tuple(range(-6, 6))]:
                assert intervals_walked(a, target) == (1, 1)


class TestNumericDegreeU1:
    def test_identity(self):
        f = identity_hom(2)
        assert numeric_degree_u1(f, oracle_targets(0, 2)) == (1, 1, 1)

    def test_cube_map(self):
        f = FreeHom(1, 1, (Word(((1, 3),)),))
        assert numeric_degree_u1(f, [(Fraction(1, 7),)]) == (3,)

    def test_det6_assembled_map(self):
        f = assembled_word_map(det6_splitting())
        assert numeric_degree_u1(f, oracle_targets(0, 2)) == (6, 6, 6)

    def test_matches_invariant_pipeline(self):
        rng = random.Random(19)
        done = 0
        while done < 25:
            s = random_t0_splitting(rng)
            f = assembled_word_map(s)
            expected = lambda_invariant(s, unitary(1)).abs_value
            if expected == 0:
                continue
            assert numeric_degree_u1(f, oracle_targets(done, s.u)) == (expected,) * 3
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
            cokernel_enumeration(identity_matrix(4))
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

    def test_windows_united_past_the_box_side(self):
        # The last pivot, 20, exceeds the box side 2 * (4 * 2 + 1) + 1 = 19,
        # so no single prefix's window covers every class of the last row.
        a = IntMat([[-4, -3], [-4, 2]])
        assert oracle._triangular_lattice_basis(a)[-1][-1] == 20
        assert cokernel_enumeration(a) == cokernel_enumeration_reference(a) == 20

    def test_every_small_shape_exhaustively(self):
        # Every 1x1, 1x2, 2x1, 2x2, 1x3 and 3x1 matrix with entries in
        # [-4, 4]: 8,190 matrices, singular and rectangular ones included.
        matrices = [
            IntMat([list(e[i * cols:(i + 1) * cols]) for i in range(rows)], cols=cols)
            for rows, cols in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]
            for e in itertools.product(range(-4, 5), repeat=rows * cols)
        ]
        counts = [cokernel_enumeration(a) for a in matrices]
        assert counts == [cokernel_order(a) for a in matrices]
        assert counts == [cokernel_enumeration_reference(a) for a in matrices]
        assert len(counts) == 8190 and counts.count(INFINITE) == 1358

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
