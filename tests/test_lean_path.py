"""The invariant path builds each intermediate once and checks input only
where it enters the package.

Matrices, words and maps the package builds itself skip the public
constructors' checks.  These tests pin that such values are exactly the
ones the checking constructors would build, and that the checking
constructors still refuse bad data.
"""

import random

import pytest

import repcount.invariants
import repcount.splitting
from repcount import (
    ExteriorWorkLimitError,
    FreeHom,
    IntMat,
    MalformedWordError,
    Word,
    abelianize,
    assembled_word_map,
    det,
    echelon,
    free_reduce,
    glue_matrix,
    lambda_invariant,
    lambda_invariants,
    special_unitary,
    stabilize,
    unitary,
)
from support import det6_splitting, mayer_vietoris_reference, random_t0_splitting


def assert_same_as_checked(m: IntMat) -> None:
    """``m`` equals, field by field, the matrix ``IntMat(...)`` builds from
    its rows."""
    checked = IntMat([list(row) for row in m.data], cols=m.cols)
    assert m == checked and hash(m) == hash(checked)
    assert (m.rows, m.cols) == (checked.rows, checked.cols)
    assert m.data == checked.data
    assert type(m.data) is tuple
    assert all(type(row) is tuple and len(row) == m.cols for row in m.data)
    assert all(type(x) is int for row in m.data for x in row)


def exponent_sum(w: Word, g: int) -> int:
    return sum(e for h, e in w.letters if h == g)


def reference_glue(s) -> IntMat:
    """The glue matrix from its definition, one exponent sum per entry."""
    return IntMat([
        [exponent_sum(k, g) for g in range(s.g1 + 1, s.h1 + 1)]
        + [-exponent_sum(l, g) for g in range(1, s.h2 + 1)]
        for k, l in zip(s.k_map.images, s.l_map.images)
    ], cols=s.h1 - s.g1 + s.h2)


def seeded_splittings(seed: int, count: int = 60):
    rng = random.Random(seed)
    return [random_t0_splitting(rng) for _ in range(count)]


class TestOneAssembly:
    def test_lambda_invariant_assembles_mv_rows_once(self, monkeypatch):
        calls = []
        original = repcount.splitting._mayer_vietoris_rows

        def counted(s):
            calls.append(s)
            return original(s)

        # Both the module that defines it and the one that imports it.
        monkeypatch.setattr(repcount.splitting, "_mayer_vietoris_rows", counted)
        monkeypatch.setattr(repcount.invariants, "_mayer_vietoris_rows", counted)
        for s in [det6_splitting()] + seeded_splittings(11, 10):
            calls.clear()
            lambda_invariant(s, unitary(2))
            assert calls == [s]

    def test_group_independent_work_once_per_splitting(self, monkeypatch):
        kinds = [unitary(1), unitary(2), unitary(3), special_unitary(2), special_unitary(3)]
        calls = []

        def count(name):
            original = getattr(repcount.invariants, name)

            def counted(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(repcount.invariants, name, counted)

        for name in ("assembled_word_map", "_mayer_vietoris_rows", "det",
                     "_pair_cohomology", "degree_of_word_map"):
            count(name)
        for s in [det6_splitting()] + seeded_splittings(14, 10):
            calls.clear()
            lambda_invariants(s, kinds)
            assert sorted(calls) == sorted(
                ["assembled_word_map", "_mayer_vietoris_rows", "det", "_pair_cohomology"]
                + ["degree_of_word_map"] * len(kinds))

    def test_p2_box_refuses_before_p1_and_p3(self, monkeypatch):
        s = det6_splitting()
        for _ in range(400):
            s = stabilize(s)
        assert s.u == 402

        def refuse(*args):
            raise AssertionError("P1 or P3 ran before P2 refused the group")

        monkeypatch.setattr(repcount.invariants, "det", refuse)
        monkeypatch.setattr(repcount.invariants, "_pair_cohomology", refuse)
        with pytest.raises(ExteriorWorkLimitError):
            lambda_invariants(s, (unitary(1), unitary(3000)))

    def test_lambda_invariant_uses_no_checking_constructor(self, monkeypatch):
        calls = []
        original = IntMat.__init__

        def counted(self, *args, **kwargs):
            calls.append(args)
            original(self, *args, **kwargs)

        splittings = seeded_splittings(12, 20)
        monkeypatch.setattr(IntMat, "__init__", counted)
        for s in splittings:
            lambda_invariant(s, unitary(1))
        assert calls == []

    def test_p1_is_det_of_the_glue_matrix(self):
        # P1 reads the transpose of the glue matrix; the sign must survive.
        for s in seeded_splittings(13):
            report = lambda_invariant(s, unitary(1))
            assert report.pipelines.det_power == abs(det(glue_matrix(s)))


class TestTrustedMatrices:
    def test_glue_and_mayer_vietoris(self):
        for s in seeded_splittings(21):
            glue = glue_matrix(s)
            assert_same_as_checked(glue)
            assert glue == reference_glue(s)
            rows = IntMat._trusted(repcount.splitting._mayer_vietoris_rows(s), s.u)
            assert_same_as_checked(rows)
            mv = mayer_vietoris_reference(s)
            assert glue == IntMat([row[s.g1:] for row in mv.data], cols=mv.cols - s.g1)

    def test_abelianize(self):
        for s in seeded_splittings(22):
            for f in (s.k_map, s.l_map, assembled_word_map(s)):
                m = abelianize(f)
                assert_same_as_checked(m)
                assert m == IntMat([[exponent_sum(w, g) for w in f.images]
                                    for g in range(1, f.target_rank + 1)],
                                   cols=f.source_rank)

    def test_transpose_and_echelon_kernel(self):
        for s in seeded_splittings(23):
            mv = mayer_vietoris_reference(s)
            t = mv.transpose()
            assert_same_as_checked(t)
            assert t.transpose() == mv
            augmented = IntMat([row + tuple(int(i == j) for j in range(t.rows))
                                for i, row in enumerate(t.data)], cols=t.cols + t.rows)
            _, kernel = echelon(augmented, t.cols)
            assert_same_as_checked(kernel)

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
    def test_degenerate_shapes(self, rows, cols):
        m = IntMat([[0] * cols for _ in range(rows)], cols=cols)
        t = m.transpose()
        assert_same_as_checked(t)
        assert (t.rows, t.cols) == (cols, rows)
        assert t.transpose() == m
        # All columns reduced: every row is left, with no entries.
        _, kernel = echelon(m, cols)
        assert_same_as_checked(kernel)
        assert (kernel.rows, kernel.cols) == (rows, 0)
        # No columns reduced: every row is left whole.
        _, kernel = echelon(m, 0)
        assert_same_as_checked(kernel)
        assert kernel == m

    @pytest.mark.parametrize("source, target", [(0, 3), (3, 0), (0, 0)])
    def test_degenerate_abelianize(self, source, target):
        m = abelianize(FreeHom(source, target, (Word(),) * source))
        assert_same_as_checked(m)
        assert (m.rows, m.cols) == (target, source)


class TestTrustedWords:
    def test_free_reduce_equals_checked_word(self):
        rng = random.Random(31)
        for _ in range(300):
            letters = [(rng.randint(1, 4), rng.randint(-2, 2))
                       for _ in range(rng.randint(0, 12))]
            w = free_reduce(letters)
            checked = Word(w.letters)
            assert w == checked and hash(w) == hash(checked)
            assert type(w.letters) is tuple
            assert all(type(letter) is tuple for letter in w.letters)

    def test_assembled_word_map_equals_checked_map(self):
        for s in seeded_splittings(32):
            f = assembled_word_map(s)
            checked = FreeHom(f.source_rank, f.target_rank, f.images)
            assert f == checked and hash(f) == hash(checked)
            assert (f.source_rank, f.target_rank) == (s.u, s.h1 - s.g1 + s.h2)


class TestPublicConstructorsStillCheck:
    # Float entries, ragged rows and unreduced words: test_intlinalg.py
    # and test_words.py.
    def test_free_hom_generator_out_of_range(self):
        with pytest.raises(MalformedWordError, match="beyond target rank 2"):
            FreeHom(1, 2, (Word(((3, 1),)),))
