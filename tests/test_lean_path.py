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
    AdaptedSplitting,
    ExteriorWorkLimitError,
    FreeHom,
    IntMat,
    InvalidSplittingError,
    MalformedWordError,
    MultiIndex,
    Word,
    abelianize,
    assembled_word_map,
    det,
    echelon,
    free_reduce,
    glue_matrix,
    lambda_invariant,
    lambda_invariants,
    pair_cohomology,
    parse_splitting_document,
    parse_word,
    smith_normal_form,
    special_unitary,
    stabilize,
    unitary,
)
from support import (
    DET6_DOCUMENT,
    det6_splitting,
    echelon_reference,
    mayer_vietoris_reference,
    random_free_hom,
    random_t0_splitting,
    rebuilt,
)


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

    def test_stabilize_uses_no_checking_constructor(self, monkeypatch):
        splittings = [det6_splitting(), rebuilt(det6_splitting(), orientation_reversed=True)]
        splittings += seeded_splittings(15, 20)
        checked = [rebuilt(
            s, h1=s.h1 + 1, u=s.u + 1, u_hat_genus=s.u_hat_genus + 1,
            k_map=FreeHom(s.u + 1, s.h1 + 1, s.k_map.images + (Word(((s.h1 + 1, 1),)),)),
            l_map=FreeHom(s.u + 1, s.h2, s.l_map.images + (Word(),)),
        ) for s in splittings]
        calls = []
        for cls in (Word, FreeHom):
            def counted(self, *args, original=cls.__init__, **kwargs):
                calls.append(args)
                original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        stabilized = [stabilize(s) for s in splittings]
        twice = stabilize(stabilized[0])
        assert calls == []
        assert stabilized == checked
        assert [hash(s) for s in stabilized] == [hash(s) for s in checked]
        assert twice.k_map.images[-1].letters == ((4, 1),) and twice.u == 4

    def test_p1_is_det_of_the_glue_matrix(self):
        # P1 reads the transpose of the glue matrix; the sign must survive.
        for s in seeded_splittings(13):
            report = lambda_invariant(s, unitary(1))
            assert report.abs_value == abs(det(glue_matrix(s)))


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
            assert echelon(augmented) == echelon_reference(augmented)

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
    def test_degenerate_shapes(self, rows, cols):
        m = IntMat([[0] * cols for _ in range(rows)], cols=cols)
        t = m.transpose()
        assert_same_as_checked(t)
        assert (t.rows, t.cols) == (cols, rows)
        assert t.transpose() == m
        # No column has a pivot.
        assert echelon(m) == (0,) * cols

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


def reference_word_map(s) -> FreeHom:
    """The assembled word map through the checking constructors."""
    free1 = s.h1 - s.g1
    images = []
    for k_word, l_word in zip(s.k_map.images, s.l_map.images):
        letters = [(g - s.g1, e) for g, e in k_word.letters if g > s.g1]
        letters.extend((g + free1, -e) for g, e in reversed(l_word.letters))
        images.append(free_reduce(letters))
    return FreeHom(s.u, free1 + s.h2, tuple(images))


def splitting_with_g1(rng: random.Random, g1: int, h1: int) -> AdaptedSplitting:
    """A random T = 0 splitting with the given g1 and h1; h2 is drawn."""
    h2 = rng.randint(1, 4)
    u = h1 + h2 - g1
    return AdaptedSplitting(h1=h1, h2=h2, u=u, g1=g1,
                            k_map=random_free_hom(rng, u, h1),
                            l_map=random_free_hom(rng, u, h2))


class TestAssembledWordMap:
    """``assembled_word_map`` reduces its re-indexed letters without the
    checks of ``free_reduce``; its images are the reference's."""

    def assert_reference(self, s):
        f = assembled_word_map(s)
        reference = reference_word_map(s)
        assert f == reference and hash(f) == hash(reference)
        assert (f.source_rank, f.target_rank) == (reference.source_rank, reference.target_rank)
        assert all(type(letter) is tuple for w in f.images for letter in w.letters)
        return f

    def test_g1_zero(self):
        rng = random.Random(71)
        for _ in range(80):
            s = splitting_with_g1(rng, 0, rng.randint(1, 4))
            f = self.assert_reference(s)
            # Nothing is deleted or re-indexed in the H1 part.
            for k_word, image in zip(s.k_map.images, f.images):
                assert image.letters[:len(k_word.letters)] == k_word.letters

    def test_g1_equal_to_h1(self):
        rng = random.Random(72)
        for _ in range(80):
            h1 = rng.randint(1, 4)
            s = splitting_with_g1(rng, h1, h1)
            f = self.assert_reference(s)
            # Every H1 letter is a marked-surface letter and is deleted.
            assert all(g > 0 for w in f.images for g, _ in w.letters)

    def test_seeded_splittings(self):
        for s in seeded_splittings(73, 150):
            self.assert_reference(s)

    def test_cancellation_across_deleted_letters(self):
        # g1 = 1, h1 = 3, h2 = 1.  Deleting the marked g1 joins runs of the
        # free H1 generators, which cancel (first word) or merge (second)
        # up to the junction with the inverted, re-indexed H2 word.  The
        # two parts use disjoint target generators (1..2 and 3), so no run
        # crosses the junction itself.
        s = AdaptedSplitting(
            h1=3, h2=1, u=3, g1=1,
            k_map=FreeHom(3, 3, (parse_word("g2 g1 g2^-1"),
                                 parse_word("g3 g2 g1 g2 g1^-2 g2^-3"),
                                 parse_word("g1 g3^2 g1"))),
            l_map=FreeHom(3, 1, (parse_word("g1^2"), parse_word("g1^-1"), Word())),
        )
        f = self.assert_reference(s)
        assert [str(w) for w in f.images] == ["g3^-2", "g2 g1^-1 g3", "g2^2"]


class TestSlottedValues:
    """Value classes are slotted and frozen: no instance ``__dict__``, no
    assignment, and a checked copy equals and hashes like the value."""

    FIELDS = {
        "Word": ("letters",),
        "FreeHom": ("source_rank", "target_rank", "images"),
        "GroupKind": ("family", "n"),
        "AdaptedSplitting": ("h1", "h2", "u", "g1", "k_map", "l_map", "u_hat_genus",
                             "orientation_reversed"),
        "PairHomologyReport": ("betti1_M", "order_H2_M", "order_H2_pair", "restriction_iso"),
        "InvariantReport": ("kind", "abs_value", "sign", "K", "vanishing_reason"),
        "MultiIndex": ("I", "J"),
        "SnfResult": ("U", "D", "V", "diag"),
    }

    @staticmethod
    def values():
        s = det6_splitting()
        report = lambda_invariant(s, unitary(2))
        return [s.k_map.images[0], s.k_map, report.kind, s, pair_cohomology(s),
                report, MultiIndex(I=((1, 2),), J=((2, 1),)),
                smith_normal_form(IntMat([[2, 4], [6, 8]]))]

    def test_the_value_classes(self):
        assert [type(v).__name__ for v in self.values()] == [
            "Word", "FreeHom", "GroupKind", "AdaptedSplitting", "PairHomologyReport",
            "InvariantReport", "MultiIndex", "SnfResult"]

    def test_no_instance_dict(self):
        for value in self.values():
            assert not hasattr(value, "__dict__")
            assert type(value).__slots__ == self.FIELDS[type(value).__name__]

    def test_fields_cannot_be_assigned(self):
        for value in self.values():
            for name in type(value).__slots__:
                # dataclasses.FrozenInstanceError, InvariantReport's, is an
                # AttributeError too.
                with pytest.raises(AttributeError):
                    setattr(value, name, getattr(value, name))
            # A name that is not a field is refused too; some CPython
            # versions raise TypeError from a slotted frozen __setattr__.
            with pytest.raises((AttributeError, TypeError)):
                value.extra = 1
            assert not hasattr(value, "extra")

    def test_checked_copy_equal_and_hash(self):
        for value in self.values():
            copy = rebuilt(value)
            assert copy == value and hash(copy) == hash(value)

    def test_trusted_values_equal_checked_ones(self):
        parsed, _ = parse_splitting_document(DET6_DOCUMENT)
        built = det6_splitting()
        assert parsed == built and hash(parsed) == hash(built)
        for trusted in (parsed.k_map, parsed.l_map):
            checked = FreeHom(trusted.source_rank, trusted.target_rank,
                              tuple(Word(w.letters) for w in trusted.images))
            assert trusted == checked and hash(trusted) == hash(checked)

    def test_replace_still_validates(self):
        s = det6_splitting()
        with pytest.raises(InvalidSplittingError, match="negative codimension"):
            rebuilt(s, h1=1, g1=1, k_map=FreeHom(2, 1, (Word(), Word())))
        with pytest.raises(MalformedWordError):
            rebuilt(s.k_map.images[0], letters=((1, 1), (1, 1)))


class TestPublicConstructorsStillCheck:
    # Float entries, ragged rows and unreduced words: test_intlinalg.py
    # and test_words.py.
    def test_free_hom_generator_out_of_range(self):
        with pytest.raises(MalformedWordError, match="beyond target rank 2"):
            FreeHom(1, 2, (Word(((3, 1),)),))
