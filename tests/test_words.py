import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repcount import (
    FreeHom,
    IntMat,
    MalformedWordError,
    RankMismatchError,
    Word,
    abelianize,
    compose,
    format_word,
    free_reduce,
    parse_word,
)
from support import random_free_hom, random_word

raw_letters = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4),
              st.integers(min_value=-3, max_value=3)),
    max_size=12,
)


class TestFreeReduce:
    def test_cancellation(self):
        assert free_reduce([(1, 1), (1, -1)]) == Word()

    def test_merge(self):
        assert free_reduce([(1, 1), (1, 2)]) == Word(((1, 3),))

    def test_already_reduced(self):
        letters = ((1, 1), (2, 1), (1, -1))
        assert free_reduce(letters).letters == letters

    def test_cascading_cancellation(self):
        assert free_reduce([(1, 1), (2, 1), (2, -1), (1, -1)]) == Word()

    def test_zero_exponent_dropped(self):
        assert free_reduce([(1, 0), (2, 1)]) == Word(((2, 1),))

    def test_bad_index(self):
        with pytest.raises(MalformedWordError):
            free_reduce([(0, 1)])
        with pytest.raises(MalformedWordError):
            free_reduce([(-2, 1)])

    @given(raw_letters)
    def test_idempotent(self, letters):
        once = free_reduce(letters)
        assert free_reduce(once.letters) == once

    @given(raw_letters)
    def test_result_is_reduced(self, letters):
        w = free_reduce(letters)
        for (g1, e1), (g2, _) in zip(w.letters, w.letters[1:]):
            assert g1 != g2
            assert e1 != 0


class TestAbelianize:
    def test_identity(self):
        assert abelianize(FreeHom.identity(3)) == IntMat.identity(3)

    def test_power_map(self):
        for r in (-2, 1, 5):
            f = FreeHom(1, 1, (free_reduce([(1, r)]),))
            assert abelianize(f) == IntMat([[r]])

    def test_commutator_column(self):
        f = FreeHom(1, 2, (free_reduce([(1, 1), (2, 1), (1, -1), (2, -1)]),))
        assert abelianize(f) == IntMat([[0], [0]])

    def test_mixed(self):
        # a^2 b a^-1: hand sums of exponents are 1 for a and 1 for b
        f = FreeHom(1, 2, (free_reduce([(1, 2), (2, 1), (1, -1)]),))
        assert abelianize(f) == IntMat([[1], [1]])

    @given(raw_letters)
    def test_invariant_under_reduction(self, letters):
        raw_totals = [[sum(e for g, e in letters if g == k)] for k in range(1, 5)]
        assert abelianize(FreeHom(1, 4, (free_reduce(letters),))) == IntMat(raw_totals)

    def test_shape(self):
        f = random_free_hom(random.Random(0), 3, 2)
        a = abelianize(f)
        assert (a.rows, a.cols) == (2, 3)


class TestCompose:
    def test_identity_neutral(self):
        rng = random.Random(1)
        g = random_free_hom(rng, 3, 3)
        assert compose(FreeHom.identity(3), g) == g
        assert compose(g, FreeHom.identity(3)) == g

    def test_power_composition(self):
        sq = FreeHom(1, 1, (Word(((1, 2),)),))
        cube = FreeHom(1, 1, (Word(((1, 3),)),))
        assert compose(sq, cube).images[0] == Word(((1, 6),))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            compose(FreeHom.identity(2), FreeHom.identity(3))

    def test_functoriality_of_abelianize(self):
        # abelianize(f o g) == abelianize(f) @ abelianize(g) for random pairs
        rng = random.Random(2)
        for _ in range(60):
            a, b, c = (rng.randint(1, 4) for _ in range(3))
            f = random_free_hom(rng, b, c)
            g = random_free_hom(rng, a, b)
            assert abelianize(compose(f, g)) == abelianize(f) @ abelianize(g)


class TestWordOps:
    def test_inverse(self):
        w = free_reduce([(1, 2), (2, -1)])
        assert free_reduce(w.letters + w.inverse().letters) == Word()
        assert free_reduce(w.inverse().letters + w.letters) == Word()

    def test_constructor_rejects_unreduced(self):
        with pytest.raises(MalformedWordError):
            Word(((1, 1), (1, 1)))
        with pytest.raises(MalformedWordError):
            Word(((1, 0),))
        with pytest.raises(MalformedWordError):
            Word(((0, 1),))


class TestTextSyntax:
    @pytest.mark.parametrize("text,letters", [
        ("g3^-2", ((3, -2),)),
        ("g3", ((3, 1),)),
        ("g1 g2^2 g1^-1", ((1, 1), (2, 2), (1, -1))),
        ("", ()),
    ])
    def test_parse(self, text, letters):
        assert parse_word(text).letters == letters

    def test_parse_reduces(self):
        assert parse_word("g1 g1^-1") == Word()

    @pytest.mark.parametrize("bad", ["h1", "g0", "g1^", "g-1", "g1^^2", "1", "g2.0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(MalformedWordError):
            parse_word(bad)

    @pytest.mark.parametrize("bad", ["g1^" + "3" * 4400, "g" + "2" * 4400],
                             ids=["exponent", "generator"])
    def test_parse_rejects_overlong_number(self, bad):
        # Past CPython's str-to-int digit limit int() raises a bare ValueError.
        with pytest.raises(MalformedWordError, match="too long"):
            parse_word(bad)

    def test_roundtrip(self):
        rng = random.Random(3)
        for _ in range(50):
            w = random_word(rng, 4)
            assert parse_word(format_word(w)) == w
