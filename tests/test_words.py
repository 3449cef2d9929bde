import random
import re
from collections import namedtuple

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
    format_word,
    free_reduce,
    parse_word,
)
from repcount.words import _parse_word
from support import (
    composite,
    identity_hom,
    identity_matrix,
    p3_scale_document,
    random_free_hom,
    random_word,
)

Pair = namedtuple("Pair", "index exponent")
Triple = namedtuple("Triple", "index exponent extra")

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


class TestLettersKept:
    """``free_reduce`` and ``Word(...)`` keep a letter given as an exact
    tuple; only a list, a tuple subclass or a merge builds a new one."""

    @pytest.mark.parametrize("build", [free_reduce, Word])
    def test_exact_tuples_kept(self, build):
        a, b, c = (1, 2), (2, -1), (1, 5)
        w = build((a, b, c))
        assert w.letters == ((1, 2), (2, -1), (1, 5))
        assert all(kept is given for kept, given in zip(w.letters, (a, b, c)))

    @pytest.mark.parametrize("build", [free_reduce, Word])
    def test_lists_and_subclasses_made_plain(self, build):
        w = build([[1, 2], Pair(2, -1), (3, 1)])
        assert w == Word(((1, 2), (2, -1), (3, 1)))
        assert hash(w) == hash(Word(((1, 2), (2, -1), (3, 1))))
        assert all(type(letter) is tuple for letter in w.letters)

    def test_merges_build_new_letters(self):
        a, b, c = (1, 2), (1, 3), (2, 1)
        w = free_reduce([a, b, c, (2, -1), (2, 4)])
        assert w.letters == ((1, 5), (2, 4))
        assert all(type(letter) is tuple for letter in w.letters)
        # The run (2, 1) (2, -1) cancels before (2, 4), which is kept.
        w = free_reduce([c, (2, -1), (3, 1)])
        assert w.letters == ((3, 1),)

    @given(raw_letters)
    def test_same_word_from_lists_and_tuples(self, letters):
        as_lists = [list(letter) for letter in letters]
        assert free_reduce(letters) == free_reduce(as_lists)
        assert free_reduce(letters).letters == free_reduce(as_lists).letters

    @pytest.mark.parametrize("build", [free_reduce, Word])
    @pytest.mark.parametrize("letter,error,message", [
        ((1, 1, 1), ValueError, "too many values to unpack"),
        ([1, 1, 1], ValueError, "too many values to unpack"),
        (Triple(1, 1, 1), ValueError, "too many values to unpack"),
        ((1,), ValueError, "not enough values to unpack"),
        ((1.0, 1), MalformedWordError, "pairs of ints"),
        ((1, 1.0), MalformedWordError, "pairs of ints"),
        ((0, 1), MalformedWordError, "index 0 is not positive"),
    ])
    def test_bad_letters_still_refused(self, build, letter, error, message):
        with pytest.raises(error, match=message):
            build([(2, 1), letter])


class TestAbelianize:
    def test_identity(self):
        assert abelianize(identity_hom(3)) == identity_matrix(3)

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
    """Abelianization of composites, built by the tests' ``composite``."""

    def test_functoriality_of_abelianize(self):
        # abelianize(f o g) == abelianize(f) @ abelianize(g) for random pairs
        rng = random.Random(2)
        for _ in range(60):
            a, b, c = (rng.randint(1, 4) for _ in range(3))
            f = random_free_hom(rng, b, c)
            g = random_free_hom(rng, a, b)
            assert abelianize(composite(f, g)) == abelianize(f) @ abelianize(g)


class TestWordOps:
    def test_constructor_rejects_unreduced(self):
        with pytest.raises(MalformedWordError):
            Word(((1, 1), (1, 1)))
        with pytest.raises(MalformedWordError):
            Word(((1, 0),))
        with pytest.raises(MalformedWordError):
            Word(((0, 1),))

    def test_hom_rejects_wrong_image_count(self):
        with pytest.raises(RankMismatchError):
            FreeHom(2, 1, (Word(),))
        with pytest.raises(RankMismatchError):
            FreeHom(-1, 1, ())

    @pytest.mark.parametrize("ranks,message", [
        ((2.0, 2), "source_rank must be an int, got float"),
        ((0, True), "target_rank must be an int, got bool"),
    ], ids=["float", "bool"])
    def test_hom_refuses_a_non_int_rank(self, ranks, message):
        with pytest.raises(TypeError) as err:
            FreeHom(*ranks, ())
        assert str(err.value) == message


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


def seeded_word_text(rng: random.Random, rank: int) -> str:
    """Word text with repeated, cancelling, zero and zero-padded powers."""
    tokens = []
    for _ in range(rng.randint(0, 12)):
        g = rng.randint(1, rank)
        e = rng.choice(("", "^1", "^-1", "^2", "^-3", "^0", "^-0", "^007", "^-02"))
        tokens.append(f"g{g}{e}")
        if rng.random() < 0.3:
            tokens.append(f"g{g}^{rng.choice((-1, 1))}")
    return rng.choice((" ", "  ", "\t")).join(tokens)


def free_reduce_reference(text: str) -> Word:
    """Tokens read by one regular expression and reduced by the checked
    :func:`free_reduce`, apart from the parser's own reduction."""
    pairs = re.findall(r"g([1-9][0-9]*)(?:\^(-?[0-9]+))?(?:\s|$)", text)
    return free_reduce([(int(g), int(e or 1)) for g, e in pairs])


class TestTokenTable:
    """``_parse_word`` with one table shared by the words of a map."""

    def test_shared_table_matches_parse_word(self):
        rng = random.Random(29)
        documents = [line.split("=", 1)[1]
                     for u in (3, 8, 17) for line in p3_scale_document(u).splitlines()
                     if line.startswith(("k_map", "l_map"))]
        for _ in range(40):
            rank = rng.randint(1, 6)
            documents.append(" ; ".join(seeded_word_text(rng, rank) for _ in range(6)))
        for document in documents:
            table = {}
            for chunk in document.split(";"):
                word = _parse_word(chunk, table)
                assert word.letters == parse_word(chunk).letters
                assert word == free_reduce_reference(chunk)
                Word(word.letters)  # the checked constructor accepts it

    @pytest.mark.parametrize("bad, message", [
        ("g1 g2^2 x7", "bad word token 'x7'"),
        ("g2^2 g1^+2", "bad word token 'g1^+2'"),
        ("g1 g0", "bad word token 'g0'"),
        ("g1 g2^" + "3" * 4400,
         "number of 4400 digits is too long to read; the limit is 4300 digits"),
        ("g2 g" + "1" * 4301,
         "number of 4301 digits is too long to read; the limit is 4300 digits"),
    ], ids=["unknown", "plus-sign", "index-0", "long-exponent", "long-index"])
    def test_errors_after_good_tokens(self, bad, message):
        table = {}
        _parse_word("g1 g2^2 g1^-1", table)
        assert table
        with pytest.raises(MalformedWordError) as shared:
            _parse_word(bad, table)
        with pytest.raises(MalformedWordError) as fresh:
            parse_word(bad)
        assert str(shared.value) == str(fresh.value) == message
        assert ("too long" in message) == isinstance(shared.value.__cause__, ValueError)

    def test_letters_that_reduce_away(self):
        table = {}
        assert _parse_word("g5^0", table) == Word()
        assert _parse_word("g2 g5 g5^-1 g2^-1 g1", table) == Word(((1, 1),))
        assert _parse_word("g5^0 g5", table) == Word(((5, 1),))
