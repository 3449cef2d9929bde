"""Free groups, freely reduced words, and homomorphisms between them.

Fundamental groups of surfaces with boundary and of handlebodies are free,
so all the splitting data downstream reduces to words and homomorphisms of
free groups.  Only the abelianization layer (signed exponent sums) is
consumed by the invariant pipelines; there is deliberately no word-problem,
Whitehead or Nielsen machinery here.

Generator indices are 1-based, matching the usual y_1, ..., y_N notation.
Words are stored run-length encoded as ``(generator_index, exponent)``
pairs, because input files use compact power notation, and are always
freely reduced.  The empty word is the identity.

All values are immutable and every operation is a pure function, so
everything in this module is safe for concurrent use.  ``Word`` and
``FreeHom`` are plain slotted classes that refuse assignment, as are the
package's other value classes, ``IntMat`` among them, but
``InvariantReport``, a frozen slotted dataclass: an instance holds its
fields and no ``__dict__``.

Letters are kept, not copied.  ``Word(...)`` and :func:`free_reduce` keep
each letter given as an exact ``tuple`` and build a new ``(index,
exponent)`` only for a list, a tuple subclass, or where two letters
merge; they check every letter either way.  ``_parse_word`` shares one
letter per distinct token among the words of a map.

Two ways to build each value.  ``Word(...)`` and ``FreeHom(...)`` are the
public constructors and check their data: letters that are reduced pairs
of ints, images within the target rank.  ``Word._trusted`` and
``FreeHom._trusted`` check nothing.  The package uses them only
where the checks are already done:
:func:`free_reduce` has checked every letter and merged every run as it
builds its word; ``_parse_word``, behind :func:`parse_word` and the
document parser, builds letters only from tokens its regular expression
matched and merges every run as :func:`free_reduce` does;
``splitting.assembled_word_map`` re-indexes the letters of validated maps
into its target range and merges the runs that deleting letters joins;
and the document parser builds a map trusted when every token it read, a
superset of the words' letters, is within the target rank.  A trusted
value equals and hashes like the checked one of the same data.
Otherwise the parser builds the map with the public ``FreeHom``, so a
letter that reduced away is not refused and a refusal names the first
reduced word at fault.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable

from .intlinalg import IntMat, _Frozen, _not_int, _slot_setters


class MalformedWordError(ValueError):
    """A letter uses a non-positive generator index or a bad exponent."""


class RankMismatchError(ValueError):
    """A negative rank, or an image count other than the source rank."""


class Word(_Frozen):
    """A freely reduced word, as a tuple of ``(index, exponent)`` runs.

    Construct words through :func:`free_reduce` (or :func:`parse_word`);
    the constructor insists the letters are already reduced.

    >>> free_reduce([(1, 1), (1, 2)])
    Word('g1^3')
    """

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[tuple[int, int], ...] = ()):
        # Unpacking refuses a letter that is not a pair; an exact tuple is
        # kept, anything else is rebuilt as one.
        letters = tuple([
            letter if type(letter) is tuple else (g, e)
            for letter in letters for g, e in (letter,)
        ])
        prev = None
        for index, exponent in letters:
            if ((type(index) is not int and _not_int(index))
                    or (type(exponent) is not int and _not_int(exponent))):
                raise MalformedWordError("letters must be pairs of ints")
            if index < 1:
                raise MalformedWordError(f"generator index {index} is not positive")
            if exponent == 0:
                raise MalformedWordError("zero exponent in a reduced word")
            if prev == index:
                raise MalformedWordError("adjacent letters share a generator; not reduced")
            prev = index
        _set_letters(self, letters)

    @classmethod
    def _trusted(cls, letters: tuple[tuple[int, int], ...]) -> Word:
        """A word of ``letters``, reduced pairs of ints, unchecked."""
        w = object.__new__(cls)
        _set_letters(w, letters)
        return w

    def max_index(self) -> int:
        """Largest generator index used, 0 for the identity word."""
        return max((g for g, _ in self.letters), default=0)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    def __str__(self) -> str:
        return format_word(self)


(_set_letters,) = _slot_setters(Word)


def free_reduce(letters: Iterable[tuple[int, int]]) -> Word:
    """Freely reduce a raw letter sequence into a :class:`Word`.

    Adjacent letters with the same generator are merged, zero exponents
    deleted, and cancellations cascade:

    >>> free_reduce([(1, 1), (2, 1), (2, -1), (1, -1)])
    Word('')
    """
    stack: list[tuple[int, int]] = []
    for letter in letters:
        index, exponent = letter
        if ((type(index) is not int and _not_int(index))
                or (type(exponent) is not int and _not_int(exponent))):
            raise MalformedWordError("letters must be pairs of ints")
        if index < 1:
            raise MalformedWordError(f"generator index {index} is not positive")
        if exponent == 0:
            continue
        if stack and stack[-1][0] == index:
            exponent = stack[-1][1] + exponent
            if exponent:
                stack[-1] = (index, exponent)
            else:
                stack.pop()
        else:
            stack.append(letter if type(letter) is tuple else (index, exponent))
    return Word._trusted(tuple(stack))


class FreeHom(_Frozen):
    """Homomorphism of free groups, recorded by generator images.

    ``images[i]`` is the image of the (i+1)-st source generator, a word
    over the target generators.
    """

    __slots__ = ("source_rank", "target_rank", "images")

    def __init__(self, source_rank: int, target_rank: int, images: tuple[Word, ...]):
        for name, rank in (("source_rank", source_rank), ("target_rank", target_rank)):
            if type(rank) is not int and _not_int(rank):
                raise TypeError(f"{name} must be an int, got {type(rank).__name__}")
        if source_rank < 0 or target_rank < 0:
            raise RankMismatchError("ranks must be nonnegative")
        images = tuple(images)
        if len(images) != source_rank:
            raise RankMismatchError(f"{len(images)} images for source rank {source_rank}")
        # One pass over every letter; the word at fault is sought only on failure.
        if max([g for w in images for g, _ in w.letters], default=0) > target_rank:
            w = next(w for w in images if w.max_index() > target_rank)
            raise MalformedWordError(
                f"image {w} uses generator beyond target rank {target_rank}"
            )
        _set_source_rank(self, source_rank)
        _set_target_rank(self, target_rank)
        _set_images(self, images)

    @classmethod
    def _trusted(cls, source_rank: int, target_rank: int, images: tuple[Word, ...]) -> FreeHom:
        """A map of ``images``, words within ``target_rank``, unchecked."""
        f = object.__new__(cls)
        _set_source_rank(f, source_rank)
        _set_target_rank(f, target_rank)
        _set_images(f, images)
        return f


_set_source_rank, _set_target_rank, _set_images = _slot_setters(FreeHom)


def abelianize(f: FreeHom) -> IntMat:
    """Matrix of the induced map on first homology, in the standard bases.

    The result has shape ``target_rank x source_rank`` with entry (k, i)
    equal to the exponent sum of target generator k in the image of source
    generator i; column i is the exponent vector of f(y_i).
    """
    rows = [[0] * f.source_rank for _ in range(f.target_rank)]
    # One pass per word: each letter adds its exponent to its row.
    for i, w in enumerate(f.images):
        for g, e in w.letters:
            rows[g - 1][i] += e
    return IntMat._trusted(tuple(map(tuple, rows)), f.source_rank)


# The one integer syntax of exponents, document fields and command-line
# numbers: an optional '-', then ASCII digits.  int() also takes '+', '_',
# spaces and non-ASCII digits.
_INTEGER = re.compile(r"-?[0-9]+")
_TOKEN = re.compile(rf"g([1-9][0-9]*)(?:\^({_INTEGER.pattern}))?\Z")


def _too_long(digits: str) -> str:
    """The one refusal of ``digits`` past CPython's str-to-int digit limit."""
    return (f"number of {len(digits.lstrip('-'))} digits is too long to read; "
            f"the limit is {sys.get_int_max_str_digits()} digits")


def _read_integer(text: str) -> int:
    """``text`` in the integer syntax, as an int; :class:`ValueError`
    otherwise, or past CPython's str-to-int digit limit."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(_too_long(text)) from None


def parse_word(text: str) -> Word:
    """Parse the word text syntax: whitespace-separated ``g3^-2`` tokens.

    ``g3`` means exponent +1 and the empty string is the identity word.
    A number past CPython's str-to-int digit limit (4,300 digits by
    default) is rejected with :class:`MalformedWordError`.
    """
    return _parse_word(text, {})


def _parse_word(text: str, table: dict[str, tuple[int, int]]) -> Word:
    """:func:`parse_word`, reading each distinct token once per ``table``.

    ``table`` maps a token already read to its ``(index, exponent)``
    letter; the caller passes one table for the words of one map.  A
    letter matched by ``_TOKEN`` holds a positive index and an int
    exponent, so the free reduction is done inline, without the checks of
    :func:`free_reduce`.
    """
    stack: list[tuple[int, int]] = []
    for token in text.split():
        letter = table.get(token)
        if letter is None:
            m = _TOKEN.match(token)
            if m is None:
                raise MalformedWordError(f"bad word token {token!r}")
            try:
                letter = (int(m.group(1)), int(m.group(2) or 1))
            except ValueError as exc:
                # Only CPython's str-to-int digit limit can fail on these digits.
                raise MalformedWordError(_too_long(max(m.groups(""), key=len))) from exc
            table[token] = letter
        index, exponent = letter
        if not exponent:
            continue
        if stack and stack[-1][0] == index:
            exponent += stack[-1][1]
            if exponent:
                stack[-1] = (index, exponent)
            else:
                stack.pop()
        else:
            stack.append(letter)
    return Word._trusted(tuple(stack))


def format_word(w: Word) -> str:
    """Inverse of :func:`parse_word`; the identity word prints as ''."""
    return " ".join(f"g{g}" if e == 1 else f"g{g}^{e}" for g, e in w.letters)
