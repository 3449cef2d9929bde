"""Integral exterior algebra of products of unitary groups, and degrees.

The integral cohomology of U(n) is an exterior algebra on primitive
generators x[j] of degree 2j+1 for j = 0, ..., n-1; for SU(n) the degree-1
generator is absent and the primitive degrees are 3, 5, ..., 2n-1.  The
cohomology of a product G^N is exterior on one copy of each generator per
factor, so a monomial is a set of (factor, generator) pairs and every
generator is odd, which fixes all signs by the Koszul rule.

Primitivity makes pullbacks through word maps linear: a word map multiplies
the degree-(2j+1) primitive span by the matrix of exponent sums,
independently of j.  The mapping degree of a word map is therefore a finite
symbolic expansion: pull the top class back factor by factor and read off
the coefficient of the top monomial.

The expansion runs one block per generator: for each x[j], the pullbacks
of x[j] on factors 1..N are wedged onto the unit.  A block holds only x[j]
pairs, so it ends as a single monomial, its keys never exceed N pairs, and
it never holds more than C(N, N//2) terms.  The degree is the product of
the blocks' top coefficients: moving the top class from factor-major to
block-major order and back applies the same sign twice, so no sign is left.

The expansion is done in full here, never shortcut to a determinant power:
every block is expanded term by term, none is reused or raised to the
rank-th power, so that it stays an independent pipeline and produces
an orientation sign.  Its work box is rank^2 * N * 2^N term steps, and
inputs past ``MAX_EXTERIOR_WORK`` are refused before expanding.  The
product-cylinder value is boxed the same way, with N = g - h.

Signs are relative to the lexicographic ordering of (factor, generator)
pairs; no claim is made about a preferred global orientation.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping

from .intlinalg import IntMat, ShapeError
from .words import FreeHom, abelianize

__all__ = [
    "GroupFamily",
    "GroupKind",
    "unitary",
    "special_unitary",
    "ExtElement",
    "AmbientMismatchError",
    "GeneratorRangeError",
    "ExteriorWorkLimitError",
    "MAX_EXTERIOR_WORK",
    "pullback_primitive",
    "degree_of_word_map",
    "cylinder_monomial_value",
]


class GroupFamily(enum.Enum):
    UNITARY = "U"
    SPECIAL_UNITARY = "SU"


class GeneratorRangeError(ValueError):
    """Generator index outside the family's primitive range."""


class AmbientMismatchError(ValueError):
    """Operands live in different ambient algebras."""


class ExteriorWorkLimitError(ValueError):
    """An expansion would exceed ``MAX_EXTERIOR_WORK`` term steps."""


# Work (rank^2 * N * 2^N) an expansion may take.  A unit of it took at
# most about 1 us under CPython 3.11 on a 3.3 GHz AMD EPYC vCPU, so the box
# stops a single expansion near ten seconds there.  The rank^2 factor is
# for the product-cylinder expansion, whose keys grow to rank * N pairs;
# P2's block keys hold at most N pairs.
MAX_EXTERIOR_WORK = 10_000_000


def _require_work_in_box(kind: GroupKind, n: int, what: str) -> None:
    """Raise :class:`ExteriorWorkLimitError` when rank^2 * n * 2^n is past
    ``MAX_EXTERIOR_WORK``: rank blocks of about n * 2^n term steps each, on
    keys of up to rank * n pairs in the product-cylinder expansion."""
    rank = kind.lie_rank
    # From n = bit_length on, 2^n alone is past the limit; testing n first
    # keeps a huge n from building a huge estimate.
    if n >= MAX_EXTERIOR_WORK.bit_length() or rank * rank * n << n > MAX_EXTERIOR_WORK:
        raise ExteriorWorkLimitError(
            f"{what} for {kind.label} at N = {n} is past the limit of "
            f"{MAX_EXTERIOR_WORK} term steps (rank^2 * N * 2^N)"
        )


@dataclass(frozen=True)
class GroupKind:
    """One of the groups U(n) or SU(n), n >= 1 (n >= 2 for SU)."""

    family: GroupFamily
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.family is GroupFamily.SPECIAL_UNITARY and self.n < 2:
            raise ValueError("SU(n) requires n >= 2")

    @property
    def lie_rank(self) -> int:
        """Count of primitive generators: n for U(n), n-1 for SU(n)."""
        if self.family is GroupFamily.UNITARY:
            return self.n
        return self.n - 1

    @property
    def generator_range(self) -> range:
        """Indices j of the primitive generators x[j], of degree 2j+1, as a
        range: membership costs O(1) whatever n is."""
        return range(0 if self.family is GroupFamily.UNITARY else 1, self.n)

    @property
    def label(self) -> str:
        return f"{self.family.value}({self.n})"


def unitary(n: int) -> GroupKind:
    return GroupKind(GroupFamily.UNITARY, n)


def special_unitary(n: int) -> GroupKind:
    return GroupKind(GroupFamily.SPECIAL_UNITARY, n)


class ExtElement:
    """Element of the exterior algebra of H*(G^N, Z).

    ``terms`` maps a sorted tuple of (factor k, generator j) pairs, each
    pair at most once, to a nonzero integer coefficient.  Instances are
    immutable; arithmetic returns new elements.
    """

    __slots__ = ("kind", "n_factors", "terms")

    def __init__(self, kind: GroupKind, n_factors: int,
                 terms: Mapping[tuple, int] | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n_factors", int(n_factors))
        clean = {key: coeff for key, coeff in (terms or {}).items() if coeff != 0}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExtElement is immutable")

    @classmethod
    def zero(cls, kind: GroupKind, n_factors: int) -> "ExtElement":
        return cls(kind, n_factors)

    @classmethod
    def unit(cls, kind: GroupKind, n_factors: int) -> "ExtElement":
        return cls(kind, n_factors, {(): 1})

    @classmethod
    def monomial(cls, kind: GroupKind, n_factors: int, coeff: int,
                 pairs: Iterable[tuple[int, int]]) -> "ExtElement":
        """Build ``coeff`` times the wedge of the given (factor, generator)
        pairs, in the order given; sorting contributes the permutation sign
        and a repeated pair collapses the monomial to zero."""
        seq = tuple(pairs)
        for k, j in seq:
            if not 1 <= k <= n_factors:
                raise GeneratorRangeError(f"factor {k} outside 1..{n_factors}")
            if j not in kind.generator_range:
                raise GeneratorRangeError(
                    f"generator index {j} invalid for {kind.label}"
                )
        return cls(kind, n_factors, cls._wedge_terms({(): coeff}, {seq: 1}))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_ambient(self, other: "ExtElement") -> None:
        if self.kind != other.kind or self.n_factors != other.n_factors:
            raise AmbientMismatchError(
                f"ambient mismatch: {self.kind.label}^{self.n_factors} vs "
                f"{other.kind.label}^{other.n_factors}"
            )

    def __add__(self, other: "ExtElement") -> "ExtElement":
        if not isinstance(other, ExtElement):
            return NotImplemented
        self._check_ambient(other)
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return ExtElement(self.kind, self.n_factors, merged)

    def __neg__(self) -> "ExtElement":
        return ExtElement(self.kind, self.n_factors,
                          {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "ExtElement":
        if not isinstance(scalar, int):
            return NotImplemented
        return ExtElement(self.kind, self.n_factors,
                          {k: scalar * c for k, c in self.terms.items()})

    @staticmethod
    def _wedge_terms(a: Mapping[tuple, int], b: Mapping[tuple, int]) -> dict[tuple, int]:
        """Product of two term maps.  Each pair of a ``b`` monomial, in the
        order given, is inserted at its sorted position in the ``a``
        monomial: the sign flips once per pair it moves past, and a repeated
        pair drops the term."""
        out: dict[tuple, int] = {}
        for key_a, ca in a.items():
            for key_b, cb in b.items():
                key, coeff = key_a, ca * cb
                for pair in key_b:
                    pos = bisect_left(key, pair)
                    size = len(key)
                    if pos < size and key[pos] == pair:
                        break
                    if (size - pos) % 2:
                        coeff = -coeff
                    key = key[:pos] + (pair,) + key[pos:]
                else:
                    out[key] = out.get(key, 0) + coeff
        return out

    def wedge(self, other: "ExtElement") -> "ExtElement":
        """Graded-commutative product; repeated pairs annihilate."""
        self._check_ambient(other)
        return ExtElement(self.kind, self.n_factors,
                          self._wedge_terms(self.terms, other.terms))

    def wedge_power(self, e: int) -> "ExtElement":
        if e < 0:
            raise ValueError("negative wedge power")
        acc = ExtElement.unit(self.kind, self.n_factors)
        for _ in range(e):
            acc = acc.wedge(self)
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtElement):
            return NotImplemented
        return (self.kind == other.kind and self.n_factors == other.n_factors
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.kind, self.n_factors, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return "ExtElement(0)"
        parts = []
        for key in sorted(self.terms):
            factors = "^".join(f"x{j}[{k}]" for k, j in key) or "1"
            parts.append(f"{self.terms[key]}*{factors}")
        return "ExtElement(" + " + ".join(parts) + ")"


def pullback_primitive(m: IntMat, i: int, j: int, kind: GroupKind) -> ExtElement:
    """Pullback of the i-th factor's primitive generator x[j] through the
    word map with exponent-sum matrix ``m``.

    ``m`` is in the row convention: m[i][k] is the exponent sum of the k-th
    domain generator in the word giving target coordinate i, i.e. the
    transpose of the abelianization matrix.  The result is the linear class
    sum_k m[i][k] x[j]-of-factor-k, the same coefficient vector for every
    valid j.
    """
    if j not in kind.generator_range:
        raise GeneratorRangeError(f"generator index {j} invalid for {kind.label}")
    if not 1 <= i <= m.rows:
        raise GeneratorRangeError(f"target factor {i} outside 1..{m.rows}")
    n_factors = m.cols
    terms = {}
    for k in range(1, n_factors + 1):
        coeff = m[i - 1, k - 1]
        if coeff != 0:
            terms[((k, j),)] = coeff
    return ExtElement(kind, n_factors, terms)


def _top_key(kind: GroupKind, n_factors: int) -> tuple:
    return tuple(sorted((k, j) for k in range(1, n_factors + 1)
                 for j in kind.generator_range))


def degree_of_word_map(f: FreeHom, kind: GroupKind) -> int:
    """Signed mapping degree of the self-map of G^N induced by ``f``.

    Computed by pulling the top cohomology class back through the map and
    expanding symbolically, one block per generator j: the unit wedged
    with the pullbacks of x[j] on all N factors, which leaves one
    monomial.  The degree is the product of the blocks' top coefficients,
    each read at ((1, j), ..., (N, j)); no reordering sign is left over.
    Every block is expanded; none is reused as a power, so this stays an
    expansion, not a determinant power.  The sign is relative to the
    lexicographic generator ordering; the absolute value equals |det| of
    the abelianization raised to the number of primitive generators.

    Raises :class:`ExteriorWorkLimitError` before expanding when
    rank^2 * N * 2^N exceeds ``MAX_EXTERIOR_WORK``.
    """
    if f.source_rank != f.target_rank:
        raise ShapeError(
            f"word map must be endomorphism-shaped, got {f.source_rank} -> {f.target_rank}"
        )
    n_factors = f.source_rank
    _require_work_in_box(kind, n_factors, "degree expansion")
    m_rows = abelianize(f).transpose()
    degree = 1
    for j in kind.generator_range:
        block = ExtElement.unit(kind, n_factors)
        for i in range(1, n_factors + 1):
            block = block.wedge(pullback_primitive(m_rows, i, j, kind))
            if block.is_zero:
                return 0
        degree *= block.terms.get(tuple((k, j) for k in range(1, n_factors + 1)), 0)
    return degree


def cylinder_monomial_value(g_minus_h: int, kind: GroupKind) -> int:
    """Evaluate the product of the paired-surface classes on the cycle
    G^(2(g-h)).

    The ambient is a product of 2(g-h) factors grouped into pairs
    (a-side, b-side).  For each primitive generator index j the class
    y_j = sum_p a_j^(p) ^ b_j^(p) is formed; the value is the coefficient
    of the top monomial in prod_j y_j^(g-h).  Its absolute value is
    ((g-h)!)^lie_rank.

    Each y_j^(g-h) holds up to C(g-h, (g-h)/2) terms, so this raises
    :class:`ExteriorWorkLimitError` before expanding when
    rank^2 * (g-h) * 2^(g-h) exceeds ``MAX_EXTERIOR_WORK``.
    """
    if g_minus_h < 1:
        raise ValueError("g_minus_h must be at least 1")
    _require_work_in_box(kind, g_minus_h, "product-cylinder expansion")
    m = g_minus_h
    n_factors = 2 * m
    acc = ExtElement.unit(kind, n_factors)
    for j in kind.generator_range:
        y_j = ExtElement.zero(kind, n_factors)
        for p in range(1, m + 1):
            y_j = y_j + ExtElement.monomial(
                kind, n_factors, 1, [(2 * p - 1, j), (2 * p, j)]
            )
        acc = acc.wedge(y_j.wedge_power(m))
        if acc.is_zero:
            return 0
    return acc.terms.get(_top_key(kind, n_factors), 0)
