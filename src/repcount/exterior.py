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
pairs, so it ends as a single monomial, and it is kept as a dict from an
int bitmask over the N factors to a coefficient.  The pullback matrix's
rows are read once off the words, in the row step's (1 << k, k, e) form.
Wedging on factor k flips the sign once per factor above k already in
the term, and a term holding k drops.  Once no later row touches factor
k, a term without k can never reach the top monomial, so it is dropped
at once (the support dynamic program of Cifuentes & Parrilo, Linear
Algebra Appl. 493, 2016).
The degree is the product of the blocks' top coefficients: moving the top
class from factor-major to block-major order and back applies the same
sign twice, so no sign is left.

The expansion is done in full here, never shortcut to a determinant power:
every block is expanded term by term, none is reused or raised to the
rank-th power, so that it stays an independent pipeline and produces
an orientation sign.  Its work is boxed before expanding by a frontier
bound read off the support: after i rows a block holds at most
C(open, i - closed) terms, where a factor is closed once no later row
touches it and open if touched but not closed.  Inputs whose rank^2 times
the sum F of those counts (each times the next row's support) is past
``MAX_EXTERIOR_WORK`` are refused.  F is at most N * 2^N; it is 103 for
the determinant-6 example stabilized to N = 102.  The box reads the
worst case rank^2 * N * 2^N first and sums the exact F only when that
could pass the limit, so it admits and refuses exactly the inputs the
exact sum alone would.  The check is cheaper than the sum: on the 1,645
maps of 2,000 corpus-shaped splittings that touch every factor, it took
0.13-0.3 us a call and the sum 2.4-4.5 us, of 17-22 us for a whole U(2)
degree (CPython 3.11, 2-vCPU Intel Xeon VM).  The product-cylinder value
runs through the same block loop, one block per y_j^(g-h) over 2(g-h)
factors, and is boxed by the worst case, rank^2 * N * 2^N, N = g - h.

Signs are relative to the lexicographic ordering of (factor, generator)
pairs; no claim is made about a preferred global orientation.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping
from math import comb
from types import MappingProxyType

from .intlinalg import ShapeError, _Frozen, _not_int, _slot_setters
from .words import FreeHom


class GeneratorRangeError(ValueError):
    """Generator index outside the family's primitive range."""


class AmbientMismatchError(ValueError):
    """Operands live in different ambient algebras."""


class ExteriorWorkLimitError(ValueError):
    """An expansion would exceed ``MAX_EXTERIOR_WORK`` term steps."""


# Term steps (times rank^2) an expansion may take.  A step on bitmask keys
# took about 0.1-0.15 us under CPython 3.11 on an AMD EPYC vCPU, so the box
# stops P2 within a second or two there (dense U(1) at N = 19: 1.5 s).  Both
# expansions run on bitmask keys, so the rank^2 factor only caps the Lie
# rank.  It does not bound the answer |det|^rank, whose size has no box yet.
MAX_EXTERIOR_WORK = 10_000_000

# The group families, by their text in documents, flags and output.
GROUPS = ("U", "SU")


class GroupKind(_Frozen):
    """One of the groups U(n) or SU(n), n >= 1 (n >= 2 for SU); ``family``
    is its text in ``GROUPS``."""

    __slots__ = ("family", "n")

    def __init__(self, family: str, n: int):
        if family not in GROUPS:
            raise ValueError(f"group must be 'U' or 'SU', got {family!r}")
        if type(n) is not int and _not_int(n):
            raise TypeError(f"n must be an int, got {type(n).__name__}")
        if n < 1:
            raise ValueError("n must be at least 1")
        if family == "SU" and n < 2:
            raise ValueError("SU(n) requires n >= 2")
        _set_family(self, family)
        _set_n(self, n)

    @property
    def lie_rank(self) -> int:
        """Count of primitive generators: n for U(n), n-1 for SU(n)."""
        return self.n if self.family == "U" else self.n - 1

    @property
    def generator_range(self) -> range:
        """Indices j of the primitive generators x[j], of degree 2j+1, as a
        range: membership costs O(1) whatever n is."""
        return range(0 if self.family == "U" else 1, self.n)

    @property
    def label(self) -> str:
        return f"{self.family}({self.n})"


_set_family, _set_n = _slot_setters(GroupKind)


def unitary(n: int) -> GroupKind:
    return GroupKind("U", n)


def special_unitary(n: int) -> GroupKind:
    return GroupKind("SU", n)


class ExtElement(_Frozen):
    """Element of the exterior algebra of H*(G^N, Z).

    ``terms`` maps a sorted tuple of (factor k, generator j) pairs, each
    pair at most once, to a nonzero integer coefficient; it is a read-only
    view, so no holder of an element can change it.  Arithmetic
    returns new elements.  No expansion here calls it: it is kept apart
    from the bitmask kernel as an independent reference for the tests, and
    the benchmark's tracer counts its wedges.  An element is not hashable,
    as its ``terms`` view is not.
    """

    __slots__ = ("kind", "n_factors", "terms")

    def __init__(self, kind: GroupKind, n_factors: int, terms: Mapping[tuple, int] | None = None):
        _set_kind(self, kind)
        _set_n_factors(self, int(n_factors))
        _set_terms(self, MappingProxyType(
            {key: coeff for key, coeff in (terms or {}).items() if coeff != 0}))

    def __reduce__(self):
        # The read-only view does not pickle; the constructor takes a dict.
        return ExtElement, (self.kind, self.n_factors, dict(self.terms))

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

    def __repr__(self) -> str:
        if self.is_zero:
            return "ExtElement(0)"
        parts = []
        for key in sorted(self.terms):
            factors = "^".join(f"x{j}[{k}]" for k, j in key) or "1"
            parts.append(f"{self.terms[key]}*{factors}")
        return "ExtElement(" + " + ".join(parts) + ")"


_set_kind, _set_n_factors, _set_terms = _slot_setters(ExtElement)


def _row_supports(f: FreeHom) -> tuple[list[list[tuple[int, int, int]]], list[int] | None]:
    """The rows of the pullback matrix, the transpose of the abelianization,
    and their closing masks, read off the words in one pass over the
    letters.  Row i holds a (1 << k, k, exponent sum) triple, k 0-based,
    for each factor k with a nonzero sum in the word giving target
    coordinate i, in the form :func:`_wedge_row` takes.  Bit k of mask i
    is set when row i is the last to touch factor k; the masks are None
    when a factor is untouched, where the degree is 0.  No dense N x N
    matrix is built."""
    rows = []
    last_row: dict[int, int] = {}
    for i, w in enumerate(f.images):
        sums: dict[int, int] = {}
        for g, e in w.letters:
            sums[g - 1] = sums.get(g - 1, 0) + e
        rows.append(row := [(1 << k, k, e) for k, e in sums.items() if e])
        for _, k, _ in row:
            last_row[k] = i
    if len(last_row) < f.target_rank:
        return rows, None
    closing = [0] * len(rows)
    for k, i in last_row.items():
        closing[i] |= 1 << k
    return rows, closing


def _frontier_work(rows: list, closing: list[int], limit: int) -> int:
    """F, a bound on one block's term steps computed from the support.

    After i rows a block's terms are i-subsets of the factors those rows
    touch that hold every closed factor (one no later row touches), so
    there are at most C(open, i - closed) of them, and row i + 1 takes
    |supp(row i + 1)| steps on each.  F <= N * 2^N.  The sum stops as soon
    as it passes ``limit``.
    """
    work = closed = 0
    seen: set[int] = set()
    for i, row in enumerate(rows):
        if i >= closed:
            work += comb(len(seen) - closed, i - closed) * len(row)
            if work > limit:
                break
        seen.update(k for _, k, _ in row)
        closed += closing[i].bit_count()
    return work


def _past_worst_case(n: int, rank: int) -> bool:
    """Whether rank^2 * n * 2^n exceeds ``MAX_EXTERIOR_WORK``, read at the
    call.  From n = bit_length on (n >= 1), 2^n alone does, so testing n
    first keeps a huge n from building a huge product."""
    limit = MAX_EXTERIOR_WORK
    return n > 0 and n >= limit.bit_length() or rank * rank * n << n > limit


def _wedge_row(block: dict[int, int], row: list, need: int) -> dict[int, int]:
    """One row step of a block: wedge with the row's terms, then drop the
    terms that lack a factor of the mask ``need``.

    ``row`` holds (bits, k, e), the term e times the wedge of the factors in
    ``bits``.  A term sharing a factor with ``bits`` drops; otherwise the
    sign flips once per factor of the term at or above k.  P2 passes
    (1 << k, k, e): factor k moves past the factors above it.  The product
    cylinder passes an adjacent pair with k at the block's width: each
    factor above the pair is passed twice, so no sign flips.
    """
    out: dict[int, int] = {}
    for mask, coeff in block.items():
        for bits, k, e in row:
            if mask & bits:
                continue
            key = mask | bits
            step = -e * coeff if (mask >> k).bit_count() & 1 else e * coeff
            out[key] = out.get(key, 0) + step
    return {m: c for m, c in out.items() if c and m & need == need}


def _expand(steps: list, width: int, kind: GroupKind) -> int:
    """The product of one block per generator of ``kind``: the unit wedged
    along ``steps``, (row, need) pairs for :func:`_wedge_row`, then read at
    the top monomial of ``width`` factors.  0 once a block empties.  Every
    block is expanded in full; none is reused or raised to a power."""
    value = 1
    for _ in kind.generator_range:
        block = {0: 1}
        for row, need in steps:
            block = _wedge_row(block, row, need)
            if not block:
                return 0
        value *= block[(1 << width) - 1]
    return value


def degree_of_word_map(f: FreeHom, kind: GroupKind) -> int:
    """Signed mapping degree of the self-map of G^N induced by ``f``.

    Computed by pulling the top cohomology class back through the map and
    expanding symbolically, one block per generator j: the unit wedged
    with the pullbacks of x[j] on all N factors, which leaves one
    monomial.  A block maps a bitmask of factors to its coefficient; a
    factor no later row touches must already be in a term, or the term is
    dropped.  The degree is the product of the blocks' top coefficients,
    each read at ((1, j), ..., (N, j)); no reordering sign is left over.
    The sign is relative to the lexicographic generator ordering; the
    absolute value equals |det| of the abelianization raised to the number
    of primitive generators.

    Raises :class:`ExteriorWorkLimitError` before expanding when rank^2
    times the support's frontier bound exceeds ``MAX_EXTERIOR_WORK``.
    """
    if f.source_rank != f.target_rank:
        raise ShapeError(
            f"word map must be endomorphism-shaped, got {f.source_rank} -> {f.target_rank}"
        )
    n_factors = f.source_rank
    rows, closing = _row_supports(f)
    if closing is None:
        return 0  # no pullback holds an untouched factor's generators
    limit = MAX_EXTERIOR_WORK // kind.lie_rank ** 2
    # F <= N * 2^N, so the exact sum is needed only when that could pass
    # the limit.
    if _past_worst_case(n_factors, kind.lie_rank) and _frontier_work(rows, closing, limit) > limit:
        raise ExteriorWorkLimitError(
            f"degree expansion for {kind.label} at N = {n_factors} is past the "
            f"limit of {MAX_EXTERIOR_WORK} term steps (rank^2 * F, F from the "
            "support frontier)"
        )
    return _expand(list(zip(rows, closing)), n_factors, kind)


def cylinder_monomial_value(g_minus_h: int, kind: GroupKind) -> int:
    """Evaluate the product of the paired-surface classes on the cycle
    G^(2(g-h)).

    The ambient is a product of 2(g-h) factors grouped into pairs
    (a-side, b-side).  For each primitive generator index j the class
    y_j = sum_p a_j^(p) ^ b_j^(p) is formed; the value is the coefficient
    of the top monomial in prod_j y_j^(g-h).  Its absolute value is
    ((g-h)!)^lie_rank.

    Block j expands y_j^(g-h) on bitmasks over the 2(g-h) factors, one row
    of pair terms per power.  Moving the top class from block-major to
    factor-major order takes C(rank, 2) * C(2(g-h), 2) transpositions, of
    the parity of C(rank, 2) * (g-h).

    A block holds up to C(g-h, (g-h)/2) terms, so this raises
    :class:`ExteriorWorkLimitError` before expanding when
    rank^2 * (g-h) * 2^(g-h) exceeds ``MAX_EXTERIOR_WORK``.
    """
    if g_minus_h < 1:
        raise ValueError("g_minus_h must be at least 1")
    m, rank = g_minus_h, kind.lie_rank
    if _past_worst_case(m, rank):
        raise ExteriorWorkLimitError(
            f"product-cylinder expansion for {kind.label} at N = {m} is past the "
            f"limit of {MAX_EXTERIOR_WORK} term steps (rank^2 * N * 2^N)"
        )
    row = [(3 << 2 * p, 2 * m, 1) for p in range(m)]
    value = _expand([(row, 0)] * m, 2 * m, kind)
    return -value if comb(rank, 2) * m & 1 else value
