"""Adapted splitting data for a pair (3-manifold, boundary subsurface).

An adapted handlebody decomposition M = H1 u H2 with separating surface
U = H1 n H2 is recorded purely at the fundamental-group level: the free
ranks h1, h2, u, the rank g1 of the marked boundary subsurface, and the two
inclusion-induced homomorphisms pi_1(U) -> pi_1(H1), pi_1(U) -> pi_1(H2).
By convention the first g1 generators of pi_1(H1) are the marked-surface
generators, since H1 arises from a collar of that surface by adding
handles, splitting pi_1(H1) as the free product of pi_1 of the surface and
a free complement.

Any algebraically consistent data is accepted; whether it arises from an
actual 3-manifold with the stated boundary decomposition is the caller's
responsibility.  The invariant computations only consume the free-group
data.

Cohomology is contravariant, so the pullback maps b, c on first cohomology
are the transposes of the pi_1-level abelianizations.  That orientation of
the maps is fixed once here and reused by the invariant pipelines.  The
cohomology of M and of the pair is read off the pivots of one
transform-free integer echelon form (``intlinalg.echelon``), so no Smith
normal form is built and the entries stay small.

The codimension count is T = (h1 + h2 - u) - g1, the difference of Euler
characteristics of the marked surface and of M.  The numerical invariant
lives at T = 0.
"""

from __future__ import annotations

import math

from . import intlinalg
from .exterior import GROUPS, GroupKind
from .intlinalg import INFINITE, IntMat, _Frozen, _not_int, _slot_setters
from .words import (
    FreeHom,
    MalformedWordError,
    RankMismatchError,
    Word,
    _parse_word,
    _read_integer,
    format_word,
)


class InvalidSplittingError(ValueError):
    """A splitting was constructed from data with validation violations.

    Carries the validation report: ``violations``, the codimension ``T``
    and its ``warnings``.  The document parser also sets ``kind``, the
    document's group (None otherwise).
    """

    def __init__(self, violations: list[str], T: int, warnings: list[str]):
        super().__init__("invalid splitting: " + "; ".join(violations))
        self.violations = violations
        self.T = T
        self.warnings = warnings
        self.kind = None


class DocumentError(ValueError):
    """Malformed splitting document."""


class AdaptedSplitting(_Frozen):
    """Combinatorial encoding of an adapted handlebody decomposition.

    ``u_hat_genus`` is the genus of the capped-off separating surface; it
    is user-supplied data (defaulted to u) because it is not derivable from
    the free rank alone without boundary-circle information.
    ``orientation_reversed`` models replacing the manifold by its mirror.

    Construction runs :func:`validate` and raises
    :class:`InvalidSplittingError` on any violation, so every splitting,
    including those a copy or :func:`stabilize` builds, is valid and
    nothing downstream checks again.
    """

    __slots__ = ("h1", "h2", "u", "g1", "k_map", "l_map", "u_hat_genus",
                 "orientation_reversed")

    def __init__(self, h1: int, h2: int, u: int, g1: int, k_map: FreeHom, l_map: FreeHom,
                 u_hat_genus: int | None = None, orientation_reversed: bool = False):
        if u_hat_genus is None:
            u_hat_genus = u
        for name, rank in (("h1", h1), ("h2", h2), ("u", u), ("g1", g1),
                           ("u_hat_genus", u_hat_genus)):
            if type(rank) is not int and _not_int(rank):
                raise TypeError(f"{name} must be an int, got {type(rank).__name__}")
        if not isinstance(orientation_reversed, bool):
            raise TypeError("orientation_reversed must be a bool, got "
                            f"{type(orientation_reversed).__name__}")
        _set_h1(self, h1)
        _set_h2(self, h2)
        _set_u(self, u)
        _set_g1(self, g1)
        _set_k_map(self, k_map)
        _set_l_map(self, l_map)
        _set_u_hat_genus(self, u_hat_genus)
        _set_orientation_reversed(self, orientation_reversed)
        violations = validate(self)
        if violations:
            raise InvalidSplittingError(violations, self.T, validation_warnings(self))

    @property
    def T(self) -> int:
        return (self.h1 + self.h2 - self.u) - self.g1


(_set_h1, _set_h2, _set_u, _set_g1, _set_k_map, _set_l_map, _set_u_hat_genus,
 _set_orientation_reversed) = _slot_setters(AdaptedSplitting)


def validate(s: AdaptedSplitting) -> list[str]:
    """Return the list of violations; an empty list means valid.

    Construction runs this check and raises on a violation, so it returns
    an empty list for every :class:`AdaptedSplitting` that exists.  It is
    public for a caller that runs the check as a stage of its own: the
    benchmark's ``homology_ladder`` workload times it that way, and
    nothing in the package calls it outside construction.  Generators
    past a map's target rank are refused earlier still, by
    :class:`FreeHom`.
    """
    v: list[str] = []
    if s.h1 < 1:
        v.append(f"h1 must be positive, got {s.h1}")
    if s.h2 < 1:
        v.append(f"h2 must be positive, got {s.h2}")
    if s.u < 1:
        v.append(f"u must be positive, got {s.u}")
    if s.g1 < 0:
        v.append(f"g1 must be nonnegative, got {s.g1}")
    if s.g1 > s.h1:
        v.append(f"S1 generators exceed H1 rank (g1={s.g1} > h1={s.h1})")
    if s.k_map.source_rank != s.u:
        v.append(f"k_map source rank {s.k_map.source_rank} != u={s.u}")
    if s.k_map.target_rank != s.h1:
        v.append(f"k_map target rank {s.k_map.target_rank} != h1={s.h1}")
    if s.l_map.source_rank != s.u:
        v.append(f"l_map source rank {s.l_map.source_rank} != u={s.u}")
    if s.l_map.target_rank != s.h2:
        v.append(f"l_map target rank {s.l_map.target_rank} != h2={s.h2}")
    if s.T < 0:
        v.append(f"negative codimension T={s.T}")
    if s.u_hat_genus < 0:
        v.append(f"u_hat_genus must be nonnegative, got {s.u_hat_genus}")
    return v


def validation_warnings(s: AdaptedSplitting) -> list[str]:
    """Non-fatal oddities: odd positive T is flagged but not rejected."""
    w: list[str] = []
    if s.T > 0 and s.T % 2 == 1:
        w.append(f"odd positive codimension T={s.T}")
    return w


def _mayer_vietoris_rows(s: AdaptedSplitting) -> tuple[tuple[int, ...], ...]:
    """The h1 + h2 rows of MV^T, the matrix of (b - c)^T.

    One row per H1 generator (the g1 marked-surface generators first),
    the exponent sums of that generator in the ``k_map`` images, then one
    per H2 generator, the negated exponent sums in the ``l_map`` images;
    each row has u entries.  One pass over the letters of both maps.
    """
    h1, u = s.h1, s.u
    rows = [[0] * u for _ in range(h1 + s.h2)]
    for i, (k_word, l_word) in enumerate(zip(s.k_map.images, s.l_map.images)):
        for g, e in k_word.letters:
            rows[g - 1][i] += e
        for g, e in l_word.letters:
            rows[h1 + g - 1][i] -= e
    return tuple(map(tuple, rows))


def glue_matrix(s: AdaptedSplitting) -> IntMat:
    """The u x ((h1-g1)+h2) matrix of the glue map on first cohomology.

    The first h1-g1 columns are the pullback through U -> H1 restricted to
    the complement of the marked-surface generators; the last h2 columns
    are minus the pullback through U -> H2: the Mayer-Vietoris matrix
    without its first g1 columns.  Square exactly when T == 0.
    """
    return IntMat._trusted(_mayer_vietoris_rows(s)[s.g1:], s.u).transpose()


class PairHomologyReport(_Frozen):
    """Homological summary of the pair (M, marked surface); each order is
    a positive int or INFINITE."""

    __slots__ = ("betti1_M", "order_H2_M", "order_H2_pair", "restriction_iso")

    def __init__(self, betti1_M: int, order_H2_M, order_H2_pair, restriction_iso: bool):
        _set_betti1_M(self, betti1_M)
        _set_order_H2_M(self, order_H2_M)
        _set_order_H2_pair(self, order_H2_pair)
        _set_restriction_iso(self, restriction_iso)


_set_betti1_M, _set_order_H2_M, _set_order_H2_pair, _set_restriction_iso = (
    _slot_setters(PairHomologyReport))


def pair_cohomology(s: AdaptedSplitting) -> PairHomologyReport:
    """Compute |H^2| of the pair via the restriction-to-surface factorization.

    |H^2(pair)| = |H^2(M)| * |H^1(S1) / image of H^1(M)| when both factors
    are finite, INFINITE otherwise.  ``restriction_iso`` records whether
    the rational restriction H^1(M, Q) -> H^1(S1, Q) is an isomorphism.
    One matrix, ``[MV^T | E]`` with E the first g1 columns of the (h1+h2)
    identity (the H^1(S1) coordinates), is reduced once, over every
    column, by a transform-free echelon.  By Mayer-Vietoris, |H^2(M)| is
    the product of the first u pivots, and b1(M) is h1 + h2 less the count
    of nonzero ones.  The rows those columns leave zero span, in their g1
    entries, the image of ker(b - c) = H^1(M) in H^1(S1), so the last g1
    pivots multiply to the quotient's order.  A product of 0 is INFINITE.
    """
    return _pair_cohomology(s, _mayer_vietoris_rows(s))


def _pair_cohomology(s: AdaptedSplitting,
                     mv_rows: tuple[tuple[int, ...], ...]) -> PairHomologyReport:
    """:func:`pair_cohomology` from the rows of MV^T, already assembled."""
    u, g1 = s.u, s.g1
    zeros = (0,) * g1
    augmented = IntMat._trusted(
        tuple(row + (zeros[:i] + (1,) + zeros[i + 1:] if i < g1 else zeros)
              for i, row in enumerate(mv_rows)),
        u + g1,
    )
    # Looked up on the module at call time, so a wrapper installed there
    # (a counter or a trace) sees every call.
    pivots = intlinalg.echelon(augmented)
    order_h2, quotient = math.prod(pivots[:u]), math.prod(pivots[u:])
    betti1 = len(mv_rows) - u + pivots[:u].count(0)
    return PairHomologyReport(
        betti1_M=betti1,
        order_H2_M=order_h2 or INFINITE,
        order_H2_pair=order_h2 * quotient or INFINITE,
        restriction_iso=betti1 == g1 and quotient > 0,
    )


def stabilize(s: AdaptedSplitting) -> AdaptedSplitting:
    """Add a trivial handle: u, h1 and the capped genus each grow by one.

    The new separating-surface generator maps to the new H1 generator and
    to the identity in H2; all prior data is unchanged, so T is preserved.
    """
    # The splitting is validated and g(h1+1) is within the new rank: no checks.
    new_k_images = s.k_map.images + (Word._trusted(((s.h1 + 1, 1),)),)
    new_l_images = s.l_map.images + (Word._trusted(()),)
    return AdaptedSplitting(
        h1=s.h1 + 1,
        h2=s.h2,
        u=s.u + 1,
        g1=s.g1,
        k_map=FreeHom._trusted(s.u + 1, s.h1 + 1, new_k_images),
        l_map=FreeHom._trusted(s.u + 1, s.h2, new_l_images),
        u_hat_genus=s.u_hat_genus + 1,
        orientation_reversed=s.orientation_reversed,
    )


def assembled_word_map(s: AdaptedSplitting) -> FreeHom:
    """The word map whose degree computes the invariant.

    Source generators are those of pi_1(U); target generators are the
    h1-g1 free H1 generators followed by the h2 H2 generators.  Each U
    generator maps to (its H1 image with marked-surface letters deleted)
    times (its H2 image, re-indexed, inverted).  The abelianization of the
    result is the transpose of :func:`glue_matrix`.
    """
    g1, free1 = s.g1, s.h1 - s.g1
    images = []
    # The maps are validated, so the letters need no checks.  Deleting the
    # marked letters can join runs of the H1 part, which merge or cancel as
    # in free_reduce.  The H2 part, a reduced word inverted on generators
    # past free1, joins no run.
    for k_word, l_word in zip(s.k_map.images, s.l_map.images):
        stack: list[tuple[int, int]] = []
        for g, e in k_word.letters:
            if g <= g1:
                continue
            g -= g1
            if stack and stack[-1][0] == g:
                e += stack[-1][1]
                if e:
                    stack[-1] = (g, e)
                else:
                    stack.pop()
            else:
                stack.append((g, e))
        stack.extend((g + free1, -e) for g, e in reversed(l_word.letters))
        images.append(Word._trusted(tuple(stack)))
    return FreeHom._trusted(s.u, free1 + s.h2, tuple(images))


# ---------------------------------------------------------------------------
# Splitting document format (the CLI input format).
#
# One self-contained text file per splitting: `key = value` lines, blank
# lines and `#` comments ignored.  Fields: n, group ("U" | "SU"), h1, h2,
# u, g1, optional u_hat_genus, optional orientation_reversed, and the two
# word lists k_map, l_map (words in the g-token syntax, separated by ';').
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("n", "group", "h1", "h2", "u", "g1", "k_map", "l_map")
_OPTIONAL_FIELDS = ("u_hat_genus", "orientation_reversed")
# Largest |value| of a rank or genus field (h1, h2, u, g1, u_hat_genus).
MAX_DOCUMENT_RANK = 1000


def _check_rank(key: str, value: int) -> int:
    """``value``, or :class:`DocumentError` past the document box."""
    if abs(value) > MAX_DOCUMENT_RANK:
        raise DocumentError(f"field {key!r} is past the rank limit {MAX_DOCUMENT_RANK}")
    return value


def _parse_word_list(value: str, expected: int, target_rank: int, field: str) -> FreeHom:
    # An empty chunk is the identity word, so `k_map =  ; g1` is two words.
    chunks = [] if expected == 0 else value.split(";")
    if expected == 0 and value.strip():
        raise DocumentError(f"{field} must be empty when u=0")
    words = []
    table: dict[str, tuple[int, int]] = {}  # one token table for the map's words
    for chunk in chunks:
        try:
            words.append(_parse_word(chunk, table))
        except MalformedWordError as exc:
            raise DocumentError(f"{field}: {exc}") from exc
    if len(words) != expected:
        raise DocumentError(
            f"{field} lists {len(words)} words, expected u={expected}"
        )
    # The table holds every letter the words use, so within the target
    # rank it clears them all; otherwise FreeHom checks the reduced words
    # and names the first at fault, or refuses a negative rank.
    if max([g for g, _ in table.values()], default=0) <= target_rank:
        return FreeHom._trusted(expected, target_rank, tuple(words))
    try:
        return FreeHom(expected, target_rank, tuple(words))
    except (MalformedWordError, RankMismatchError) as exc:
        raise DocumentError(f"{field}: {exc}") from exc


def parse_splitting_document(text: str) -> tuple[AdaptedSplitting, GroupKind]:
    """Parse a splitting document; returns the splitting and the group kind.

    Data that parses but fails :func:`validate` raises
    :class:`InvalidSplittingError` with its ``kind`` set.  One leading
    byte-order mark (U+FEFF), as some editors save UTF-8, is dropped.
    """
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DocumentError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _REQUIRED_FIELDS and key not in _OPTIONAL_FIELDS:
            raise DocumentError(f"line {lineno}: unknown field {key!r}")
        if key in fields:
            raise DocumentError(f"line {lineno}: duplicate field {key!r}")
        fields[key] = value.strip()
    for key in _REQUIRED_FIELDS:
        if key not in fields:
            raise DocumentError(f"missing required field {key!r}")

    def int_field(key: str) -> int:
        try:
            return _read_integer(fields[key])
        except ValueError as exc:
            raise DocumentError(f"field {key!r}: {exc}") from None

    group_text = fields["group"]
    if group_text not in GROUPS:  # before n, whose text may be bad too
        raise DocumentError(f"group must be 'U' or 'SU', got {group_text!r}")
    n = int_field("n")
    try:
        kind = GroupKind(group_text, n)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc

    def rank_field(key: str) -> int:
        return _check_rank(key, int_field(key))

    h1, h2, u, g1 = (rank_field(k) for k in ("h1", "h2", "u", "g1"))
    u_hat = rank_field("u_hat_genus") if "u_hat_genus" in fields else None
    reversed_flag = False
    if "orientation_reversed" in fields:
        flag = fields["orientation_reversed"]
        if flag not in ("true", "false"):
            raise DocumentError("orientation_reversed must be 'true' or 'false'")
        reversed_flag = flag == "true"

    k_map = _parse_word_list(fields["k_map"], u, h1, "k_map")
    l_map = _parse_word_list(fields["l_map"], u, h2, "l_map")
    try:
        splitting = AdaptedSplitting(
            h1=h1, h2=h2, u=u, g1=g1, k_map=k_map, l_map=l_map,
            u_hat_genus=u_hat, orientation_reversed=reversed_flag,
        )
    except InvalidSplittingError as exc:
        exc.kind = kind
        raise
    return splitting, kind


def format_splitting_document(s: AdaptedSplitting, kind: GroupKind) -> str:
    """Serialize back to the document format (inverse of the parser); a
    rank the parser would refuse raises :class:`DocumentError`."""
    for key in ("h1", "h2", "u", "g1", "u_hat_genus"):
        _check_rank(key, getattr(s, key))
    lines = [
        f"n = {kind.n}",
        f"group = {kind.family}",
        f"h1 = {s.h1}",
        f"h2 = {s.h2}",
        f"u = {s.u}",
        f"g1 = {s.g1}",
        f"u_hat_genus = {s.u_hat_genus}",
        f"orientation_reversed = {'true' if s.orientation_reversed else 'false'}",
        "k_map = " + " ; ".join(format_word(w) for w in s.k_map.images),
        "l_map = " + " ; ".join(format_word(w) for w in s.l_map.images),
    ]
    return "\n".join(lines) + "\n"
