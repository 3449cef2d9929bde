"""The counting invariants at codimension zero, with all cross-checks.

For a valid splitting with T == 0 the invariant's absolute value is
computed three times, by routes that share no algebra:

  P1  |det| of the glue matrix, raised to the Lie rank (exact elimination
      of its transpose, the rows of MV^T past the first g1);
  P2  the magnitude of the symbolic exterior-algebra degree of the
      assembled word map;
  P3  the order of H^2 of the pair, raised to the Lie rank (one integer
      echelon form of the Mayer-Vietoris matrix beside the restriction
      coordinates, reduced over every column).

The three values must agree exactly; disagreement is an internal fault,
never expected.  P1 and P3 read one assembly of the Mayer-Vietoris rows;
P2 reads the assembled word map instead, so a wrong assembly still shows
as P1 != P2.  P3 is always computed even though P1 is cheaper: the
agreement is the point.  The groups differ only in the Lie rank, so
:func:`lambda_invariants` runs all but P2 once per splitting, after P2
has run for every group: a group past P2's box is refused before P1 or P3.
P1's signed determinant power must also equal P2's signed degree.  That
degree is a product of Lie-rank many blocks, each +-det, so a sign error
in P1's determinant or in every block cancels at even rank: the sign
check only has teeth at odd Lie rank.

Sign policy.  The true sign of the invariant depends on orientation data
that is not pinned down to a computable convention, so the absolute value
is always reported, and a sign only relative to this package's declared
convention, marked UNDETERMINED unless the caller opts in.  The declared
convention is the lexicographic sign of the exterior degree times (-1)^p,
for the one parity p = lie_rank * ((h1-g1)(h2+1) + u_hat_genus +
orientation_reversed).  Its (h1-g1)(h2+1) term makes one stabilization
flip the sign, before the u_hat_genus term, by exactly (-1)^lie_rank,
matching the geometric stabilization law; the u_hat_genus term, which
stabilization raises by one, then makes the reported sign stable under
stabilization.  Reversing the ambient orientation multiplies the sign by
(-1)^lie_rank, :func:`orientation_flip_sign`.

Vanishing reason.  A zero invariant must come with a rational reason,
read once per splitting from P3's own report: ``H2_nonzero`` when
H^2(M, Q) != 0 (|H^2(M)| is INFINITE), else ``restriction_not_iso`` when
H^1(M, Q) -> H^1(S1, Q) is not an isomorphism.  Reading it there loses no
check: a separate vanishing test would reduce the same matrix with the
same deterministic echelon, so it could never disagree with P3.  The
check that stays is that a zero from all three pipelines has such a
reason.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

# lambda_polynomial_cylinder is bound here for the CLI, beside the invariants.
from .exterior import GroupKind, degree_of_word_map, lambda_polynomial_cylinder
from .intlinalg import INFINITE, IntMat, _Frozen, _not_int, _slot_setters, det, format_int
from .splitting import (
    AdaptedSplitting,
    _mayer_vietoris_rows,
    _pair_cohomology,
    assembled_word_map,
)
from .words import FreeHom

UNDETERMINED = "UNDETERMINED"

VANISH_H2_NONZERO = "H2_nonzero"
VANISH_RESTRICTION = "restriction_not_iso"


class WrongCodimensionError(ValueError):
    """The numerical invariant was requested at T != 0."""


class PipelineDisagreementError(RuntimeError):
    """The independent pipelines disagreed; indicates a bug, never data.

    Carries what a replay needs: the group ``kind``, the three ``values``
    (P1's signed determinant power, P2's signed degree and P3's K power),
    the ``mv_rows`` of MV^T that P1 and P3 read (P1 is |det| of the last u
    of them, u being the row length) and the ``word_map`` P2 read.
    """

    def __init__(self, message: str, kind: GroupKind, values: tuple[int, int, int],
                 mv_rows: tuple[tuple[int, ...], ...], word_map: FreeHom):
        super().__init__(message)
        self.kind = kind
        self.values = values
        self.mv_rows = mv_rows
        self.word_map = word_map


@dataclass(frozen=True, slots=True)
class InvariantReport:
    """Result of the invariant computation at T == 0.

    A report exists only at T == 0, and only once P1, P2 and P3 all gave
    ``abs_value``.  ``sign`` is +1/-1 under the declared convention or
    None when left UNDETERMINED.  ``K`` is the order of H^2 of the pair
    (or INFINITE); when the invariant is nonzero, abs_value == K ** lie_rank.
    """

    kind: GroupKind
    abs_value: int
    sign: int | None
    K: object
    vanishing_reason: str | None

    def key_values(self) -> list[tuple[str, str]]:
        """Flat key=value serialization used by the CLI machine format."""
        # T is 0 and the pipelines agree on abs_value: no report exists otherwise.
        sign_text = UNDETERMINED if self.sign is None else f"{self.sign:+d}"
        value = format_int(self.abs_value)
        k_text = value if self.K == self.abs_value else format_int(self.K)
        return [
            ("group", self.kind.family),
            ("n", str(self.kind.n)),
            ("T", "0"),
            ("abs_value", value),
            ("sign", sign_text),
            ("K", k_text),
            ("pipeline_det", value),
            ("pipeline_ext", value),
            ("pipeline_K", value),
            ("agree", "true"),
            ("vanishing_reason", self.vanishing_reason or ""),
        ]


def require_codimension_zero(s: AdaptedSplitting) -> None:
    """Raise :class:`WrongCodimensionError` unless ``s`` has T == 0."""
    if s.T != 0:
        raise WrongCodimensionError(
            f"T={s.T} != 0: the numerical invariant lives at codimension zero; "
            "for T > 0 use the polynomial path (multi-index degrees, cylinder "
            "example: the 'multiindex' and 'poly' commands)"
        )


def lambda_invariants(
    s: AdaptedSplitting,
    kinds: Iterable[GroupKind],
    use_sign_convention: bool = False,
) -> tuple[InvariantReport, ...]:
    """Compute the counting invariant of a T == 0 splitting for each kind.

    Runs all three pipelines, asserts exact agreement, and returns one
    report per entry of ``kinds``, in order.  Only P2 depends on the
    group, so P1, P3 and the vanishing reason are computed once.
    ``use_sign_convention=True`` opts into the declared sign convention;
    otherwise the sign is reported UNDETERMINED.
    """
    require_codimension_zero(s)
    kinds = tuple(kinds)
    if not kinds:
        return ()

    # P2 first, for every kind: its work box refuses a huge Lie rank
    # before P1's determinant runs and is raised to it.
    word_map = assembled_word_map(s)
    degrees = [degree_of_word_map(word_map, kind) for kind in kinds]

    # P1 and P3 read one assembly of the Mayer-Vietoris rows.  Its rows
    # past the first g1 form the transpose of the glue matrix, which has
    # the same determinant.
    mv_rows = _mayer_vietoris_rows(s)
    glue_det = det(IntMat._trusted(mv_rows[s.g1:], s.u))
    pair = _pair_cohomology(s, mv_rows)
    k_order = pair.order_H2_pair
    reason = None
    if pair.order_H2_M is INFINITE:
        reason = VANISH_H2_NONZERO
    elif not pair.restriction_iso:
        reason = VANISH_RESTRICTION

    reports = []
    for kind, degree in zip(kinds, degrees):
        lie_rank = kind.lie_rank
        det_power = glue_det**lie_rank
        p1 = abs(det_power)
        p2 = abs(degree)
        p3 = 0 if k_order is INFINITE else k_order**lie_rank
        if det_power != degree or p2 != p3:
            raise PipelineDisagreementError(
                f"pipelines disagree: det-power={det_power} ext={degree} K-power={p3}",
                kind, (det_power, degree, p3), mv_rows, word_map,
            )
        if p1 == 0 and reason is None:
            raise PipelineDisagreementError(
                "vanishing invariant without a rational vanishing reason",
                kind, (0, 0, 0), mv_rows, word_map,
            )

        sign: int | None = None
        if use_sign_convention and p1 > 0:
            # The declared convention; see the module docstring.  Its
            # (h1 - g1)(h2 + 1) term makes one stabilization (h1 -> h1+1,
            # u -> u+1) flip the cycle sign by (-1)^lie_rank: the
            # lexicographic degree sign alone picks up (-1)^(lie_rank*h2)
            # from the position of the new row and column.
            parity = lie_rank * ((s.h1 - s.g1) * (s.h2 + 1) + s.u_hat_genus
                                 + s.orientation_reversed)
            sign = -1 if (degree < 0) ^ (parity & 1) else 1

        reports.append(InvariantReport(
            kind=kind, abs_value=p1, sign=sign, K=k_order,
            vanishing_reason=reason if p1 == 0 else None,
        ))
    return tuple(reports)


def lambda_invariant(s: AdaptedSplitting, kind: GroupKind,
                     use_sign_convention: bool = False) -> InvariantReport:
    """:func:`lambda_invariants` for one kind."""
    return lambda_invariants(s, (kind,), use_sign_convention)[0]


def orientation_flip_sign(kind: GroupKind) -> int:
    """Sign relating the invariant of a manifold and its mirror."""
    return -1 if kind.lie_rank % 2 else 1


class MultiIndex(_Frozen):
    """Multi-index (I, J) labeling a monomial in the polynomial invariants.

    I pairs (i_p, r_p) with strictly increasing i_p >= 1 and positive
    multiplicities r_p; likewise J.  The x-generators sit in degree 2i and
    the y-generators in degree 4j-2, so indices start at 1 (degree 0 or
    negative generators are meaningless).  For special-unitary use the
    leading indices must additionally exceed 1.  Indices and multiplicities
    are ints; any other type, bool included, raises ``TypeError``.
    """

    __slots__ = ("I", "J")

    def __init__(self, I: tuple[tuple[int, int], ...] = (), J: tuple[tuple[int, int], ...] = ()):
        I = tuple((i, r) for i, r in I)
        J = tuple((j, s) for j, s in J)
        for name, pairs in (("I", I), ("J", J)):
            prev = 0
            for idx, mult in pairs:
                for what, value in (("index", idx), ("multiplicity", mult)):
                    if type(value) is not int and _not_int(value):
                        raise TypeError(f"{name}: {what} must be an int, "
                                        f"got {type(value).__name__}")
                if idx < 1:
                    raise ValueError(f"{name}: index {idx} must be >= 1")
                if idx <= prev:
                    raise ValueError(f"{name}: indices must strictly increase")
                if mult < 1:
                    raise ValueError(f"{name}: multiplicity {mult} must be positive")
                prev = idx
        _set_I(self, I)
        _set_J(self, J)

    def is_special_unitary_admissible(self) -> bool:
        """Leading index above 1 in each present block."""
        if self.I and self.I[0][0] <= 1:
            return False
        if self.J and self.J[0][0] <= 1:
            return False
        return True


_set_I, _set_J = _slot_setters(MultiIndex)


def multiindex_degree(m: MultiIndex) -> int:
    """Total degree T = sum 2*i_p*r_p + sum (4*j_p - 2)*s_p.

    >>> multiindex_degree(MultiIndex(I=((1, 2),), J=()))
    4
    """
    total = sum(2 * i * r for i, r in m.I)
    total += sum((4 * j - 2) * s for j, s in m.J)
    return total

