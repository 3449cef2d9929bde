"""The counting invariants at codimension zero, with all cross-checks.

For a valid splitting with T == 0 the invariant's absolute value is
computed three times, by routes that share no algebra:

  P1  |det| of the glue matrix, raised to the Lie rank (exact elimination);
  P2  the magnitude of the symbolic exterior-algebra degree of the
      assembled word map;
  P3  the order of H^2 of the pair, raised to the Lie rank (integer
      echelon forms of the Mayer-Vietoris matrix and of the restriction
      quotient).

The three values must agree exactly; disagreement is an internal fault,
never expected.  P3 is always computed even though P1 is cheaper: the
agreement is the point.

Sign policy.  The true sign of the invariant depends on orientation data
that is not pinned down to a computable convention, so the absolute value
is always reported, and a sign only relative to this package's declared
convention, marked UNDETERMINED unless the caller opts in.  The declared
convention is: the lexicographic sign of the exterior degree, times the
domain orientation factor (-1)^(lie_rank * (h1-g1) * (h2+1)).  The factor
is chosen so that one stabilization flips the convention sign by exactly
(-1)^lie_rank, matching the geometric stabilization law; the normalization
by (-1)^(lie_rank * u_hat_genus) then makes the reported sign stable under
stabilization.  Reversing the ambient orientation multiplies the sign by
(-1)^lie_rank.

Vanishing reason.  A zero invariant must come with a rational reason,
read from P3's own report: ``H2_nonzero`` when H^2(M, Q) != 0 (|H^2(M)|
is INFINITE), else ``restriction_not_iso`` when H^1(M, Q) -> H^1(S1, Q)
is not an isomorphism.  Reading it there loses no check: a separate
vanishing test would reduce the same matrices with the same deterministic
echelon, so it could never disagree with P3.  The check that stays is
that a zero from all three pipelines has such a reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exterior import GroupKind, cylinder_monomial_value, degree_of_word_map
from .intlinalg import INFINITE, det, format_int
from .splitting import (
    AdaptedSplitting,
    PairHomologyReport,
    assembled_word_map,
    glue_matrix,
    pair_cohomology,
)

__all__ = [
    "InvariantReport",
    "PipelineValues",
    "MultiIndex",
    "WrongCodimensionError",
    "PipelineDisagreementError",
    "UNDETERMINED",
    "lambda_invariant",
    "require_codimension_zero",
    "vanishing_check",
    "orientation_flip_sign",
    "multiindex_degree",
    "lambda_polynomial_cylinder",
]

UNDETERMINED = "UNDETERMINED"

VANISH_H2_NONZERO = "H2_nonzero"
VANISH_RESTRICTION = "restriction_not_iso"


class WrongCodimensionError(ValueError):
    """The numerical invariant was requested at T != 0."""


class PipelineDisagreementError(RuntimeError):
    """The independent pipelines disagreed; indicates a bug, never data."""


@dataclass(frozen=True)
class PipelineValues:
    """The three independently computed magnitudes and their agreement."""

    det_power: int
    ext_magnitude: int
    k_power: int
    agree: bool


@dataclass(frozen=True)
class InvariantReport:
    """Result of the invariant computation at T == 0.

    ``sign`` is +1/-1 under the declared convention or None when left
    UNDETERMINED.  ``K`` is the order of H^2 of the pair (or INFINITE);
    when the invariant is nonzero, abs_value == K ** lie_rank.
    """

    kind: GroupKind
    T: int
    abs_value: int
    sign: Optional[int]
    K: object
    vanishing_reason: Optional[str]
    pipelines: PipelineValues

    def key_values(self) -> list[tuple[str, str]]:
        """Flat key=value serialization used by the CLI machine format."""
        sign_text = UNDETERMINED if self.sign is None else f"{self.sign:+d}"
        return [
            ("group", self.kind.family.value),
            ("n", str(self.kind.n)),
            ("T", str(self.T)),
            ("abs_value", format_int(self.abs_value)),
            ("sign", sign_text),
            ("K", format_int(self.K)),
            ("pipeline_det", format_int(self.pipelines.det_power)),
            ("pipeline_ext", format_int(self.pipelines.ext_magnitude)),
            ("pipeline_K", format_int(self.pipelines.k_power)),
            ("agree", "true" if self.pipelines.agree else "false"),
            ("vanishing_reason", self.vanishing_reason or ""),
        ]


def _domain_orientation_sign(s: AdaptedSplitting, lie_rank: int) -> int:
    # Declared convention factor; see the module docstring.  Chosen so one
    # stabilization (h1 -> h1+1, u -> u+1) flips the cycle sign by
    # (-1)^lie_rank: the lexicographic degree sign alone picks up
    # (-1)^(lie_rank*h2) from the position of the new row and column.
    exponent = lie_rank * (s.h1 - s.g1) * (s.h2 + 1)
    return -1 if exponent % 2 else 1


def _vanishing_reason(pair: PairHomologyReport) -> Optional[str]:
    if pair.order_H2_M is INFINITE:
        return VANISH_H2_NONZERO
    if not pair.restriction_iso:
        return VANISH_RESTRICTION
    return None


def vanishing_check(s: AdaptedSplitting) -> Optional[str]:
    """Rational vanishing criteria; a reason here forces the invariant to 0.

    Returns ``"H2_nonzero"`` when H^2(M, Q) != 0 (the Mayer-Vietoris matrix
    is not of full row rank), ``"restriction_not_iso"`` when
    H^1(M, Q) -> H^1(S1, Q) fails to be an isomorphism, else None.  Both
    are read from :func:`pair_cohomology`.
    """
    return _vanishing_reason(pair_cohomology(s))


def require_codimension_zero(s: AdaptedSplitting) -> None:
    """Raise :class:`WrongCodimensionError` unless ``s`` has T == 0."""
    if s.T != 0:
        raise WrongCodimensionError(
            f"T={s.T} != 0: the numerical invariant lives at codimension zero; "
            "for T > 0 use the polynomial path (multi-index degrees, cylinder "
            "example: the 'multiindex' and 'poly' commands)"
        )


def lambda_invariant(
    s: AdaptedSplitting,
    kind: GroupKind,
    use_sign_convention: bool = False,
) -> InvariantReport:
    """Compute the counting invariant for a T == 0 splitting.

    Runs all three pipelines, asserts exact agreement, and assembles the
    report.  ``use_sign_convention=True`` opts into the declared sign
    convention; otherwise the sign is reported UNDETERMINED.
    """
    require_codimension_zero(s)
    lie_rank = kind.lie_rank

    # P2 first: its work box refuses a huge Lie rank before P1 raises
    # |det| to it.
    degree = degree_of_word_map(assembled_word_map(s), kind)
    p2 = abs(degree)

    glue = glue_matrix(s)
    glue_det = det(glue)
    p1 = abs(glue_det) ** lie_rank

    pair = pair_cohomology(s)
    k_order = pair.order_H2_pair
    p3 = 0 if k_order is INFINITE else k_order**lie_rank

    agree = p1 == p2 == p3
    if not agree:
        raise PipelineDisagreementError(
            f"pipelines disagree: det-power={p1} ext={p2} K-power={p3}"
        )

    reason = None
    if p1 == 0:
        reason = _vanishing_reason(pair)
        if reason is None:
            raise PipelineDisagreementError(
                "vanishing invariant without a rational vanishing reason"
            )

    sign: Optional[int] = None
    if use_sign_convention and p1 > 0:
        cycle_sign = (1 if degree > 0 else -1) * _domain_orientation_sign(s, lie_rank)
        sign = cycle_sign * (-1) ** (lie_rank * s.u_hat_genus)
        if s.orientation_reversed:
            sign *= (-1) ** lie_rank

    return InvariantReport(
        kind=kind,
        T=s.T,
        abs_value=p1,
        sign=sign,
        K=k_order,
        vanishing_reason=reason,
        pipelines=PipelineValues(p1, p2, p3, agree),
    )


def orientation_flip_sign(kind: GroupKind) -> int:
    """Sign relating the invariant of a manifold and its mirror."""
    return -1 if kind.lie_rank % 2 else 1


@dataclass(frozen=True)
class MultiIndex:
    """Multi-index (I, J) labeling a monomial in the polynomial invariants.

    I pairs (i_p, r_p) with strictly increasing i_p >= 1 and positive
    multiplicities r_p; likewise J.  The x-generators sit in degree 2i and
    the y-generators in degree 4j-2, so indices start at 1 (degree 0 or
    negative generators are meaningless).  For special-unitary use the
    leading indices must additionally exceed 1.
    """

    I: tuple[tuple[int, int], ...] = ()
    J: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "I", tuple((i, r) for i, r in self.I))
        object.__setattr__(self, "J", tuple((j, s) for j, s in self.J))
        for name, pairs in (("I", self.I), ("J", self.J)):
            prev = 0
            for idx, mult in pairs:
                if idx < 1:
                    raise ValueError(f"{name}: index {idx} must be >= 1")
                if idx <= prev:
                    raise ValueError(f"{name}: indices must strictly increase")
                if mult < 1:
                    raise ValueError(f"{name}: multiplicity {mult} must be positive")
                prev = idx

    def is_special_unitary_admissible(self) -> bool:
        """Leading index above 1 in each present block."""
        if self.I and self.I[0][0] <= 1:
            return False
        if self.J and self.J[0][0] <= 1:
            return False
        return True


def multiindex_degree(m: MultiIndex) -> int:
    """Total degree T = sum 2*i_p*r_p + sum (4*j_p - 2)*s_p.

    >>> multiindex_degree(MultiIndex(I=((1, 2),), J=()))
    4
    """
    total = sum(2 * i * r for i, r in m.I)
    total += sum((4 * j - 2) * s for j, s in m.J)
    return total


def lambda_polynomial_cylinder(g: int, h: int, kind: GroupKind) -> int:
    """The worked product-cylinder value of the polynomial invariant.

    For a product over a genus-g surface split along a genus-h subsurface
    (h >= 2 so an irreducible representation killing the boundary exists),
    the top monomial evaluates to ((g-h)!)^lie_rank up to sign.
    """
    if h < 2:
        raise ValueError(f"subsurface genus h={h} must be at least 2")
    if g <= h:
        raise ValueError(f"need g > h, got g={g}, h={h}")
    return cylinder_monomial_value(g - h, kind)
