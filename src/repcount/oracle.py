"""Brute-force verifiers, independent of the main pipelines.

Nothing here imports the determinant, Smith normal form, or exterior
algebra code: the point of an oracle is to disagree loudly if those are
wrong.  Rational linear algebra is done locally with ``fractions.Fraction``
(exact Gauss-Jordan), and lattice-quotient counting uses plain Euclidean
column reduction plus enumeration of a box.  That reduction's basis is
also the rank test: a row left without a pivot is a free direction of
the cokernel.  The basis is lower triangular, so the enumeration reduces
the box's prefixes level by level and counts the last coordinate under
each prefix as cyclic windows of residues, without visiting its points.

The torus oracle realizes the n = 1 case of the degree law.  A word map
induces the self-map x -> A x of the torus R^N / Z^N, with A its
abelianization.  When det A != 0 that map is a |det A|-sheeted covering,
so every point is a regular value with exactly |det A| preimages.  The
half-open cube [0,1)^N holds exactly one representative of each torus
point (the closed cube would see a point with a coordinate 0 twice), so
counting the preimages of any rational target inside it gives |det A|
exactly, with no genericity condition.  One exact solve (determinant and
adjugate) serves every target of a check.  Each target is put over its
common denominator once, so the offset ranges and the membership tests
are integer arithmetic.  Row d of A x sweeps an interval of length r_d,
its sum of |entries|, open at each nonzero end, so offset d ranges over
at most r_d integers; the narrower offsets are walked and the widest is
counted as one interval, so the walk reaches at most
prod_d r_d / max_d r_d intervals, fewer than W^((N-1)/N) for the box's
W = prod_d (r_d + 1).  Floating point never appears.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .intlinalg import INFINITE, IntMat
from .words import FreeHom, abelianize

__all__ = [
    "SingularMatrixError",
    "DomainLimitError",
    "TORUS_MAX_WORK",
    "COKER_MAX_DIM",
    "COKER_MAX_ENTRY",
    "torus_preimage_count",
    "numeric_degree_u1",
    "cokernel_enumeration",
]


class SingularMatrixError(ValueError):
    """The torus oracle needs a nonsingular acting matrix."""


class DomainLimitError(ValueError):
    """Input outside an oracle's admissible size box."""


# The oracles' size boxes.  The torus count's box is on
# W = prod_i (sum_j |a_ij| + 1): W bounds the intervals the count walks
# (fewer than W^((N-1)/N)), |det| (below W, by Hadamard's inequality) and
# N (at most log2 W).  The slowest three-target counts measured took
# 0.4-0.6 s: dense 6x6 matrices with row sums 7, 8, 8, 8, 8, 8
# (W = 472,392) and fractional targets, under CPython 3.11 on a 2-vCPU
# Intel Xeon VM.  The cokernel enumeration visits
# (2 * (entry * cols + 1) + 1)^(rows - 1) prefixes, at most 27^2 = 729.
TORUS_MAX_WORK = 500_000
COKER_MAX_DIM = 3
COKER_MAX_ENTRY = 4


def _det_and_adjugate(a: IntMat) -> tuple[int, list[list[int]]]:
    """Exact determinant and integer adjugate, by Gauss-Jordan over the
    rationals.

    Deliberately a different algorithm from the fraction-free elimination
    used elsewhere; raises SingularMatrixError on rank deficiency.
    """
    n = a.rows
    m = [[Fraction(x) for x in row] for row in a.data]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("acting matrix is singular")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
            d = -d
        pivot = m[col][col]
        d *= pivot
        m[col] = [x / pivot for x in m[col]]
        inv[col] = [x / pivot for x in inv[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    adj = [[x * d for x in row] for row in inv]
    assert d.denominator == 1 and all(x.denominator == 1 for row in adj for x in row)
    return d.numerator, [[x.numerator for x in row] for row in adj]


def torus_preimage_count(a: IntMat,
                         targets: Sequence[Sequence[Fraction | int]]) -> tuple[int, ...]:
    """Count solutions x in [0,1)^N of  a @ x == t  (mod Z^N), for each
    target t.

    One exact solve serves every target: the determinant and adjugate of
    ``a`` are taken once, then each target's integer offset vectors k are
    walked, counting those with a^-1 (t + k) in the half-open cube.  The
    offsets are walked one by one, narrowest range first, and the widest
    is counted as the length of an integer interval.  For nonsingular a
    every count is |det a|, whatever the target.  Raises
    :class:`DomainLimitError` when W = prod_i (sum_j |a_ij| + 1) exceeds
    ``TORUS_MAX_WORK``, before any solve, and :class:`SingularMatrixError`
    on a zero row at once.  An empty target list gives ``()`` after the
    same checks and the solve, so a singular matrix is refused whatever
    the targets.

    >>> torus_preimage_count(IntMat([[2, 1], [0, 3]]), [(0, Fraction(1, 2)), (-1, 3)])
    (6, 6)
    """
    if not a.is_square:
        raise SingularMatrixError("acting matrix must be square")
    work = 1
    for row in a.data:
        row_sum = sum(abs(x) for x in row)
        if row_sum == 0:
            raise SingularMatrixError("acting matrix has a zero row")
        work *= row_sum + 1
        if work > TORUS_MAX_WORK:
            raise DomainLimitError(
                f"product of (row's sum of |entries| + 1) exceeds the torus limit "
                f"{TORUS_MAX_WORK}")
    n = a.rows
    targets = [tuple(Fraction(x) for x in t) for t in targets]
    for t in targets:
        if len(t) != n:
            raise ValueError(f"target length {len(t)} != {n}")
    det_a, adj = _det_and_adjugate(a)
    # a @ x for x in [0,1)^N keeps row i from low_i to high_i, strictly
    # inside at an end that is nonzero, since each x_j is below 1.
    low = [sum(x for x in row if x < 0) for row in a.data]
    high = [sum(x for x in row if x > 0) for row in a.data]
    return tuple(_count_offsets(det_a, adj, low, high, t) for t in targets)


def _count_offsets(det_a: int, adj: list[list[int]], low: list[int],
                   high: list[int], target: tuple[Fraction, ...]) -> int:
    """Offset vectors k with a^-1 (target + k) in [0,1)^N, all in integers."""
    n = len(adj)
    if not n:
        return 1  # Z^0 is one point
    # Integerize: target = c / den, and x_i = (base_i + sum_j w_ij k_j)
    # / scale with w_ij = flip * den * adj_ij and scale = den * |det_a|,
    # via adj = det_a * a^-1.
    den = math.lcm(*(x.denominator for x in target))
    c = [x.numerator * (den // x.denominator) for x in target]
    flip = 1 if det_a > 0 else -1
    scale = den * det_a * flip
    base = [flip * sum(x * y for x, y in zip(row, c)) for row in adj]

    # Offset ranges: k_j runs over the integers from low_j - t_j to
    # high_j - t_j, a nonzero end left out: moving it in by 1 / den drops
    # it exactly when it is an integer.
    ranges = [(lo - (ci - (lo < 0)) // den, hi + (-ci - (hi > 0)) // den)
              for lo, hi, ci in zip(low, high, c)]
    order = sorted(range(n), key=lambda j: ranges[j][1] - ranges[j][0])
    ranges = [ranges[j] for j in order]
    # columns[d][i] = w_ij for j = order[d].
    columns = [[flip * den * row[j] for row in adj] for j in order]

    last = n - 1
    top = scale - 1

    def walk(depth: int, partial: list[int]) -> int:
        # The recursion is n <= log2(TORUS_MAX_WORK) deep.
        if depth == last:
            # Row i needs 0 <= p + w k <= top: an integer interval in k.
            lo_k, hi_k = ranges[last]
            for p, w in zip(partial, columns[last]):
                if w > 0:
                    lo_k = max(lo_k, -(p // w))
                    hi_k = min(hi_k, (top - p) // w)
                elif w < 0:
                    lo_k = max(lo_k, -((top - p) // -w))
                    hi_k = min(hi_k, p // -w)
                elif not 0 <= p <= top:
                    return 0
            return max(0, hi_k - lo_k + 1)
        lo_k, hi_k = ranges[depth]
        column = columns[depth]
        return sum(walk(depth + 1, [p + w * k for p, w in zip(partial, column)])
                   for k in range(lo_k, hi_k + 1))

    return walk(0, base)


def numeric_degree_u1(f: FreeHom,
                      targets: Sequence[Sequence[Fraction | int]]) -> tuple[int, ...]:
    """Preimage counts of the circle-group map induced by ``f``, one per
    target.

    Bridges word maps to the torus oracle; each count must equal the
    invariant pipeline's magnitude in the rank-one unitary case.
    """
    return torus_preimage_count(abelianize(f), targets)


def _triangular_lattice_basis(a: IntMat) -> list[list[int] | None]:
    """Lower-triangular basis of the column lattice: plain Euclidean column
    reduction, one pivot row at a time.  A row the lattice has no pivot in
    gets None, so the lattice has full row rank exactly when no entry is
    None."""
    cols = [list(column) for column in a.transpose().data]
    basis = []
    for r in range(a.rows):
        live = [c for c in cols if any(c[r:])]
        active = [c for c in live if c[r] != 0]
        rest = [c for c in live if c[r] == 0]
        while len(active) > 1:
            active.sort(key=lambda c: abs(c[r]))
            small = active[0]
            reduced = []
            for c in active[1:]:
                q = c[r] // small[r]
                c = [x - q * y for x, y in zip(c, small)]
                if c[r] != 0:
                    reduced.append(c)
                else:
                    rest.append(c)
            active = [small] + reduced
        if active:
            pivot = active[0]
            if pivot[r] < 0:
                pivot = [-x for x in pivot]
            basis.append(pivot)
        else:
            basis.append(None)
        cols = rest
    return basis


def cokernel_enumeration(a: IntMat):
    """Class count of Z^rows modulo the column lattice, by enumeration.

    Admissible inputs are at most COKER_MAX_DIM x COKER_MAX_DIM with entries
    in [-COKER_MAX_ENTRY, COKER_MAX_ENTRY].  A free direction (a row
    without a pivot in the Euclidean lattice basis, i.e. rank below the row
    count) gives INFINITE; otherwise every residue class has a
    representative in the box [-bound, bound]^rows with bound =
    max|entry| * cols + 1, and the count is the number of distinct exact
    canonical-reduction labels of the box's points.  Row r's reduction
    reads only coordinates 0..r, so only the first rows - 1 coordinates
    are walked.  Under each prefix the last coordinate's side =
    2 * bound + 1 consecutive values leave residues mod its pivot p that
    fill one cyclic window; a prefix label counts the union of its
    windows, each cyclic gap between sorted window starts counted up to
    side.  Here p = 20 exceeds the side, 19:

    >>> cokernel_enumeration(IntMat([[-4, -3], [-4, 2]]))
    20
    """
    if a.rows > COKER_MAX_DIM or a.cols > COKER_MAX_DIM:
        raise DomainLimitError(
            f"{a.rows}x{a.cols} exceeds the {COKER_MAX_DIM}x{COKER_MAX_DIM} limit")
    max_entry = max((abs(x) for row in a.data for x in row), default=0)
    if max_entry > COKER_MAX_ENTRY:
        raise DomainLimitError(f"entry magnitude {max_entry} exceeds {COKER_MAX_ENTRY}")
    basis = _triangular_lattice_basis(a)
    if None in basis:
        return INFINITE
    if not a.rows:
        return 1  # Z^0 is one class
    bound = max_entry * a.cols + 1
    box = range(-bound, bound + 1)
    last = a.rows - 1
    # Level r: (label, offsets) per prefix of r coordinates, label its
    # residues, offsets[i - r] what their reductions added to coordinate i.
    prefixes = [((), [0] * a.rows)]
    for r in range(last):
        b = basis[r]
        prefixes = [(label + (residue,), [o - q * b[i] for i, o in enumerate(offsets[1:], r + 1)])
                    for label, offsets in prefixes
                    for x in box for q, residue in [divmod(x + offsets[0], b[r])]]
    # Under a prefix the last coordinate's len(box) values leave residues
    # mod p in one cyclic window; a label counts the union of its windows.
    p = basis[last][last]
    starts: dict[tuple[int, ...], list[int]] = {}
    for label, offsets in prefixes:
        starts.setdefault(label, []).append((offsets[0] - bound) % p)
    return sum(min(hi - lo, len(box)) for s in map(sorted, starts.values())
               for lo, hi in zip(s, s[1:] + [s[0] + p]))
