"""Brute-force verifiers, independent of the main pipelines.

Nothing here imports the determinant, Smith normal form, or exterior
algebra code: the point of an oracle is to disagree loudly if those are
wrong.  Rational linear algebra is done locally with ``fractions.Fraction``
(exact Gauss-Jordan), and lattice-quotient counting uses plain Euclidean
column reduction plus exhaustive point enumeration.  That reduction's
basis is also the rank test: a row left without a pivot is a free
direction of the cokernel.

The torus oracle realizes the n = 1 case of the degree law.  A word map
induces the self-map x -> A x of the torus R^N / Z^N, with A its
abelianization.  When det A != 0 that map is a |det A|-sheeted covering,
so every point is a regular value with exactly |det A| preimages.  The
half-open cube [0,1)^N holds exactly one representative of each torus
point (the closed cube would see a point with a coordinate 0 twice), so
counting the preimages of any rational target inside it gives |det A|
exactly, with no genericity condition.  All membership tests are exact;
floating point never appears.
"""

from __future__ import annotations

import itertools
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
# W = prod_i (sum_j |a_ij| + 1): W bounds the offset vectors the count
# visits, |det| (below W, by Hadamard's inequality) and N (at most
# log2 W); every admitted matrix counts in under 0.5 s (at most 0.36 s
# measured, under CPython 3.11 on a 2-vCPU AMD EPYC VM).  The cokernel
# enumeration visits (2 * (entry * dim + 1) + 1)^dim points.
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


def torus_preimage_count(a: IntMat, t: Sequence[Fraction | int]) -> int:
    """Count solutions x in [0,1)^N of  a @ x == t  (mod Z^N).

    Enumerates integer offset vectors k and solves a @ x = t + k exactly
    over the rationals, counting the solutions in the half-open cube.  For
    nonsingular a the count is |det a|, whatever the target.  Raises
    :class:`DomainLimitError` when W = prod_i (sum_j |a_ij| + 1) exceeds
    ``TORUS_MAX_WORK``, before any solve, and
    :class:`SingularMatrixError` on a zero row at once.

    >>> torus_preimage_count(IntMat([[2, 1], [0, 3]]), (0, Fraction(1, 2)))
    6
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
    target = tuple(Fraction(x) for x in t)
    if len(target) != n:
        raise ValueError(f"target length {len(target)} != {n}")
    det_a, adj = _det_and_adjugate(a)

    # Integerize: x_i = (base_i + sum_j w[i][j] k_j) / scale with
    # scale = den * det_a, via the adjugate adj = det_a * a^-1.
    den = math.lcm(*(x.denominator for x in target))
    c = [int(x * den) for x in target]

    scale = den * det_a
    flip = 1 if scale > 0 else -1
    scale *= flip
    base = [flip * sum(adj[i][j] * c[j] for j in range(n)) for i in range(n)]
    weight = [[flip * den * adj[i][j] for j in range(n)] for i in range(n)]

    # Offset ranges: a @ x for x in [0,1]^N stays in a per-row interval.
    ranges = []
    for i in range(n):
        lo = sum(min(0, a[i, j]) for j in range(n)) - target[i]
        hi = sum(max(0, a[i, j]) for j in range(n)) - target[i]
        ranges.append((math.ceil(lo), math.floor(hi)))

    # Per-row reachable contribution of the not-yet-fixed offsets; used to
    # prune whole subtrees whose interval misses [0, scale).
    suffix_min = [[0] * (n + 1) for _ in range(n)]
    suffix_max = [[0] * (n + 1) for _ in range(n)]
    for i in range(n):
        for d in range(n - 1, -1, -1):
            lo_k, hi_k = ranges[d]
            contrib = (weight[i][d] * lo_k, weight[i][d] * hi_k)
            suffix_min[i][d] = suffix_min[i][d + 1] + min(contrib)
            suffix_max[i][d] = suffix_max[i][d + 1] + max(contrib)

    def walk(depth: int, partial: list[int]) -> int:
        # The recursion is n <= log2(TORUS_MAX_WORK) deep.
        if depth == n:
            return 1
        found = 0
        lo_k, hi_k = ranges[depth]
        for k in range(lo_k, hi_k + 1):
            nxt = [partial[i] + weight[i][depth] * k for i in range(n)]
            if all(nxt[i] + suffix_max[i][depth + 1] >= 0
                   and nxt[i] + suffix_min[i][depth + 1] < scale for i in range(n)):
                found += walk(depth + 1, nxt)
        return found

    return walk(0, base)


def numeric_degree_u1(f: FreeHom, t: Sequence[Fraction | int]) -> int:
    """Preimage count of the circle-group map induced by ``f``.

    Bridges word maps to the torus oracle; must equal the invariant
    pipeline's magnitude in the rank-one unitary case.
    """
    return torus_preimage_count(abelianize(f), t)


def _triangular_lattice_basis(a: IntMat) -> list[list[int] | None]:
    """Lower-triangular basis of the column lattice: plain Euclidean column
    reduction, one pivot row at a time.  A row the lattice has no pivot in
    gets None, so the lattice has full row rank exactly when no entry is
    None."""
    cols = [list(a.column(j)) for j in range(a.cols)]
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


def _canonical_residue(point: Sequence[int], basis: list[list[int]]) -> tuple[int, ...]:
    v = list(point)
    for r, b in enumerate(basis):
        q = v[r] // b[r]
        if q:
            for i in range(r, len(v)):
                v[i] -= q * b[i]
    return tuple(v)


def cokernel_enumeration(a: IntMat):
    """Class count of Z^rows modulo the column lattice, by enumeration.

    Admissible inputs are at most COKER_MAX_DIM x COKER_MAX_DIM with entries
    in [-COKER_MAX_ENTRY, COKER_MAX_ENTRY].  A free direction (a row
    without a pivot in the Euclidean lattice basis, i.e. rank below the row
    count) gives INFINITE; otherwise every residue class has a
    representative in the bounding box of side 2*(max|entry|*cols + 1), and
    distinct classes are told apart by an exact canonical-reduction label.
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
    bound = max_entry * a.cols + 1
    labels = set()
    for point in itertools.product(range(-bound, bound + 1), repeat=a.rows):
        labels.add(_canonical_residue(point, basis))
    return len(labels)
