"""Brute-force verifiers, independent of the main pipelines.

Nothing here imports the determinant, Smith normal form, or exterior
algebra code: the point of an oracle is to disagree loudly if those are
wrong.  Rational linear algebra is done locally with ``fractions.Fraction``
(exact Gauss-Jordan), and lattice-quotient counting uses plain Euclidean
column reduction plus exhaustive point enumeration.  That reduction's
basis is also the rank test: a row left without a pivot is a free
direction of the cokernel.

The torus oracle realizes the n = 1 case of the degree law: the self-map
of a torus induced by a word map has |degree| preimages over any generic
point, countable exactly as lattice points of a parallelepiped.  All
membership tests are exact; floating point never appears.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intlinalg import INFINITE, IntMat
from .words import FreeHom, abelianize

__all__ = [
    "LatticeCountResult",
    "NonGenericTargetError",
    "SingularMatrixError",
    "DomainLimitError",
    "TORUS_MAX_DET",
    "COKER_MAX_DIM",
    "COKER_MAX_ENTRY",
    "SALT_RANGE",
    "torus_preimage_count",
    "generic_target",
    "numeric_degree_u1",
    "cokernel_enumeration",
]


class NonGenericTargetError(ValueError):
    """A preimage landed on the fundamental-domain boundary; the target is
    not generic (never the case for :func:`generic_target`'s)."""


class SingularMatrixError(ValueError):
    """The torus oracle needs a nonsingular acting matrix."""


class DomainLimitError(ValueError):
    """Input outside an oracle's admissible size box."""


# The oracles' size boxes.  The torus count takes time linear in |det|
# (about 0.1 s at the limit under CPython 3.11 on a 3.3 GHz AMD EPYC vCPU);
# the cokernel enumeration visits (2 * (entry * dim + 1) + 1)^dim points.
TORUS_MAX_DET = 100_000
COKER_MAX_DIM = 3
COKER_MAX_ENTRY = 4

# generic_target reduces its salt modulo this before the prime search, so
# the search starts below |det| + 2^16 + 2 whatever the salt; salts that
# differ by less than it (the CLI's seed + 101 * i) still start apart.
SALT_RANGE = 1 << 16


@dataclass(frozen=True)
class LatticeCountResult:
    count: int
    target: tuple[Fraction, ...]


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


def torus_preimage_count(a: IntMat, t: Sequence[Fraction | int]) -> LatticeCountResult:
    """Count solutions x in [0,1)^N of  a @ x == t  (mod Z^N).

    Enumerates integer offset vectors k and solves a @ x = t + k exactly
    over the rationals; a solution with any coordinate exactly 0 or 1
    signals a non-generic target.  For generic t the count is |det a|.
    Raises :class:`DomainLimitError` when |det a| exceeds ``TORUS_MAX_DET``.
    """
    if not a.is_square:
        raise SingularMatrixError("acting matrix must be square")
    n = a.rows
    target = tuple(Fraction(x) for x in t)
    if len(target) != n:
        raise ValueError(f"target length {len(target)} != {n}")
    det_a, adj = _det_and_adjugate(a)
    if abs(det_a) > TORUS_MAX_DET:
        raise DomainLimitError(f"|det| exceeds the torus limit {TORUS_MAX_DET}")

    if n == 0:
        return LatticeCountResult(count=1, target=target)

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
    if any(lo_k > hi_k for lo_k, hi_k in ranges):
        return LatticeCountResult(count=0, target=target)

    # Per-row reachable contribution of the not-yet-fixed offsets; used to
    # prune whole subtrees whose interval misses [0, scale].
    suffix_min = [[0] * (n + 1) for _ in range(n)]
    suffix_max = [[0] * (n + 1) for _ in range(n)]
    for i in range(n):
        for d in range(n - 1, -1, -1):
            lo_k, hi_k = ranges[d]
            contrib = (weight[i][d] * lo_k, weight[i][d] * hi_k)
            suffix_min[i][d] = suffix_min[i][d + 1] + min(contrib)
            suffix_max[i][d] = suffix_max[i][d + 1] + max(contrib)

    count = 0

    def walk(depth: int, partial: list[int]) -> None:
        nonlocal count
        if depth == n:
            boundary = False
            for num in partial:
                if num < 0 or num > scale:
                    return
                if num == 0 or num == scale:
                    boundary = True
            if boundary:
                raise NonGenericTargetError(
                    "a preimage lies on the fundamental-domain boundary"
                )
            count += 1
            return
        lo_k, hi_k = ranges[depth]
        for k in range(lo_k, hi_k + 1):
            nxt = [partial[i] + weight[i][depth] * k for i in range(n)]
            prune = False
            for i in range(n):
                reach_lo = nxt[i] + suffix_min[i][depth + 1]
                reach_hi = nxt[i] + suffix_max[i][depth + 1]
                if reach_hi < 0 or reach_lo > scale:
                    prune = True
                    break
            if not prune:
                walk(depth + 1, nxt)

    walk(0, base)
    return LatticeCountResult(count=count, target=target)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def generic_target(a: IntMat, salt: int = 0) -> tuple[Fraction, ...]:
    """A provably generic target: components c_j / p for a prime p > |det|.

    Over the denominator p * |det|, preimage coordinate i has a numerator
    congruent to +-adj_i . c mod p, and it sits on the fundamental-domain
    boundary only when that numerator is 0 or p * |det|, so only when
    adj_i . c is 0 mod p.  The numerators c (powers of a base, a
    Vandermonde pattern) are chosen so that no adjugate row is orthogonal
    to c mod p, so :func:`torus_preimage_count` never raises
    :class:`NonGenericTargetError` on the result.  Each row's polynomial
    has few roots mod p, and p grows with the search, so it always
    terminates.  The salt is first reduced modulo ``SALT_RANGE``.
    """
    det_a, adj = _det_and_adjugate(a)
    n = a.rows
    if n == 0:
        return ()
    salt %= SALT_RANGE
    p = max(abs(det_a), n, 2) + 1 + salt
    while True:
        while not _is_prime(p):
            p += 1
        for step in range(p - 1):
            base = (salt + step) % (p - 1) + 1
            c = [pow(base, j + 1, p) for j in range(n)]
            if any(x == 0 for x in c):
                continue
            if all(sum(row[j] * c[j] for j in range(n)) % p for row in adj):
                return tuple(Fraction(x, p) for x in c)
        p += 1


def numeric_degree_u1(f: FreeHom, t: Sequence[Fraction | int]) -> int:
    """Preimage count of the circle-group map induced by ``f``.

    Bridges word maps to the torus oracle; must equal the invariant
    pipeline's magnitude in the rank-one unitary case.
    """
    return torus_preimage_count(abelianize(f), t).count


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
