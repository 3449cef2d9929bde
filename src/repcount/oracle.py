"""Brute-force verifiers, independent of the main pipelines.

Nothing here imports the determinant, Smith normal form, or exterior
algebra code: the point of an oracle is to disagree loudly if those are
wrong.  Rational linear algebra is done locally by exact Gauss-Jordan,
each row held as plain ints over one denominator, and lattice-quotient
counting uses plain Euclidean column reduction plus enumeration of a
box.  That reduction's basis is also the rank test: a row left without a
pivot is a free direction of the cokernel.  The basis is lower
triangular, so the enumeration reduces the box's prefixes level by
level and expands each distinct prefix state once.  The box's last
coordinate runs over max(side, p) consecutive values, p the last pivot,
so under every prefix it leaves all p residues: each prefix label counts
p, and the last coordinate is never visited.  Widening the box does not
change the count, since labels are class invariants and every class
already has a point in the unwidened box.

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
W = prod_d (r_d + 1).  The walk recurses over the offsets before the
last two; the next-to-last runs as one flat loop that computes each
last-offset interval inline, and N = 1 is one direct interval.  The rows
whose last weight is negative are reflected once per target, so an
interval costs a multiply-add, two floor quotients and two compares per
row.  Neither ``Fraction`` arithmetic nor floating point appears in a
count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .intlinalg import INFINITE, DomainLimitError, IntMat, SingularMatrixError
from .words import FreeHom, abelianize


# The oracles' size boxes.  The torus count's box is on
# W = prod_i (sum_j |a_ij| + 1): W bounds the intervals the count walks
# (fewer than W^((N-1)/N)), |det| (below W, by Hadamard's inequality) and
# N (at most log2 W).  The slowest three-target counts measured took
# 80-110 ms (best of 3, at the targets of seeds 0, 1, 2 and 7): dense 6x6
# matrices with row sums 7, 8, 8, 8, 8, 8 (W = 472,392), under CPython
# 3.11.7 on a 2-vCPU Intel Xeon VM shared with other work.  The cokernel
# enumeration's box has side 2 * (entry * cols + 1) + 1 in its first
# rows - 1 coordinates, so it reduces at most 27^2 = 729 prefixes, each
# distinct prefix state expanded once, and it counts the last coordinate
# without visiting it.
TORUS_MAX_WORK = 500_000
COKER_MAX_DIM = 3
COKER_MAX_ENTRY = 4


def _det_and_adjugate(a: IntMat) -> tuple[int, list[list[int]]]:
    """Exact determinant and integer adjugate, by Gauss-Jordan over the
    rationals on integer rows.

    Row i of [a | I] is held as a list of ints over one positive
    denominator, both divided by their gcd after every row operation, and
    the determinant as a reduced fraction.  Deliberately a different
    algorithm from the fraction-free (Bareiss) elimination used
    elsewhere, which divides exactly by the previous pivot.  Raises
    SingularMatrixError on rank deficiency.
    """
    n = a.rows
    rows = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a.data)]
    dens = [1] * n
    num, den = 1, 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError("acting matrix is singular")
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            dens[col], dens[pivot_row] = dens[pivot_row], dens[col]
            num = -num
        pivot = rows[col]
        p = pivot[col]
        num *= p
        den *= dens[col]
        g = math.gcd(num, den)
        num, den = num // g, den // g
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                # rows[r] / dens[r] minus factor / (dens[r] p) times the
                # pivot row: the pivot row's own denominator cancels.
                row = [p * x - factor * y for x, y in zip(rows[r], pivot)]
                d = dens[r] * p
                g = math.gcd(d, *row) if d > 0 else -math.gcd(d, *row)
                rows[r] = [x // g for x in row]
                dens[r] = d // g
    # Row i is now row[i] e_i | row[n:] over its denominator, so row i of
    # a^-1 is row[n:] / row[i], and the adjugate is det times a^-1.
    assert den == 1 and all(num * x % row[i] == 0 for i, row in enumerate(rows) for x in row[n:])
    return num, [[num * x // row[i] for x in row[n:]] for i, row in enumerate(rows)]


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
    targets = [tuple(x if isinstance(x, Fraction) else Fraction(x) for x in t)
               for t in targets]
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
    last = n - 1
    top = scale - 1
    # Row i needs 0 <= x_i <= top, with x_i = base_i + sum_d w_id k_d for
    # the offsets taken in that order.  Reflecting a row, x_i -> top - x_i,
    # keeps that range, so each row whose last weight is negative is
    # reflected, and the rows whose last weight is positive come first.
    rows = [(b, [flip * den * row[j] for j in order]) for b, row in zip(base, adj)]
    rows = [(top - b, [-w for w in ws]) if ws[last] < 0 else (b, ws) for b, ws in rows]
    rows.sort(key=lambda row: row[1][last] == 0)
    base = [b for b, _ in rows]
    columns = [list(column) for column in zip(*(ws for _, ws in rows))]
    up = [w for w in columns[last] if w]
    n_up = len(up)
    last_lo, last_hi = ranges[last]
    if not last:  # one direct interval: 0 <= p + w k <= top with w > 0
        (p,), (w,) = base, up
        return max(0, min(last_hi, (top - p) // w) - max(last_lo, -(p // w)) + 1)
    up_column = columns[last - 1][:n_up]
    zero_column = columns[last - 1][n_up:]

    def walk(depth: int, partial: list[int]) -> int:
        # The recursion is n - 1 <= log2(TORUS_MAX_WORK) deep.
        if depth < last - 1:
            lo_k, hi_k = ranges[depth]
            column = columns[depth]
            return sum(walk(depth + 1, [p + w * k for p, w in zip(partial, column)])
                       for k in range(lo_k, hi_k + 1))
        # The depth before the last, as one flat loop over its offset j.
        # Row i needs 0 <= p + c j + w k <= top: for w > 0 an integer
        # interval in k; a row with w = 0 holds for every k or none.
        up_rows = list(zip(partial, up_column, up))
        zeros = list(zip(partial[n_up:], zero_column))
        count = 0
        lo_j, hi_j = ranges[depth]
        for j in range(lo_j, hi_j + 1):
            lo_k, hi_k = last_lo, last_hi
            for p, c, w in up_rows:
                p += c * j
                k = -(p // w)
                if k > lo_k:
                    lo_k = k
                k = (top - p) // w
                if k < hi_k:
                    hi_k = k
            if hi_k >= lo_k and all(0 <= p + c * j <= top for p, c in zeros):
                count += hi_k - lo_k + 1
        return count

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
    max|entry| * cols + 1, since x = sum_j t_j a_j is congruent to
    sum_j frac(t_j) a_j, and the count is the number of distinct exact
    canonical-reduction labels of the box's points.  Row r's reduction
    reads only coordinates 0..r, so only the first rows - 1 coordinates
    are walked, and a prefix's reduction state (its label and what it
    added to the later coordinates before the last) fixes everything
    under it, so each distinct state is expanded once.  The last
    coordinate is widened to max(side, p) consecutive values, side =
    2 * bound + 1 and p its pivot, so under each prefix it leaves all p
    residues and the count is p times the number of prefix labels.  The
    wider box sees no class the box misses, as labels are class
    invariants.  Here p = 20 exceeds the side, 19:

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
    p = basis[last][last]
    if not last:
        return p  # the last coordinate alone, over at least p values
    # A state is a prefix of r coordinates as (label, offsets): label its
    # residues, offsets[i - r] what their reductions added to coordinate
    # i < last.  Equal states have equal subtrees, so each is expanded once.
    states = {((), (0,) * last)}
    for r in range(last - 1):
        b = basis[r]
        states = {(label + (residue,),
                   tuple(o - q * b[i] for i, o in enumerate(offsets[1:], r + 1)))
                  for label, offsets in states
                  for x in box for q, residue in [divmod(x + offsets[0], b[r])]}
    # The next-to-last coordinate's first min(pivot, side) values leave all
    # the residues its box values do; under each, the last leaves all p.
    pivot = basis[last - 1][last - 1]
    classes = min(pivot, len(box))
    return p * len({label + (y % pivot,) for label, (first,) in states
                    for y in range(first - bound, first - bound + classes)})
