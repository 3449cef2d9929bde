"""Shared generators and fixtures for the test suite."""

import itertools
import math
import random
from fractions import Fraction

from repcount import (
    INFINITE,
    AdaptedSplitting,
    ExtElement,
    FreeHom,
    GroupKind,
    IntMat,
    PairHomologyReport,
    Word,
    abelianize,
    free_reduce,
    oracle,
    parse_word,
)


def identity_hom(n: int) -> FreeHom:
    """The identity map of the free group of rank n."""
    return FreeHom(n, n, tuple(Word(((i, 1),)) for i in range(1, n + 1)))


def composite(f: FreeHom, g: FreeHom) -> FreeHom:
    """The composite f o g, so (f o g)(y) = f(g(y)): each letter of g's
    images is replaced by its image under f, inverted for a negative
    exponent, and the result freely reduced."""
    images = []
    for w in g.images:
        letters = []
        for index, exponent in w.letters:
            image = f.images[index - 1].letters
            if exponent < 0:
                image = tuple((h, -e) for h, e in reversed(image))
            letters.extend(image * abs(exponent))
        images.append(free_reduce(letters))
    return FreeHom(g.source_rank, f.target_rank, tuple(images))


def identity_matrix(n: int) -> IntMat:
    return IntMat([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def zero_matrix(rows: int, cols: int) -> IntMat:
    return IntMat([[0] * cols for _ in range(rows)], cols=cols)


def random_word(rng: random.Random, rank: int, max_len: int = 8) -> Word:
    letters = [
        (rng.randint(1, rank), rng.choice((-1, 1)))
        for _ in range(rng.randint(0, max_len))
    ]
    return free_reduce(letters)


def random_free_hom(rng: random.Random, source: int, target: int,
                    max_len: int = 8) -> FreeHom:
    return FreeHom(source, target,
                   tuple(random_word(rng, target, max_len) for _ in range(source)))


def random_t0_splitting(rng: random.Random, max_rank: int = 5,
                        max_word_len: int = 8) -> AdaptedSplitting:
    """Random valid splitting with T == 0 and ranks bounded by max_rank."""
    while True:
        h1 = rng.randint(1, max_rank)
        h2 = rng.randint(1, max_rank)
        g1 = rng.randint(0, h1)
        u = h1 + h2 - g1
        if 1 <= u <= max_rank:
            break
    return AdaptedSplitting(
        h1=h1, h2=h2, u=u, g1=g1,
        k_map=random_free_hom(rng, u, h1, max_word_len),
        l_map=random_free_hom(rng, u, h2, max_word_len),
    )


def random_int_mat(rng: random.Random, rows: int, cols: int,
                   lo: int = -5, hi: int = 5) -> IntMat:
    return IntMat([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols)


def reference_cylinder(m: int, kind: GroupKind) -> int:
    """The product-cylinder value expanded with ExtElement on sorted tuple
    keys, independent of the package's bitmask kernel: for each generator
    j, y_j = sum_p a_j^(p) ^ b_j^(p) over the 2m factors is wedged onto the
    accumulator m times, and the coefficient of the factor-major top
    monomial is read off."""
    n = 2 * m
    acc = ExtElement.unit(kind, n)
    for j in kind.generator_range:
        y_j = ExtElement.zero(kind, n)
        for p in range(1, m + 1):
            y_j = y_j + ExtElement.monomial(kind, n, 1, [(2 * p - 1, j), (2 * p, j)])
        for _ in range(m):
            acc = acc.wedge(y_j)
    top = tuple((k, j) for k in range(1, n + 1) for j in kind.generator_range)
    return acc.terms.get(top, 0)


def mayer_vietoris_reference(s: AdaptedSplitting) -> IntMat:
    """The u x (h1+h2) Mayer-Vietoris matrix of (b - c) on full first
    cohomology, assembled from the abelianized maps: the transpose of
    abelianize(k_map) stacked over -abelianize(l_map).  An assembly
    independent of the package's own MV rows, so it can check them."""
    k, l = abelianize(s.k_map), abelianize(s.l_map)
    rows = [list(row) for row in k.data] + [[-x for x in row] for row in l.data]
    return IntMat(rows, cols=s.u).transpose()


def cokernel_enumeration_reference(a: IntMat):
    """The cokernel oracle's class count, one point at a time: every point
    of the oracle's box is reduced from scratch against the oracle's own
    lattice basis, row by row, and the distinct results are counted.  The
    size box is not applied.  Checks that the oracle's count, which walks
    only the box's prefixes and counts the last coordinate as a union of
    residue windows, equals the number of distinct labels of the box's
    points."""
    basis = oracle._triangular_lattice_basis(a)
    if None in basis:
        return INFINITE
    bound = max((abs(x) for row in a.data for x in row), default=0) * a.cols + 1
    labels = set()
    for point in itertools.product(range(-bound, bound + 1), repeat=a.rows):
        v = list(point)
        for r, b in enumerate(basis):
            q = v[r] // b[r]
            for i in range(r, len(v)):
                v[i] -= q * b[i]
        labels.add(tuple(v))
    return len(labels)


def det_and_adjugate_reference(a: IntMat) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate of a square ``a`` by Gauss-Jordan on
    ``Fraction`` entries, as the torus oracle computed them before its rows
    were held as ints: each pivot row is divided by its pivot, and the
    adjugate is det times the reduced right half of [a | I].  Raises
    ``oracle.SingularMatrixError`` when a column has no pivot."""
    n = a.rows
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a.data)]
    d = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            raise oracle.SingularMatrixError("acting matrix is singular")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            d = -d
        pivot = m[col][col]
        d *= pivot
        m[col] = [x / pivot for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return int(d), [[int(x * d) for x in row[n:]] for row in m]


def torus_preimage_count_reference(a: IntMat, t) -> int:
    """The torus oracle's count for one target as it was written before one
    solve served every target: det a and the adjugate from
    ``det_and_adjugate_reference``, offset ranges by ``math.ceil`` and
    ``math.floor`` on Fractions, and a walk that enumerates every offset,
    the last one included.  The size box is not applied; ``a`` must be
    nonsingular."""
    n = a.rows
    det_a, adj = det_and_adjugate_reference(a)

    target = tuple(Fraction(x) for x in t)
    den = math.lcm(*(x.denominator for x in target))
    c = [int(x * den) for x in target]
    scale = den * det_a
    flip = 1 if scale > 0 else -1
    scale *= flip
    base = [flip * sum(adj[i][j] * c[j] for j in range(n)) for i in range(n)]
    weight = [[flip * den * adj[i][j] for j in range(n)] for i in range(n)]
    ranges = []
    for i in range(n):
        lo = sum(min(0, a[i, j]) for j in range(n)) - target[i]
        hi = sum(max(0, a[i, j]) for j in range(n)) - target[i]
        ranges.append((math.ceil(lo), math.floor(hi)))
    suffix_min = [[0] * (n + 1) for _ in range(n)]
    suffix_max = [[0] * (n + 1) for _ in range(n)]
    for i in range(n):
        for depth in range(n - 1, -1, -1):
            lo_k, hi_k = ranges[depth]
            contrib = (weight[i][depth] * lo_k, weight[i][depth] * hi_k)
            suffix_min[i][depth] = suffix_min[i][depth + 1] + min(contrib)
            suffix_max[i][depth] = suffix_max[i][depth + 1] + max(contrib)

    def walk(depth, partial):
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


def echelon_reference(a: IntMat):
    """``intlinalg.echelon`` as it was written with floor quotients: Euclid
    down each column with the first row of least |entry| as pivot, every
    row kept at full width, each step subtracting ``row[c] // p`` times the
    pivot.  One absolute pivot per column, 0 for a column without one: the
    same pivots, by other remainders."""
    active = [list(row) for row in a.data]
    pivots = []
    for c in range(a.cols):
        column = [row for row in active if row[c]]
        if not column:
            pivots.append(0)
            continue
        while len(column) > 1:
            pivot = column[0]
            for row in column:
                if abs(row[c]) < abs(pivot[c]):
                    pivot = row
            p = pivot[c]
            left = [pivot]
            for row in column:
                if row is not pivot:
                    q = row[c] // p
                    row[c:] = [x - q * y for x, y in zip(row[c:], pivot[c:])]
                    if row[c]:
                        left.append(row)
            column = left
        pivot = column[0]
        pivots.append(abs(pivot[c]))
        active = [row for row in active if row is not pivot]
    return tuple(pivots)


def p3_scale_document(u: int) -> str:
    """A T = 0 U(1) document of rank u: g1 = u // 4, h1 = g1 + u // 2, and
    every word 30 random letters g_i^(+-1), drawn from ``random.Random(u)``,
    unreduced.  The continuous-integration step that runs ``repcount
    homology`` at u = 200 reads its document from here."""
    rng = random.Random(u)
    g1 = u // 4
    h1 = g1 + u // 2
    h2 = u + g1 - h1

    def word(rank: int) -> str:
        return " ".join(f"g{rng.randint(1, rank)}^{rng.choice((-1, 1))}" for _ in range(30))

    k_map = " ; ".join(word(h1) for _ in range(u))
    l_map = " ; ".join(word(h2) for _ in range(u))
    return (f"n = 1\ngroup = U\nh1 = {h1}\nh2 = {h2}\nu = {u}\ng1 = {g1}\n"
            f"k_map = {k_map}\nl_map = {l_map}\n")


def trivial_splitting() -> AdaptedSplitting:
    """Product-like splitting: h1 = g1 = h2 = u = 1 with identity gluing."""
    return AdaptedSplitting(
        h1=1, h2=1, u=1, g1=1,
        k_map=FreeHom(1, 1, (Word(((1, 1),)),)),
        l_map=FreeHom(1, 1, (Word(((1, 1),)),)),
    )


def det6_splitting() -> AdaptedSplitting:
    """The instance used across modules; its glue matrix is [[2,1],[0,3]]."""
    return AdaptedSplitting(
        h1=2, h2=1, u=2, g1=1,
        k_map=FreeHom(2, 2, (parse_word("g2^2"), parse_word("g1"))),
        l_map=FreeHom(2, 1, (parse_word("g1^-1"), parse_word("g1^-3"))),
    )


def planted_document(rng: random.Random, u: int, variant: str):
    """A T = 0 U(1) document of rank u >= 8, with g1 = 3 and h2 = 5, whose
    answer is known by construction, and that answer: ``(document,
    signed det of the glue matrix, PairHomologyReport, vanishing reason)``.

    The glue matrix's transpose is P = E1 D E2: D is diagonal and E1, E2
    are u transvections in all (row or column i += +-1 times row or column
    k, with 1 <= |i - k| <= 3 and no wrap-around), so det P = prod D by the
    product rule alone.  P's free-H1 rows are the ``k_map`` exponent sums
    of g4 .. g_h1, its H2 rows, negated, those of the ``l_map``; each
    word's letters are shuffled.  D holds 2, 3 and -7 and ones.

    - ``"a"``: the marked rows are 0, so det = -42, |H^2(M)| = K = 42,
      b1(M) = g1 and the restriction is an isomorphism.
    - ``"b"``: D also holds a 0 and the marked rows are 0: H^2(M, Q) != 0.
    - ``"c"``: D also holds a 0 at j, and the first marked row is e_j (word
      j gets one letter g1).  j is taken where (E2^-1)_jj != 0, so e_j is
      outside P's row space: |H^2(M)| = 42 |(E2^-1)_jj|, the cofactor of
      e_j among E2's other rows, is finite, but H^1(M) misses a direction
      of H^1(S1), so K is INFINITE.
    """
    g1, h2 = 3, 5
    free1 = u - h2
    e2 = [[int(i == k) for k in range(u)] for i in range(u)]
    e2_inv = [row[:] for row in e2]
    left = []
    for _ in range(u):
        i = rng.randrange(u)
        k = rng.choice([k for k in range(i - 3, i + 4) if k != i and 0 <= k < u])
        c = rng.choice((-1, 1))
        if rng.random() < 0.5:
            left.append((i, k, c))
        else:
            # E2 <- E2 T with column i += c column k, so row k of the
            # inverse loses c times its row i.
            for row in e2:
                row[i] += c * row[k]
            e2_inv[k] = [x - c * y for x, y in zip(e2_inv[k], e2_inv[i])]
    j = rng.choice([i for i in range(u) if e2_inv[i][i]])
    diagonal = [1] * u
    for i, d in zip(rng.sample([i for i in range(u) if i != j], 3), (2, 3, -7)):
        diagonal[i] = d
    if variant != "a":
        diagonal[j] = 0
    p = [[d * x for x in row] for d, row in zip(diagonal, e2)]
    for i, k, c in left:
        p[i] = [x + c * y for x, y in zip(p[i], p[k])]

    def word(sums) -> str:
        letters = [f"g{g}" if e > 0 else f"g{g}^-1" for g, e in sums for _ in range(abs(e))]
        rng.shuffle(letters)
        return " ".join(letters)

    k_map = " ; ".join(
        word([(g1 + 1 + r, p[r][i]) for r in range(free1)]
             + ([(1, 1)] if variant == "c" and i == j else []))
        for i in range(u))
    l_map = " ; ".join(word([(r + 1, -p[free1 + r][i]) for r in range(h2)]) for i in range(u))
    document = (f"n = 1\ngroup = U\nh1 = {free1 + g1}\nh2 = {h2}\nu = {u}\ng1 = {g1}\n"
                f"k_map = {k_map}\nl_map = {l_map}\n")
    if variant == "a":
        return document, -42, PairHomologyReport(g1, 42, 42, True), None
    if variant == "b":
        return document, 0, PairHomologyReport(g1 + 1, INFINITE, INFINITE, False), "H2_nonzero"
    return (document, 0, PairHomologyReport(g1, 42 * abs(e2_inv[j][j]), INFINITE, False),
            "restriction_not_iso")


def det6_document(n: int = 2, u: int = 2, u_hat_genus: int | None = None) -> str:
    """The det6 document for U(n), stabilized to rank u >= 2: handle i >= 3
    maps to g_i in H1 and to the identity in H2, so K = 6 at every u.  The
    ``u_hat_genus`` line is written only when one is given.  The
    continuous-integration steps on det6 documents read them from here."""
    genus = "" if u_hat_genus is None else f"u_hat_genus = {u_hat_genus}\n"
    return (f"n = {n}\ngroup = U\nh1 = {u}\nh2 = 1\nu = {u}\ng1 = 1\n{genus}"
            "k_map = g2^2 ; g1" + "".join(f" ; g{i}" for i in range(3, u + 1)) + "\n"
            "l_map = g1^-1 ; g1^-3" + " ;" * (u - 2) + "\n")


DET6_DOCUMENT = det6_document()

# A U(1) document whose 9x9 acting matrix has |det| = 4 and row sums whose
# product W = prod (row sum + 1) is about 5.8e9, far past the torus box.
# The continuous-integration step on the torus box reads it from here.
DENSE9_DOCUMENT = """\
n = 1
group = U
h1 = 9
h2 = 1
u = 9
g1 = 1
k_map = g2^2 g3^-1 g4^-1 g5^-1 g6^-1 g8^-1 g9^-1 ; \
g2^-2 g3^2 g4^2 g5^2 g6^2 g7^-1 g8^2 g9 ; g2^-2 g3^2 g4^3 g5^3 g6^3 g8^3 g9^2 ; \
g2^-2 g3^2 g4 g5^2 g6 g7^-1 g8 g9 ; g2^-2 g3 g4 g5 g6^2 g7^-1 g8 g9^2 ; \
g2^-2 g4^-1 g6^-2 g7^3 ; g4^-1 g5^-1 g6^-2 g7^-1 g8^-1 g9^-1 ; g2^2 g5 g6^-1 g7^2 g8 ; \
g2^2 g4^-1 g6^-1 g9^-1
l_map = g1 ; g1^-1 ;  ; g1^-3 ; g1^-1 ; g1^-3 ; g1^-1 ; g1^-1 ; g1^-3
"""

# A U(1) document whose acting matrix is the dense 6x6 with row sums
# 7, 8, 8, 8, 8, 8 (W = 472,392, |det| = 375), the slowest torus shape the
# box admits: word i is g2^A[0][i] ... g6^A[4][i] in k_map and g1^-A[5][i]
# in l_map.  The continuous-integration step on the slowest torus count
# reads it from here.
DENSE6_DOCUMENT = """\
n = 1
group = U
h1 = 6
h2 = 1
u = 6
g1 = 1
k_map = g4^2 g5^2 g6 ; g2^-2 g3^-1 g5^2 g6^-1 ; g2 g4^2 g5 g6^-2 ; g2 g3^-3 g4 g5^2 ; \
g2^-3 g3^-2 g4^-2 g6 ; g3^-2 g4 g5^-1 g6^-3
l_map = g1^3 ;  ; g1^-1 ; g1^-3 ;  ; g1
"""

TRIVIAL_DOCUMENT = """\
n = 2
group = U
h1 = 1
h2 = 1
u = 1
g1 = 1
k_map = g1
l_map = g1
"""
