"""Shared generators and fixtures for the test suite."""

import random

from repcount import (
    AdaptedSplitting,
    FreeHom,
    IntMat,
    Word,
    abelianize,
    free_reduce,
    parse_word,
)


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
    return IntMat([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def mayer_vietoris_reference(s: AdaptedSplitting) -> IntMat:
    """The u x (h1+h2) Mayer-Vietoris matrix of (b - c) on full first
    cohomology, assembled from the abelianized maps: the transpose of
    abelianize(k_map) stacked over -abelianize(l_map).  An assembly
    independent of the package's own MV rows, so it can check them."""
    k, l = abelianize(s.k_map), abelianize(s.l_map)
    rows = [list(row) for row in k.data] + [[-x for x in row] for row in l.data]
    return IntMat(rows, cols=s.u).transpose()


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


DET6_DOCUMENT = """\
n = 2
group = U
h1 = 2
h2 = 1
u = 2
g1 = 1
k_map = g2^2 ; g1
l_map = g1^-1 ; g1^-3
"""

# A U(1) document whose 9x9 acting matrix has |det| = 4 and row sums whose
# product W = prod (row sum + 1) is about 5.8e9, far past the torus box.
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
