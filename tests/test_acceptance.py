"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) including its elapsed time, and asserts both exactness and
the stated time budget.  Random corpora are seeded, so every run checks the
same instances.
"""

import math
import random
import time
from functools import lru_cache

from repcount import (
    INFINITE,
    FreeHom,
    MultiIndex,
    Word,
    assembled_word_map,
    cokernel_enumeration,
    cokernel_order,
    cylinder_monomial_value,
    degree_of_word_map,
    det,
    glue_matrix,
    lambda_invariant,
    lambda_invariants,
    multiindex_degree,
    numeric_degree_u1,
    orientation_flip_sign,
    pair_cohomology,
    smith_normal_form,
    special_unitary,
    stabilize,
    unitary,
)
from repcount.cli import oracle_targets
from support import random_int_mat, random_t0_splitting, rebuilt

SEED = 20260810
KINDS = [unitary(1), unitary(2), unitary(3), special_unitary(2), special_unitary(3)]


def report(num, elapsed, budget, text):
    print(f"ACCEPTANCE {num:2d} PASS ({elapsed:6.2f}s / budget {budget:g}s): {text}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


@lru_cache(maxsize=None)
def t0_corpus(count=200):
    rng = random.Random(SEED)
    return tuple(random_t0_splitting(rng) for _ in range(count))


@lru_cache(maxsize=None)
def corpus_reports():
    """All criterion-2 invariant reports, shared with criterion 3."""
    out = []
    for s in t0_corpus():
        for kind, rep in zip(KINDS, lambda_invariants(s, KINDS)):
            out.append((s, kind, rep))
    return tuple(out)


def test_criterion_01_power_map_law():
    start = time.monotonic()
    for n in (1, 2, 3, 4):
        kind = unitary(n)
        for r in (1, 2, 3, 4, 5):
            f = FreeHom(1, 1, (Word(((1, r),)),))
            assert abs(degree_of_word_map(f, kind)) == r**n
    report(1, time.monotonic() - start, 1.0,
           "|degree(y -> y^r)| == r^n for n in 1..4, r in 1..5")


def test_criterion_02_three_pipeline_agreement():
    start = time.monotonic()
    checked = 0
    for s, kind, rep in corpus_reports():
        # Each pipeline recomputed from the splitting, not read off the report.
        r = kind.lie_rank
        k = pair_cohomology(s).order_H2_pair
        assert abs(det(glue_matrix(s))) ** r == rep.abs_value
        assert abs(degree_of_word_map(assembled_word_map(s), kind)) == rep.abs_value
        assert (0 if k is INFINITE else k**r) == rep.abs_value
        checked += 1
    assert checked == 200 * len(KINDS)
    report(2, time.monotonic() - start, 60.0,
           f"P1 == P2 == P3 exactly on {checked} (splitting, group) pairs")


def test_criterion_03_k_power_theorems():
    start = time.monotonic()
    finite = 0
    for _, kind, rep in corpus_reports():
        if rep.K is INFINITE:
            assert rep.abs_value == 0
            continue
        assert rep.abs_value == rep.K ** kind.lie_rank
        finite += 1
    assert finite > 100
    report(3, time.monotonic() - start, 60.0,
           f"abs == K^n (U) and K^(n-1) (SU) on {finite} finite-K instances")


def test_criterion_04_u1_torus_oracle():
    start = time.monotonic()
    rng = random.Random(SEED + 4)
    done = 0
    while done < 50:
        s = random_t0_splitting(rng)
        d = abs(det(glue_matrix(s)))
        if d == 0 or d > 50:
            continue
        expected = lambda_invariant(s, unitary(1)).abs_value
        assert expected == d
        word_map = assembled_word_map(s)
        # the CLI's three targets, and the zero target, whose preimage 0 is a cube corner
        targets = oracle_targets(done, s.u) + [(0,) * s.u]
        assert numeric_degree_u1(word_map, targets) == (expected,) * 4
        done += 1
    report(4, time.monotonic() - start, 30.0,
           "torus preimage count == U(1) invariant on 50 instances x 4 targets")


def test_criterion_05_vanishing_theorem():
    from repcount import AdaptedSplitting, parse_word

    start = time.monotonic()
    # k_map lands in the marked-surface generators: restriction degenerates
    restriction_degenerate = AdaptedSplitting(
        h1=2, h2=1, u=2, g1=1,
        k_map=FreeHom(2, 2, (parse_word("g1"), parse_word("g1^2"))),
        l_map=FreeHom(2, 1, (parse_word("g1"), parse_word("g1"))),
    )
    rep = lambda_invariant(restriction_degenerate, unitary(2))
    assert rep.abs_value == 0
    assert rep.vanishing_reason == "restriction_not_iso"
    reasons = {r.vanishing_reason for r in lambda_invariants(restriction_degenerate, KINDS)}
    assert reasons == {"restriction_not_iso"}

    # commutator-degenerate gluing: (b - c) rank deficient, H^2 has rank
    h2_degenerate = AdaptedSplitting(
        h1=2, h2=2, u=2, g1=2,
        k_map=FreeHom(2, 2, (parse_word("g1 g2 g1^-1 g2^-1"), Word())),
        l_map=FreeHom(2, 2, (Word(), parse_word("g1 g2 g1^-1 g2^-1"))),
    )
    assert h2_degenerate.T == 0
    rep = lambda_invariant(h2_degenerate, unitary(3))
    assert rep.abs_value == 0
    assert rep.vanishing_reason == "H2_nonzero"
    reasons = {r.vanishing_reason for r in lambda_invariants(h2_degenerate, KINDS)}
    assert reasons == {"H2_nonzero"}
    report(5, time.monotonic() - start, 10.0,
           "hand-built degenerate gluings vanish with the matching reason")


def test_criterion_06_stabilization_invariance():
    start = time.monotonic()
    nonzero = 0
    for idx, s in enumerate(t0_corpus()[:100]):
        kind = KINDS[idx % len(KINDS)]
        r1 = lambda_invariant(s, kind, use_sign_convention=True)
        r2 = lambda_invariant(stabilize(s), kind, use_sign_convention=True)
        assert r2.abs_value == r1.abs_value
        if r1.abs_value > 0:
            nonzero += 1
            rank = kind.lie_rank
            pre1 = r1.sign * (-1) ** (rank * s.u_hat_genus)
            pre2 = r2.sign * (-1) ** (rank * (s.u_hat_genus + 1))
            assert pre2 == pre1 * (-1) ** rank
            assert r2.sign == r1.sign
    assert nonzero >= 30
    report(6, time.monotonic() - start, 60.0,
           f"abs invariant under stabilize on 100 instances; "
           f"pre-normalization sign flips by (-1)^rank on {nonzero} nonzero ones")


def test_criterion_07_cylinder_example():
    start = time.monotonic()
    for m in (1, 2, 3):
        for kind in KINDS:
            value = cylinder_monomial_value(m, kind)
            assert abs(value) == math.factorial(m) ** kind.lie_rank
    report(7, time.monotonic() - start, 10.0,
           "|cylinder value(m)| == (m!)^rank for m in 1..3, U(1..3), SU(2..3)")


def test_criterion_08_snf_property_suite():
    start = time.monotonic()
    rng = random.Random(SEED + 8)
    for i in range(1000):
        size = 2 if i % 2 == 0 else 3
        a = random_int_mat(rng, size, size, -2, 2)
        s = smith_normal_form(a)
        assert s.U @ a @ s.V == s.D
        assert abs(det(s.U)) == 1
        assert abs(det(s.V)) == 1
        nonzero = [x for x in s.diag if x != 0]
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        expected = cokernel_order(a)
        got = cokernel_enumeration(a)
        if expected is INFINITE:
            assert got is INFINITE
        else:
            assert got == expected
    report(8, time.monotonic() - start, 60.0,
           "U@A@V == D, unimodularity, divisibility, coker == enumeration x1000")


def test_criterion_09_orientation_flip():
    start = time.monotonic()
    flipped_checked = 0
    for idx, s in enumerate(t0_corpus()[:60]):
        kind = KINDS[idx % len(KINDS)]
        plain = lambda_invariant(s, kind, use_sign_convention=True)
        if plain.abs_value == 0:
            continue
        mirrored = rebuilt(s, orientation_reversed=True)
        rep = lambda_invariant(mirrored, kind, use_sign_convention=True)
        assert rep.abs_value == plain.abs_value
        assert rep.sign == plain.sign * orientation_flip_sign(kind)
        if kind.family == "U":
            assert orientation_flip_sign(kind) == (-1) ** kind.n
        else:
            assert orientation_flip_sign(kind) == (-1) ** (kind.n - 1)
        flipped_checked += 1
    assert flipped_checked >= 20
    report(9, time.monotonic() - start, 30.0,
           f"orientation toggle scales sign by (-1)^rank, abs fixed ({flipped_checked} instances)")


def test_criterion_10_multiindex_arithmetic():
    start = time.monotonic()
    rng = random.Random(SEED + 10)
    for _ in range(100):
        i_indices = sorted(rng.sample(range(1, 12), rng.randint(0, 4)))
        j_indices = sorted(rng.sample(range(1, 12), rng.randint(0, 4)))
        I = tuple((i, rng.randint(1, 5)) for i in i_indices)
        J = tuple((j, rng.randint(1, 5)) for j in j_indices)
        m = MultiIndex(I=I, J=J)
        # direct re-summation, written out independently of the module
        expected = 0
        for i, r in I:
            expected += 2 * i * r
        for j, s in J:
            expected += 4 * j * s - 2 * s
        assert multiindex_degree(m) == expected
    report(10, time.monotonic() - start, 5.0,
           "multi-index degree matches independent re-summation x100")
