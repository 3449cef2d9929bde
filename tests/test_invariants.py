import dataclasses
import random
import time

import pytest

from repcount import (
    INFINITE,
    intlinalg,
    invariants,
    AdaptedSplitting,
    FreeHom,
    IntMat,
    InvalidSplittingError,
    MultiIndex,
    PairHomologyReport,
    PipelineDisagreementError,
    Word,
    WrongCodimensionError,
    assembled_word_map,
    degree_of_word_map,
    det,
    free_reduce,
    glue_matrix,
    lambda_invariant,
    lambda_invariants,
    lambda_polynomial_cylinder,
    multiindex_degree,
    orientation_flip_sign,
    pair_cohomology,
    parse_splitting_document,
    parse_word,
    smith_normal_form,
    special_unitary,
    stabilize,
    unitary,
)
from support import (
    det6_splitting,
    mayer_vietoris_reference,
    planted_document,
    random_free_hom,
    random_t0_splitting,
    rebuilt,
    trivial_splitting,
    with_cancelling_pairs,
)

KINDS = [unitary(1), unitary(2), unitary(3), special_unitary(2), special_unitary(3)]


def restriction_degenerate_splitting():
    # k_map lands in the surface generators only, so the glue block is zero.
    return AdaptedSplitting(
        h1=2, h2=1, u=2, g1=1,
        k_map=FreeHom(2, 2, (parse_word("g1"), parse_word("g1^2"))),
        l_map=FreeHom(2, 1, (parse_word("g1"), parse_word("g1"))),
    )


def h2_degenerate_splitting():
    # commutator-degenerate gluing: (b - c) is the zero 1x2 matrix
    return AdaptedSplitting(
        h1=1, h2=1, u=1, g1=1,
        k_map=FreeHom(1, 1, (Word(),)),
        l_map=FreeHom(1, 1, (Word(),)),
    )


class TestLambdaInvariant:
    def test_trivial_splitting(self):
        for kind in KINDS:
            rep = lambda_invariant(trivial_splitting(), kind)
            assert rep.abs_value == 1
            assert rep.K == 1
            assert rep.vanishing_reason is None

    def test_det6_u2(self):
        s = det6_splitting()
        rep = lambda_invariant(s, unitary(2))
        assert rep.abs_value == 36
        assert rep.K == 6
        # P1's signed determinant power is P2's signed degree.
        degree = degree_of_word_map(assembled_word_map(s), unitary(2))
        assert det(glue_matrix(s)) ** 2 == degree == 36

    def test_det6_su3(self):
        rep = lambda_invariant(det6_splitting(), special_unitary(3))
        assert rep.abs_value == 36  # 6^(3-1)
        assert rep.K == 6

    def test_vanishing_with_reason(self):
        rep = lambda_invariant(restriction_degenerate_splitting(), unitary(2))
        assert rep.abs_value == 0
        assert rep.vanishing_reason == "restriction_not_iso"
        assert rep.K is INFINITE

    def test_wrong_codimension(self):
        s = AdaptedSplitting(
            h1=2, h2=1, u=1, g1=1,
            k_map=FreeHom(1, 2, (parse_word("g2"),)),
            l_map=FreeHom(1, 1, (parse_word("g1"),)),
        )
        assert s.T == 1
        with pytest.raises(WrongCodimensionError, match="poly"):
            lambda_invariant(s, unitary(2))

    def test_invalid_splitting(self):
        with pytest.raises(InvalidSplittingError, match="S1 generators exceed H1 rank"):
            AdaptedSplitting(
                h1=1, h2=1, u=1, g1=2,
                k_map=FreeHom(1, 1, (Word(((1, 1),)),)),
                l_map=FreeHom(1, 1, (Word(((1, 1),)),)),
            )

    def test_sign_undetermined_without_opt_in(self):
        rep = lambda_invariant(det6_splitting(), unitary(2))
        assert rep.sign is None
        rep = lambda_invariant(det6_splitting(), unitary(2), use_sign_convention=True)
        assert rep.sign in (1, -1)

    def test_three_pipeline_agreement_random(self):
        rng = random.Random(13)
        for idx in range(80):
            s = random_t0_splitting(rng)
            kind = KINDS[idx % len(KINDS)]
            rep = lambda_invariant(s, kind)
            p1 = abs(det(glue_matrix(s))) ** kind.lie_rank
            p2 = abs(degree_of_word_map(assembled_word_map(s), kind))
            p3 = 0 if rep.K is INFINITE else rep.K ** kind.lie_rank
            assert rep.abs_value == p1 == p2 == p3

    def test_k_power_law(self):
        rng = random.Random(14)
        for idx in range(60):
            s = random_t0_splitting(rng)
            kind = KINDS[idx % len(KINDS)]
            rep = lambda_invariant(s, kind)
            if rep.K is not INFINITE:
                assert rep.abs_value == rep.K ** kind.lie_rank
            else:
                assert rep.abs_value == 0

    def test_nonzero_implies_no_vanishing_reason(self):
        rng = random.Random(15)
        for idx in range(60):
            s = random_t0_splitting(rng)
            rep = lambda_invariant(s, unitary(2))
            if rep.abs_value > 0:
                pair = pair_cohomology(s)
                assert pair.order_H2_M is not INFINITE and pair.restriction_iso
                assert rep.vanishing_reason is None

    def test_report_key_values(self):
        rep = lambda_invariant(det6_splitting(), unitary(2))
        kv = dict(rep.key_values())
        assert kv["group"] == "U" and kv["n"] == "2"
        assert kv["abs_value"] == "36" and kv["K"] == "6"
        assert kv["sign"] == "UNDETERMINED"
        assert kv["agree"] == "true" and kv["vanishing_reason"] == ""

    def test_key_values_convert_each_number_once(self, monkeypatch):
        # format_int is quadratic in the digits.  The three pipeline values
        # equal abs_value, so 36 and 6 are each converted once.
        calls = []
        monkeypatch.setattr(invariants, "format_int",
                            lambda x: calls.append(x) or intlinalg.format_int(x))
        rep = lambda_invariant(det6_splitting(), unitary(2))
        kv = dict(rep.key_values())
        assert sorted(calls) == [6, 36]
        assert kv["pipeline_det"] == kv["pipeline_ext"] == kv["pipeline_K"] == "36"
        # A report built by hand still prints each field's own value.
        kv = dict(dataclasses.replace(rep, K=7).key_values())
        assert (kv["K"], kv["abs_value"]) == ("7", "36")


class TestVanishingCheck:
    """The vanishing reason of these T = 0 splittings, the same for every
    group, and the cohomology it is read from."""

    @staticmethod
    def reason(s):
        reasons = {rep.vanishing_reason for rep in lambda_invariants(s, KINDS)}
        assert len(reasons) == 1
        return reasons.pop()

    def test_identity_glued_absent(self):
        assert self.reason(trivial_splitting()) is None

    def test_restriction_not_iso(self):
        assert self.reason(restriction_degenerate_splitting()) == "restriction_not_iso"

    def test_h2_nonzero(self):
        # kernel of (b - c) has rank 2 > g1 = 1 and the matrix is rank
        # deficient, reported as the H2 criterion
        assert self.reason(h2_degenerate_splitting()) == "H2_nonzero"

    def test_reason_forces_zero(self):
        restriction = pair_cohomology(restriction_degenerate_splitting())
        assert restriction.order_H2_M is not INFINITE
        assert not restriction.restriction_iso
        assert pair_cohomology(h2_degenerate_splitting()).order_H2_M is INFINITE
        for s in (restriction_degenerate_splitting(), h2_degenerate_splitting()):
            for rep in lambda_invariants(s, KINDS):
                assert rep.abs_value == 0
                assert rep.vanishing_reason is not None


class TestDisagreementReplay:
    """A PipelineDisagreementError carries enough to recompute P1 and P2
    with the public det and degree_of_word_map."""

    @staticmethod
    def replay(exc):
        rank = exc.kind.lie_rank
        u = len(exc.mv_rows[0])
        p1 = abs(det(IntMat(exc.mv_rows[-u:], cols=u))) ** rank
        p2 = abs(degree_of_word_map(exc.word_map, exc.kind))
        return p1, p2

    def test_wrong_det(self, monkeypatch):
        monkeypatch.setattr("repcount.invariants.det", lambda a: 7)
        with pytest.raises(PipelineDisagreementError) as info:
            lambda_invariant(det6_splitting(), unitary(2))
        exc = info.value
        assert exc.kind == unitary(2)
        assert exc.values == (49, 36, 36)
        assert self.replay(exc) == (36, 36)
        assert "det-power=49" in str(exc)

    def test_wrong_det_sign(self, monkeypatch):
        # The magnitudes agree, so only the signed check between P1 and P2
        # sees the error, and only at odd Lie rank.
        monkeypatch.setattr("repcount.invariants.det", lambda a: -det(a))
        assert lambda_invariant(det6_splitting(), unitary(2)).abs_value == 36
        with pytest.raises(PipelineDisagreementError) as info:
            lambda_invariant(det6_splitting(), unitary(3))
        exc = info.value
        assert exc.values == (-216, 216, 216)
        assert self.replay(exc) == (216, 216)

    def test_vanishing_without_reason(self, monkeypatch):
        # K is made INFINITE with H^2(M) finite and the restriction an
        # isomorphism, so all three pipelines read 0 and no reason applies.
        fake = PairHomologyReport(betti1_M=0, order_H2_M=1, order_H2_pair=INFINITE,
                                  restriction_iso=True)
        monkeypatch.setattr("repcount.invariants._pair_cohomology", lambda s, rows: fake)
        with pytest.raises(PipelineDisagreementError) as info:
            lambda_invariant(restriction_degenerate_splitting(), special_unitary(3))
        exc = info.value
        assert exc.values == (0, 0, 0)
        assert self.replay(exc) == (0, 0)


class TestLambdaInvariants:
    """One call for several groups gives, in order, what one call per
    group gives."""

    def test_equals_one_call_per_group(self):
        rng = random.Random(71)
        for _ in range(1500):
            s = random_t0_splitting(rng, max_rank=rng.choice((3, 5, 7)))
            assert lambda_invariants(s, KINDS, True) == tuple(
                lambda_invariant(s, kind, True) for kind in KINDS)

    def test_keeps_order_and_repeats(self):
        s = det6_splitting()
        kinds = (special_unitary(3), unitary(1), special_unitary(3), unitary(2), unitary(1))
        reports = lambda_invariants(s, kinds, use_sign_convention=True)
        assert tuple(rep.kind for rep in reports) == kinds
        assert [rep.abs_value for rep in reports] == [36, 6, 36, 36, 6]
        assert reports[0] == reports[2] and reports[1] == reports[4]

    def test_generator_kinds(self):
        s = det6_splitting()
        assert lambda_invariants(s, (k for k in KINDS)) == lambda_invariants(s, tuple(KINDS))

    def test_empty_kinds(self):
        assert lambda_invariants(det6_splitting(), ()) == ()
        assert lambda_invariants(det6_splitting(), iter([])) == ()

    def test_wrong_codimension(self):
        s = AdaptedSplitting(
            h1=2, h2=1, u=1, g1=1,
            k_map=FreeHom(1, 2, (parse_word("g2"),)),
            l_map=FreeHom(1, 1, (parse_word("g1"),)),
        )
        with pytest.raises(WrongCodimensionError, match="T=1"):
            lambda_invariants(s, KINDS)


class TestFactorOnce:
    """P3 reduces one matrix, ``[MV^T | E]``, once, by a transform-free
    echelon over every column and no Smith normal form, and the vanishing
    reason is read from that report."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"echelon": [], "snf": []}
        echelon, snf = intlinalg.echelon, intlinalg.smith_normal_form

        def counted_echelon(a):
            calls["echelon"].append((a.rows, a.cols))
            return echelon(a)

        def counted_snf(a):
            calls["snf"].append((a.rows, a.cols))
            return snf(a)

        monkeypatch.setattr(intlinalg, "echelon", counted_echelon)
        monkeypatch.setattr(intlinalg, "smith_normal_form", counted_snf)
        return calls

    FIXTURES = [det6_splitting, restriction_degenerate_splitting, h2_degenerate_splitting]

    @pytest.mark.parametrize("make", FIXTURES)
    def test_pair_cohomology(self, calls, make):
        s = make()
        pair_cohomology(s)
        assert calls["snf"] == []
        # MV^T beside the H^1(S1) coordinates.
        assert calls["echelon"] == [(s.h1 + s.h2, s.u + s.g1)]

    @pytest.mark.parametrize("make", FIXTURES)
    def test_lambda_invariant(self, calls, make):
        s = make()
        lambda_invariant(s, unitary(2))
        assert calls["snf"] == []
        assert calls["echelon"] == [(s.h1 + s.h2, s.u + s.g1)]


def snf_reference(s):
    """The Smith-normal-form route to P3, as a reference: factor the
    Mayer-Vietoris matrix, take its kernel basis, and factor that basis
    projected to the g1 coordinates of H^1(S1).  Returns the report."""
    mv = smith_normal_form(mayer_vietoris_reference(s))
    kb = mv.kernel_basis
    restriction = smith_normal_form(IntMat(kb.data[: s.g1], cols=kb.cols))
    order_h2, quotient = mv.cokernel_order, restriction.cokernel_order
    order_pair = INFINITE if INFINITE in (order_h2, quotient) else order_h2 * quotient
    return PairHomologyReport(
        betti1_M=kb.cols,
        order_H2_M=order_h2,
        order_H2_pair=order_pair,
        restriction_iso=kb.cols == s.g1 and restriction.rank == s.g1,
    )


def random_splitting(rng, max_rank, max_word_len, g1=None):
    """A valid splitting of any codimension T >= 0; ``g1`` fixed if given."""
    while True:
        h1, h2 = rng.randint(1, max_rank), rng.randint(1, max_rank)
        s_g1 = rng.randint(0, h1) if g1 is None else g1
        u = rng.randint(1, max_rank)
        if s_g1 <= h1 and h1 + h2 - u - s_g1 >= 0:
            break
    return AdaptedSplitting(
        h1=h1, h2=h2, u=u, g1=s_g1,
        k_map=random_free_hom(rng, u, h1, max_word_len),
        l_map=random_free_hom(rng, u, h2, max_word_len),
    )


def letters_splitting(rng, u, letters):
    """A T = 0 splitting of rank u whose words have ``letters`` random
    single letters each."""
    g1 = rng.randint(0, 2 * u // 3)
    h1 = rng.randint(max(1, g1), min(u, u + g1 - 1))
    h2 = u + g1 - h1

    def words(rank):
        return tuple(
            free_reduce([(rng.randint(1, rank), rng.choice((-1, 1))) for _ in range(letters)])
            for _ in range(u))

    return AdaptedSplitting(h1=h1, h2=h2, u=u, g1=g1,
                            k_map=FreeHom(u, h1, words(h1)),
                            l_map=FreeHom(u, h2, words(h2)))


class TestEchelonRoute:
    """pair_cohomology on the echelon route gives what the
    Smith-normal-form route gives, betti1_M and order_H2_M included."""

    def assert_matches(self, s):
        assert pair_cohomology(s) == snf_reference(s)

    @pytest.mark.parametrize("make", [
        trivial_splitting, det6_splitting,
        restriction_degenerate_splitting, h2_degenerate_splitting,
    ])
    def test_fixtures(self, make):
        self.assert_matches(make())
        self.assert_matches(stabilize(stabilize(make())))

    def test_seeded_t0_splittings(self):
        rng = random.Random(51)
        g1_zero = 0
        for _ in range(300):
            s = random_t0_splitting(rng, max_rank=rng.choice((3, 5, 8)),
                                    max_word_len=rng.choice((4, 8, 14)))
            g1_zero += s.g1 == 0
            self.assert_matches(s)
        assert g1_zero >= 20

    def test_seeded_any_codimension(self):
        rng = random.Random(52)
        for _ in range(200):
            self.assert_matches(random_splitting(rng, 6, 10))

    def test_g1_zero(self):
        rng = random.Random(53)
        for _ in range(100):
            s = random_splitting(rng, 6, 10, g1=0)
            assert s.g1 == 0
            self.assert_matches(s)

    def test_stabilized(self):
        rng = random.Random(54)
        for _ in range(100):
            s = random_t0_splitting(rng)
            for _ in range(rng.randint(1, 3)):
                s = stabilize(s)
            self.assert_matches(s)

    def test_packed_rows_with_h2_infinite(self):
        # u + g1 >= 11, so the echelon runs on packed rows, and one U
        # generator maps to the identity in both handlebodies: its MV
        # column is zero and has no pivot, so |H^2(M)| is INFINITE, and
        # the rows left zero carry an extra kernel vector into the
        # H^1(S1) columns.
        rng = random.Random(55)
        checked = 0
        while checked < 40:
            s = random_splitting(rng, 12, 10, g1=rng.randint(0, 6))
            if s.u + s.g1 < 11:
                continue
            checked += 1
            k, l = list(s.k_map.images), list(s.l_map.images)
            blank = rng.randrange(s.u)
            k[blank] = l[blank] = Word()
            s = rebuilt(s, k_map=FreeHom(s.u, s.h1, tuple(k)),
                        l_map=FreeHom(s.u, s.h2, tuple(l)))
            report = pair_cohomology(s)
            assert report.order_H2_M is INFINITE
            assert report == snf_reference(s)

    def test_u60_long_words_under_a_second(self):
        # Words of 30 letters at u = 60: entries of the SNF transforms
        # explode here, the echelon's stay small.
        rng = random.Random(60)
        for _ in range(4):
            s = letters_splitting(rng, 60, 30)
            start = time.perf_counter()
            report = pair_cohomology(s)
            assert time.perf_counter() - start < 1.0
            glue_det = abs(det(glue_matrix(s)))
            assert report.order_H2_pair == (glue_det if glue_det else INFINITE)
            if report.order_H2_pair is not INFINITE:
                assert report.order_H2_pair % report.order_H2_M == 0


class TestPlantedDocuments:
    """Documents whose answer is planted by construction
    (``support.planted_document``): every pipeline gives the planted value,
    with its sign, at sizes past both oracles, and P3 the planted report."""

    KINDS = (unitary(1), unitary(2), special_unitary(3))

    def check(self, variant, u, pairs=False):
        rng = random.Random(f"{variant}{u}")
        document, planted_det, planted_pair, reason = planted_document(rng, u, variant)
        s, _ = parse_splitting_document(document)
        if pairs:
            plain = s
            s, _ = parse_splitting_document(with_cancelling_pairs(rng, document))
            # The parser cancels the adjacent pairs and keeps each k_map
            # word's commutator, which the assembly cancels.
            assert s.l_map == plain.l_map
            assert all(a != b for a, b in zip(s.k_map.images, plain.k_map.images))
            assert assembled_word_map(s) == assembled_word_map(plain)
        # The checking constructor accepts what the trusted paths built.
        for f in (s.k_map, s.l_map, assembled_word_map(s)):
            assert all(w == Word(w.letters) for w in f.images)
        # h2 = 5 is odd, so a lost minus on the H2 rows flips P1's sign.
        assert det(glue_matrix(s)) == planted_det
        assert degree_of_word_map(assembled_word_map(s), unitary(1)) == planted_det
        assert pair_cohomology(s) == planted_pair
        if u == 8:
            assert snf_reference(s) == planted_pair
        for kind, report in zip(self.KINDS, lambda_invariants(s, self.KINDS)):
            assert report.abs_value == abs(planted_det) ** kind.lie_rank
            assert report.K == planted_pair.order_H2_pair
            assert report.vanishing_reason == reason

    @pytest.mark.parametrize("u", [8, 60, 200])
    def test_nonsingular(self, u):
        self.check("a", u)

    @pytest.mark.parametrize("variant", ["b", "c"])
    @pytest.mark.parametrize("u", [8, 60])
    def test_vanishing(self, variant, u):
        self.check(variant, u)

    @pytest.mark.parametrize("u", [8, 60, 200])
    def test_restriction_quotient(self, u):
        # Variant (d): a restriction quotient of 6 above |H^2(M)| = 7.
        self.check("d", u)

    @pytest.mark.parametrize("variant", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("u", [8, 60])
    def test_cancelling_pairs(self, variant, u):
        self.check(variant, u, pairs=True)


class TestStabilizationBehavior:
    def test_abs_and_sign_transformation(self):
        from repcount import stabilize

        rng = random.Random(16)
        nonzero = 0
        for idx in range(60):
            s = random_t0_splitting(rng)
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
        assert nonzero >= 20

    @pytest.mark.parametrize("kind", [unitary(1), unitary(2), unitary(3), special_unitary(2),
                                      special_unitary(4)], ids=lambda k: k.label)
    def test_u_hat_genus_term_alone(self, kind):
        # Raising u_hat_genus alone, with no new handle, moves only that
        # term of the sign parity: the sign is multiplied by (-1)^lie_rank.
        rng = random.Random(17)
        splittings = [det6_splitting()]
        while len(splittings) < 61:
            s = random_t0_splitting(rng)
            if lambda_invariant(s, unitary(1)).abs_value:
                splittings.append(s)
        for s in splittings:
            plain = lambda_invariant(s, kind, use_sign_convention=True)
            raised = lambda_invariant(rebuilt(s, u_hat_genus=s.u_hat_genus + 1), kind,
                                      use_sign_convention=True)
            assert plain.abs_value > 0 and raised.abs_value == plain.abs_value
            assert raised.sign == plain.sign * (-1) ** kind.lie_rank


class TestOrientation:
    @pytest.mark.parametrize("kind,expected", [
        (unitary(2), 1),
        (unitary(3), -1),
        (special_unitary(3), 1),
        (special_unitary(2), -1),
        (unitary(1), -1),
    ])
    def test_flip_sign(self, kind, expected):
        assert orientation_flip_sign(kind) == expected

    def test_flag_multiplies_sign(self):
        s = det6_splitting()
        for kind in KINDS:
            plain = lambda_invariant(s, kind, use_sign_convention=True)
            flipped = lambda_invariant(
                rebuilt(s, orientation_reversed=True),
                kind, use_sign_convention=True,
            )
            assert flipped.abs_value == plain.abs_value
            assert flipped.sign == plain.sign * orientation_flip_sign(kind)


class TestMultiIndex:
    def test_empty_is_zero(self):
        assert multiindex_degree(MultiIndex()) == 0

    def test_i_block(self):
        assert multiindex_degree(MultiIndex(I=((1, 2),))) == 4

    def test_j_block(self):
        assert multiindex_degree(MultiIndex(J=((2, 1),))) == 6

    def test_additive_under_concatenation(self):
        m1 = MultiIndex(I=((1, 2),), J=((2, 1),))
        m2 = MultiIndex(I=((3, 1),), J=((4, 2),))
        joined = MultiIndex(I=m1.I + m2.I, J=m1.J + m2.J)
        assert multiindex_degree(joined) == multiindex_degree(m1) + multiindex_degree(m2)

    @pytest.mark.parametrize("bad", [
        {"I": ((0, 1),)},
        {"I": ((2, 1), (2, 1))},
        {"I": ((3, 1), (2, 1))},
        {"J": ((1, 0),)},
        {"J": ((1, -2),)},
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            MultiIndex(**bad)

    @pytest.mark.parametrize("bad, message", [
        ({"I": ((1.5, 1),)}, "I: index must be an int, got float"),
        ({"I": ((1, 2.0),)}, "I: multiplicity must be an int, got float"),
        ({"I": ((1, True),)}, "I: multiplicity must be an int, got bool"),
        ({"J": ((True, 1),)}, "J: index must be an int, got bool"),
        ({"J": (("2", 1),)}, "J: index must be an int, got str"),
    ])
    def test_non_int_entries_refused(self, bad, message):
        with pytest.raises(TypeError) as err:
            MultiIndex(**bad)
        assert str(err.value) == message

    def test_special_unitary_admissibility(self):
        assert MultiIndex(I=((2, 1),), J=((3, 1),)).is_special_unitary_admissible()
        assert not MultiIndex(I=((1, 1),)).is_special_unitary_admissible()
        assert not MultiIndex(J=((1, 1),)).is_special_unitary_admissible()
        assert MultiIndex().is_special_unitary_admissible()


class TestPolynomialCylinder:
    def test_m1(self):
        assert abs(lambda_polynomial_cylinder(3, 2, unitary(3))) == 1

    def test_u2_value(self):
        assert abs(lambda_polynomial_cylinder(4, 2, unitary(2))) == 4

    def test_su2_value(self):
        assert abs(lambda_polynomial_cylinder(5, 2, special_unitary(2))) == 6

    def test_rejects_bad_genus(self):
        with pytest.raises(ValueError):
            lambda_polynomial_cylinder(2, 2, unitary(2))
        with pytest.raises(ValueError):
            lambda_polynomial_cylinder(3, 1, unitary(2))
