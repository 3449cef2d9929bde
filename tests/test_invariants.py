import dataclasses
import random

import pytest

from repcount import (
    INFINITE,
    intlinalg,
    AdaptedSplitting,
    FreeHom,
    InvalidSplittingError,
    MultiIndex,
    Word,
    WrongCodimensionError,
    lambda_invariant,
    lambda_polynomial_cylinder,
    multiindex_degree,
    orientation_flip_sign,
    pair_cohomology,
    parse_word,
    special_unitary,
    unitary,
    vanishing_check,
)
from support import det6_splitting, random_t0_splitting, trivial_splitting

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
        rep = lambda_invariant(det6_splitting(), unitary(2))
        assert rep.abs_value == 36
        assert rep.K == 6
        assert rep.pipelines.det_power == rep.pipelines.ext_magnitude == 36
        assert rep.pipelines.k_power == 36
        assert rep.pipelines.agree

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
        s = AdaptedSplitting(
            h1=1, h2=1, u=1, g1=2,
            k_map=FreeHom(1, 1, (Word(((1, 1),)),)),
            l_map=FreeHom(1, 1, (Word(((1, 1),)),)),
        )
        with pytest.raises(InvalidSplittingError):
            lambda_invariant(s, unitary(2))

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
            assert rep.pipelines.agree
            assert rep.pipelines.det_power == rep.pipelines.ext_magnitude
            assert rep.pipelines.det_power == rep.pipelines.k_power

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
                assert vanishing_check(s) is None
                assert rep.vanishing_reason is None

    def test_report_key_values(self):
        rep = lambda_invariant(det6_splitting(), unitary(2))
        kv = dict(rep.key_values())
        assert kv["group"] == "U" and kv["n"] == "2"
        assert kv["abs_value"] == "36" and kv["K"] == "6"
        assert kv["sign"] == "UNDETERMINED"
        assert kv["agree"] == "true" and kv["vanishing_reason"] == ""


class TestVanishingCheck:
    def test_identity_glued_absent(self):
        assert vanishing_check(trivial_splitting()) is None

    def test_restriction_not_iso(self):
        assert vanishing_check(restriction_degenerate_splitting()) == "restriction_not_iso"

    def test_h2_nonzero(self):
        # kernel of (b - c) has rank 2 > g1 = 1 and the matrix is rank
        # deficient, reported as the H2 criterion
        assert vanishing_check(h2_degenerate_splitting()) == "H2_nonzero"

    def test_reason_forces_zero(self):
        for s in (restriction_degenerate_splitting(), h2_degenerate_splitting()):
            rep = lambda_invariant(s, unitary(1))
            assert rep.abs_value == 0
            assert rep.vanishing_reason == vanishing_check(s)


class TestFactorOnce:
    """P3 factors the Mayer-Vietoris and the restriction matrix once each,
    and the vanishing reason is read from that report."""

    @pytest.fixture
    def snf_calls(self, monkeypatch):
        calls = []
        original = intlinalg.smith_normal_form

        def counted(a):
            calls.append((a.rows, a.cols))
            return original(a)

        monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
        return calls

    FIXTURES = [det6_splitting, restriction_degenerate_splitting, h2_degenerate_splitting]

    @pytest.mark.parametrize("make", FIXTURES)
    def test_pair_cohomology(self, snf_calls, make):
        s = make()
        pair_cohomology(s)
        assert len(snf_calls) == 2
        assert snf_calls[0] == (s.u, s.h1 + s.h2)  # Mayer-Vietoris
        assert snf_calls[1][0] == s.g1  # restriction to the marked surface

    @pytest.mark.parametrize("make", FIXTURES)
    def test_lambda_invariant(self, snf_calls, make):
        lambda_invariant(make(), unitary(2))
        assert len(snf_calls) == 2


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
                dataclasses.replace(s, orientation_reversed=True),
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
