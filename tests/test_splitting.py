import dataclasses
import random

import pytest

from repcount import (
    INFINITE,
    AdaptedSplitting,
    DocumentError,
    FreeHom,
    GroupKind,
    IntMat,
    InvalidSplittingError,
    Word,
    abelianize,
    assembled_word_map,
    det,
    format_splitting_document,
    glue_matrix,
    invariants,
    lambda_invariant,
    pair_cohomology,
    parse_splitting_document,
    parse_word,
    splitting,
    stabilize,
    unitary,
    validate,
    validation_warnings,
)
from repcount.splitting import MAX_DOCUMENT_RANK
from support import (
    DET6_DOCUMENT,
    TRIVIAL_DOCUMENT,
    det6_splitting,
    mayer_vietoris_reference,
    p3_scale_document,
    random_t0_splitting,
    trivial_splitting,
)


class TestValidate:
    def test_trivial_valid(self):
        s = trivial_splitting()
        assert validate(s) == []
        assert s.T == 0

    def test_g1_exceeds_h1(self):
        with pytest.raises(InvalidSplittingError, match="S1 generators exceed H1 rank"):
            AdaptedSplitting(
                h1=1, h2=1, u=1, g1=2,
                k_map=FreeHom(1, 1, (Word(((1, 1),)),)),
                l_map=FreeHom(1, 1, (Word(((1, 1),)),)),
            )

    @pytest.mark.parametrize("field", ["h1", "h2", "u", "g1", "u_hat_genus"])
    def test_non_int_rank_refused(self, field):
        s = det6_splitting()
        value = getattr(s, field)
        with pytest.raises(TypeError) as err:
            dataclasses.replace(s, **{field: float(value)})
        assert str(err.value) == f"{field} must be an int, got float"
        if value == 1:
            with pytest.raises(TypeError, match=f"^{field} must be an int, got bool$"):
                dataclasses.replace(s, **{field: True})

    @pytest.mark.parametrize("value", [2, 1, 0, "no", None])
    def test_non_bool_orientation_refused(self, value):
        # Its parity enters the sign, so 2 would read as False and "no" fail late.
        with pytest.raises(TypeError) as err:
            dataclasses.replace(det6_splitting(), orientation_reversed=value)
        assert str(err.value) == f"orientation_reversed must be a bool, got {type(value).__name__}"

    def test_spec_arithmetic_instance(self):
        # (2 + 2 - 3) - 1 == 0
        s = AdaptedSplitting(
            h1=2, h2=2, u=3, g1=1,
            k_map=FreeHom(3, 2, tuple(parse_word(w) for w in ("g1", "g2", "g1 g2"))),
            l_map=FreeHom(3, 2, tuple(parse_word(w) for w in ("g1", "g2", "g2 g1"))),
        )
        assert validate(s) == []
        assert s.T == 0

    def test_rank_mismatch_reported(self):
        with pytest.raises(InvalidSplittingError, match="k_map target rank"):
            AdaptedSplitting(
                h1=2, h2=1, u=2, g1=1,
                k_map=FreeHom(2, 1, (Word(((1, 1),)), Word())),   # target rank 1 != h1
                l_map=FreeHom(2, 1, (Word(((1, 1),)), Word())),
            )

    def test_negative_t(self):
        with pytest.raises(InvalidSplittingError, match="negative codimension") as info:
            AdaptedSplitting(
                h1=1, h2=1, u=3, g1=1,
                k_map=FreeHom(3, 1, (Word(),) * 3),
                l_map=FreeHom(3, 1, (Word(),) * 3),
            )
        assert info.value.T == -2

    def test_replace_is_validated(self):
        s = det6_splitting()
        with pytest.raises(InvalidSplittingError, match="S1 generators exceed H1 rank"):
            dataclasses.replace(s, g1=s.h1 + 1)

    def test_no_validation_after_construction(self, monkeypatch):
        calls = []
        original = splitting.validate
        counted = lambda s: calls.append(s) or original(s)
        # Also where a pipeline module could import it by name.
        for module in (splitting, invariants):
            monkeypatch.setattr(module, "validate", counted, raising=False)
        s = det6_splitting()
        assert len(calls) == 1
        lambda_invariant(s, unitary(2))
        pair_cohomology(s)
        glue_matrix(s)
        assembled_word_map(s)
        assert len(calls) == 1

    def test_odd_positive_t_is_warning_not_violation(self):
        s = AdaptedSplitting(
            h1=2, h2=1, u=1, g1=1,
            k_map=FreeHom(1, 2, (Word(((1, 1),)),)),
            l_map=FreeHom(1, 1, (Word(((1, 1),)),)),
        )
        assert s.T == 1
        assert validate(s) == []
        assert validation_warnings(s) == ["odd positive codimension T=1"]

    @pytest.mark.parametrize("change,message", [
        ({"h1": 0}, "h1 must be positive, got 0"),
        ({"h2": 0}, "h2 must be positive, got 0"),
        ({"u": 0}, "u must be positive, got 0"),
        ({"g1": -1}, "g1 must be nonnegative, got -1"),
        ({"k_map": FreeHom(2, 1, (Word(), Word()))}, "k_map source rank 2 != u=1"),
        ({"l_map": FreeHom(2, 1, (Word(), Word()))}, "l_map source rank 2 != u=1"),
        ({"l_map": FreeHom(1, 2, (Word(),))}, "l_map target rank 2 != h2=1"),
    ], ids=["h1", "h2", "u", "g1", "k_source", "l_source", "l_target"])
    def test_each_violation_reported(self, change, message):
        with pytest.raises(InvalidSplittingError) as info:
            dataclasses.replace(trivial_splitting(), **change)
        assert message in info.value.violations

    def test_u_hat_genus_defaults_to_u(self):
        s = trivial_splitting()
        assert s.u_hat_genus == s.u


class TestGlueMatrix:
    def test_identity_gluing_h1_equals_g1(self):
        s = trivial_splitting()
        assert glue_matrix(s).data == ((-1,),)

    def test_hand_computed_example(self):
        s = AdaptedSplitting(
            h1=2, h2=1, u=2, g1=1,
            k_map=FreeHom(2, 2, (parse_word("g2"), parse_word("g2^3"))),
            l_map=FreeHom(2, 1, (parse_word("g1"), parse_word("g1^2"))),
        )
        m = glue_matrix(s)
        assert m.data == ((1, -1), (3, -2))
        assert det(m) == 1

    def test_k_image_in_surface_generators_zeroes_block(self):
        s = AdaptedSplitting(
            h1=2, h2=1, u=2, g1=1,
            k_map=FreeHom(2, 2, (parse_word("g1"), parse_word("g1^2"))),
            l_map=FreeHom(2, 1, (parse_word("g1"), parse_word("g1"))),
        )
        m = glue_matrix(s)
        assert all(m[i, 0] == 0 for i in range(2))
        assert det(m) == 0

    def test_shape(self):
        rng = random.Random(1)
        for _ in range(20):
            s = random_t0_splitting(rng)
            m = glue_matrix(s)
            assert (m.rows, m.cols) == (s.u, (s.h1 - s.g1) + s.h2)

    def test_invalid_rejected(self):
        with pytest.raises(InvalidSplittingError, match="S1 generators exceed H1 rank"):
            AdaptedSplitting(
                h1=1, h2=1, u=1, g1=2,
                k_map=FreeHom(1, 1, (Word(((1, 1),)),)),
                l_map=FreeHom(1, 1, (Word(((1, 1),)),)),
            )

    def test_mayer_vietoris_without_surface_columns(self):
        rng = random.Random(8)
        for _ in range(60):
            s = random_t0_splitting(rng)
            mv = mayer_vietoris_reference(s)
            assert splitting._mayer_vietoris_rows(s) == mv.transpose().data
            assert glue_matrix(s) == IntMat([row[s.g1:] for row in mv.data],
                                            cols=mv.cols - s.g1)


class TestHomology:
    def test_trivial_cylinder_like(self):
        rep = pair_cohomology(trivial_splitting())
        assert rep.betti1_M == 1  # == g1
        assert rep.order_H2_M == 1

    def test_torsion_instance(self):
        # (b - c) with invariant factors (1, 2): H^2 of order 2
        s = AdaptedSplitting(
            h1=1, h2=1, u=2, g1=0,
            k_map=FreeHom(2, 1, (parse_word("g1^2"), Word())),
            l_map=FreeHom(2, 1, (Word(), parse_word("g1^-1"))),
        )
        assert validate(s) == [] and s.T == 0
        rep = pair_cohomology(s)
        assert rep.order_H2_M == 2
        assert rep.betti1_M == 0

    def test_rank_deficient_gives_infinite(self):
        s = AdaptedSplitting(
            h1=1, h2=1, u=1, g1=1,
            k_map=FreeHom(1, 1, (Word(),)),
            l_map=FreeHom(1, 1, (Word(),)),
        )
        assert pair_cohomology(s).order_H2_M is INFINITE


class TestPairCohomology:
    def test_identity_glued(self):
        rep = pair_cohomology(trivial_splitting())
        assert rep.order_H2_pair == 1
        assert rep.restriction_iso is True

    def test_det6_instance_both_pipelines(self):
        s = det6_splitting()
        rep = pair_cohomology(s)
        assert rep.order_H2_pair == 6
        assert rep.order_H2_pair == abs(det(glue_matrix(s)))

    def test_rank_deficient(self):
        s = AdaptedSplitting(
            h1=1, h2=1, u=1, g1=1,
            k_map=FreeHom(1, 1, (Word(),)),
            l_map=FreeHom(1, 1, (Word(),)),
        )
        rep = pair_cohomology(s)
        assert rep.restriction_iso is False
        assert rep.order_H2_pair is INFINITE

    def test_det_equals_pair_order_identity(self):
        # det(glue) == |H^2(pair)| as two fully independent code paths
        rng = random.Random(2)
        for _ in range(120):
            s = random_t0_splitting(rng)
            d = abs(det(glue_matrix(s)))
            rep = pair_cohomology(s)
            if rep.order_H2_pair is INFINITE:
                assert d == 0
            else:
                assert d == rep.order_H2_pair

    def test_p3_at_scale(self):
        # u = 130: the echelon is 162 x 162, and its least-remainder steps
        # keep the rows it carries past column u small.
        s, _ = parse_splitting_document(p3_scale_document(130))
        rep = pair_cohomology(s)
        assert isinstance(rep.order_H2_pair, int)
        assert rep.order_H2_pair == abs(det(glue_matrix(s)))


class TestStabilize:
    def test_t_unchanged(self):
        s = trivial_splitting()
        assert stabilize(s).T == s.T

    def test_counts(self):
        s = det6_splitting()
        st = stabilize(s)
        assert (st.h1, st.h2, st.u) == (s.h1 + 1, s.h2, s.u + 1)
        assert st.u_hat_genus == s.u_hat_genus + 1
        assert st.k_map.images[-1] == Word(((s.h1 + 1, 1),))
        assert st.l_map.images[-1] == Word()

    def test_det_preserved_on_random_instances(self):
        rng = random.Random(3)
        for _ in range(50):
            s = random_t0_splitting(rng)
            assert abs(det(glue_matrix(stabilize(s)))) == abs(det(glue_matrix(s)))

    def test_double_stabilization(self):
        s = trivial_splitting()
        ss = stabilize(stabilize(s))
        assert validate(ss) == []
        assert ss.u == s.u + 2

    def test_homology_invariance(self):
        rng = random.Random(4)
        for _ in range(30):
            s = random_t0_splitting(rng)
            # The report holds betti1_M and order_H2_M as well.
            assert pair_cohomology(stabilize(s)) == pair_cohomology(s)

    def test_validity_preserved(self):
        rng = random.Random(5)
        for _ in range(30):
            s = random_t0_splitting(rng)
            assert validate(stabilize(s)) == []


class TestAssembledWordMap:
    def test_abelianization_matches_glue_transpose(self):
        rng = random.Random(6)
        for _ in range(60):
            s = random_t0_splitting(rng)
            f = assembled_word_map(s)
            assert abelianize(f) == glue_matrix(s).transpose()

    def test_mv_matrix_shape(self):
        s = det6_splitting()
        rows = splitting._mayer_vietoris_rows(s)
        assert (len(rows), {len(row) for row in rows}) == (s.h1 + s.h2, {s.u})


class TestDocumentFormat:
    def test_parse_det6(self):
        s, kind = parse_splitting_document(DET6_DOCUMENT)
        assert s == det6_splitting()
        assert kind == unitary(2)

    def test_roundtrip(self):
        rng = random.Random(7)
        for _ in range(20):
            s = random_t0_splitting(rng)
            text = format_splitting_document(s, unitary(2))
            s2, kind = parse_splitting_document(text)
            assert s2 == s and kind == unitary(2)

    def test_comments_and_blank_lines(self):
        text = "# header\n\n" + TRIVIAL_DOCUMENT + "\n# trailing\n"
        s, _ = parse_splitting_document(text)
        assert s == trivial_splitting()

    @pytest.mark.parametrize("mutation,message", [
        (lambda t: t.replace("group = U", "group = SO"), "group"),
        (lambda t: t.replace("n = 2", "n = x"), "integer"),
        (lambda t: t.replace("k_map = g1\n", ""), "missing required"),
        (lambda t: t + "bogus = 1\n", "unknown field"),
        (lambda t: t + "h1 = 9\n", "duplicate"),
        (lambda t: t.replace("k_map = g1", "k_map = g1 ; g1"), "expected u="),
        (lambda t: t.replace("k_map = g1", "k_map = q1"), "bad word token"),
        (lambda t: t + "orientation_reversed = maybe\n", "must be 'true' or 'false'"),
        (lambda t: t.replace("\nu = 1\n", "\nu = 0\n"), "k_map must be empty when u=0"),
    ])
    def test_parse_errors(self, mutation, message):
        with pytest.raises(DocumentError, match=message):
            parse_splitting_document(mutation(TRIVIAL_DOCUMENT))

    @pytest.mark.parametrize("field", ["h1", "h2", "u", "g1", "u_hat_genus"])
    def test_rank_box(self, field):
        lines = [line for line in TRIVIAL_DOCUMENT.splitlines()
                 if not line.startswith(field + " ")]
        for value in (MAX_DOCUMENT_RANK + 1, -MAX_DOCUMENT_RANK - 1):
            text = "\n".join(lines + [f"{field} = {value}"]) + "\n"
            with pytest.raises(DocumentError, match=f"'{field}' is past the rank limit"):
                parse_splitting_document(text)

    @pytest.mark.parametrize("field", ["n", "h1", "h2", "u", "g1", "u_hat_genus"])
    @pytest.mark.parametrize("value", ["1_0", "+1", "+0", "\u0661", "\uff11", "1\u0660",
                                       "1.0", "0x1", "", "1 0", "--1", "-+1"])
    def test_integer_fields_take_only_ascii_digits(self, field, value):
        # int() reads '1_0' as 10, '+1' as 1 and ARABIC-INDIC DIGIT ONE as
        # 1; a field takes only the syntax of a word's exponent.
        lines = [line for line in TRIVIAL_DOCUMENT.splitlines()
                 if not line.startswith(field + " ")]
        text = "\n".join(lines + [f"{field} = {value}"]) + "\n"
        with pytest.raises(DocumentError) as err:
            parse_splitting_document(text)
        assert str(err.value) == f"field {field!r}: invalid integer {value!r}"

    @pytest.mark.parametrize("value,expected", [("7", 7), ("007", 7), ("-0", 0), ("0", 0)])
    def test_integer_fields_in_exponent_syntax(self, value, expected):
        s, _ = parse_splitting_document(TRIVIAL_DOCUMENT + f"u_hat_genus = {value}\n")
        assert s == dataclasses.replace(trivial_splitting(), u_hat_genus=expected)

    def test_letters_past_target_rank_that_reduce_away(self):
        # k_map's target rank is h1 = 1: g5^0 and g5 g5^-1 leave no letter
        # past it, so the map is accepted as if they were not written.
        text = TRIVIAL_DOCUMENT.replace("k_map = g1", "k_map = g5^0 g1 g5 g5^-1")
        assert parse_splitting_document(text) == parse_splitting_document(TRIVIAL_DOCUMENT)
        text = TRIVIAL_DOCUMENT.replace("k_map = g1", "k_map = g1 g5")
        with pytest.raises(DocumentError) as err:
            parse_splitting_document(text)
        assert str(err.value) == "k_map: image g1 g5 uses generator beyond target rank 1"
        # The first word at fault is named, not the first token past the rank.
        text = TRIVIAL_DOCUMENT.replace("\nu = 1\n", "\nu = 3\n").replace(
            "k_map = g1", "k_map = g7 g7^-1 ; g1 g4^2 ; g3").replace("l_map = g1", "l_map = ;;")
        with pytest.raises(DocumentError) as err:
            parse_splitting_document(text)
        assert str(err.value) == "k_map: image g1 g4^2 uses generator beyond target rank 1"

    @pytest.mark.parametrize("k_map", ["g1", "", "g1^0"])
    def test_negative_target_rank(self, k_map):
        # A map with no letter at all is refused as well as one with letters.
        text = TRIVIAL_DOCUMENT.replace("\nh1 = 1\n", "\nh1 = -1\n").replace(
            "k_map = g1", f"k_map = {k_map}")
        with pytest.raises(DocumentError) as err:
            parse_splitting_document(text)
        assert str(err.value) == "k_map: ranks must be nonnegative"

    def test_su_document(self):
        text = TRIVIAL_DOCUMENT.replace("group = U", "group = SU").replace("n = 2", "n = 3")
        _, kind = parse_splitting_document(text)
        assert kind.label == "SU(3)"

    def test_su1_rejected(self):
        text = TRIVIAL_DOCUMENT.replace("group = U", "group = SU").replace("n = 2", "n = 1")
        with pytest.raises(DocumentError):
            parse_splitting_document(text)

    def test_group_text_checked_before_n(self):
        text = TRIVIAL_DOCUMENT.replace("group = U", "group = SO").replace("n = 2", "n = x")
        with pytest.raises(DocumentError, match="group must be"):
            parse_splitting_document(text)

    def test_group_kind(self):
        # The parser builds the kind from the group text and n, and turns a
        # bad n into a DocumentError.
        def document(group, n):
            return TRIVIAL_DOCUMENT.replace("group = U", f"group = {group}").replace(
                "n = 2", f"n = {n}")

        assert parse_splitting_document(document("U", 1))[1] == unitary(1) == GroupKind("U", 1)
        assert parse_splitting_document(document("SU", 3))[1].label == "SU(3)"
        for group, n in (("U", 0), ("SU", 1), ("U", -4)):
            with pytest.raises(DocumentError):
                parse_splitting_document(document(group, n))

    def test_optional_fields(self):
        text = TRIVIAL_DOCUMENT + "u_hat_genus = 5\norientation_reversed = true\n"
        s, _ = parse_splitting_document(text)
        assert s.u_hat_genus == 5
        assert s.orientation_reversed is True
