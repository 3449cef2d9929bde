import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repcount import (
    AmbientMismatchError,
    ExteriorWorkLimitError,
    ExtElement,
    FreeHom,
    GeneratorRangeError,
    GroupKind,
    IntMat,
    ShapeError,
    Word,
    abelianize,
    assembled_word_map,
    degree_of_word_map,
    det,
    free_reduce,
    lambda_invariants,
    lambda_polynomial_cylinder,
    parse_splitting_document,
    parse_word,
    special_unitary,
    unitary,
)
from repcount import exterior
from support import (
    CARRIED_ZERO_DOCUMENT,
    composite,
    identity_hom,
    random_free_hom,
    reference_cylinder,
)

U1, U2, U3 = unitary(1), unitary(2), unitary(3)
SU2, SU3 = special_unitary(2), special_unitary(3)


def gen(kind, n_factors, k, j):
    return ExtElement.monomial(kind, n_factors, 1, [(k, j)])


def elements(kind=U2, n_factors=3):
    pair = st.tuples(st.integers(1, n_factors),
                     st.sampled_from(kind.generator_range))
    monomial = st.tuples(st.integers(-3, 3), st.lists(pair, max_size=3))
    return st.lists(monomial, max_size=3).map(
        lambda monos: sum(
            (ExtElement.monomial(kind, n_factors, c, ps) for c, ps in monos),
            ExtElement.zero(kind, n_factors),
        )
    )


class TestGroupKind:
    def test_unitary_generators(self):
        assert tuple(U3.generator_range) == (0, 1, 2)
        assert U3.lie_rank == 3

    def test_special_unitary_generators(self):
        assert tuple(SU3.generator_range) == (1, 2)
        assert SU3.lie_rank == 2

    def test_su1_rejected(self):
        with pytest.raises(ValueError):
            special_unitary(1)

    def test_labels(self):
        assert U2.label == "U(2)" and SU3.label == "SU(3)"

    def test_family_is_its_text(self):
        kind = GroupKind("U", 2)
        assert kind == U2 and GroupKind("SU", 3) == SU3
        assert kind.lie_rank == 2 and kind.label == "U(2)"
        assert tuple(exterior.GROUPS) == ("U", "SU")

    @pytest.mark.parametrize("n", [2, 0])
    def test_unknown_family_refused_before_n(self, n):
        # The parser's wording; the family is read before n.
        with pytest.raises(ValueError) as err:
            GroupKind("X", n)
        assert str(err.value) == "group must be 'U' or 'SU', got 'X'"

    def test_lie_rank_past_a_machine_word(self):
        # len() of a range longer than sys.maxsize raises OverflowError.
        assert unitary(2**63).lie_rank == 2**63
        assert special_unitary(2**63 + 1).lie_rank == 2**63

    @pytest.mark.parametrize("n,name", [(2.0, "float"), (True, "bool")])
    def test_non_int_n_refused(self, n, name):
        with pytest.raises(TypeError) as err:
            GroupKind("U", n)
        assert str(err.value) == f"n must be an int, got {name}"


class TestWedge:
    def test_exterior_square_vanishes(self):
        x = gen(U2, 2, 1, 0)
        assert x.wedge(x).is_zero

    def test_anticommute(self):
        a = gen(U2, 2, 1, 0)
        b = gen(U2, 2, 2, 1)
        assert a.wedge(b) == -b.wedge(a)

    def test_square_of_sum_expands_to_zero(self):
        a = gen(U2, 2, 1, 0)
        b = gen(U2, 2, 2, 1)
        s = a + b
        assert s.wedge(s).is_zero

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            gen(U2, 2, 1, 0).wedge(gen(U2, 3, 1, 0))
        with pytest.raises(AmbientMismatchError):
            gen(U2, 2, 1, 0).wedge(gen(U3, 2, 1, 0))

    def test_monomial_sign_normalization(self):
        swapped = ExtElement.monomial(U2, 2, 1, [(2, 0), (1, 0)])
        sorted_ = ExtElement.monomial(U2, 2, 1, [(1, 0), (2, 0)])
        assert swapped == -1 * sorted_

    def test_repeated_pair_collapses(self):
        assert ExtElement.monomial(U2, 2, 1, [(1, 0), (1, 0)]).is_zero

    def test_out_of_range_rejected(self):
        with pytest.raises(GeneratorRangeError):
            ExtElement.monomial(U2, 2, 1, [(3, 0)])
        with pytest.raises(GeneratorRangeError):
            ExtElement.monomial(SU2, 2, 1, [(1, 0)])  # SU(2) has no x[0]

    @settings(max_examples=60)
    @given(elements(), elements(), elements())
    def test_associative(self, a, b, c):
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))

    @settings(max_examples=60)
    @given(elements(), elements())
    def test_distributive(self, a, b):
        c = gen(U2, 3, 1, 0)
        assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)

    @settings(max_examples=40)
    @given(elements())
    def test_odd_homogeneous_squares_to_zero(self, a):
        # restrict to the degree-1 homogeneous piece: single (k, 0) factors
        odd_part = ExtElement(U2, 3, {
            key: c for key, c in a.terms.items()
            if len(key) == 1 and key[0][1] == 0
        })
        assert odd_part.wedge(odd_part).is_zero

    def test_repr(self):
        assert repr(ExtElement.zero(U2, 2)) == "ExtElement(0)"
        assert repr(ExtElement.unit(U2, 2)) == "ExtElement(1*1)"
        # Sorting (2, 1) past (1, 0) is one swap.
        a = ExtElement.monomial(U2, 2, 3, [(2, 1), (1, 0)]) + gen(U2, 2, 2, 0)
        assert repr(a) == "ExtElement(-3*x0[1]^x1[2] + 1*x0[2])"

    def test_assignment_refused(self):
        a = gen(U2, 2, 1, 0)
        with pytest.raises(AttributeError):
            a.terms = {}
        assert a == gen(U2, 2, 1, 0)

    def test_terms_read_only(self):
        # A stored coefficient of 0 would break the rule that every stored
        # coefficient is nonzero, so the terms refuse item assignment.
        a = gen(U2, 2, 1, 0)
        with pytest.raises(TypeError):
            a.terms[((1, 0),)] = 0
        with pytest.raises(TypeError):
            del a.terms[((1, 0),)]
        assert a == gen(U2, 2, 1, 0) and not a.is_zero


class TestDegreeOfWordMap:
    def test_identity(self):
        for kind in (U1, U2, SU2, SU3):
            assert degree_of_word_map(identity_hom(3), kind) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_power_map_law(self, n, r):
        f = FreeHom(1, 1, (Word(((1, r),)),))
        assert abs(degree_of_word_map(f, unitary(n))) == r ** n

    def test_det6_example(self):
        f = FreeHom(2, 2, (free_reduce([(1, 2)]), free_reduce([(1, 1), (2, 3)])))
        assert abelianize(f) == IntMat([[2, 1], [0, 3]])
        d = degree_of_word_map(f, U2)
        assert abs(d) == 36

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            degree_of_word_map(FreeHom(1, 2, (Word(((2, 1),)),)), U2)

    def test_matches_det_power(self):
        # exterior expansion against the independent determinant pipeline
        rng = random.Random(10)
        for _ in range(40):
            n = rng.randint(1, 4)
            f = random_free_hom(rng, n, n)
            d = det(abelianize(f))
            for kind in (U1, U2, SU2, U3):
                assert abs(degree_of_word_map(f, kind)) == abs(d) ** kind.lie_rank

    def test_multiplicative(self):
        rng = random.Random(12)
        for _ in range(25):
            n = rng.randint(1, 3)
            f = random_free_hom(rng, n, n, max_len=5)
            g = random_free_hom(rng, n, n, max_len=5)
            for kind in (U1, U2, SU2):
                df = degree_of_word_map(f, kind)
                dg = degree_of_word_map(g, kind)
                assert degree_of_word_map(composite(f, g), kind) == df * dg


class TestCylinderMonomialValue:
    def test_m1_is_unit(self):
        for kind in (U1, U2, U3, SU2, SU3):
            assert abs(lambda_polynomial_cylinder(3, 2, kind)) == 1

    def test_m2_u1(self):
        assert abs(lambda_polynomial_cylinder(4, 2, U1)) == 2

    def test_m2_u2(self):
        assert abs(lambda_polynomial_cylinder(4, 2, U2)) == 4

    def test_m3_su2(self):
        assert abs(lambda_polynomial_cylinder(5, 2, SU2)) == 6

    def test_factorial_power_law(self):
        for m in (1, 2, 3, 4):
            for kind in (U1, U2, U3, SU2, SU3):
                assert abs(lambda_polynomial_cylinder(m + 2, 2, kind)) == \
                    math.factorial(m) ** kind.lie_rank

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lambda_polynomial_cylinder(2, 2, U2)

    @pytest.mark.parametrize("g,h,message", [
        (3.0, 2, "g must be an int, got float"),
        (5, 2.0, "h must be an int, got float"),
        ("5", 2, "g must be an int, got str"),
        (True, 2, "g must be an int, got bool"),
        (5, True, "h must be an int, got bool"),
    ])
    def test_refuses_a_non_int_genus(self, g, h, message):
        # Refused by type before the domain checks, as GroupKind refuses n.
        with pytest.raises(TypeError) as err:
            lambda_polynomial_cylinder(g, h, U2)
        assert str(err.value) == message

    @pytest.mark.parametrize("kind", [U1, U2, U3, unitary(4), SU2, SU3,
                                      special_unitary(4), special_unitary(5)],
                             ids=lambda k: k.label)
    def test_matches_tuple_key_reference(self, kind):
        # The signed value, against ExtElement's expansion in factor-major
        # order: the block-major sign is (-1)^(C(rank, 2) * m).
        for m in range(1, 7):
            assert lambda_polynomial_cylinder(m + 2, 2, kind) == reference_cylinder(m, kind)

    # The first m with rank^2 * m * 2^m past MAX_EXTERIOR_WORK, per Lie rank.
    FIRST_REFUSED = {1: 20, 2: 18, 3: 17, 4: 16}

    @pytest.mark.parametrize("rank", sorted(FIRST_REFUSED))
    def test_first_refused_m(self, rank):
        m = self.FIRST_REFUSED[rank]
        assert rank * rank * (m - 1) << (m - 1) <= exterior.MAX_EXTERIOR_WORK
        for kind in (unitary(rank), special_unitary(rank + 1)):
            start = time.perf_counter()
            with pytest.raises(ExteriorWorkLimitError, match="product-cylinder"):
                lambda_polynomial_cylinder(m + 2, 2, kind)
            assert time.perf_counter() - start < 0.05

    def test_box_edge_u4(self):
        # 16 * 15 * 2^15 term steps: the last admitted m for Lie rank 4.
        assert lambda_polynomial_cylinder(17, 2, unitary(4)) == math.factorial(15) ** 4

    @pytest.mark.parametrize("m,kind", [(28, U1), (10 ** 9, U1), (1, unitary(3000))],
                             ids=["g-h=28", "g-h=1e9", "U(3000)"])
    def test_work_box_refuses_before_expanding(self, m, kind):
        start = time.perf_counter()
        with pytest.raises(ExteriorWorkLimitError, match="product-cylinder"):
            lambda_polynomial_cylinder(m + 2, 2, kind)
        assert time.perf_counter() - start < 1.0


def reference_degree(f, kind):
    """Top coefficient of the factor-major pullback product, without wedge.

    Expanding prod_i prod_j sum_k m[i][k] x[j]-of-factor-k leaves only the
    choices where, for each generator j, k = sigma_j(i) is a permutation of
    the factors; each such term is a monomial in factor-major order.
    """
    m = abelianize(f).transpose()
    n = m.rows
    perms = list(itertools.permutations(range(n)))
    weight = {sigma: math.prod(m[i, sigma[i]] for i in range(n)) for sigma in perms}
    live = [sigma for sigma in perms if weight[sigma]]
    gens = kind.generator_range
    total = 0
    for sigmas in itertools.product(live, repeat=len(gens)):
        coeff = math.prod(weight[sigma] for sigma in sigmas)
        pairs = [(sigma[i] + 1, j) for i in range(n) for sigma, j in zip(sigmas, gens)]
        total += sum(ExtElement.monomial(kind, n, coeff, pairs).terms.values())
    return total


def factor_major_degree(f, kind):
    """Top coefficient of the pulled-back top class, expanded with
    ExtElement in factor-major order: for each factor i, then each
    generator j, wedge on sum_k m[i][k] x[j]-of-factor-k."""
    m = abelianize(f).transpose()
    n = m.rows
    acc = ExtElement.unit(kind, n)
    for i in range(n):
        for j in kind.generator_range:
            acc = acc.wedge(sum(
                (ExtElement.monomial(kind, n, m[i, k], [(k + 1, j)]) for k in range(n)),
                ExtElement.zero(kind, n),
            ))
    top = tuple((k, j) for k in range(1, n + 1) for j in kind.generator_range)
    return acc.terms.get(top, 0)


# The factor-major expansion holds up to C(N, N/2)^rank terms, so the
# reference maps shrink as the rank grows.
REFERENCE_KINDS = {U1: 7, U2: 6, SU2: 7, U3: 5, SU3: 6, unitary(4): 4,
                   special_unitary(4): 5}


@st.composite
def small_word_maps(draw):
    kind = draw(st.sampled_from(list(REFERENCE_KINDS)))
    n = draw(st.integers(0, REFERENCE_KINDS[kind]))
    letter = st.tuples(st.integers(1, max(n, 1)), st.sampled_from((-3, -2, -1, 1, 2, 3)))
    images = tuple(free_reduce(draw(st.lists(letter, max_size=3 * n))) for _ in range(n))
    return kind, FreeHom(n, n, images)


def hom(*words):
    return FreeHom(len(words), len(words), tuple(parse_word(w) for w in words))


def dense_hom(rng, n):
    """A word map whose exponent-sum matrix has no zero entry."""
    images = []
    for _ in range(n):
        letters = []
        for g in range(1, n + 1):
            e = rng.choice((-3, -2, -1, 1, 2, 3))
            letters += [(g, 1 if e > 0 else -1)] * abs(e)
        rng.shuffle(letters)
        images.append(free_reduce(letters))
    return FreeHom(n, n, tuple(images))


def frontier(f, limit):
    """F read off the support of ``f`` by the helpers degree_of_word_map
    calls, summed until it passes ``limit``; None when a factor is
    untouched, where the degree is 0 before any box is read."""
    rows, closing = exterior._row_supports(f)
    return None if closing is None else exterior._frontier_work(rows, closing, limit)


class TestBlockOrderDegree:
    @pytest.mark.parametrize("kind", [U1, U2, U3, SU2, SU3, special_unitary(4)],
                             ids=lambda k: k.label)
    def test_matches_permutation_expansion(self, kind):
        rng = random.Random(31 + kind.n)
        top = 5 if kind.lie_rank <= 2 else 4
        for n in range(1, top + 1):
            maps = [random_free_hom(rng, n, n, max_len=6) for _ in range(3)]
            maps += [dense_hom(rng, n) for _ in range(3 if n < top else 1)]
            for f in maps:
                assert degree_of_word_map(f, kind) == reference_degree(f, kind)

    def test_one_form_wedge_matches_monomials(self):
        rng = random.Random(41)
        for _ in range(60):
            kind = rng.choice((U2, U3, SU3))
            n = rng.randint(1, 4)
            pairs = [(k, j) for k in range(1, n + 1) for j in kind.generator_range]
            a = ExtElement.zero(kind, n)
            for _ in range(rng.randint(0, 4)):
                picked = rng.sample(pairs, rng.randint(0, min(3, len(pairs))))
                a = a + ExtElement.monomial(kind, n, rng.randint(-3, 3), picked)
            b = ExtElement.zero(kind, n)
            for pair in rng.sample(pairs, rng.randint(1, len(pairs))):
                b = b + ExtElement.monomial(kind, n, rng.randint(-3, 3), [pair])
            expected = ExtElement.zero(kind, n)
            for key, ca in a.terms.items():
                for (pair,), cb in b.terms.items():
                    expected = expected + ExtElement.monomial(
                        kind, n, ca * cb, list(key) + [pair])
            assert a.wedge(b) == expected

    def test_one_form_wedge_repeated_pair(self):
        a = ExtElement.monomial(U2, 2, 3, [(2, 1), (1, 0)])
        b = gen(U2, 2, 1, 0) + 5 * gen(U2, 2, 2, 0)
        # (1, 0) repeats and drops out; (2, 0) moves past (2, 1): one swap.
        assert a.wedge(b) == ExtElement.monomial(U2, 2, 15, [(2, 1), (1, 0), (2, 0)])
        assert a.wedge(gen(U2, 2, 1, 0)).is_zero

    @settings(max_examples=150, deadline=None)
    @given(small_word_maps())
    @example((U2, hom("g1 g2", "", "g3")))  # a zero row
    @example((SU3, hom("g1^2 g2", "g2 g1^-1", "g1 g2^3")))  # a zero column
    @example((U3, hom("g1 g2 g1^-1", "g1 g3", "g2^2 g3")))  # a sum cancels
    @example((special_unitary(4), hom("g2 g1", "g1 g3^2", "g3 g4", "g4^-1 g2")))
    @example((unitary(4), hom("g1 g2", "g2 g3", "g3 g4", "g4 g1")))
    @example((U1, hom("g1 g2", "g2 g3", "g3 g4", "g4 g5", "g5 g6", "g6 g7", "g7 g1")))
    def test_matches_factor_major_expansion(self, kind_and_map):
        kind, f = kind_and_map
        assert degree_of_word_map(f, kind) == factor_major_degree(f, kind)

    @settings(max_examples=200, deadline=None)
    @given(small_word_maps())
    @example((U1, hom("g2", "g1")))  # a transposition: degree -1
    @example((U3, hom("g2^2 g3", "g1", "g3")))  # P1 swaps rows: det -2, degree -8
    @example((SU2, hom("g1 g2^2", "g2^-1 g1^3")))  # no swap: det -7
    def test_signed_degree_is_det_power(self, kind_and_map):
        # The signed identity lambda_invariants checks between P1 and P2.
        kind, f = kind_and_map
        assert degree_of_word_map(f, kind) == det(abelianize(f)) ** kind.lie_rank

    def test_peak_terms_dense_u3_rank8(self, monkeypatch):
        sizes, masks = [], []
        original = exterior._wedge_row

        def recording(block, row, need):
            result = original(block, row, need)
            sizes.append(len(result))
            masks.extend(result)
            return result

        monkeypatch.setattr(exterior, "_wedge_row", recording)
        f = dense_hom(random.Random(47), 8)
        d = det(abelianize(f))
        assert d != 0
        assert abs(degree_of_word_map(f, U3)) == abs(d) ** 3
        # One block, expanded once whatever the rank: a row step per row.
        assert len(sizes) == 8
        assert max(sizes) <= math.comb(8, 4) == 70
        # A mask holds one generator's factors.
        assert max(masks) == 2 ** 8 - 1

    def test_term_cancelled_at_a_row_closing_no_factor(self, monkeypatch):
        # Dense pullback rows (1, 2, 1), (2, 4, 1), (1, 1, 1): only the
        # last row closes a factor, and the term on factors 1 and 2 cancels
        # after the second row, as the 2x2 minor on them is 0.  det = -1.
        f = hom("g1 g2^2 g3", "g1^2 g2^4 g3", "g1 g2 g3")
        assert exterior._row_supports(f)[1] == [0, 0, 0b111]
        d = det(abelianize(f))
        assert d == -1
        blocks = []
        original = exterior._wedge_row

        def recording(block, row, need):
            blocks.append(result := original(block, row, need))
            return result

        monkeypatch.setattr(exterior, "_wedge_row", recording)
        kinds = (U1, U2, SU3)
        for kind in kinds:
            blocks.clear()
            assert degree_of_word_map(f, kind) == d ** kind.lie_rank
            assert len(blocks) == 3
            for second, last in zip(blocks[1::3], blocks[2::3]):
                assert second.get(0b011, 0) == 0
                assert last == {0b111: d}
        # The same glue through the whole invariant: every pipeline agrees.
        s, _ = parse_splitting_document(CARRIED_ZERO_DOCUMENT)
        assert assembled_word_map(s) == f
        for kind, report in zip(kinds, lambda_invariants(s, kinds, use_sign_convention=True)):
            assert report.abs_value == 1 and report.K == 1
            assert report.vanishing_reason is None

    def test_closing_rows_leave_nonzero_terms_holding_every_closed_factor(self, monkeypatch):
        # The frontier bound C(open, i - closed), and so the work box, reads
        # a block as it leaves a closing row: no zero coefficient is left
        # there, and every key holds every factor closed so far.
        calls = []
        original = exterior._wedge_row

        def recording(block, row, need):
            calls.append((need, result := original(block, row, need)))
            return result

        monkeypatch.setattr(exterior, "_wedge_row", recording)
        maps = [dense_hom(random.Random(47), 8)]
        for seed in (10, 12, 41, 53, 59, 61, 67, 71, 73, 79):
            rng = random.Random(seed)
            for _ in range(40):
                n = rng.randint(1, 7)
                maps.append(dense_hom(rng, n) if rng.random() < 0.3
                            else random_free_hom(rng, n, n))
        closing_rows = cancelled = 0
        for f in maps:
            closing = exterior._row_supports(f)[1]
            for kind in (U1, U2, SU3):
                calls.clear()
                degree_of_word_map(f, kind)
                closed = 0
                for i, (need, block) in enumerate(calls):
                    i %= f.source_rank
                    closed = need if i == 0 else closed | need
                    assert need == closing[i]
                    if need:
                        closing_rows += 1
                        assert 0 not in block.values()
                        assert all(mask & closed == closed for mask in block)
                    else:
                        cancelled += 0 in block.values()
        assert closing_rows > 1000
        # Some rows that close no factor carry a cancelled term.
        assert cancelled > 0

    def test_work_box_above_benchmark_rungs(self):
        for kind, n in ((U2, 8), (SU3, 8), (U3, 6), (unitary(4), 5)):
            assert kind.lie_rank * n * 2 ** n <= exterior.MAX_EXTERIOR_WORK

    # The largest degree inputs of this suite and every rung of the
    # benchmark's exterior ladder; identity maps expand in a few terms.
    INSIDE_BOX = [(U1, 8), (U2, 8), (U3, 8), (SU2, 8), (SU3, 8),
                  (special_unitary(4), 5), (unitary(4), 5), (U2, 6), (U2, 7),
                  (U3, 4), (U3, 5), (U3, 6), (SU3, 7), (unitary(4), 4)]

    @pytest.mark.parametrize("kind,n", INSIDE_BOX, ids=lambda x: getattr(x, "label", x))
    def test_work_box_admits_suite_and_benchmark_inputs(self, kind, n):
        assert degree_of_word_map(identity_hom(n), kind) == 1

    @pytest.mark.parametrize("n", [3163, 20_000, 10 ** 9])
    def test_work_box_grows_with_rank_squared(self, n):
        # F is 1 here; the rank^2 factor caps the Lie rank, which also
        # bounds P1's |det|^rank.
        start = time.perf_counter()
        with pytest.raises(ExteriorWorkLimitError, match=r"rank\^2"):
            degree_of_word_map(identity_hom(1), unitary(n))
        assert time.perf_counter() - start < 1.0

    def test_work_box_rank_edge(self):
        assert 3162 ** 2 <= exterior.MAX_EXTERIOR_WORK < 3163 ** 2
        assert degree_of_word_map(identity_hom(1), unitary(3162)) == 1

    def test_generator_membership_is_a_range(self):
        kind = unitary(10 ** 12)
        assert 10 ** 12 - 1 in kind.generator_range
        assert 0 not in special_unitary(3).generator_range

    @pytest.mark.parametrize("n", [20, 24, 30])
    def test_work_box_refuses_before_expanding(self, n):
        f = dense_hom(random.Random(n), n)
        start = time.perf_counter()
        with pytest.raises(ExteriorWorkLimitError, match="support frontier"):
            degree_of_word_map(f, U1)
        assert time.perf_counter() - start < 1.0

    def test_frontier_admits_sparse_identity(self):
        start = time.perf_counter()
        assert degree_of_word_map(identity_hom(10_000), U1) == 1
        assert time.perf_counter() - start < 1.0

    def test_frontier_bound(self):
        bounds = []
        rng = random.Random(53)
        for _ in range(300):
            n = rng.randint(1, 9)
            f = dense_hom(rng, n) if rng.random() < 0.2 else random_free_hom(rng, n, n)
            kind = rng.choice((U1, U2, U3, SU3))
            limit = exterior.MAX_EXTERIOR_WORK // kind.lie_rank ** 2
            work = frontier(f, limit)
            # The box admits what the exact sum admits: every map here.
            assert work is None or work <= limit
            degree_of_word_map(f, kind)
            if work is not None:
                bounds.append((n, work))
        assert len(bounds) > 100
        # Nothing inside the worst-case box rank^2 * N * 2^N is refused.
        assert all(work <= n * 2 ** n for n, work in bounds)
        maps = (dense_hom(rng, 9), identity_hom(9))
        for f in maps:
            degree_of_word_map(f, U1)
        bounds = [(9, frontier(f, exterior.MAX_EXTERIOR_WORK)) for f in maps]
        # Dense: no factor closes before the last row.  Identity: each row
        # closes its factor, so every step meets one term.
        assert bounds == [(9, 9 * (2 ** 9 - 1)), (9, 9)]

    def test_box_refuses_exactly_past_the_exact_sum(self, monkeypatch):
        # The worst case N * 2^N is read first and the exact F only when
        # that could pass the box; the box must refuse exactly when
        # rank^2 * F does.  Each limit is tried at both boundaries.
        rng = random.Random(59)
        maps = [identity_hom(1), identity_hom(30), dense_hom(rng, 9)]
        for _ in range(60):
            n = rng.randint(1, 10)
            maps.append(dense_hom(rng, n) if rng.random() < 0.3 else random_free_hom(rng, n, n))
        refusals = admissions = 0
        for f in maps:
            n, kind = f.source_rank, rng.choice((U1, U2, U3, SU3))
            r2, work = kind.lie_rank ** 2, frontier(f, 1 << 64)
            worst = r2 * n << n
            limits = {0, 1, worst - 1, worst, worst + 1, rng.randint(0, worst)}
            if work is not None:
                limits |= {r2 * work - 1, r2 * work, r2 * work + 1}
            for limit in sorted(limits):
                monkeypatch.setattr(exterior, "MAX_EXTERIOR_WORK", limit)
                try:
                    degree_of_word_map(f, kind)
                except ExteriorWorkLimitError:
                    refused = True
                else:
                    refused = False
                assert refused == (work is not None and r2 * work > limit), (f, kind, limit)
                refusals += refused
                admissions += not refused
        assert refusals > 100 and admissions > 100
