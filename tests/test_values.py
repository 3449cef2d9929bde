"""The value classes are plain slotted classes that refuse assignment.

Each keeps what its frozen slotted dataclass form gave: the constructor's
signature, defaults, checks and error text; ``__slots__`` naming the
fields in order and no instance ``__dict__``; equality within one class
over the fields, and the hash of the field tuple; the dataclass ``repr``;
``__match_args__``; and pickle and copy round trips, at every pickle
protocol.  ``dataclasses`` helpers no longer apply to them.  ``IntMat``
shares all of this but the ``repr``; its fields are its constructor's
parameters, ``data`` and ``cols``, and it reads ``rows`` off ``data``.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest

from repcount import (
    INFINITE,
    AdaptedSplitting,
    ExtElement,
    FreeHom,
    GroupKind,
    IntMat,
    InvalidSplittingError,
    MalformedWordError,
    MultiIndex,
    PairHomologyReport,
    RankMismatchError,
    SnfResult,
    Word,
    pair_cohomology,
    smith_normal_form,
    unitary,
)
from repcount.intlinalg import _Frozen
from support import det6_splitting, rebuilt, trivial_splitting

EMPTY = inspect.Parameter.empty

# Each class's constructor parameters, with their defaults, in field order.
SIGNATURES = {
    Word: (("letters", ()),),
    FreeHom: (("source_rank", EMPTY), ("target_rank", EMPTY), ("images", EMPTY)),
    GroupKind: (("family", EMPTY), ("n", EMPTY)),
    ExtElement: (("kind", EMPTY), ("n_factors", EMPTY), ("terms", None)),
    AdaptedSplitting: (("h1", EMPTY), ("h2", EMPTY), ("u", EMPTY), ("g1", EMPTY),
                       ("k_map", EMPTY), ("l_map", EMPTY), ("u_hat_genus", None),
                       ("orientation_reversed", False)),
    PairHomologyReport: (("betti1_M", EMPTY), ("order_H2_M", EMPTY),
                         ("order_H2_pair", EMPTY), ("restriction_iso", EMPTY)),
    MultiIndex: (("I", ()), ("J", ())),
    SnfResult: (("U", EMPTY), ("D", EMPTY), ("V", EMPTY), ("diag", EMPTY)),
    IntMat: (("data", EMPTY), ("cols", None)),
}
CLASSES = list(SIGNATURES)
PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)
# Each way to pickle or copy a value, by its test id.
ROUND_TRIPS = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    **{f"pickle{protocol}": lambda v, protocol=protocol: pickle.loads(
        pickle.dumps(v, protocol=protocol)) for protocol in PROTOCOLS},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}
round_trips = pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)


def examples(cls):
    """Two unequal values of ``cls``."""
    s = det6_splitting()
    return {
        Word: lambda: (Word(((1, 2), (2, -1))), Word(((1, 2),))),
        FreeHom: lambda: (s.k_map, s.l_map),
        GroupKind: lambda: (unitary(2), GroupKind("SU", 2)),
        ExtElement: lambda: (ExtElement.monomial(unitary(2), 2, 3, [(1, 0)]),
                             ExtElement.monomial(unitary(2), 2, 3, [(2, 1)])),
        AdaptedSplitting: lambda: (s, trivial_splitting()),
        PairHomologyReport: lambda: (pair_cohomology(s), pair_cohomology(trivial_splitting())),
        MultiIndex: lambda: (MultiIndex(I=((1, 2),), J=((2, 1),)), MultiIndex(I=((1, 2),))),
        SnfResult: lambda: (smith_normal_form(IntMat([[2, 4], [6, 8]])),
                            smith_normal_form(IntMat([[1]]))),
        IntMat: lambda: (IntMat([[1, -2], [3, 4]]), IntMat([], cols=3)),
    }[cls]()


def parameters(cls) -> tuple:
    return tuple(name for name, _ in SIGNATURES[cls])


def fields(value) -> tuple:
    """The value's fields, which are its constructor's arguments."""
    return tuple(getattr(value, name) for name in parameters(type(value)))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestEachValueClass:
    def test_signature_and_defaults(self, cls):
        params = inspect.signature(cls).parameters.values()
        assert tuple((p.name, p.default) for p in params) == SIGNATURES[cls]
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)

    def test_slots_name_the_fields_and_no_dict(self, cls):
        assert cls.__slots__ == parameters(cls)
        for value in examples(cls):
            assert not hasattr(value, "__dict__")

    def test_keyword_and_positional_construction_agree(self, cls):
        value, _ = examples(cls)
        args = fields(value)
        assert cls(*args) == cls(**dict(zip(parameters(cls), args))) == value

    def test_equality_within_one_class_over_the_fields(self, cls):
        value, other = examples(cls)
        assert value == rebuilt(value) and not value != rebuilt(value)
        assert value != other and fields(value) != fields(other)
        assert value != fields(value)
        assert value.__eq__(fields(value)) is NotImplemented

        class Sub(cls):
            __slots__ = ()

        assert Sub(*fields(value)) != value

    def test_hash_is_the_field_tuple_hash(self, cls):
        value, _ = examples(cls)
        if cls is ExtElement:
            # Its terms are a read-only mapping view, which is unhashable.
            with pytest.raises(TypeError, match="unhashable type"):
                hash(value)
        else:
            assert hash(value) == hash(fields(value)) == hash(rebuilt(value))

    def test_assignment_and_deletion_refused(self, cls):
        value, other = examples(cls)
        before = fields(value)
        for name in cls.__slots__:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, getattr(other, name))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert fields(value) == before and not hasattr(value, "extra")

    def test_match_args(self, cls):
        assert cls.__match_args__ == cls.__slots__
        value, _ = examples(cls)
        match value:
            case cls(first):
                assert first is fields(value)[0]
            case _:
                pytest.fail("no match")

    @round_trips
    def test_pickle_and_copy_round_trips(self, cls, round_trip):
        for value in examples(cls):
            again = round_trip(value)
            assert type(again) is cls and again == value and again is not value
            assert repr(again) == repr(value)

    def test_pickles_through_the_base_reduce(self, cls):
        # ExtElement's read-only terms view does not pickle; it passes a dict.
        assert (cls.__reduce__ is _Frozen.__reduce__) is (cls is not ExtElement)

    def test_not_a_dataclass(self, cls):
        assert not dataclasses.is_dataclass(cls)
        value, _ = examples(cls)
        with pytest.raises(TypeError):
            dataclasses.replace(value)


class TestInfinite:
    """``INFINITE`` is one value: code compares it with ``is``."""

    @round_trips
    def test_identity_kept(self, round_trip):
        assert round_trip(INFINITE) is INFINITE

    @round_trips
    def test_identity_kept_in_a_report(self, round_trip):
        empty = FreeHom(1, 1, (Word(),))
        report = pair_cohomology(AdaptedSplitting(1, 1, 1, 1, empty, empty))
        assert report.order_H2_M is INFINITE and report.order_H2_pair is INFINITE
        again = round_trip(report)
        assert again == report and again is not report
        assert again.order_H2_M is INFINITE and again.order_H2_pair is INFINITE


class TestRepr:
    def test_field_reprs(self):
        s = det6_splitting()
        assert repr(unitary(2)) == "GroupKind(family='U', n=2)"
        assert repr(MultiIndex(I=((1, 2),))) == "MultiIndex(I=((1, 2),), J=())"
        assert repr(pair_cohomology(s)) == (
            "PairHomologyReport(betti1_M=1, order_H2_M=1, order_H2_pair=6, "
            "restriction_iso=True)")
        assert repr(smith_normal_form(IntMat([[2, 4], [6, 8]]))) == (
            "SnfResult(U=IntMat[1 0; 3 -1], D=IntMat[2 0; 0 4], V=IntMat[1 -2; 0 1], "
            "diag=(2, 4))")
        assert repr(s.k_map) == (
            "FreeHom(source_rank=2, target_rank=2, images=(Word('g2^2'), Word('g1')))")
        assert repr(s) == (
            "AdaptedSplitting(h1=2, h2=1, u=2, g1=1, k_map=" + repr(s.k_map)
            + ", l_map=" + repr(s.l_map) + ", u_hat_genus=2, orientation_reversed=False)")

    def test_own_reprs_kept(self):
        assert repr(Word(((1, 2), (2, -1)))) == "Word('g1^2 g2^-1')"
        assert repr(ExtElement.monomial(unitary(2), 2, 3, [(1, 0)])) == "ExtElement(3*x0[1])"
        assert repr(ExtElement(unitary(2), 2)) == "ExtElement(0)"


class TestChecksAndErrorText:
    @pytest.mark.parametrize("build,error,message", [
        (lambda: Word(((1, 1), (1, 2))), MalformedWordError,
         "adjacent letters share a generator; not reduced"),
        (lambda: Word(((1, 0),)), MalformedWordError, "zero exponent in a reduced word"),
        (lambda: Word(((1.0, 1),)), MalformedWordError, "letters must be pairs of ints"),
        (lambda: FreeHom(-1, 1, ()), RankMismatchError, "ranks must be nonnegative"),
        (lambda: FreeHom(2, 1, (Word(),)), RankMismatchError, "1 images for source rank 2"),
        (lambda: FreeHom(1, 1, (Word(((2, 1),)),)), MalformedWordError,
         "image g2 uses generator beyond target rank 1"),
        (lambda: GroupKind("V", 2), ValueError, "group must be 'U' or 'SU', got 'V'"),
        (lambda: GroupKind("U", 2.0), TypeError, "n must be an int, got float"),
        (lambda: GroupKind("U", 0), ValueError, "n must be at least 1"),
        (lambda: GroupKind("SU", 1), ValueError, "SU(n) requires n >= 2"),
        (lambda: ExtElement(unitary(1), "x"), ValueError,
         "invalid literal for int() with base 10: 'x'"),
        (lambda: MultiIndex(I=((0, 1),)), ValueError, "I: index 0 must be >= 1"),
        (lambda: MultiIndex(J=((2, 1), (2, 1))), ValueError, "J: indices must strictly increase"),
        (lambda: MultiIndex(I=((1, 0),)), ValueError, "I: multiplicity 0 must be positive"),
        (lambda: MultiIndex(I=((1, True),)), TypeError, "I: multiplicity must be an int, got bool"),
        (lambda: rebuilt(det6_splitting(), u="2"), TypeError, "u must be an int, got str"),
        (lambda: rebuilt(det6_splitting(), orientation_reversed=1), TypeError,
         "orientation_reversed must be a bool, got int"),
    ])
    def test_refusals(self, build, error, message):
        with pytest.raises(error) as err:
            build()
        assert type(err.value) is error and str(err.value) == message

    def test_splitting_validated(self):
        with pytest.raises(InvalidSplittingError) as err:
            rebuilt(trivial_splitting(), g1=2)
        assert err.value.violations == ["S1 generators exceed H1 rank (g1=2 > h1=1)",
                                        "negative codimension T=-1"]

    def test_defaults_and_normal_forms(self):
        s = det6_splitting()
        assert rebuilt(s, u_hat_genus=None).u_hat_genus == s.u
        assert Word().letters == () and MultiIndex() == MultiIndex((), ())
        assert FreeHom(1, 1, [Word()]).images == (Word(),)
        assert Word([[1, 2]]).letters == ((1, 2),)
        assert MultiIndex(I=[[1, 2]]).I == ((1, 2),)
        e = ExtElement(unitary(1), 2.0, {(): 0, ((1, 0),): 2})
        assert e.n_factors == 2 and dict(e.terms) == {((1, 0),): 2}
