import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evicalc import Absolute, BeliefStructure, CombinationRule, \
    EntailmentWitness, FocalSet, Frame, KnowledgeBase, ProbabilityInterval, \
    Typical, combine, compile_statement, decimal6, flow_entails, hedge, \
    mass_str, to_mass, weaken_to
from evicalc.core import _ZETA_PAIRS, _num_text, _typical_form, _zeta
from evicalc.monotonicity import SweepRow, canonical_pair
from evicalc.errors import (
    EmptyFocalInNormal,
    ExponentTooLarge,
    FrameMismatch,
    FrameTooLarge,
    MassSumNotOne,
    NegativeMass,
    StrengthOutOfRange,
    SubnormalInput,
    UnknownAtom,
)

from conftest import ATOMS, structures
from oracles import (naive_bel, naive_pl, oracle_zeta, random_frame,
                     random_structure)

F = Fraction


class TestMass:
    def test_decimal_string_is_exact(self):
        assert to_mass("0.99") == F(99, 100)

    def test_fraction_string(self):
        assert to_mass("3/5") == F(3, 5)

    def test_float_literal_goes_through_repr(self):
        assert to_mass(0.99) == F(99, 100)
        assert to_mass(0.5) == F(1, 2)

    def test_exponent_is_bounded_before_expansion(self):
        assert to_mass("1e-4300") == F(1, 10**4300)
        assert to_mass(" 25E-02 ") == F(1, 4)
        # Fraction would build 10**100000000 before any check: minutes
        for text in ("1e-100000000", "1E+4301", "2.5e-1_000_000",
                     "1e-" + "9" * 5000, " 1e-0004301 "):
            with pytest.raises(ExponentTooLarge,
                               match="exponent beyond 4300") as caught:
                to_mass(text)
            # a ValueError too, for the callers that catch that
            assert isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("text", ["1_0/2_0", "0.2_5", "1 / 2", "1/ 2",
                                      "2.5e-1_0", "1\t/2", "1/2_"])
    def test_grammar_is_the_same_on_every_python(self, text):
        # Python 3.11's Fraction reads underscores and 3.12's spaces
        # around "/"; neither is part of the mass grammar
        with pytest.raises(ValueError, match="^cannot parse mass '"):
            to_mass(text)
        assert to_mass(" 25E-02 ") == F(1, 4)
        assert to_mass("\t+1/2\n") == F(1, 2)

    def test_negative_rejected(self):
        with pytest.raises(NegativeMass):
            to_mass("-1/2")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="^cannot parse mass 'one half'$"):
            to_mass("one half")
        # a long text is named by its length, not echoed
        with pytest.raises(ValueError,
                           match="^cannot parse mass <5000 characters>$"):
            to_mass("1" * 5000)

    def test_bool_rejected_by_name(self):
        for flag in (True, False):
            with pytest.raises(TypeError, match="bool"):
                to_mass(flag)

    @pytest.mark.parametrize("value, kind", [([1], "list"),
                                             (None, "NoneType")])
    def test_other_types_rejected_by_name(self, value, kind):
        with pytest.raises(TypeError,
                           match=f"^cannot interpret {kind} as a mass$"):
            to_mass(value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_float_rejected_by_name(self, value):
        with pytest.raises(ValueError,
                           match=f"mass {value!r} is not a finite number"):
            to_mass(value)

    def test_long_numbers_in_messages_are_named_by_digit_count(self):
        short = (F(5, 6), F(-7, 6), F(0), F(2**199 - 1))
        assert [_num_text(x) for x in short] == [str(x) for x in short]
        for k in range(61, 400):  # 10**61 has 203 bits, past the cut
            assert _num_text(F(10**k)) == f"<{k + 1} digits>"
            assert _num_text(F(10**k - 1, 10)) == f"<{k} digits>/10"
            assert _num_text(F(-10**k - 1, 2)) == f"-<{k + 1} digits>/2"
        assert _num_text(F(1, 10**4300)) == "1/<4301 digits>"

    def test_rendering(self):
        assert mass_str(F(3, 10)) == "3/10"
        assert mass_str(F(1)) == "1"
        assert decimal6(F(1, 3)) == "0.333333"
        assert decimal6(F(2, 3)) == "0.666667"
        assert decimal6(F(1)) == "1.000000"


class TestFrame:
    def test_atom_order_is_bit_order(self):
        frame = Frame(["x", "y", "z"])
        assert frame.subset(["y"]).bits == 0b010
        assert frame.full.bits == 0b111

    def test_rejects_duplicates_and_empties(self):
        with pytest.raises(ValueError):
            Frame(["a", "a"])
        with pytest.raises(ValueError):
            Frame([])
        with pytest.raises(ValueError):
            Frame(["a", ""])

    @pytest.mark.parametrize("name, shown", [
        ("a\nm({z}) = 1 ~ 1.000000", r"'a\nm({z}) = 1 ~ 1.000000'"),
        ("\ud800", r"'\ud800'"), ("tab\t", r"'tab\t'"), ("\x00", r"'\x00'"),
        ("\u200b", r"'\u200b'"), ("\n" * 200, "<200 characters>")],
        ids=["line-break", "surrogate", "tab", "nul", "zero-width", "long"])
    def test_atom_names_are_printable(self, name, shown):
        with pytest.raises(ValueError, match=re.escape(
                f"atom name {shown} is not printable")):
            Frame(["a", name])
        assert Frame(["a b", "é", "x-1"]).atoms == ("a b", "é", "x-1")

    def test_size_cap(self):
        Frame([f"x{i}" for i in range(24)])
        with pytest.raises(FrameTooLarge):
            Frame([f"x{i}" for i in range(25)])

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtom):
            Frame(["a", "b"]).subset(["a", "e"])


class TestFocalSet:
    def test_set_algebra(self, frame4):
        ab = frame4.subset(["a", "b"])
        bc = frame4.subset(["b", "c"])
        assert (ab & bc).atoms == ("b",)
        assert (ab | bc).atoms == ("a", "b", "c")
        assert (~ab).atoms == ("c", "d")
        assert frame4.subset(["b"]).issubset(ab)
        assert not ab.issubset(bc)
        assert ab.intersects(bc)
        assert not ab.intersects(frame4.subset(["c", "d"]))
        assert len(ab) == 2
        assert frame4.empty.is_empty
        assert ab.label() == "{a, b}"
        assert frame4.empty.label() == "{}"

    def test_iteration_and_membership_by_atom_name(self, frame4):
        ac = frame4.subset(["c", "a"])
        assert list(ac) == ["a", "c"]  # frame order, not the given order
        assert list(frame4.empty) == []
        assert "a" in ac and "c" in ac
        assert "b" not in ac and "d" not in ac
        with pytest.raises(UnknownAtom, match="^unknown atom 'e'$"):
            "e" in ac

    def test_cross_frame_operations_fail(self, frame4, frame5):
        with pytest.raises(FrameMismatch):
            frame4.subset(["a"]) & frame5.subset(["a"])

    def test_every_frame_mismatch_is_one_line_naming_the_frames(
            self, frame4, frame5):
        m4 = BeliefStructure.vacuous(frame4)
        m5 = BeliefStructure.vacuous(frame5)
        message = re.escape(f"frames differ: {frame4!r} vs {frame5!r}")
        for call in (lambda: frame4.full & frame5.full,
                     lambda: m4.pl(frame5.full),
                     lambda: BeliefStructure(frame4, [(frame5.full, 1)]),
                     lambda: KnowledgeBase(frame4, "V",
                                           (Absolute(frame5.full),)),
                     lambda: combine(m4, m5), lambda: flow_entails(m4, m5)):
            with pytest.raises(FrameMismatch, match=f"^{message}$"):
                call()
        for call, kind in ((lambda: frame4.full | 3, "FocalSet"),
                           (lambda: m4.bel("a"), "FocalSet"),
                           (lambda: combine(m4, frame4.full),
                            "BeliefStructure")):
            with pytest.raises(TypeError, match=f"^expected {kind}, got "):
                call()


class TestConstruction:
    def test_vacuous(self):
        frame = Frame(["a", "b"])
        m = BeliefStructure(frame, [(frame.full, 1)])
        assert m == BeliefStructure.vacuous(frame)
        assert not m.is_subnormal

    def test_two_focal_desk_structure(self, frame4):
        m = BeliefStructure(frame4, [(frame4.subset(["a", "b"]), F(6, 10)),
                                     (frame4.full, F(4, 10))])
        assert m.mass(frame4.subset(["a", "b"])) == F(3, 5)

    def test_sum_must_be_one(self, frame4):
        with pytest.raises(MassSumNotOne):
            BeliefStructure(frame4, [(frame4.subset(["a"]), F(1, 2)),
                                     (frame4.subset(["b"]), F(1, 3))])

    def test_negative_mass(self, frame4):
        with pytest.raises(NegativeMass):
            BeliefStructure(frame4, [(frame4.full, F(3, 2)),
                                     (frame4.subset(["a"]), F(-1, 2))])

    def test_frame_mismatch(self, frame4, frame5):
        with pytest.raises(FrameMismatch):
            BeliefStructure(frame4, [(frame5.full, 1)])

    def test_empty_focal_needs_subnormal_flag(self, frame4):
        with pytest.raises(EmptyFocalInNormal):
            BeliefStructure(frame4, [(frame4.empty, F(1, 2)),
                                     (frame4.full, F(1, 2))])
        m = BeliefStructure(frame4, [(frame4.empty, F(1, 2)),
                                     (frame4.full, F(1, 2))], subnormal=True)
        assert m.is_subnormal

    def test_duplicates_merge_and_zeros_drop(self, frame4):
        a = frame4.subset(["a"])
        m = BeliefStructure(frame4, [(a, F(1, 4)), (a, F(1, 4)),
                                     (frame4.full, F(1, 2)),
                                     (frame4.subset(["b"]), 0)])
        assert m.mass(a) == F(1, 2)
        assert len(m) == 2
        assert m == BeliefStructure(frame4, [(a, "2/4"),
                                             (frame4.full, "1/2")])

    def test_sum_is_checked_in_integers_and_reported_as_a_fraction(
            self, frame4):
        a, b = frame4.subset(["a"]), frame4.subset(["b"])
        with pytest.raises(MassSumNotOne, match=r"^masses sum to 5/6, not 1$"):
            BeliefStructure(frame4, [(a, F(1, 2)), (b, F(1, 3))])
        with pytest.raises(MassSumNotOne, match=r"^masses sum to 7/6, not 1$"):
            BeliefStructure(frame4, [(a, F(1, 2)), (a, F(1, 3)),
                                     (frame4.full, F(1, 3))])
        with pytest.raises(MassSumNotOne, match=r"^masses sum to 0, not 1$"):
            BeliefStructure(frame4, [(a, 0)])
        # denominators 997 and 1009 only meet at their product
        m = BeliefStructure(frame4, [(a, F(1, 997)), (b, F(1, 1009)),
                                     (a, F(1, 1009)),
                                     (frame4.full, 1 - F(1, 997)
                                      - F(2, 1009))])
        assert m.mass(a) == F(1, 997) + F(1, 1009)

    def test_merged_duplicates_and_dropped_zeros_keep_bitmask_order(
            self, frame4):
        a, b, c = (frame4.subset([x]) for x in "abc")
        m = BeliefStructure(frame4, [(c, F(1, 6)), (a, 0), (b, F(1, 6)),
                                     (c, F(1, 6)), (b, "1/6"), (c, 0),
                                     (frame4.full, F(1, 3))])
        assert list(m.bit_items()) == [(b.bits, F(1, 3)), (c.bits, F(1, 3)),
                                       (frame4.full.bits, F(1, 3))]

    def test_form_constructor_checks_in_integers(self, frame4):
        a, full = frame4.subset(["a"]).bits, frame4.full.bits
        make = BeliefStructure._from_form
        with pytest.raises(MassSumNotOne, match=r"^masses sum to 2/3, not 1$"):
            make(frame4, {a: 1, full: 1}, 3)
        for nums in ({a: 0, full: 2}, {a: -1, full: 3}, {1 << 4: 2},
                     {-1: 2}):
            with pytest.raises(ValueError, match="out of range"):
                make(frame4, nums, 2)
        with pytest.raises(EmptyFocalInNormal):
            make(frame4, {0: 1, full: 1}, 2)
        assert make(frame4, {0: 1, full: 1}, 2, subnormal=True).is_subnormal
        # an unreduced form is stored reduced, equal to the public twin
        m = make(frame4, {full: 6, a: 6}, 12)
        assert m == BeliefStructure(frame4, [(frame4.subset(["a"]), "1/2"),
                                             (frame4.full, "1/2")])
        assert list(m.bit_items()) == [(a, F(1, 2)), (full, F(1, 2))]

    def test_structures_are_immutable(self, frame4):
        m = BeliefStructure.vacuous(frame4)
        with pytest.raises(AttributeError):
            m.frame = frame4


def round_trips(value):
    """value after pickle and after deepcopy: each a new object, both ==."""
    copies = [pickle.loads(pickle.dumps(value)), copy.deepcopy(value)]
    for other in copies:
        assert other is not value
        assert other == value
    return copies


class TestPickleAndCopy:
    """The immutable values refuse __setattr__, yet pickle and copy give
    equal values (the slotted ones rebuild through their constructors)."""

    def test_frame_and_focal_set(self, frame4):
        for frame in round_trips(frame4):
            assert frame.atoms == frame4.atoms
            assert hash(frame) == hash(frame4)
            assert frame.index("c") == 2
        focal = frame4.subset(["a", "c"])
        for other in round_trips(focal):
            assert other.bits == focal.bits and hash(other) == hash(focal)

    def test_probability_interval(self):
        interval = ProbabilityInterval(F(1, 3), F(2, 3))
        round_trips(interval)

    @pytest.mark.parametrize("names", [[], ["a"], ["a", "c"], list("abcd")])
    def test_focal_set_is_a_frozen_value(self, frame4, names):
        focal = frame4.subset(names)
        for name in ("bits", "frame", "other"):
            with pytest.raises(AttributeError):
                setattr(focal, name, 1)
        for stranger in (focal.bits, (frame4, focal.bits), None, "{a}"):
            assert not focal == stranger and focal != stranger
        # the set and dict orders of the outputs follow this hash
        assert hash(focal) == hash((frame4, focal.bits))
        assert focal == Frame("abcd").subset(names)
        for bits in (-1 - focal.bits, focal.bits | 1 << 4):
            with pytest.raises(ValueError, match="out of range"):
                frame4.from_bits(bits)

    @pytest.mark.parametrize("lower, upper", [(F(0), F(1)), (F(1, 3), F(2, 3)),
                                              (F(1, 2), F(1, 2))])
    def test_probability_interval_is_a_frozen_value(self, lower, upper):
        interval = ProbabilityInterval(lower, upper)
        for name in ("lower", "upper", "other"):
            with pytest.raises(AttributeError):
                setattr(interval, name, F(0))
        for stranger in ((lower, upper), [lower, upper], None, lower):
            assert not interval == stranger and interval != stranger
        assert hash(interval) == hash((lower, upper))
        assert interval == ProbabilityInterval(lower, upper)
        assert tuple(interval) == (lower, upper)
        assert repr(interval) == f"ProbabilityInterval({lower}, {upper})"

    def test_structures_go_through_the_integer_form(self):
        rng = random.Random(23)
        for _ in range(30):
            frame = random_frame(rng, 1, 6)
            m = random_structure(rng, frame, 6, rng.choice([None, 997]))
            for other in round_trips(m):
                assert list(other.bit_items()) == list(m.bit_items())
                assert other._den == m._den

    def test_subnormal_structure(self, frame4):
        m = BeliefStructure(frame4, [(frame4.empty, "1/4"),
                                     (frame4.full, "3/4")], subnormal=True)
        for other in round_trips(m):
            assert other.is_subnormal


FRAME = Frame("abcd")
A, AB = FRAME.subset("a"), FRAME.subset("ab")

# (type, fields by keyword in declaration order, the dataclass repr)
VALUE_TYPES = [
    pytest.param(Frame, {"atoms": ("a", "b", "c", "d")},
                 "Frame(['a', 'b', 'c', 'd'])", id="Frame"),
    pytest.param(FocalSet, {"frame": FRAME, "bits": 0b101},
                 "FocalSet({a, c})", id="FocalSet"),
    pytest.param(ProbabilityInterval, {"lower": F(1, 3), "upper": F(2, 3)},
                 "ProbabilityInterval(1/3, 2/3)", id="ProbabilityInterval"),
    pytest.param(CombinationRule, {"kind": "discount", "param": F(1, 2)},
                 "CombinationRule(kind='discount', param=Fraction(1, 2))",
                 id="CombinationRule"),
    pytest.param(EntailmentWitness,
                 {"mode": "flow", "triples": ((A, AB, F(1, 2)),)},
                 "EntailmentWitness(mode='flow', triples=((FocalSet({a}), "
                 "FocalSet({a, b}), Fraction(1, 2)),))",
                 id="EntailmentWitness"),
    pytest.param(Absolute, {"set": A}, "Absolute(set=FocalSet({a}))",
                 id="Absolute"),
    pytest.param(Typical, {"set": AB, "strength": F(9, 10)},
                 "Typical(set=FocalSet({a, b}), strength=Fraction(9, 10))",
                 id="Typical"),
    pytest.param(KnowledgeBase,
                 {"frame": FRAME, "variable": "V",
                  "statements": (Absolute(AB), Typical(A, F(1, 2)))},
                 "KnowledgeBase(frame=Frame(['a', 'b', 'c', 'd']), "
                 "variable='V', statements=(Absolute(set=FocalSet({a, b})), "
                 "Typical(set=FocalSet({a}), strength=Fraction(1, 2))))",
                 id="KnowledgeBase"),
    pytest.param(SweepRow,
                 {"alpha": F(1, 2), "beta": F(1, 3), "conflict": F(1, 6),
                  "bel_a": F(2, 5), "pl_a": F(1), "violation": False,
                  "infeasible": False},
                 "SweepRow(alpha=Fraction(1, 2), beta=Fraction(1, 3), "
                 "conflict=Fraction(1, 6), bel_a=Fraction(2, 5), "
                 "pl_a=Fraction(1, 1), violation=False, infeasible=False)",
                 id="SweepRow"),
]


class TestValueTypes:
    """The frozen value types keep what ``@dataclass(frozen=True)`` gave
    them: keyword construction, ``repr``, ``==`` within one class, ``hash``
    of the field tuple, pickle and deepcopy, and no assignment."""

    @pytest.mark.parametrize("cls, fields, text", VALUE_TYPES)
    def test_dataclass_behaviour(self, cls, fields, text):
        value = cls(*fields.values())
        assert cls(**fields) == value and not cls(**fields) != value
        assert repr(value) == text
        assert hash(value) == hash(tuple(fields.values()))
        for stranger in (tuple(fields.values()), CombinationRule("yager"),
                         FRAME.full, None):
            assert not value == stranger and value != stranger
        for other in (pickle.loads(pickle.dumps(value)),
                      copy.deepcopy(value), copy.copy(value)):
            assert type(other) is cls
            assert other == value and hash(other) == hash(value)
            assert repr(other) == text
        for name in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert [getattr(value, name) for name in fields] == \
            list(fields.values())

    @pytest.mark.parametrize("build, names", [
        (lambda: Frame("abcd"), ("atoms", "_index", "other")),
        (lambda: BeliefStructure(FRAME, {A: "1/3", FRAME.full: "2/3"}),
         ("frame", "_nums", "_den", "other"))],
        ids=["Frame", "BeliefStructure"])
    def test_no_attribute_is_assigned_or_deleted(self, build, names):
        value, before = build(), build()
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        fields = names[:-1]  # all there still, and unchanged
        assert [getattr(value, name) for name in fields] == \
            [getattr(before, name) for name in fields]

    def test_rule_parameter_defaults_to_none(self):
        rule = CombinationRule("yager")
        assert rule.param is None
        assert rule == CombinationRule(kind="yager", param=None)
        assert repr(rule) == "CombinationRule(kind='yager', param=None)"

    def test_generic_constructor(self):
        """The field-only types bind their fields through ``_Value``'s
        constructor, with the trailing defaults of ``_defaults``; the types
        with checks keep their own (``CombinationRule``'s binds through
        ``_Value``'s, then checks the rule)."""
        for cls in (ProbabilityInterval, EntailmentWitness, SweepRow):
            assert "__init__" not in vars(cls)
        for cls in (Frame, FocalSet, Absolute, Typical, KnowledgeBase,
                    BeliefStructure, CombinationRule):
            assert "__init__" in vars(cls)
        assert CombinationRule._defaults == (None,)
        assert SweepRow._defaults == (False,)
        assert ProbabilityInterval._defaults == EntailmentWitness._defaults \
            == ()
        row = SweepRow(F(0), F(1), F(0), F(0), F(1), False)
        assert row.infeasible is False
        assert SweepRow(F(0), F(1), F(0), None, None, None,
                        infeasible=True).infeasible is True
        assert CombinationRule(param=F(1, 2), kind="discount") == \
            CombinationRule("discount", F(1, 2))
        assert ProbabilityInterval(F(1, 3), upper=F(1)).upper == F(1)

    @pytest.mark.parametrize("build, message", [
        (lambda: ProbabilityInterval(F(0), F(1), F(1)),
         "ProbabilityInterval takes 2 fields"),
        (lambda: CombinationRule("yager", None, None),
         "CombinationRule takes 2 fields"),
        (lambda: EntailmentWitness("flow", (), weight=1),
         "EntailmentWitness has no field 'weight'"),
        (lambda: CombinationRule("yager", kind="yager"),
         "CombinationRule got field 'kind' twice"),
        (lambda: SweepRow(F(0), F(1), F(0), None, None, None, False,
                          infeasible=True),
         "SweepRow got field 'infeasible' twice"),
        (lambda: SweepRow(F(0), F(1), F(0), None, None, infeasible=True),
         "SweepRow is missing field 'violation'"),
        (lambda: ProbabilityInterval(upper=F(1)),
         "ProbabilityInterval is missing field 'lower'"),
        (lambda: CombinationRule(), "CombinationRule is missing field 'kind'"),
    ], ids=["too-many", "too-many-with-default", "unknown", "twice",
            "default-twice", "missing", "missing-keyword-given",
            "missing-with-default"])
    def test_generic_constructor_refuses_bad_arguments(self, build, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize("build, error, match", [
        (lambda: FocalSet(FRAME, 1 << 4), ValueError, "out of range"),
        (lambda: FocalSet(FRAME, -1), ValueError, "out of range"),
        (lambda: Absolute(FRAME.empty), ValueError, "non-empty"),
        (lambda: Typical(FRAME.empty, F(1, 2)), ValueError, "non-empty"),
        (lambda: Typical(A, F(1)), StrengthOutOfRange, "absolute statement"),
        (lambda: Typical(A, F(0)), StrengthOutOfRange, "strictly between"),
        (lambda: KnowledgeBase(FRAME, "V", ()), ValueError,
         "at least one statement"),
        (lambda: KnowledgeBase(Frame("ab"), "V", (Absolute(A),)),
         FrameMismatch, "frames differ"),
    ], ids=["bits-high", "bits-negative", "absolute-empty", "typical-empty",
            "strength-1", "strength-0", "kb-empty", "kb-frame"])
    def test_constructor_checks(self, build, error, match):
        with pytest.raises(error, match=match):
            build()


@st.composite
def typical_cases(draw):
    """A frame of 1 to 5 atoms, a non-empty body B (often the full set X),
    and a strength s = p/q in [0, 1] (often 0 or 1), with p and q given
    unreduced by a common factor k."""
    n = draw(st.integers(1, 5))
    frame = Frame(ATOMS[:n])
    full = (1 << n) - 1
    body = draw(st.one_of(st.just(full), st.integers(1, full)))
    q = draw(st.integers(1, 40))
    p = draw(st.one_of(st.sampled_from([0, q]), st.integers(0, q)))
    k = draw(st.integers(1, 6))
    return frame, frame.from_bits(body), p * k, q * k


class TestTypicalForm:
    """Every typical structure {B: s, X: 1 - s} the library builds comes
    from ``core._typical_form``; each equals the public constructor's."""

    @staticmethod
    def check(built, frame, body, strength):
        expected = BeliefStructure(frame, [(body, strength),
                                           (frame.full, 1 - strength)])
        assert built == expected
        assert list(built.bit_items()) == list(expected.bit_items())

    @given(typical_cases(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_every_builder_matches_the_constructor(self, case, disjoint):
        frame, body, p, q = case
        s, text = F(p, q), f"{p}/{q}"  # the text keeps p/q unreduced
        nums, den = _typical_form(body.bits, frame.full.bits, s)
        assert 0 not in nums.values() and den == s.denominator
        self.check(BeliefStructure._from_form(frame, nums, den), frame,
                   body, s)
        # weakening {B: s, X: 1 - s} toward B keeps it: bel(B) is s
        # (1 when B = X, which is the vacuous structure either way)
        expected = BeliefStructure(frame, [(body, s), (frame.full, 1 - s)])
        self.check(weaken_to(expected, body), frame, body, s)
        if p == q:
            self.check(compile_statement(Absolute(body), frame), frame,
                       body, s)
        elif p:
            self.check(compile_statement(Typical(body, text), frame), frame,
                       body, s)
        if body != frame.full and p < q:  # hedged down from (1 + s) / 2
            strong = BeliefStructure(frame, [(body, (1 + s) / 2),
                                             (frame.full, (1 - s) / 2)])
            self.check(hedge(strong, text), frame, body, s)
        m1, m2, a_set, b_set = canonical_pair(s, 1 - s, disjoint)
        self.check(m1, a_set.frame, a_set, s)
        self.check(m2, b_set.frame, b_set, 1 - s)

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=100, deadline=None)
    def test_form_is_the_spelled_out_one(self, n, data):
        """(numerators, denominator) for s in {0, p/q, 1} and B in {∅, a
        proper subset, X}: the masses s on B and 1 - s on X, merged when B
        is X, zeros dropped, each over the denominator of s."""
        full = (1 << n) - 1
        proper = data.draw(st.integers(1, full - 1))
        q = data.draw(st.integers(2, 40))
        between = F(data.draw(st.integers(1, q - 1)), q)
        for body in (0, proper, full):
            for s in (F(0), between, F(1)):
                spelled: dict[int, Fraction] = {}
                for bits, mass in ((body, s), (full, 1 - s)):
                    spelled[bits] = spelled.get(bits, 0) + mass
                assert _typical_form(body, full, s) == (
                    {bits: mass * s.denominator
                     for bits, mass in spelled.items() if mass},
                    s.denominator)

    def test_vacuous(self):
        for n in range(1, 6):
            frame = Frame(ATOMS[:n])
            self.check(BeliefStructure.vacuous(frame), frame, frame.full,
                       F(1))
            assert list(BeliefStructure.vacuous(frame).bit_items()) == [
                (frame.full.bits, F(1))]


def typical(frame, names, strength):
    body = frame.subset(names)
    return BeliefStructure(frame, [(body, strength),
                                   (frame.full, 1 - F(strength))])


class TestBelPl:
    def test_typical_bounds(self, frame4):
        m = typical(frame4, ["a", "b"], F(6, 10))
        a = frame4.subset(["a", "b"])
        assert m.bel(a) == F(3, 5)
        assert m.pl(a) == 1
        assert m.uncertainty(a) == F(2, 5)

    def test_bel_of_empty_set_is_zero(self, frame4):
        m = typical(frame4, ["a", "b"], F(6, 10))
        assert m.bel(frame4.empty) == 0
        assert m.pl(frame4.empty) == 0

    def test_four_focal_example(self, frame4):
        m = BeliefStructure(frame4, [
            (frame4.subset(["b"]), F(3, 10)),
            (frame4.subset(["a", "b"]), F(3, 10)),
            (frame4.subset(["b", "c"]), F(2, 10)),
            (frame4.full, F(2, 10)),
        ])
        target = frame4.subset(["a", "b"])
        assert m.bel(target) == F(6, 10)
        assert m.bel(target) == naive_bel(m, target.bits)

    def test_pl_of_full_set_is_one_for_normal(self, frame4):
        m = typical(frame4, ["c"], F(1, 3))
        assert m.pl(frame4.full) == 1

    def test_subnormal_pl_of_full_set(self, frame4):
        m = BeliefStructure(frame4, [
            (frame4.empty, F(3, 10)),
            (frame4.subset(["a", "b"]), F(3, 10)),
            (frame4.subset(["c", "d"]), F(2, 10)),
            (frame4.full, F(2, 10)),
        ], subnormal=True)
        assert m.pl(frame4.full) == F(7, 10)
        assert m.bel(frame4.subset(["a", "b"])) == F(3, 10)

    def test_interval_examples(self, frame4):
        vac = BeliefStructure.vacuous(frame4)
        assert vac.interval(frame4.subset(["a"])) == \
            ProbabilityInterval(F(0), F(1))
        bay = BeliefStructure(frame4, [(frame4.subset(["a"]), F(1, 2)),
                                       (frame4.subset(["b"]), F(1, 2))])
        assert bay.interval(frame4.subset(["a"])) == \
            ProbabilityInterval(F(1, 2), F(1, 2))

    def test_uncertainty_examples(self, frame4):
        bay = BeliefStructure(frame4, [(frame4.subset(["a"]), F(1, 2)),
                                       (frame4.subset(["b"]), F(1, 2))])
        for focal in frame4.all_subsets():
            assert bay.uncertainty(focal) == 0
        vac = BeliefStructure.vacuous(frame4)
        assert vac.uncertainty(frame4.subset(["a", "c"])) == 1

    def test_uncertainty_undefined_for_subnormal(self, frame4):
        m = BeliefStructure(frame4, [(frame4.empty, F(1, 2)),
                                     (frame4.full, F(1, 2))], subnormal=True)
        with pytest.raises(SubnormalInput):
            m.uncertainty(frame4.full)

    def test_query_checks_frame(self, frame4, frame5):
        m = BeliefStructure.vacuous(frame4)
        for query in (m.bel, m.pl, m.interval):
            with pytest.raises(FrameMismatch):
                query(frame5.full)

    @settings(max_examples=100, deadline=None)
    @given(structures(), st.integers(0, 9))
    def test_interval_is_the_naive_bel_and_pl(self, m, empty):
        """The one-pass interval equals (naive_bel, naive_pl) on every
        subset, also with mass on the empty set (``empty`` tenths of it,
        the rest scaled down), which counts toward neither bound."""
        frame = m.frame
        if empty:
            e = F(empty, 10)
            m = BeliefStructure(frame, [(frame.empty, e), *(
                (focal, w * (1 - e)) for focal, w in m.items())],
                subnormal=True)
        for focal in frame.all_subsets():
            assert m.interval(focal) == ProbabilityInterval(
                naive_bel(m, focal.bits), naive_pl(m, focal.bits))

    def test_repr_of_a_mass_too_long_to_print(self, frame4):
        tiny = F(1, 10**4300)
        m = BeliefStructure(frame4, [(frame4.subset("a"), tiny),
                                     (frame4.full, 1 - tiny)])
        assert repr(m) == ("BeliefStructure({{a}: 1/<4301 digits>, "
                           "{a, b, c, d}: <4300 digits>/<4301 digits>})")
        assert repr(m.interval(frame4.subset("ab"))) == (
            "ProbabilityInterval(1/<4301 digits>, 1)")
        short = BeliefStructure(frame4, [(frame4.subset("a"), F(1, 3)),
                                         (frame4.full, F(2, 3))])
        assert repr(short) == "BeliefStructure({{a}: 1/3, {a, b, c, d}: 2/3})"


class TestIsBayesian:
    def test_examples(self, frame4):
        bay = BeliefStructure(frame4, [(frame4.subset(["a"]), F(1, 2)),
                                       (frame4.subset(["b"]), F(1, 2))])
        assert bay.is_bayesian()
        assert not BeliefStructure.vacuous(frame4).is_bayesian()
        mixed = BeliefStructure(frame4, [(frame4.subset(["a"]), F(9, 10)),
                                         (frame4.subset(["a", "b"]),
                                          F(1, 10))])
        assert not mixed.is_bayesian()

    def test_equivalent_to_zero_ranges_exhaustively(self):
        rng = random.Random(1105)
        for _ in range(40):
            frame = random_frame(rng, 2, 6)
            m = random_structure(rng, frame, max_focals=5)
            zero_everywhere = all(m.uncertainty(s) == 0
                                  for s in frame.all_subsets())
            assert m.is_bayesian() == zero_everywhere


class TestBelTable:
    def test_vacuous_table(self, frame4):
        table = BeliefStructure.vacuous(frame4).bel_table()
        assert table[-1] == 1
        assert all(v == 0 for v in table[:-1])

    def test_uniform_bayesian_table(self):
        frame = Frame(["a", "b"])
        m = BeliefStructure(frame, [(frame.subset(["a"]), F(1, 2)),
                                    (frame.subset(["b"]), F(1, 2))])
        assert m.bel_table() == [F(0), F(1, 2), F(1, 2), F(1)]

    def test_matches_naive_enumeration(self):
        rng = random.Random(40)
        frame = Frame("abcde")
        for _ in range(10):
            m = random_structure(rng, frame, max_focals=3)
            table = m.bel_table()
            for bits in range(1 << 5):
                assert table[bits] == naive_bel(m, bits)
                assert table[bits] == m.bel(frame.from_bits(bits))

    def test_frame_cap(self):
        frame = Frame([f"x{i}" for i in range(21)])
        with pytest.raises(FrameTooLarge,
                           match="bel_table needs at most 20 atoms, got 21"):
            BeliefStructure.vacuous(frame).bel_table()
        with pytest.raises(FrameTooLarge, match="subset enumeration needs at "
                           "most 20 atoms, got 21"):
            next(frame.all_subsets())


class TestZeta:
    """Both shapes of the in-place transform: the listed pairs up to 8
    bits, whole slices past that."""

    @pytest.mark.parametrize("n", range(1, 11))
    @settings(max_examples=20, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_equals_direct_subset_sums(self, n, rng):
        # signed numbers of up to 31 digits, as scaled mass differences
        values = [rng.randint(-10**30, 10**30) for _ in range(1 << n)]
        table = list(values)
        _zeta(table, n)
        assert table == oracle_zeta(values)

    def test_pairs_listed_per_width(self):
        _zeta([0] * 8, 3)
        pairs = _ZETA_PAIRS[3]
        assert len(pairs) == 3 * 4
        assert pairs[:4] == [(1, 0), (3, 2), (5, 4), (7, 6)]
        assert all(mask ^ partner in (1, 2, 4) and mask > partner
                   for mask, partner in pairs)
        _zeta([0] * 1024, 10)
        assert 10 not in _ZETA_PAIRS


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(structures())
    def test_bel_below_pl_and_complement_duality(self, m):
        frame = m.frame
        for focal in frame.all_subsets():
            bel, pl = m.interval(focal)
            assert 0 <= bel <= pl <= 1
            assert bel + m.pl(~focal) == 1
        assert m.bel(frame.full) == 1
        assert m.bel(frame.empty) == 0

    @settings(max_examples=40, deadline=None)
    @given(structures(max_atoms=4))
    def test_every_query_is_a_fraction(self, m):
        for focal in m.frame.all_subsets():
            assert isinstance(m.bel(focal), Fraction)
            assert isinstance(m.pl(focal), Fraction)

    @settings(max_examples=40, deadline=None)
    @given(structures())
    def test_pl_matches_naive(self, m):
        for focal in m.frame.all_subsets():
            assert m.pl(focal) == naive_pl(m, focal.bits)
