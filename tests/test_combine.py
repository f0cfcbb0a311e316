import importlib
import json
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evicalc import (
    CELL_ROUTING_RULES,
    DEMPSTER,
    DUBOIS_PRADE,
    PRIORITY_FIRST,
    PRIORITY_SECOND,
    UNNORMALIZED,
    YAGER,
    BeliefStructure,
    CombinationRule,
    Frame,
    combine,
    combine_all,
    conflict_mass,
    discount,
    flow_entails,
    parse_rule,
    possibility,
)
from evicalc import monotonicity
from evicalc.combine import _combine_with_conflict
from evicalc.errors import (
    EmptyTarget,
    FoldTooLarge,
    FrameMismatch,
    SubnormalInput,
    TotalConflict,
)
from evicalc.io import load_structure

from conftest import structure_pairs
from oracles import (
    assert_decimal,
    bridge_triple,
    oracle_combine,
    oracle_conflict,
    oracle_fold,
    overlapping_pair,
    random_frame,
    random_structure,
    structure_bits,
)

F = Fraction


@pytest.fixture
def desk(frame5):
    """The worked two-focal pair at strengths 6/10 and 5/10."""
    a = frame5.subset(["a", "b"])
    b = frame5.subset(["c", "d"])
    b_overlap = frame5.subset(["b", "c"])
    m1 = BeliefStructure(frame5, [(a, F(6, 10)), (frame5.full, F(4, 10))])
    m2 = BeliefStructure(frame5, [(b, F(5, 10)), (frame5.full, F(5, 10))])
    m2_overlap = BeliefStructure(frame5, [(b_overlap, F(5, 10)),
                                          (frame5.full, F(5, 10))])
    return frame5, a, b, b_overlap, m1, m2, m2_overlap


def bits_of(m):
    return structure_bits(m)


class TestConflictMass:
    def test_two_focal_disjoint(self, desk):
        _, _, _, _, m1, m2, _ = desk
        assert conflict_mass(m1, m2) == F(6, 10) * F(5, 10)

    def test_vacuous_partner_has_no_conflict(self, desk):
        frame, _, _, _, m1, _, _ = desk
        assert conflict_mass(m1, BeliefStructure.vacuous(frame)) == 0

    def test_strong_pair(self, frame5):
        a = frame5.subset(["a", "b"])
        b = frame5.subset(["c", "d"])
        m1 = BeliefStructure(frame5, [(a, F(99, 100)),
                                      (frame5.full, F(1, 100))])
        m2 = BeliefStructure(frame5, [(b, F(9, 10)), (frame5.full, F(1, 10))])
        assert conflict_mass(m1, m2) == F(891, 1000)

    def test_frame_mismatch(self, frame4, frame5):
        with pytest.raises(FrameMismatch):
            conflict_mass(BeliefStructure.vacuous(frame4),
                          BeliefStructure.vacuous(frame5))


class TestPossibility:
    def test_overlap(self, frame4):
        assert possibility(frame4.subset(["b", "c"]),
                           frame4.subset(["a", "b"])) == 1

    def test_disjoint(self, frame4):
        assert possibility(frame4.subset(["c", "d"]),
                           frame4.subset(["a", "b"])) == 0

    def test_full_set_is_always_possible(self, frame4):
        assert possibility(frame4.full, frame4.subset(["a"])) == 1

    def test_empty_condition_rejected(self, frame4):
        with pytest.raises(EmptyTarget):
            possibility(frame4.full, frame4.empty)


class TestWorkedTables:
    def test_dempster_overlap(self, desk):
        frame, a, _, b_overlap, m1, _, m2o = desk
        out = combine(m1, m2o, DEMPSTER)
        assert bits_of(out) == {
            (a & b_overlap).bits: F(3, 10),
            a.bits: F(3, 10),
            b_overlap.bits: F(2, 10),
            frame.full.bits: F(2, 10),
        }

    def test_dempster_disjoint(self, desk):
        frame, a, b, _, m1, m2, _ = desk
        out = combine(m1, m2, DEMPSTER)
        assert bits_of(out) == {a.bits: F(3, 7), b.bits: F(2, 7),
                                frame.full.bits: F(2, 7)}

    def test_dempster_strong_pair(self, frame5):
        a = frame5.subset(["a", "b"])
        b = frame5.subset(["c", "d"])
        m1 = BeliefStructure(frame5, [(a, F(99, 100)),
                                      (frame5.full, F(1, 100))])
        m2 = BeliefStructure(frame5, [(b, F(9, 10)), (frame5.full, F(1, 10))])
        out = combine(m1, m2, DEMPSTER)
        assert bits_of(out) == {a.bits: F(990, 1090), b.bits: F(90, 1090),
                                frame5.full.bits: F(10, 1090)}

    def test_dempster_equal_halves(self, frame5):
        a = frame5.subset(["a", "b"])
        b = frame5.subset(["c", "d"])
        m1 = BeliefStructure(frame5, [(a, F(1, 2)), (frame5.full, F(1, 2))])
        m2 = BeliefStructure(frame5, [(b, F(1, 2)), (frame5.full, F(1, 2))])
        out = combine(m1, m2, DEMPSTER)
        assert bits_of(out) == {a.bits: F(1, 3), b.bits: F(1, 3),
                                frame5.full.bits: F(1, 3)}

    def test_yager_disjoint(self, desk):
        frame, a, b, _, m1, m2, _ = desk
        out = combine(m1, m2, YAGER)
        assert bits_of(out) == {a.bits: F(3, 10), b.bits: F(2, 10),
                                frame.full.bits: F(5, 10)}
        # the conflict weight lands on X, so pl(A) = 1 - (1-alpha)*beta
        assert out.pl(a) == F(8, 10)

    def test_dubois_prade_disjoint(self, desk):
        frame, a, b, _, m1, m2, _ = desk
        out = combine(m1, m2, DUBOIS_PRADE)
        assert bits_of(out) == {(a | b).bits: F(3, 10), a.bits: F(3, 10),
                                b.bits: F(2, 10), frame.full.bits: F(2, 10)}

    def test_unnormalized_disjoint(self, desk):
        frame, a, b, _, m1, m2, _ = desk
        out = combine(m1, m2, UNNORMALIZED)
        assert out.is_subnormal
        assert bits_of(out) == {0: F(3, 10), a.bits: F(3, 10),
                                b.bits: F(2, 10), frame.full.bits: F(2, 10)}

    def test_priority_first_disjoint(self, desk):
        frame, a, b, _, m1, m2, _ = desk
        out = combine(m1, m2, PRIORITY_FIRST)
        assert bits_of(out) == {a.bits: F(6, 10), b.bits: F(2, 10),
                                frame.full.bits: F(2, 10)}
        assert out.bel(a) == F(6, 10)

    def test_priority_second_mirrors(self, desk):
        _, _, _, _, m1, m2, _ = desk
        assert combine(m1, m2, PRIORITY_SECOND) == \
            combine(m2, m1, PRIORITY_FIRST)

    def test_discount_is_pointwise_mixture(self, desk):
        frame, a, b, _, m1, m2, _ = desk
        out = combine(m1, m2, discount(F(1, 2)))
        assert bits_of(out) == {a.bits: F(3, 10), b.bits: F(1, 4),
                                frame.full.bits: F(9, 20)}

    def test_vacuous_is_identity_for_cell_routing_rules(self, desk):
        frame, _, _, _, m1, _, _ = desk
        vac = BeliefStructure.vacuous(frame)
        for rule in CELL_ROUTING_RULES:
            assert combine(m1, vac, rule) == m1
            assert combine(vac, m1, rule) == m1


class TestCombineContracts:
    def test_total_conflict(self):
        frame = Frame(["a", "b"])
        m1 = BeliefStructure(frame, [(frame.subset(["a"]), 1)])
        m2 = BeliefStructure(frame, [(frame.subset(["b"]), 1)])
        with pytest.raises(TotalConflict):
            combine(m1, m2, DEMPSTER)
        # the other rules still have somewhere to put the weight
        assert bits_of(combine(m1, m2, YAGER)) == {frame.full.bits: F(1)}
        assert bits_of(combine(m1, m2, UNNORMALIZED)) == {0: F(1)}

    def test_subnormal_inputs_rejected(self, frame4):
        sub = BeliefStructure(frame4, [(frame4.empty, F(1, 2)),
                                       (frame4.full, F(1, 2))],
                              subnormal=True)
        with pytest.raises(SubnormalInput):
            combine(sub, BeliefStructure.vacuous(frame4), DEMPSTER)

    def test_unknown_rule_kind_is_refused(self):
        for kind, shown in (("bogus", "'bogus'"), (["yager"], "['yager']")):
            with pytest.raises(ValueError) as err:
                CombinationRule(kind)
            assert str(err.value) == f"unknown combination rule {shown}"

    def test_cell_routing_rule_with_a_parameter_is_refused(self):
        with pytest.raises(ValueError) as err:
            CombinationRule("yager", F(1, 2))
        assert str(err.value) == "rule yager takes no parameter"

    @pytest.mark.parametrize("weight, shown", [
        (None, "None"), (0.5, "0.5"), ("1/2", "'1/2'"), (True, "True")])
    def test_discount_rule_without_a_fraction_weight_is_refused(
            self, weight, shown):
        with pytest.raises(ValueError) as err:
            CombinationRule("discount", weight)
        assert str(err.value) == f"discount weight {shown} is not a fraction"

    def test_discount_rule_without_a_weight_is_refused(self):
        with pytest.raises(ValueError) as err:
            CombinationRule("discount")
        assert str(err.value) == "discount weight None is not a fraction"

    def test_discount_weight_past_one_is_refused(self):
        for build in (lambda: CombinationRule("discount", F(3, 2)),
                      lambda: discount("3/2"),
                      lambda: parse_rule("discount:3/2")):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == "discount weight 3/2 is outside [0, 1]"

    def test_negative_discount_weight_is_refused(self):
        with pytest.raises(ValueError) as err:
            CombinationRule("discount", F(-1, 2))
        assert str(err.value) == "discount weight -1/2 is outside [0, 1]"

    def test_discount_weight_too_long_to_print_is_refused(self):
        with pytest.raises(ValueError) as err:
            CombinationRule("discount", F(1, 10**4400))
        assert str(err.value) == ("mass 1/<4401 digits> has more than 4300 "
                                  "digits, too many to print")
        # 4300 digits, the most str() prints: the rule still round-trips
        for weight in (F(1, 10**4299), 1 - F(1, 10**4299)):
            rule = CombinationRule("discount", weight)
            assert parse_rule(str(rule)) == rule

    def test_rules_print_as_parse_rule_reads_them(self):
        for rule in CELL_ROUTING_RULES:
            assert parse_rule(str(rule)) is rule
        for weight in (0, F(1, 3), 1):
            rule = CombinationRule("discount", weight)
            assert parse_rule(str(rule)) == rule == discount(weight)

    def test_rules_come_from_the_one_table(self):
        assert [rule.kind for rule in CELL_ROUTING_RULES] == [
            "dempster", "yager", "dubois-prade", "unnormalized",
            "priority-first", "priority-second"]
        assert CELL_ROUTING_RULES == (DEMPSTER, YAGER, DUBOIS_PRADE,
                                      UNNORMALIZED, PRIORITY_FIRST,
                                      PRIORITY_SECOND)
        # a misspelt key there would drop a certificate with no error
        assert set(monotonicity._CERTIFIED) <= {
            rule.kind for rule in CELL_ROUTING_RULES}

    def test_rule_parsing(self):
        assert parse_rule("dempster") is DEMPSTER
        assert parse_rule("discount:1/2") == discount(F(1, 2))
        assert parse_rule("discount:0.25") == discount(F(1, 4))
        with pytest.raises(ValueError):
            parse_rule("median")
        with pytest.raises(ValueError):
            discount("3/2")


class TestCombineAll:
    def test_singleton(self, desk):
        _, _, _, _, m1, _, _ = desk
        assert combine_all([m1]) == m1

    def test_two_element_fold_is_plain_combine(self, desk):
        _, _, _, _, m1, m2, _ = desk
        assert combine_all([m1, m2], DEMPSTER) == combine(m1, m2, DEMPSTER)

    def test_dempster_fold_is_order_independent(self):
        rng = random.Random(77)
        frame = Frame("abcd")
        trio = [random_structure(rng, frame, max_focals=3) for _ in range(3)]
        results = {repr(bits_of(combine_all(list(p), DEMPSTER)))
                   for p in permutations(trio)}
        assert len(results) == 1

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            combine_all([], DEMPSTER)

    def test_frames_are_checked_as_the_fold_reaches_them(self, frame4,
                                                          frame5):
        # the first step that cannot run is the one reported
        a, b = (BeliefStructure(frame4, [(frame4.subset([x]), 1)])
                for x in "ab")
        other = BeliefStructure.vacuous(frame5)
        with pytest.raises(TotalConflict) as err:
            combine_all([a, b, other])
        assert err.value.statement_index == 2
        with pytest.raises(FrameMismatch):
            combine_all([a, other, b])


class TestAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(structure_pairs())
    def test_mass_conservation_every_rule(self, pair):
        m1, m2 = pair
        rules = list(CELL_ROUTING_RULES) + [discount(F(1, 3))]
        for rule in rules:
            try:
                out = combine(m1, m2, rule)
            except TotalConflict:
                continue
            assert sum((w for _, w in out.items()), F(0)) == 1

    @settings(max_examples=60, deadline=None)
    @given(structure_pairs())
    def test_symmetric_rules_commute(self, pair):
        m1, m2 = pair
        for rule in (YAGER, DUBOIS_PRADE, UNNORMALIZED):
            assert combine(m1, m2, rule) == combine(m2, m1, rule)
        try:
            forward = combine(m1, m2, DEMPSTER)
        except TotalConflict:
            with pytest.raises(TotalConflict):
                combine(m2, m1, DEMPSTER)
            return
        assert forward == combine(m2, m1, DEMPSTER)

    @settings(max_examples=60, deadline=None)
    @given(structure_pairs())
    def test_mirror_commutativity(self, pair):
        m1, m2 = pair
        assert combine(m1, m2, PRIORITY_FIRST) == \
            combine(m2, m1, PRIORITY_SECOND)
        assert combine(m1, m2, discount(F(1, 4))) == \
            combine(m2, m1, discount(F(3, 4)))

    def test_dempster_and_unnormalized_associativity(self):
        rng = random.Random(2024)
        frame = Frame("abcde")
        checked = 0
        while checked < 40:
            a = random_structure(rng, frame, max_focals=3)
            b = random_structure(rng, frame, max_focals=3)
            c = random_structure(rng, frame, max_focals=3)
            try:
                left = combine(combine(a, b, DEMPSTER), c, DEMPSTER)
                right = combine(a, combine(b, c, DEMPSTER), DEMPSTER)
            except TotalConflict:
                continue
            assert left == right
            checked += 1
        # subnormal results are terminal, so unnormalized associativity is
        # checked on triples whose intermediates stay normal
        rng = random.Random(2025)
        for _ in range(40):
            a, b, c = bridge_triple(rng, frame)
            assert combine(combine(a, b, UNNORMALIZED), c, UNNORMALIZED) == \
                combine(a, combine(b, c, UNNORMALIZED), UNNORMALIZED)

    def test_zero_conflict_collapse(self):
        rng = random.Random(31)
        for _ in range(40):
            frame = random_frame(rng, 2, 6)
            m1, m2 = overlapping_pair(rng, frame)
            assert conflict_mass(m1, m2) == 0
            outputs = [combine(m1, m2, rule) for rule in CELL_ROUTING_RULES]
            assert all(out == outputs[0] for out in outputs)

    def test_no_conflict_monotonicity(self):
        rng = random.Random(32)
        for _ in range(40):
            frame = random_frame(rng, 2, 6)
            m1, m2 = overlapping_pair(rng, frame)
            out = combine(m1, m2, DEMPSTER)
            assert flow_entails(out, m1) is not None
            assert flow_entails(out, m2) is not None

    def test_priority_guarantee_even_under_conflict(self):
        rng = random.Random(33)
        for _ in range(40):
            frame = random_frame(rng, 2, 6)
            m1 = random_structure(rng, frame)
            m2 = random_structure(rng, frame)
            assert flow_entails(combine(m1, m2, PRIORITY_FIRST), m1) \
                is not None
            assert flow_entails(combine(m1, m2, PRIORITY_SECOND), m2) \
                is not None

    def test_unnormalized_guarantee_both_sides(self):
        rng = random.Random(34)
        for _ in range(40):
            frame = random_frame(rng, 2, 6)
            m1 = random_structure(rng, frame)
            m2 = random_structure(rng, frame)
            out = combine(m1, m2, UNNORMALIZED)
            assert flow_entails(out, m1) is not None
            assert flow_entails(out, m2) is not None


class TestOracleEquivalence:
    def test_rules_match_cell_routing_oracle(self):
        rng = random.Random(35)
        rules = list(CELL_ROUTING_RULES) + [discount(F(2, 5))]
        for _ in range(40):
            frame = random_frame(rng, 2, 6)
            m1 = random_structure(rng, frame)
            m2 = random_structure(rng, frame)
            for rule in rules:
                if rule is DEMPSTER and conflict_mass(m1, m2) == 1:
                    with pytest.raises(TotalConflict):
                        combine(m1, m2, rule)
                    continue
                expected = oracle_combine(m1, m2, rule)
                assert bits_of(combine(m1, m2, rule)) == expected


def assert_public_twin(rng, m):
    """A result built from its integer form equals its twin from the public
    constructor: from its own masses, and from each mass given as two
    unreduced strings in shuffled order."""
    split = []
    for focal, w in m.items():
        k, part = rng.randint(2, 5), rng.randint(0, w.numerator)
        split += [(focal, f"{part * k}/{w.denominator * k}"),
                  (focal, f"{(w.numerator - part) * k}/{w.denominator * k}")]
    rng.shuffle(split)
    for masses in (list(m.items()), split):
        twin = BeliefStructure(m.frame, masses, subnormal=m.is_subnormal)
        assert twin == m
        assert list(twin.bit_items()) == list(m.bit_items())


class TestIntegerPass:
    """combine, combine_all and conflict_mass run on integer numerators over
    a common denominator; the Fraction oracle is the judge, and every result
    equals its twin from the public constructor."""

    TOTALS = [None, 997, 1009, 997 * 1009]
    RULES = [*CELL_ROUTING_RULES, discount(0), discount(F(2, 5)), discount(1)]

    @settings(max_examples=400, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(RULES))
    def test_combine_and_conflict_match_the_oracle(self, rng, rule):
        frame = random_frame(rng, 1, 6)
        m1, m2 = (random_structure(rng, frame, 6, rng.choice(self.TOTALS))
                  for _ in range(2))
        conflict = oracle_conflict(m1, m2)
        assert conflict_mass(m1, m2) == conflict
        if rule is DEMPSTER and conflict == 1:
            with pytest.raises(TotalConflict):
                combine(m1, m2, rule)
            return
        expected = oracle_combine(m1, m2, rule)
        result = combine(m1, m2, rule)
        assert bits_of(result) == \
            {bits: w for bits, w in expected.items() if w}
        assert_public_twin(rng, result)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(RULES))
    def test_combine_all_is_the_oracle_fold(self, rng, rule):
        # up to 8 items: the fold carries an unreduced denominator until
        # its one structure is built, and that must still be the oracle's
        frame = random_frame(rng, 1, 5)
        items = [random_structure(rng, frame, 4, rng.choice(self.TOTALS))
                 for _ in range(rng.randint(1, 8))]
        outcome, expected = oracle_fold(items, rule)
        if outcome == "total conflict":
            with pytest.raises(TotalConflict) as err:
                combine_all(items, rule)
            assert err.value.statement_index == expected
        elif outcome == "subnormal":
            with pytest.raises(SubnormalInput):
                combine_all(items, rule)
        else:
            result = combine_all(items, rule)
            assert bits_of(result) == expected
            assert_public_twin(rng, result)

    @pytest.mark.parametrize("rule", RULES, ids=str)
    def test_a_fold_builds_one_structure(self, monkeypatch, rule):
        """A fold of five structures checks and stores one integer form,
        its result's, under every rule."""
        rng = random.Random(47)
        frame = random_frame(rng, 3, 5)
        # every focal set holds atom 0: no conflict, so every rule folds
        items = []
        for _ in range(5):
            strength = F(rng.randint(1, 9), rng.choice([10, 11, 13]))
            body = frame.from_bits(1 | rng.randrange(1 << len(frame)))
            items.append(BeliefStructure(frame, [
                (body, strength), (frame.full, 1 - strength)]))
        built = []
        store = BeliefStructure._set
        monkeypatch.setattr(BeliefStructure, "_set", lambda self, *args:
                            built.append(args) or store(self, *args))
        result = combine_all(items, rule)
        assert len(built) == 1
        assert bits_of(result) == oracle_fold(items, rule)[1]


def structure_with_full(rng, frame, full_set):
    """A normal structure of 1 to 3 random proper subsets, plus the full
    set X as a focal element when ``full_set`` is true."""
    full = frame.full.bits
    masks = rng.sample(range(1, full), min(full - 1, rng.randint(1, 3)))
    masks += [full] * full_set
    weights = [rng.randint(1, 9) for _ in masks]
    return BeliefStructure(frame, [(frame.from_bits(bits), F(w, sum(weights)))
                                   for bits, w in zip(masks, weights)])


class TestFullSetRow:
    """The fold's product pass takes the row of the right operand's full
    set X as one scaled copy of the left form (X & a = a).  With X on the
    left, the right, both sides or neither, combine and combine_all still
    give the cell-by-cell oracle's result under every cell-routing rule."""

    @settings(max_examples=400, deadline=None)
    @given(st.randoms(use_true_random=False),
           st.sampled_from(CELL_ROUTING_RULES),
           st.tuples(st.booleans(), st.booleans(), st.booleans()))
    def test_matches_the_oracle(self, rng, rule, full_sets):
        frame = random_frame(rng, 2, 5)
        items = [structure_with_full(rng, frame, x) for x in full_sets]
        m1, m2 = items[:2]
        conflict = oracle_conflict(m1, m2)
        assert conflict_mass(m1, m2) == conflict
        if rule is DEMPSTER and conflict == 1:
            with pytest.raises(TotalConflict):
                combine(m1, m2, rule)
        else:
            assert bits_of(combine(m1, m2, rule)) == \
                oracle_combine(m1, m2, rule)
        outcome, expected = oracle_fold(items, rule)
        if outcome == "ok":
            assert bits_of(combine_all(items, rule)) == expected
        else:
            with pytest.raises((TotalConflict, SubnormalInput)):
                combine_all(items, rule)

    def test_subnormal_conflict_counts_the_full_set_row(self, frame4):
        # conflict_mass takes subnormal input: the (empty set, X) cell
        # conflicts, on either side
        m = BeliefStructure(frame4, [(frame4.empty, F(1, 2)),
                                     (frame4.subset(["a"]), F(1, 2))],
                            subnormal=True)
        vacuous = BeliefStructure.vacuous(frame4)
        assert conflict_mass(m, vacuous) == F(1, 2)
        assert conflict_mass(vacuous, m) == F(1, 2)


def sized_structure(rng, frame, count):
    """A normal structure with exactly ``count`` random focal sets."""
    masks = rng.sample(range(1, 1 << len(frame)), count)
    weights = [rng.randint(1, 9) for _ in masks]
    return BeliefStructure(frame, [(frame.from_bits(bits), F(w, sum(weights)))
                                   for bits, w in zip(masks, weights)])


class TestUnequalOperands:
    """The product pass runs its outer loop over the right operand.  Pairs
    of 1 and 20 focal elements, in both orders, still give the oracle's
    result and K under every rule, the asymmetric routes included."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False),
           st.sampled_from(CELL_ROUTING_RULES), st.booleans())
    def test_one_against_twenty(self, rng, rule, small_first):
        frame = random_frame(rng, 5, 7)
        small, large = (sized_structure(rng, frame, k) for k in (1, 20))
        m1, m2 = (small, large) if small_first else (large, small)
        conflict = oracle_conflict(m1, m2)
        assert conflict_mass(m1, m2) == conflict
        if rule is DEMPSTER and conflict == 1:
            with pytest.raises(TotalConflict):
                combine(m1, m2, rule)
            return
        expected = oracle_combine(m1, m2, rule)
        assert bits_of(combine(m1, m2, rule)) == \
            {bits: w for bits, w in expected.items() if w}


class TestTableFreeConflict:
    """conflict_mass sums K cell by cell and builds no table: on two
    400-focal structures, whose product has 160,000 cells, it equals the
    K of the fold's own pass, and its traced peak stays under 1 MB (a
    table of the intersections takes about 10 MB)."""

    def test_large_pair(self):
        rng = random.Random(26)
        frame = Frame([f"x{i}" for i in range(24)])
        m1, m2 = (sized_structure(rng, frame, 400) for _ in range(2))
        tracemalloc.start()
        try:
            conflict = conflict_mass(m1, m2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < conflict == _combine_with_conflict(m1, m2, YAGER)[1]
        assert peak < 1 << 20


class TestFoldBudget:
    """The product pass refuses a running result of more than
    FOLD_FOCAL_BUDGET focal elements in the step that builds it, and
    changes nothing under the budget: on folds of 2 to 6 random structures
    and budgets of 1 to 12, combine_all raises FoldTooLarge at the first
    step whose oracle result passes the budget, unless the oracle fold
    stops earlier, and gives the oracle's result otherwise."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False),
           st.sampled_from(CELL_ROUTING_RULES), st.integers(1, 12))
    def test_refused_at_the_first_step_past_the_budget(self, rng, rule,
                                                       budget):
        frame = random_frame(rng, 1, 5)
        items = [random_structure(rng, frame, 4)
                 for _ in range(rng.randint(2, 6))]
        for end in range(2, len(items) + 1):
            outcome, expected = oracle_fold(items[:end], rule)
            if outcome == "ok" and len(expected) > budget:
                outcome, expected = "budget", end
            if outcome != "ok":
                break
        combine_module = importlib.import_module("evicalc.combine")
        with patch.object(combine_module, "FOLD_FOCAL_BUDGET", budget):
            try:
                got = "ok", bits_of(combine_all(items, rule))
            except FoldTooLarge as err:
                got = "budget", err.statement_index
            except TotalConflict as err:
                got = "total conflict", err.statement_index
            except SubnormalInput:  # which carries no position
                got = "subnormal", expected
        assert got == (outcome, expected)

    @pytest.mark.parametrize("rule", CELL_ROUTING_RULES, ids=str)
    def test_a_vacuous_operand_passes_on_a_result_past_it(self, rule):
        """Only X's row is built when the right operand is vacuous, and the
        result, a copy of the left operand, is checked as any row is."""
        frame = Frame("abc")
        m = BeliefStructure(frame, {frame.from_bits(bits): F(1, 3)
                                    for bits in (1, 2, 7)})
        combine_module = importlib.import_module("evicalc.combine")
        with patch.object(combine_module, "FOLD_FOCAL_BUDGET", 2):
            with pytest.raises(FoldTooLarge) as err:
                combine_all([m, BeliefStructure.vacuous(frame)], rule)
        assert err.value.statement_index == 2


DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
# Each golden combination table, with the rule and the second desk file it
# was made from (the first is desk_a.bs), as scripts/golden_tables.sh runs
# them; and the -o structures, with the table printed alongside.
GOLDEN_TABLES = {
    "combine_dempster_overlap": ("dempster", "desk_b_overlap.bs"),
    "combine_dempster_disjoint": ("dempster", "desk_b_disjoint.bs"),
    "combine_yager_disjoint": ("yager", "desk_b_disjoint.bs"),
    "combine_dubois_prade_disjoint": ("dubois-prade", "desk_b_disjoint.bs"),
    "combine_unnormalized_disjoint": ("unnormalized", "desk_b_disjoint.bs"),
    "combine_priority_first_disjoint": ("priority-first",
                                        "desk_b_disjoint.bs"),
    "combine_priority_second_disjoint": ("priority-second",
                                         "desk_b_disjoint.bs"),
    "combine_discount_half_disjoint": ("discount:1/2", "desk_b_disjoint.bs"),
}
GOLDEN_SAVED = {"noconflict.bs": "combine_dempster_overlap",
                "conflict.bs": "combine_dempster_disjoint",
                "unnormalized.bs": "combine_unnormalized_disjoint"}
MASS_LINE = re.compile(r"m\(\{(.*)\}\) = (\d+(?:/\d+)?) ~ (\d+\.\d{6})")


def golden_expected(name):
    """The inputs' frame, the rule's name, and the oracle's K and masses
    (bits -> mass, zero masses left out) for one golden table."""
    rule, second = GOLDEN_TABLES[name]
    m1, m2 = load_structure(DATA / "desk_a.bs"), load_structure(DATA / second)
    masses = oracle_combine(m1, m2, parse_rule(rule))
    return (m1.frame, rule, oracle_conflict(m1, m2),
            {bits: w for bits, w in masses.items() if w})


class TestGoldenAudit:
    """The checked-in combination goldens re-derived from the cell-by-cell
    oracles, not from the program: every rule, conflict and mass line of
    each table, and every mass of each -o structure, compared with ==."""

    def test_every_table_is_audited(self):
        assert sorted(p.stem for p in GOLDEN.glob("combine_*.txt")) == \
            sorted(GOLDEN_TABLES)
        assert set(GOLDEN_SAVED) == {p.name for p in GOLDEN.glob("*.bs")}

    @pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
    def test_table(self, name):
        frame, rule, conflict, masses = golden_expected(name)
        lines = (GOLDEN / f"{name}.txt").read_text("utf-8").splitlines()
        head = dict(line.split(": ", 1) for line in lines[:5])
        assert head["rule"] == rule
        text, decimal = head["conflict"].split(" ~ ")
        assert F(text) == conflict
        assert_decimal(decimal, conflict)
        assert head["frame"] == ", ".join(frame.atoms)
        assert head["subnormal"] == str(0 in masses).lower()
        assert head["focal elements"] == str(len(masses))
        printed = {}
        for line in lines[5:]:
            atoms, mass, decimal = MASS_LINE.fullmatch(line).groups()
            bits = frame.subset(atoms.split(", ") if atoms else []).bits
            printed[bits] = F(mass)
            assert_decimal(decimal, printed[bits])
        assert printed == masses

    @pytest.mark.parametrize("saved", sorted(GOLDEN_SAVED))
    def test_saved_structure(self, saved):
        frame, _, _, masses = golden_expected(GOLDEN_SAVED[saved])
        doc = json.loads((GOLDEN / saved).read_text("utf-8"))
        assert doc["frame"] == list(frame.atoms)
        assert doc["subnormal"] is (0 in masses)
        assert {frame.subset(entry["set"]).bits: F(entry["mass"])
                for entry in doc["masses"]} == masses
