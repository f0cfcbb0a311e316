import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evicalc import (
    CELL_ROUTING_RULES,
    DEMPSTER,
    DUBOIS_PRADE,
    UNNORMALIZED,
    YAGER,
    BeliefStructure,
    Frame,
    combine,
    discount,
    flow_entails,
    hedge,
    interval_contained,
    partition_entails,
    validate_witness,
    weaken_to,
)
from evicalc import entailment, parse_rule
from evicalc.errors import (
    EmptyTarget,
    FrameMismatch,
    FrameTooLarge,
    NotTypicalForm,
    SearchBudgetExceeded,
    StrengthIncrease,
    SubnormalInput,
    TotalConflict,
)

from evicalc.io import load_structure

from oracles import (
    coarsen,
    entailing_pair,
    naive_bel,
    oracle_combine,
    oracle_flow_entails,
    oracle_flow_witness,
    oracle_interval_contained,
    oracle_partition,
    overlapping_pair,
    partition_pair,
    random_frame,
    random_structure,
    subset_sum_trap,
)

F = Fraction


def typical(frame, names, strength):
    strength = F(strength)
    return BeliefStructure(frame, [(frame.subset(names), strength),
                                   (frame.full, 1 - strength)])


@pytest.fixture
def desk(frame5):
    a = frame5.subset(["a", "b"])
    b = frame5.subset(["c", "d"])
    m1 = typical(frame5, ["a", "b"], F(6, 10))
    m2 = typical(frame5, ["c", "d"], F(5, 10))
    m2_overlap = typical(frame5, ["b", "c"], F(5, 10))
    return frame5, a, b, m1, m2, m2_overlap


class TestPartition:
    def test_no_conflict_combination_entails_the_input(self, desk):
        frame, a, _, m1, _, m2o = desk
        combined = combine(m1, m2o, DEMPSTER)
        witness = partition_entails(combined, m1)
        assert witness is not None
        assert validate_witness(combined, m1, witness)
        groups = witness.assignment
        overlap = frame.subset(["b", "c"])
        assert groups[a & overlap] == a
        assert groups[a] == a
        assert groups[overlap] == frame.full
        assert groups[frame.full] == frame.full

    def test_reflexive(self, desk):
        _, _, _, m1, _, _ = desk
        witness = partition_entails(m1, m1)
        assert witness is not None
        assert all(a == b for a, b, _ in witness.triples)

    def test_weaker_typical_is_not_partition_entailed(self, frame5):
        strong = typical(frame5, ["c", "d"], F(95, 100))
        weak = typical(frame5, ["c", "d"], F(90, 100))
        assert partition_entails(strong, weak) is None

    def test_frame_mismatch(self, frame4, frame5):
        with pytest.raises(FrameMismatch):
            partition_entails(BeliefStructure.vacuous(frame4),
                              BeliefStructure.vacuous(frame5))

    def test_found_on_constructed_pairs(self):
        rng = random.Random(90)
        for _ in range(60):
            frame = random_frame(rng, 2, 6)
            specific, general = partition_pair(rng, frame)
            witness = partition_entails(specific, general)
            assert witness is not None
            assert validate_witness(specific, general, witness)
            # a partition witness is in particular a flow witness
            assert flow_entails(specific, general) is not None


class TestPartitionSearch:
    PAIR_KINDS = ["partition", "coarsening", "random"]

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(PAIR_KINDS))
    def test_witness_is_the_first_assignment_in_search_order(self, rng,
                                                              kind):
        frame = random_frame(rng, 2, 5)
        if kind == "partition":
            specific, general = partition_pair(rng, frame)
        elif kind == "coarsening":
            specific, general = entailing_pair(rng, frame)
        else:
            specific = random_structure(rng, frame, 5)
            general = random_structure(rng, frame, 5)
        witness = partition_entails(specific, general)
        expected = oracle_partition(specific, general)
        if expected is None:
            assert witness is None
        else:
            assert {a.bits: b.bits for a, b in
                    witness.assignment.items()} == expected

    def test_thousands_of_focal_elements(self):
        # one search step per focal element, far past the recursion limit
        frame = Frame([f"x{i}" for i in range(11)])
        masks = random.Random(97).sample(range(1, 1 << 11), 1200)
        m = BeliefStructure(frame, [(frame.from_bits(bits), F(1, 1200))
                                    for bits in masks])
        witness = partition_entails(m, m)
        assert witness is not None
        assert all(a == b for a, b in witness.assignment.items())

    def test_no_partition_although_flow(self, frame5):
        specific, general = subset_sum_trap(frame5)
        assert flow_entails(specific, general) is not None
        assert partition_entails(specific, general) is None

    def test_node_budget(self, frame5, monkeypatch):
        specific, general = subset_sum_trap(frame5)
        monkeypatch.setattr(entailment, "PARTITION_NODE_BUDGET", 20)
        with pytest.raises(SearchBudgetExceeded):
            partition_entails(specific, general)

    def test_flow_check_comes_before_the_search(self, frame5, monkeypatch):
        # {d, e} fits in no general focal element, but it is placed last:
        # the search alone would try many placements of the seven subsets
        # of {a, b, c} before it found that out
        abc = [frame5.from_bits(bits) for bits in range(1, 8)]
        specific = BeliefStructure(frame5, [
            (focal, F(1, 8)) for focal in abc + [frame5.subset("de")]])
        general = BeliefStructure(frame5, [(frame5.subset("abcd"), F(1, 2)),
                                           (frame5.subset("abce"), F(1, 2))])
        monkeypatch.setattr(entailment, "PARTITION_NODE_BUDGET", 20)
        assert partition_entails(specific, general) is None


class TestFlow:
    def test_hedging_witness(self, frame5):
        strong = typical(frame5, ["c", "d"], F(99, 100))
        weak = typical(frame5, ["c", "d"], F(9, 10))
        witness = flow_entails(strong, weak)
        assert witness is not None
        assert validate_witness(strong, weak, witness)
        body = frame5.subset(["c", "d"])
        sent = {(a.bits, b.bits): w for a, b, w in witness.triples}
        assert sent[(body.bits, body.bits)] == F(9, 10)
        assert sent[(body.bits, frame5.full.bits)] == F(9, 100)
        assert sent[(frame5.full.bits, frame5.full.bits)] == F(1, 100)

    def test_flow_witness_has_no_assignment_view(self, frame5):
        strong = typical(frame5, ["c", "d"], F(99, 100))
        witness = flow_entails(strong, typical(frame5, ["c", "d"], F(9, 10)))
        with pytest.raises(ValueError, match="^assignment view is only "
                           "defined for partition witnesses$"):
            witness.assignment

    def test_everything_normal_entails_vacuous(self):
        rng = random.Random(91)
        for _ in range(30):
            frame = random_frame(rng, 2, 6)
            m = random_structure(rng, frame)
            witness = flow_entails(m, BeliefStructure.vacuous(frame))
            assert witness is not None
            assert all(b == frame.full for _, b, _ in witness.triples)

    def test_subnormal_combination_entails_both_inputs(self, desk):
        _, _, _, m1, m2, _ = desk
        out = combine(m1, m2, UNNORMALIZED)
        assert out.is_subnormal
        witness = flow_entails(out, m1)
        assert witness is not None
        assert validate_witness(out, m1, witness)
        assert flow_entails(out, m2) is not None

    def test_normal_cannot_entail_subnormal(self, frame4):
        sub = BeliefStructure(frame4, [(frame4.empty, F(1, 2)),
                                       (frame4.full, F(1, 2))],
                              subnormal=True)
        assert flow_entails(BeliefStructure.vacuous(frame4), sub) is None

    def test_subnormal_entails_subnormal_reflexively(self, frame4):
        sub = BeliefStructure(frame4, [(frame4.empty, F(1, 3)),
                                       (frame4.full, F(2, 3))],
                              subnormal=True)
        witness = flow_entails(sub, sub)
        assert witness is not None
        assert validate_witness(sub, sub, witness)

    def test_partition_also_handles_subnormal_specific(self, desk):
        _, _, _, m1, m2, _ = desk
        out = combine(m1, m2, UNNORMALIZED)
        witness = partition_entails(out, m1)
        assert witness is not None
        assert validate_witness(out, m1, witness)
        # the empty set sits inside the first input's default set
        groups = witness.assignment
        assert groups[out.frame.empty] == m1.focal_sets()[0]

    def test_reflexive(self):
        rng = random.Random(92)
        for _ in range(20):
            frame = random_frame(rng, 2, 5)
            m = random_structure(rng, frame)
            assert flow_entails(m, m) is not None

    def test_transitive_along_constructed_chains(self):
        rng = random.Random(93)
        for _ in range(40):
            frame = random_frame(rng, 2, 5)
            m1, m2 = entailing_pair(rng, frame)
            m3 = coarsen(rng, m2)
            assert flow_entails(m2, m3) is not None
            assert flow_entails(m1, m3) is not None

    def test_composed_witnesses_are_witnesses(self):
        # gluing a transport m1->m2 to a transport m2->m3 along each middle
        # focal yields a valid transport m1->m3
        from evicalc import EntailmentWitness

        rng = random.Random(96)
        for _ in range(30):
            frame = random_frame(rng, 2, 5)
            m1, m2 = entailing_pair(rng, frame)
            m3 = coarsen(rng, m2)
            w12 = flow_entails(m1, m2)
            w23 = flow_entails(m2, m3)
            mid_mass = dict(m2.items())
            composed = {}
            for a, b, w in w12.triples:
                for b2, c, v in w23.triples:
                    if b2 == b:
                        key = (a, c)
                        composed[key] = composed.get(key, F(0)) \
                            + w * v / mid_mass[b]
            witness = EntailmentWitness(
                "flow", tuple((a, c, w) for (a, c), w in composed.items()))
            assert validate_witness(m1, m3, witness)


class TestValidateWitness:
    """Each way a witness can be wrong, against {c, d}: 3/4 entailing
    {c, d}: 1/2, whose one flow is cd->cd 1/2, cd->X 1/4, X->X 1/4."""

    @pytest.mark.parametrize("mode, triples, verdict", [
        ("flow", [("cd", "cd", "1/2"), ("cd", "X", "1/4"), ("X", "X", "1/4")],
         True),
        ("flow", [("cd'", "cd", "1/2"), ("cd", "X", "1/4"),
                  ("X", "X", "1/4")], False),
        ("flow", [("cd", "cd", "1/2"), ("cd", "X", "1/4"), ("X", "X", "1/4"),
                  ("cd", "cd", "0")], False),
        ("flow", [("cd", "cd", "3/4"), ("cd", "cd", "-1/4"),
                  ("cd", "X", "1/4"), ("X", "X", "1/4")], False),
        ("flow", [("cd", "cd", "1/4"), ("X", "cd", "1/4"), ("cd", "X", "1/2")],
         False),
        ("flow", [("cd", "cd", "1/2"), ("cd", "X", "1/2")], False),
        ("flow", [("cd", "cd", "3/4"), ("X", "X", "1/4")], False),
        ("partition", [("cd", "cd", "1/2"), ("cd", "X", "1/4"),
                       ("X", "X", "1/4")], False),
    ], ids=["valid", "foreign-frame", "zero-weight", "negative-weight",
            "not-contained", "row-sums", "column-sums", "partition-split"])
    def test_verdict(self, frame5, mode, triples, verdict):
        from evicalc import EntailmentWitness

        sets = {"cd": frame5.subset(["c", "d"]), "X": frame5.full,
                "cd'": Frame(["a", "b", "c", "d", "f"]).subset(["c", "d"])}
        witness = EntailmentWitness(mode, tuple(
            (sets[a], sets[b], F(w)) for a, b, w in triples))
        assert validate_witness(typical(frame5, ["c", "d"], F(3, 4)),
                                typical(frame5, ["c", "d"], F(1, 2)),
                                witness) is verdict


class TestFlowOracle:
    """The max-flow decision against Hall's condition by brute force."""

    ENTAILING = ["coarsening", "overlapping", "large-capacity-coarsening"]
    KINDS = ENTAILING + ["random", "reversed", "large-capacity"]

    @staticmethod
    def pair(rng, kind):
        frame = random_frame(rng, 2, 6)
        if kind == "coarsening":
            return entailing_pair(rng, frame)
        if kind == "overlapping":
            # no conflict: the combination entails each input
            first, second = overlapping_pair(rng, frame, 3)
            return combine(first, second, DEMPSTER), first
        if kind == "large-capacity-coarsening":
            specific = random_structure(rng, frame, 3, total=997 * 1009)
            return specific, coarsen(rng, specific)
        if kind == "random":
            return (random_structure(rng, frame, 10),
                    random_structure(rng, frame, 10))
        if kind == "reversed":
            specific, general = entailing_pair(rng, frame)
            return general, specific
        return (random_structure(rng, frame, 10, total=997),
                random_structure(rng, frame, 10, total=1009))

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(KINDS))
    def test_verdict_and_witness(self, rng, kind):
        specific, general = self.pair(rng, kind)
        assert len(specific) <= 10 and len(general) <= 10
        witness = flow_entails(specific, general)
        verdict = oracle_flow_entails(specific, general)
        assert (witness is not None) == verdict
        if kind in self.ENTAILING:
            assert verdict
        if witness is not None:
            assert validate_witness(specific, general, witness)
            keys = [(a.bits, b.bits) for a, b, _ in witness.triples]
            assert keys == sorted(keys)


SURVEY_RULES = (*CELL_ROUTING_RULES, discount("1/2"))


def survey_structure(rng, frame, focals=12):
    masks = rng.sample(range(1, 1 << len(frame)), focals)
    weights = [rng.randint(1, 9) for _ in masks]
    return BeliefStructure(frame, [(frame.from_bits(bits), F(w, sum(weights)))
                                   for bits, w in zip(masks, weights)])


class TestFlowWitnessEquality:
    """The direct phase before the max-flow leaves every witness exactly
    the one plain Edmonds-Karp finds (oracles.oracle_flow_witness)."""

    KINDS = ["survey-conflict", "survey-overlap", "coarsening", "reversed",
             "random", "subnormal"]

    @staticmethod
    def pairs(rng, kind):
        if kind.startswith("survey"):
            frame = Frame("abcdefghij")
            if kind == "survey-overlap":
                first, second = overlapping_pair(rng, frame, 12)
            else:
                first, second = (survey_structure(rng, frame)
                                 for _ in range(2))
            rule = rng.choice(SURVEY_RULES)
            try:
                combined = combine(first, second, rule)
            except TotalConflict:
                return []
            return [(combined, first), (combined, second)]
        frame = random_frame(rng, 2, 7)
        if kind == "coarsening":
            return [entailing_pair(rng, frame, 6)]
        if kind == "reversed":
            return [entailing_pair(rng, frame, 6)[::-1]]
        if kind == "random":
            return [(random_structure(rng, frame, 10),
                     random_structure(rng, frame, 10))]
        first, second = (random_structure(rng, frame, 6) for _ in range(2))
        specific = combine(first, second, UNNORMALIZED)
        return [(specific, first), (specific, second), (specific, specific),
                (specific, random_structure(rng, frame, 6))]

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(KINDS))
    def test_identical_triples(self, rng, kind):
        for specific, general in self.pairs(rng, kind):
            witness = flow_entails(specific, general)
            expected = oracle_flow_witness(specific, general)
            assert (None if witness is None else witness.triples) == expected
            if kind == "coarsening":
                assert witness is not None

    def test_survey_pairs_entail_and_refute(self):
        rng = random.Random(1414)
        frame = Frame("abcdefghij")
        verdicts = set()
        for _ in range(6):
            first, second = (survey_structure(rng, frame) for _ in range(2))
            for rule in SURVEY_RULES:
                try:
                    combined = combine(first, second, rule)
                except TotalConflict:
                    continue
                for general in (first, second):
                    witness = flow_entails(combined, general)
                    expected = oracle_flow_witness(combined, general)
                    assert (None if witness is None
                            else witness.triples) == expected
                    verdicts.add(expected is None)
        assert verdicts == {True, False}


def unreachable_row(specific, general) -> bool:
    """Whether some focal element of ``specific`` outweighs all the focal
    elements of ``general`` that contain it (a one-row Hall violation)."""
    return any(w > sum((v for b, v in general.items() if a <= b), F(0))
               for a, w in specific.items())


def no_max_flow():
    return mock.patch.object(entailment, "_max_flow",
                             side_effect=AssertionError("max-flow ran"))


class TestHallBound:
    """flow_entails refutes a pair with an unreachable row before it runs
    a max-flow; verdicts and witnesses stay the max-flow's."""

    KINDS = ["yager", "dubois-prade", "random", "coarsening"]

    @staticmethod
    def pair(rng, kind):
        frame = random_frame(rng, 2, 6)
        if kind == "coarsening":
            return entailing_pair(rng, frame)
        if kind == "random":
            return (random_structure(rng, frame, 8),
                    random_structure(rng, frame, 8))
        # conflict mass sent to X or to A | B, measured against an input
        # that may lack that set
        first, second = (random_structure(rng, frame, 4) for _ in range(2))
        rule = YAGER if kind == "yager" else DUBOIS_PRADE
        return combine(first, second, rule), rng.choice((first, second))

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(KINDS))
    def test_verdict_witness_and_early_out(self, rng, kind):
        specific, general = self.pair(rng, kind)
        witness = flow_entails(specific, general)
        assert (witness is None) == (not oracle_flow_entails(specific,
                                                             general))
        if witness is not None:
            assert validate_witness(specific, general, witness)
        full = specific.frame.full
        if kind == "yager" and specific.mass(full) > general.mass(full):
            assert unreachable_row(specific, general)
        if unreachable_row(specific, general):
            with no_max_flow():
                assert flow_entails(specific, general) is None
                assert partition_entails(specific, general) is None

    def test_yager_result_against_an_input_without_the_full_set(self):
        frame = Frame(["a", "b", "c"])
        first = BeliefStructure(frame, [(frame.subset(["a"]), F(1, 2)),
                                        (frame.subset(["b"]), F(1, 2))])
        second = BeliefStructure(frame, [(frame.subset(["b"]), F(1))])
        combined = combine(first, second, YAGER)
        assert combined.mass(frame.full) == F(1, 2)
        with no_max_flow():
            assert flow_entails(combined, first) is None
            assert partition_entails(combined, first) is None
        # each row of `first` fits on {a, b} alone, both together do not:
        # that takes the max-flow
        general = BeliefStructure(frame, [(frame.subset(["a", "b"]), F(1, 2)),
                                          (frame.subset(["c"]), F(1, 2))])
        with no_max_flow(), pytest.raises(AssertionError,
                                          match="max-flow ran"):
            flow_entails(first, general)
        assert flow_entails(first, general) is None


class TestIntervalContained:
    def test_conflict_case_escapes(self, desk):
        _, a, _, m1, m2, _ = desk
        combined = combine(m1, m2, DEMPSTER)
        contained, violator = interval_contained(combined, m1)
        assert not contained
        assert violator == a
        assert combined.bel(a) == F(3, 7) < F(6, 10)

    def test_reflexive(self, desk):
        _, _, _, m1, _, _ = desk
        assert interval_contained(m1, m1) == (True, None)

    def test_no_conflict_case_is_contained(self, desk):
        _, _, _, m1, _, m2o = desk
        combined = combine(m1, m2o, DEMPSTER)
        assert interval_contained(combined, m1) == (True, None)
        assert interval_contained(combined, m2o) == (True, None)

    def test_flow_implies_interval_containment(self):
        rng = random.Random(94)
        for _ in range(60):
            frame = random_frame(rng, 2, 6)
            m1, m2 = entailing_pair(rng, frame)
            assert interval_contained(m1, m2) == (True, None)

    def test_frame_cap(self):
        frame = Frame([f"x{i}" for i in range(21)])
        vac = BeliefStructure.vacuous(frame)
        with pytest.raises(FrameTooLarge, match="exhaustive interval check "
                           "needs at most 20 atoms, got 21"):
            interval_contained(vac, vac)


def checked_interval(m1, m2):
    """interval_contained(m1, m2), checked against the oracle and against
    the tables it transformed: two of 2**(n // 2) entries, then two of 2**j
    for each step to a level j + 1 < n, up to the level that holds the
    first violator (its top atom's level, or n - 1 when it has none)."""
    lengths, real = [], entailment._zeta

    def spy(table, n):
        lengths.append(len(table))
        real(table, n)

    with mock.patch.object(entailment, "_zeta", side_effect=spy):
        result = interval_contained(m1, m2)
    assert result == oracle_interval_contained(m1, m2)
    n = len(m1.frame)
    top = n - 1 if result[1] is None else result[1].bits.bit_length() - 1
    steps = range(n // 2, min(top, n - 2) + 1)
    assert lengths == [1 << n // 2] * 2 + [
        size for j in steps for size in (1 << j,) * 2]
    return result


class TestIntervalOracle:
    """The signed integer transform against naive bel/pl enumeration."""

    KINDS = ["entailing", "random", "dempster", "unnormalized",
             "subnormal-first", "subnormal-second"]

    @staticmethod
    def subnormal(rng, frame):
        m = random_structure(rng, frame, 5)
        lost = F(rng.randint(1, 9), 10)
        return BeliefStructure(
            frame, [(frame.empty, lost)]
            + [(f, w * (1 - lost)) for f, w in m.items()], subnormal=True)

    def pair(self, rng, kind):
        frame = random_frame(rng, 1, 8)
        if kind == "entailing":
            return entailing_pair(rng, frame)
        m1 = random_structure(rng, frame, 6)
        m2 = random_structure(rng, frame, 6)
        if kind == "dempster":
            try:
                return combine(m1, m2, DEMPSTER), m1
            except TotalConflict:
                return m2, m1
        if kind == "unnormalized":
            return combine(m1, m2, UNNORMALIZED), m2
        if kind == "subnormal-first":
            return self.subnormal(rng, frame), m2
        if kind == "subnormal-second":
            return m1, self.subnormal(rng, frame)
        return m1, m2

    @settings(max_examples=400, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(KINDS))
    def test_verdict_and_first_violator(self, rng, kind):
        m1, m2 = self.pair(rng, kind)
        result = checked_interval(m1, m2)
        if kind == "entailing":
            assert result == (True, None)
        for m in (m1, m2):
            table = m.bel_table()
            assert len(table) == 1 << len(m.frame)
            for bits, value in enumerate(table):
                assert value == naive_bel(m, bits)


class TestIntervalLowHalf:
    """The masks up to low = 2**(n // 2) - 1 are decided on two small
    tables built from the focal elements; only a pair with no violator
    there lists the difference's focal elements and grows the tables
    from them."""

    @pytest.mark.parametrize("atoms", ["abcd", "abcde"])
    def test_violator_inside_the_prefix(self, atoms):
        frame = Frame(atoms)
        a = frame.subset("a")
        m1 = BeliefStructure(frame, [(a, F(1, 2)), (frame.full, F(1, 2))])
        # bel2({a}) above bel1({a})
        m2 = BeliefStructure(frame, [(a, 1)])
        assert checked_interval(m1, m2) == (False, a)
        # pl1({a}) above pl2({a}): found through the folded outer table
        m2 = BeliefStructure(frame, [(frame.subset("cd"), 1)])
        assert checked_interval(m1, m2) == (False, a)

    @pytest.mark.parametrize("atoms", ["abcd", "abcde"])
    def test_violator_just_past_the_prefix(self, atoms):
        frame = Frame(atoms)
        c = frame.subset("c")  # mask 4 = low + 1
        m1 = BeliefStructure(frame, [(frame.subset("cd"), F(1, 2)),
                                     (frame.full, F(1, 2))])
        m2 = BeliefStructure(frame, [(c, F(1, 2)), (frame.full, F(1, 2))])
        assert checked_interval(m1, m2) == (False, c)
        # the complement side: pl1({c}) above pl2({c})
        m3 = BeliefStructure(frame, [(frame.subset("ab"), F(1, 2)),
                                     (frame.full, F(1, 2))])
        m4 = BeliefStructure(frame, [(frame.subset("ab"), F(1, 2)),
                                     (frame.subset("abd"), F(1, 2))])
        assert checked_interval(m3, m4) == (False, c)

    def test_no_violator(self, desk):
        _, _, _, m1, _, m2o = desk
        assert checked_interval(m1, m1) == (True, None)
        combined = combine(m1, m2o, DEMPSTER)
        assert checked_interval(combined, m2o) == (True, None)

    def test_one_atom(self):
        frame = Frame("a")
        vacuous = BeliefStructure.vacuous(frame)
        lost = BeliefStructure(frame, [(frame.empty, F(1, 2)),
                                       (frame.full, F(1, 2))], subnormal=True)
        assert checked_interval(vacuous, vacuous) == (True, None)
        assert checked_interval(lost, vacuous) == (False, frame.full)
        assert checked_interval(vacuous, lost) == (False, frame.full)

    def test_twenty_atoms_with_a_tiny_mass(self):
        # a 1,300-bit denominator: a full table would hold 2**20 such
        # numbers; the violator, pl1({a}) above pl2({a}), is at mask 1
        frame = Frame([f"x{i}" for i in range(20)])
        tiny = F(1, 3**820)
        assert tiny.denominator.bit_length() == 1300
        high = frame.from_bits(1 << 10)
        m1 = BeliefStructure(frame, [(frame.from_bits(1), tiny),
                                     (high, 1 - tiny)])
        m2 = BeliefStructure(frame, [(high, 1)])
        assert checked_interval(m1, m2) == (False, frame.from_bits(1))


class TestIntervalLevels:
    """Seeded 6- to 10-atom pairs whose first violators lie at every level
    the check grows through, and pairs with none, on normal pairs and with
    a subnormal structure on either side."""

    @staticmethod
    def level_pair(rng, frame, level):
        # every focal element holds the atoms below `level`, so no mask
        # below 2**level tells the sides apart; the general side is a
        # coarsening, then maybe one part of a focal element on either
        # side moves to a set one atom smaller (general) or larger
        n = len(frame)
        low = (1 << level) - 1
        masks = sorted({low | rng.getrandbits(n) & ~low or low
                        for _ in range(rng.randint(1, 5))})
        weights = [rng.randint(1, 9) for _ in masks]
        m1 = BeliefStructure(frame, [(frame.from_bits(b), F(w, sum(weights)))
                                     for b, w in zip(masks, weights)])
        m2 = coarsen(rng, m1)
        side = rng.randrange(3)
        if side:
            m = (m1, m2)[side - 1]
            nums = {f.bits: w for f, w in m.items()}
            bits = rng.choice(sorted(nums))
            atom = 1 << rng.randrange(n)
            other = bits | atom if side == 1 else bits & ~atom
            if other and other != bits:
                part = nums[bits] * F(rng.randint(1, 4), 4)
                nums[bits] -= part
                nums[other] = nums.get(other, 0) + part
                m = BeliefStructure(frame, [(frame.from_bits(b), w)
                                            for b, w in nums.items() if w])
                m1, m2 = (m, m2) if side == 1 else (m1, m)
        return m1, m2

    @staticmethod
    def lost(rng, m):
        share = F(rng.randint(1, 3), 10)
        return BeliefStructure(
            m.frame, [(m.frame.empty, share)]
            + [(f, w * (1 - share)) for f, w in m.items()], subnormal=True)

    @pytest.mark.parametrize("n", range(6, 11))
    def test_every_level(self, n):
        rng = random.Random(300 + n)
        frame = Frame("abcdefghij"[:n])
        kept = {}  # (top atom or None, subnormal side) -> pair
        wanted = {(top, 0) for top in [*range(1, n - 1), None]}
        # a subnormal first side fails at X at the latest, and a
        # subnormal second side already at mask 1
        wanted |= {(n - 1, 1), (0, 2)}
        for _ in range(3000):
            if wanted <= kept.keys():
                break
            m1, m2 = self.level_pair(rng, frame, rng.randint(1, n - 1))
            side = rng.randrange(4) % 3
            if side == 1:
                m1 = self.lost(rng, m1)
            elif side == 2:
                m2 = self.lost(rng, m2)
            violator = interval_contained(m1, m2)[1]
            top = None if violator is None else violator.bits.bit_length() - 1
            kept.setdefault((top, side), (m1, m2))
        # a normal pair's masks S and X - S violate together, and the
        # smaller lacks the top atom: only a subnormal side reaches n - 1
        assert wanted <= kept.keys()
        assert {top for top, _ in kept} == {*range(n), None}
        for m1, m2 in kept.values():
            checked_interval(m1, m2)


    def test_eighteen_atoms_without_a_violator(self):
        # the check ends holding the 2**18 masks' values in inner and
        # outer.  Small focal elements of large weights make almost every
        # d(S) an integer of its own: about 38 traced bytes a mask, which
        # a second copy of every value (an int and a list slot, 40 bytes)
        # would take past 64.  A structure against itself makes every
        # d(S) the shared 0: about 12 bytes a mask, the list slots and
        # the last step's two blocks, which one more list of 2**18 slots
        # (8 bytes a mask) would take past 16.
        rng = random.Random(18)
        frame = Frame([f"x{i}" for i in range(18)])
        masks = sorted({sum(1 << a for a in rng.sample(range(18), size))
                        for size in (1, 2, 3) * 4})
        weights = [rng.randint(10**6, 10**7) for _ in masks]
        total = 3 * sum(weights)
        general = {}
        for bits, w in zip(masks, weights):
            wider = bits | 1 << rng.randrange(18)
            for part, focal in ((w, bits), (2 * w, wider)):
                general[focal] = general.get(focal, 0) + F(part, total)
        m1 = BeliefStructure(frame, [(frame.from_bits(b), F(3 * w, total))
                                     for b, w in zip(masks, weights)])
        m2 = BeliefStructure(frame, [(frame.from_bits(b), w)
                                     for b, w in general.items()])
        small = BeliefStructure(frame, [(frame.from_bits(1), F(1, 2)),
                                        (frame.full, F(1, 2))])
        for pair, bytes_a_mask in (((m1, m2), 64), ((small, small), 16)):
            tracemalloc.start()
            try:
                result = interval_contained(*pair)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result == (True, None)
            assert peak < bytes_a_mask << 18


class TestWeaken:
    def test_worked_summary(self, frame5):
        m1 = typical(frame5, ["a", "b"], F(99, 100))
        m2 = typical(frame5, ["b", "c"], F(9, 10))
        combined = combine(m1, m2, DEMPSTER)
        target = frame5.subset(["b"])
        weakened = weaken_to(combined, target)
        assert weakened == BeliefStructure(
            frame5, [(target, F(891, 1000)), (frame5.full, F(109, 1000))])

    def test_vacuous_stays_vacuous(self, frame4):
        vac = BeliefStructure.vacuous(frame4)
        assert weaken_to(vac, frame4.subset(["a"])) == vac

    def test_weaken_to_full_set(self, desk):
        frame, _, _, m1, _, _ = desk
        assert weaken_to(m1, frame.full) == BeliefStructure.vacuous(frame)

    def test_errors(self, frame4):
        vac = BeliefStructure.vacuous(frame4)
        with pytest.raises(EmptyTarget):
            weaken_to(vac, frame4.empty)
        sub = BeliefStructure(frame4, [(frame4.empty, F(1, 2)),
                                       (frame4.full, F(1, 2))],
                              subnormal=True)
        with pytest.raises(SubnormalInput):
            weaken_to(sub, frame4.full)

    def test_input_always_flow_entails_the_weakening(self):
        rng = random.Random(95)
        for _ in range(40):
            frame = random_frame(rng, 2, 5)
            m = random_structure(rng, frame)
            bits = rng.randint(1, (1 << len(frame)) - 1)
            target = frame.from_bits(bits)
            assert flow_entails(m, weaken_to(m, target)) is not None


class TestHedge:
    def test_lowering_strength(self, frame5):
        strong = typical(frame5, ["c", "d"], F(99, 100))
        assert hedge(strong, F(9, 10)) == typical(frame5, ["c", "d"],
                                                  F(9, 10))

    def test_identity_and_vacuous_limits(self, frame5):
        m = typical(frame5, ["c", "d"], F(3, 4))
        assert hedge(m, F(3, 4)) == m
        assert hedge(m, 0) == BeliefStructure.vacuous(frame5)

    def test_hedged_form_is_flow_entailed(self, frame5):
        m = typical(frame5, ["c", "d"], F(19, 20))
        for k in range(0, 20):
            assert flow_entails(m, hedge(m, F(k, 20))) is not None

    def test_hedge_chain_monotonicity(self, frame5):
        m = typical(frame5, ["a", "c"], F(9, 10))
        first = hedge(m, F(7, 10))
        second = hedge(first, F(2, 10))
        assert flow_entails(first, second) is not None

    def test_rejects_non_typical_and_increase(self, frame5):
        with pytest.raises(NotTypicalForm):
            hedge(BeliefStructure.vacuous(frame5), F(1, 2))
        # a subnormal two-focal structure is not a typicality either
        sub = BeliefStructure(frame5, [(frame5.empty, F(1, 4)),
                                       (frame5.full, F(3, 4))],
                              subnormal=True)
        with pytest.raises(NotTypicalForm):
            hedge(sub, F(1, 8))
        three = BeliefStructure(frame5, [
            (frame5.subset(["a"]), F(1, 3)),
            (frame5.subset(["b"]), F(1, 3)),
            (frame5.full, F(1, 3))])
        with pytest.raises(NotTypicalForm):
            hedge(three, F(1, 4))
        m = typical(frame5, ["c", "d"], F(1, 2))
        with pytest.raises(StrengthIncrease) as err:
            hedge(m, F(3, 4))
        assert str(err.value) == "cannot raise strength from 1/2 to 3/4"
        # a strength past the digit limit is named by its digit counts
        with pytest.raises(StrengthIncrease) as err:
            hedge(m, "0." + "9" * 4300)
        assert str(err.value) == ("cannot raise strength from 1/2 to "
                                  "<4300 digits>/<4301 digits>")


DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
# Each entails_* and hedge_* golden, as scripts/golden_tables.sh makes it:
# the mode and the specific and general inputs.  An input is a data file,
# or (second desk file, rule) for the combination of desk_a.bs with it,
# the structure the script saves with -o.
GOLDEN_ENTAILS = {
    "entails_noconflict_partition": (
        "partition", ("desk_b_overlap.bs", "dempster"), "desk_a.bs"),
    "entails_noconflict_flow_second": (
        "flow", ("desk_b_overlap.bs", "dempster"), "desk_b_overlap.bs"),
    "entails_conflict_interval": (
        "interval", ("desk_b_disjoint.bs", "dempster"), "desk_a.bs"),
    "entails_unnormalized_flow": (
        "flow", ("desk_b_disjoint.bs", "unnormalized"), "desk_a.bs"),
    "hedge_flow": ("flow", "typical_b_99.bs", "typical_b_90.bs"),
    "hedge_partition": ("partition", "typical_b_99.bs", "typical_b_90.bs"),
}
WITNESS_LINE = re.compile(r"  \{(.*)\} -> \{(.*)\} : (\d+(?:/\d+)?)")


def golden_input(source):
    """A golden command's input, rebuilt from the oracle where the script
    feeds it a combination it saved."""
    if isinstance(source, str):
        return load_structure(DATA / source)
    first = load_structure(DATA / "desk_a.bs")
    second, rule = source
    frame = first.frame
    return BeliefStructure(frame, [
        (frame.from_bits(bits), w) for bits, w in oracle_combine(
            first, load_structure(DATA / second), parse_rule(rule)).items()
        if w], subnormal=True)


class TestGoldenAudit:
    """The entailment and hedge goldens re-derived from the oracles, not
    from the program: each verdict from oracle_flow_entails,
    oracle_partition or oracle_interval_contained, and each printed
    witness re-checked triple by triple."""

    def test_every_golden_is_audited(self):
        assert sorted(GOLDEN_ENTAILS) == sorted(
            p.stem for pattern in ("entails_*.txt", "hedge_*.txt")
            for p in GOLDEN.glob(pattern))

    @pytest.mark.parametrize("name", sorted(GOLDEN_ENTAILS))
    def test_golden(self, name):
        mode, specific, general = GOLDEN_ENTAILS[name]
        m1, m2 = golden_input(specific), golden_input(general)
        frame = m1.frame
        lines = (GOLDEN / f"{name}.txt").read_text("utf-8").splitlines()
        assert lines[0] == f"mode: {mode}"
        if mode == "interval":
            contained, violator = oracle_interval_contained(m1, m2)
            expected = [f"contained: {str(contained).lower()}"]
            if violator is not None:
                expected.append(f"violating set: {violator.label()}")
            assert lines[1:] == expected
            return
        verdict = (oracle_flow_entails(m1, m2) if mode == "flow"
                   else oracle_partition(m1, m2) is not None)
        assert lines[1] == f"entails: {str(verdict).lower()}"
        assert lines[2:3] == (["witness:"] if verdict else [])
        rows, cols, triples = {}, {}, 0
        for line in lines[3:]:
            a_atoms, b_atoms, mass = WITNESS_LINE.fullmatch(line).groups()
            a, b = (frame.subset(atoms.split(", ") if atoms else [])
                    for atoms in (a_atoms, b_atoms))
            w = F(mass)
            assert w > 0 and a.issubset(b)
            rows[a.bits] = rows.get(a.bits, 0) + w
            cols[b.bits] = cols.get(b.bits, 0) + w
            triples += 1
        if verdict:
            assert rows == {f.bits: w for f, w in m1.items()}
            assert cols == {f.bits: w for f, w in m2.items()}
            # a grouping sends each specific focal element whole
            assert mode == "flow" or triples == len(rows)
