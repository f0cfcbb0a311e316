import importlib
import json
import random
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
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
    Frame,
    MonotonicityReport,
    canonical_pair,
    discount,
    monotonic_step,
    monotonicity,
    pairwise_survey,
    parse_rule,
    sweep,
    sweep_csv,
)
from evicalc.errors import FoldTooLarge, GridOutOfRange, TotalConflict
from evicalc.io import load_structure, report_to_obj

from oracles import (
    assert_decimal,
    disjoint_support_pair,
    naive_bel,
    naive_pl,
    no_conflict_pair,
    oracle_combine,
    oracle_conflict,
    oracle_interval_contained,
    oracle_monotonic_step,
    overlapping_pair,
    random_frame,
    random_structure,
    total_conflict_pair,
)

F = Fraction
DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
# The package binds the name `combine` to the function, not the module
combine_module = importlib.import_module("evicalc.combine")


class TestMonotonicStep:
    def test_conflict_breaks_interval_containment(self):
        m1, m2, a_set, _ = canonical_pair(F(6, 10), F(5, 10), disjoint=True)
        report = monotonic_step(m1, m2, DEMPSTER)
        assert report.conflict == F(3, 10)
        assert not report.interval_ok_first
        assert report.witness_first == a_set
        assert report.combined.bel(a_set) == F(3, 7)
        assert not report.entails_first

    def test_overlap_keeps_everything(self):
        m1, m2, _, _ = canonical_pair(F(6, 10), F(5, 10), disjoint=False)
        report = monotonic_step(m1, m2, DEMPSTER)
        assert report.conflict == 0
        assert report.entails_first and report.entails_second
        assert report.interval_ok_first and report.interval_ok_second
        assert report.witness_first is None and report.witness_second is None

    def test_vacuous_partner_is_always_monotonic(self):
        m1, _, _, _ = canonical_pair(F(6, 10), F(5, 10), disjoint=True)
        vac = BeliefStructure.vacuous(m1.frame)
        for rule in CELL_ROUTING_RULES:
            report = monotonic_step(m1, vac, rule)
            assert report.conflict == 0
            assert report.entails_first and report.entails_second
            assert report.interval_ok_first and report.interval_ok_second

    def test_zero_conflict_means_all_flags_for_every_rule(self):
        rng = random.Random(55)
        for _ in range(25):
            frame = random_frame(rng, 2, 6)
            m1, m2 = overlapping_pair(rng, frame)
            for rule in CELL_ROUTING_RULES:
                report = monotonic_step(m1, m2, rule)
                assert report.conflict == 0
                assert report.entails_first and report.entails_second
                assert report.interval_ok_first and report.interval_ok_second

    def test_subnormal_result_skips_interval_flags(self):
        m1, m2, _, _ = canonical_pair(F(6, 10), F(5, 10), disjoint=True)
        report = monotonic_step(m1, m2, UNNORMALIZED)
        assert report.interval_skipped
        assert not report.interval_ok_first
        assert report.witness_first is None
        assert report.entails_first and report.entails_second

    def test_reports_are_reproducible(self):
        m1, m2, _, _ = canonical_pair(F(7, 10), F(2, 5), disjoint=True)
        assert monotonic_step(m1, m2, DEMPSTER) == \
            monotonic_step(m1, m2, DEMPSTER)


class TestStepOracle:
    """A step settles a verdict by the product table's certificate, then by
    an interval violation, then by flow; its report must equal the one
    built by running every check through the oracles."""

    RULES = [*CELL_ROUTING_RULES, discount(0), discount(F(1, 2)), discount(1)]
    KINDS = ["no-conflict", "random", "total-conflict"]

    @staticmethod
    def pair(rng, kind):
        if kind == "no-conflict":
            return no_conflict_pair(rng, 1, 5, 3)
        frame = random_frame(rng, 2, 5)
        if kind == "total-conflict":
            return total_conflict_pair(rng, frame, 3)
        return random_structure(rng, frame, 3), random_structure(rng, frame, 3)

    @settings(max_examples=500, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(RULES),
           st.sampled_from(KINDS))
    def test_step_equals_the_oracle(self, rng, rule, kind):
        m1, m2 = self.pair(rng, kind)
        expected = oracle_monotonic_step(m1, m2, rule)
        assert (expected.conflict == 0) >= (kind == "no-conflict")
        assert (expected.conflict == 1) >= (kind == "total-conflict")
        if expected.infeasible:
            with pytest.raises(TotalConflict):
                monotonic_step(m1, m2, rule)
        else:
            assert monotonic_step(m1, m2, rule) == expected
        assert pairwise_survey(m1, m2, [rule]) == [expected]

    def test_certified_verdicts_run_no_check(self, monkeypatch):
        checked = []

        def record(combined, m):  # passes as a flow witness and an interval
            checked.append(m)
            return True, None

        monkeypatch.setattr(monotonicity, "flow_entails", record)
        monkeypatch.setattr(monotonicity, "interval_contained", record)
        m1, m2, _, _ = canonical_pair(F(6, 10), F(5, 10), disjoint=False)
        for rule in CELL_ROUTING_RULES:  # K = 0
            monotonic_step(m1, m2, rule)
        assert checked == []
        m1, m2, _, _ = canonical_pair(F(6, 10), F(5, 10), disjoint=True)
        for rule, inputs in ((UNNORMALIZED, []), (PRIORITY_FIRST, [m2]),
                             (PRIORITY_SECOND, [m1]), (YAGER, [m1, m2])):
            checked.clear()
            monotonic_step(m1, m2, rule)
            # interval first, then flow, on each uncertified normal input
            assert checked == [m for m in inputs for _ in range(2)]


class TestPairwiseSurvey:
    def test_normalization_alternatives_all_violate(self):
        m1, m2, _, _ = canonical_pair(F(6, 10), F(5, 10), disjoint=True)
        rules = [DEMPSTER, YAGER, DUBOIS_PRADE, discount(F(1, 2))]
        for report in pairwise_survey(m1, m2, rules):
            assert not report.interval_ok_first

    def test_priority_first_protects_only_the_first(self):
        m1, m2, _, _ = canonical_pair(F(6, 10), F(5, 10), disjoint=True)
        report, = pairwise_survey(m1, m2, [PRIORITY_FIRST])
        assert report.entails_first
        assert report.interval_ok_first
        assert not report.entails_second

    def test_unnormalized_is_structurally_monotonic(self):
        m1, m2, _, _ = canonical_pair(F(6, 10), F(5, 10), disjoint=True)
        report, = pairwise_survey(m1, m2, [UNNORMALIZED])
        assert report.entails_first and report.entails_second

    def test_total_conflict_marks_the_row_infeasible(self):
        m1, m2, _, _ = canonical_pair(F(1), F(1), disjoint=True)
        reports = pairwise_survey(m1, m2, [DEMPSTER, YAGER])
        assert reports[0].infeasible
        assert reports[0].combined is None
        assert not reports[1].infeasible

    def test_order_follows_the_rule_list(self):
        m1, m2, _, _ = canonical_pair(F(6, 10), F(5, 10), disjoint=True)
        rules = [YAGER, DEMPSTER]
        assert [r.rule for r in pairwise_survey(m1, m2, rules)] == rules


def step_reports(m1, m2, rules):
    """The per-rule monotonic_step reports, with the survey's infeasible
    report where a step meets total conflict."""
    expected = []
    for rule in rules:
        try:
            expected.append(monotonic_step(m1, m2, rule))
        except TotalConflict:
            expected.append(MonotonicityReport(
                rule, F(1), False, False, False, False, None, None, None,
                infeasible=True))
    return expected


class TestSurveyFromOneProduct:
    """A survey reads every cell-routing result off one unnormalized
    product, and discount reuses its K; its reports must equal the per-rule
    steps'."""

    RULES = TestStepOracle.RULES
    KINDS = ["conflict-free", "conflicting", "total-conflict"]

    @staticmethod
    def pair(rng, kind, focals=3):
        frame = random_frame(rng, 2, 5)
        if kind == "conflict-free":
            return overlapping_pair(rng, frame, focals)
        if kind == "total-conflict":
            return total_conflict_pair(rng, frame, focals)
        while True:
            m1 = random_structure(rng, frame, focals)
            m2 = random_structure(rng, frame, focals)
            if any(not a.intersects(b) for a in m1.focal_sets()
                   for b in m2.focal_sets()):
                return m1, m2

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(KINDS),
           st.lists(st.sampled_from(RULES), max_size=12))
    def test_survey_equals_the_steps(self, rng, kind, rules):
        m1, m2 = self.pair(rng, kind)
        assert pairwise_survey(m1, m2, rules) == step_reports(m1, m2, rules)

    @staticmethod
    def sized_pair(rng, kind):
        """Two structures of 12 focal elements each on 10 atoms, the size
        of the benchmark's survey pairs: conflict-free (every focal element
        holds one pivot atom), conflicting, or at K = 1 (each side inside
        its own half of a split of the atoms)."""
        frame = Frame("abcdefghij")
        full = frame.full.bits
        if kind == "conflict-free":
            pivot = 1 << rng.randrange(10)
            pools = [[b for b in range(1, full + 1) if b & pivot]] * 2
        elif kind == "total-conflict":
            left = sum(1 << i for i in rng.sample(range(10), 5))
            pools = [[b for b in range(1, full + 1) if not b & ~part]
                     for part in (left, full ^ left)]
        else:
            pools = [range(1, full + 1)] * 2
        pair = []
        for pool in pools:
            weights = {bits: rng.randint(1, 9)
                       for bits in rng.sample(pool, 12)}
            total = sum(weights.values())
            pair.append(BeliefStructure(frame, [
                (frame.from_bits(bits), F(w, total))
                for bits, w in weights.items()]))
        return pair

    @pytest.mark.parametrize("kind", KINDS)
    def test_bench_sized_pairs(self, kind):
        rng = random.Random(f"survey {kind}")
        rules = [*CELL_ROUTING_RULES, discount(F(1, 2))]
        for _ in range(8):
            m1, m2 = self.sized_pair(rng, kind)
            conflict = oracle_conflict(m1, m2)
            assert {"conflict-free": conflict == 0, "total-conflict":
                    conflict == 1}.get(kind, 0 < conflict < 1)
            for order in (rules, rules[::-1]):
                assert pairwise_survey(m1, m2, order) == \
                    step_reports(m1, m2, order)

    ALL_RULES = [*CELL_ROUTING_RULES, discount(F(1, 2))]
    MIXTURES = [discount(F(1, 3)), discount(F(1, 2))]

    @pytest.mark.parametrize("disjoint, rules, folds, sums", [
        (False, ALL_RULES, [UNNORMALIZED, discount(F(1, 2))], 0),
        (True, ALL_RULES, [UNNORMALIZED, discount(F(1, 2))], 0),
        (True, MIXTURES, MIXTURES, 1)], ids=["K=0", "K>0", "discount-only"])
    def test_product_passes(self, monkeypatch, disjoint, rules, folds, sums):
        """Each pass over the pair: one product at most, one mixture per
        discount rule, and a cell-by-cell K only when there is no
        product to read it off."""
        fold, folded = combine_module._fold, []
        conflict_mass, summed = combine_module.conflict_mass, []

        def counted(frame, forms, rule):
            folded.append(rule)
            return fold(frame, forms, rule)

        def counted_sum(m1, m2):
            summed.append(1)
            return conflict_mass(m1, m2)

        m1, m2, _, _ = canonical_pair(F(6, 10), F(5, 10), disjoint)
        expected = step_reports(m1, m2, rules)
        monkeypatch.setattr(combine_module, "_fold", counted)
        for module in (combine_module, monotonicity):
            monkeypatch.setattr(module, "conflict_mass", counted_sum)
        assert pairwise_survey(m1, m2, rules) == expected
        assert folded == folds
        assert len(summed) == sums

    def test_structures_built(self, monkeypatch):
        """At K > 0 the unnormalized result is the product itself: the
        product, five other cell-routing results and one mixture."""
        from_form, built = BeliefStructure._from_form.__func__, []

        def counted(cls, *args, **kwargs):
            built.append(from_form(cls, *args, **kwargs))
            return built[-1]

        m1, m2, _, _ = canonical_pair(F(6, 10), F(5, 10), disjoint=True)
        monkeypatch.setattr(BeliefStructure, "_from_form",
                            classmethod(counted))
        reports = pairwise_survey(m1, m2, self.ALL_RULES)
        assert len(built) == 7
        product = reports[self.ALL_RULES.index(UNNORMALIZED)].combined
        assert product is built[0] and product.is_subnormal

    def test_empty_rule_list(self, frame4, frame5):
        """No rule, no report, even for a pair whose frames differ."""
        assert pairwise_survey(BeliefStructure.vacuous(frame4),
                               BeliefStructure.vacuous(frame5), []) == []


@contextmanager
def budget_patched(budget):
    """FOLD_FOCAL_BUDGET set to ``budget`` where the fold and the survey
    read it."""
    with patch.object(combine_module, "FOLD_FOCAL_BUDGET", budget), \
            patch.object(monotonicity, "FOLD_FOCAL_BUDGET", budget):
        yield


class TestSurveyBudget:
    """A survey holds its product and every derived result to
    FOLD_FOCAL_BUDGET, each derived one checked after each row of the
    pair: it raises FoldTooLarge at statement 2 exactly when one of them
    passes the budget, and changes no report under it.  Pairs of up to six
    focal elements a side straddle budgets of 1 to 12."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False),
           st.sampled_from(TestSurveyFromOneProduct.KINDS),
           st.lists(st.sampled_from(TestStepOracle.RULES), max_size=7),
           st.integers(1, 12))
    def test_refused_exactly_past_the_budget(self, rng, kind, rules,
                                             budget):
        m1, m2 = TestSurveyFromOneProduct.pair(rng, kind, 6)
        routing = [rule for rule in rules if rule.kind != "discount"]
        if routing and max(len(oracle_combine(m1, m2, rule)) for rule
                           in (UNNORMALIZED, *routing)) > budget:
            expected = 2
        else:
            expected = [oracle_monotonic_step(m1, m2, rule)
                        for rule in rules]
        with budget_patched(budget):
            try:
                got = pairwise_survey(m1, m2, rules)
            except FoldTooLarge as err:
                got = err.statement_index
        assert got == expected

    @pytest.mark.parametrize("budget", [1, 3, 4])
    def test_a_result_of_the_budget_passes(self, budget):
        """At K = 1 on two 2-focal structures the product and Yager's
        result hold one focal element each, and Dubois-Prade's four."""
        m1, m2 = disjoint_support_pair(35, 4, 2)
        rules = [YAGER, DUBOIS_PRADE]
        expected = [oracle_monotonic_step(m1, m2, rule) for rule in rules]
        with budget_patched(budget):
            assert pairwise_survey(m1, m2, rules[:1]) == expected[:1]
            if budget < 4:
                with pytest.raises(FoldTooLarge) as err:
                    pairwise_survey(m1, m2, rules)
                assert err.value.statement_index == 2
            else:
                assert pairwise_survey(m1, m2, rules) == expected

    def test_conflicting_cells_are_routed_as_they_come(self):
        """Yager sends the 40,000 conflicting cells of two 200-focal
        structures at K = 1 onto X, one row at a time, so the survey's
        traced peak stays under 1 MB; a list of the cells takes about
        3 MB."""
        m1, m2 = disjoint_support_pair(35, 20, 200)
        tracemalloc.start()
        try:
            report, = pairwise_survey(m1, m2, [YAGER])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.combined == BeliefStructure.vacuous(m1.frame)
        assert peak < 1 << 20


class TestGoldenAudit:
    """The survey and sweep goldens re-derived from the oracles, not from
    the program, with the inputs scripts/golden_tables.sh gives them."""

    SURVEY_RULES = ("dempster", "yager", "dubois-prade", "discount:1/2",
                    "priority-first", "priority-second", "unnormalized")
    SWEEP_GRID = [F(k, 10) for k in (1, 3, 5, 7, 9)]

    def test_survey_disjoint(self):
        m1 = load_structure(DATA / "desk_a.bs")
        m2 = load_structure(DATA / "desk_b_disjoint.bs")
        rows = json.loads((GOLDEN / "survey_disjoint.txt").read_text("utf-8"))
        assert rows == [
            report_to_obj(oracle_monotonic_step(m1, m2, parse_rule(rule)))
            for rule in self.SURVEY_RULES]

    def test_sweep_dempster(self):
        lines = (GOLDEN / "sweep_dempster.txt").read_text("utf-8") \
            .splitlines()
        assert lines[0] == ("alpha,alpha_exact,beta,beta_exact,K,K_exact,"
                            "bel_A,bel_A_exact,pl_A,pl_A_exact,violation")
        rows = [line.split(",") for line in lines[1:]]
        grid = self.SWEEP_GRID
        assert [(F(row[1]), F(row[3])) for row in rows] == \
            [(alpha, beta) for alpha in grid for beta in grid]
        frame = Frame("abcd")
        a_set, b_set = frame.subset("ab"), frame.subset("cd")
        for row in rows:
            alpha, beta = F(row[1]), F(row[3])
            m1 = BeliefStructure(frame, [(a_set, alpha),
                                         (frame.full, 1 - alpha)])
            m2 = BeliefStructure(frame, [(b_set, beta),
                                         (frame.full, 1 - beta)])
            combined = BeliefStructure(frame, [
                (frame.from_bits(bits), w)
                for bits, w in oracle_combine(m1, m2, DEMPSTER).items()])
            exact = [alpha, beta, oracle_conflict(m1, m2),
                     naive_bel(combined, a_set.bits),
                     naive_pl(combined, a_set.bits)]
            for column, value in enumerate(exact):
                assert F(row[2 * column + 1]) == value
                assert_decimal(row[2 * column], value)
            contained, _ = oracle_interval_contained(combined, m1)
            assert row[10] == ("false" if contained else "true")


class TestSweep:
    def test_zero_strengths_give_vacuous_and_no_violation(self):
        row, = sweep([0], [0], disjoint=True, rule=DEMPSTER)
        assert row.conflict == 0
        assert row.bel_a == 0 and row.pl_a == 1
        assert row.violation is False

    def test_dempster_formulas_on_the_disjoint_family(self):
        grid = [F(k, 20) for k in range(1, 20)]
        rows = sweep(grid, grid, disjoint=True, rule=DEMPSTER)
        for row in rows:
            alpha, beta = row.alpha, row.beta
            denom = 1 - alpha * beta
            assert row.conflict == alpha * beta
            assert row.bel_a == alpha * (1 - beta) / denom
            assert row.pl_a == (1 - alpha * beta - (1 - alpha) * beta) / denom
            assert row.bel_a < alpha
            assert row.violation is True

    def test_overlapping_family_never_violates(self):
        grid = [F(k, 20) for k in range(0, 21)]
        for rule in CELL_ROUTING_RULES:
            rows = sweep(grid, grid, disjoint=False, rule=rule)
            assert all(row.violation is False for row in rows)

    def test_yager_and_dubois_prade_agree_on_the_family(self):
        grid = [F(k, 10) for k in range(1, 10)]
        yager_rows = sweep(grid, grid, disjoint=True, rule=YAGER)
        dp_rows = sweep(grid, grid, disjoint=True, rule=DUBOIS_PRADE)
        for y, d in zip(yager_rows, dp_rows):
            assert y.bel_a == d.bel_a == y.alpha * (1 - y.beta)
            assert y.pl_a == d.pl_a == 1 - (1 - y.alpha) * y.beta

    def test_priority_first_keeps_full_belief(self):
        grid = [F(k, 20) for k in range(0, 21)]
        rows = sweep(grid, grid, disjoint=True, rule=PRIORITY_FIRST)
        for row in rows:
            assert row.bel_a == row.alpha
            assert row.violation is False

    def test_dempster_total_conflict_row_is_infeasible(self):
        rows = sweep([F(1)], [F(1, 2), F(1)], disjoint=True, rule=DEMPSTER)
        assert not rows[0].infeasible
        assert rows[1].infeasible
        assert rows[1].bel_a is None

    def test_grid_out_of_range(self):
        with pytest.raises(GridOutOfRange):
            sweep([F(3, 2)], [F(1, 2)], disjoint=True, rule=DEMPSTER)
        with pytest.raises(GridOutOfRange):
            sweep([F(1, 2)], ["-1/2"], disjoint=True, rule=DEMPSTER)

    @pytest.mark.parametrize("alpha, beta, line", [
        (F(1, 2), F(1, 2), "0.500000,1/2,0.500000,1/2,0.250000,1/4,"
                           "0.250000,1/4,0.500000,1/2,"),
        (F(1), F(1), "1.000000,1,1.000000,1,1.000000,1,0.000000,0,"
                     "0.000000,0,"),
    ], ids=["half", "total-conflict"])
    def test_subnormal_row_leaves_the_verdict_blank(self, alpha, beta, line):
        rows = sweep([alpha], [beta], disjoint=True, rule=UNNORMALIZED)
        assert rows[0].violation is None and not rows[0].infeasible
        assert sweep_csv(rows).splitlines()[1] == line

    def test_csv_shape(self):
        rows = sweep([F(3, 5), F(1)], [F(1, 2), F(1)], disjoint=True,
                     rule=DEMPSTER)
        text = sweep_csv(rows)
        lines = text.splitlines()
        assert lines[0] == ("alpha,alpha_exact,beta,beta_exact,K,K_exact,"
                            "bel_A,bel_A_exact,pl_A,pl_A_exact,violation")
        assert lines[1] == ("0.600000,3/5,0.500000,1/2,0.300000,3/10,"
                            "0.428571,3/7,0.714286,5/7,true")
        # alpha = beta = 1 is total conflict: empty value cells
        assert lines[4] == "1.000000,1,1.000000,1,1.000000,1,,,,,infeasible"
        assert len(lines) == 5
