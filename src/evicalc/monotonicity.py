"""Monotonicity analysis of evidence aggregation.

Combining in a new piece of evidence is *monotonic* when the combined
structure still entails the old aggregate, so that every inference licensed
before is still licensed after.  Two readings are reported side by side:

* structural: the combined structure flow-entails the input (meaningful
  even when the combined structure is subnormal);
* observable: every subset's probability interval in the combined structure
  is contained in the input's interval (checked exhaustively; undefined for
  subnormal results, which is recorded rather than guessed).

Conflict (K > 0) is what breaks monotonicity, and different normalization
rules break it differently; the survey and sweep helpers map that behavior
out.  A step settles each (combined, input) verdict by the first exact fact
that applies, and runs a max-flow only when none does: (1) the product
table's certificate: every cell moves m1(A) * m2(B) onto a subset of A and
of B, so at K = 0 every cell-routing rule's result flow-entails both
inputs, at K > 0 the unnormalized result still entails both, and a
priority rule's result the operand it routes conflict to (a certified
normal result keeps that input's intervals too); (2) an interval violation
on a normal result, which proves that no flow exists; (3)
:func:`flow_entails`, whose one-row Hall bound refutes before any max-flow.

A survey makes the unnormalized product at most once per pair and reads
from it every result that needs no other routing: the unnormalized result
is the product itself, Dempster's drops its mass on the empty set and
renormalizes the rest (Smets 1990), Yager's moves that mass to X (Yager
1987), and at K = 0 every cell-routing rule gives the product.  Only
Dubois-Prade and the priority rules at K > 0, which route each conflicting
cell apart, and discount, which mixes instead, make a pass of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combine import (_CONFLICT_TARGET, UNNORMALIZED, CombinationRule,
                      _combine_with_conflict)
from .core import (
    ONE,
    BeliefStructure,
    FocalSet,
    Frame,
    MassLike,
    _num_text,
    _parse_mass,
    _typical_form,
    _Value,
    decimal6,
    mass_str,
)
from .errors import GridOutOfRange, TotalConflict
from .entailment import flow_entails, interval_contained


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of one aggregation step, from both monotonicity angles.

    ``interval_skipped`` is set when the combined structure is subnormal:
    interval containment is undefined there, so both interval flags read
    False with no witness.  ``infeasible`` marks a step the rule cannot
    perform at all (Dempster under total conflict), in which case
    ``combined`` is None and every flag is False.
    """

    rule: CombinationRule
    conflict: Fraction
    entails_first: bool
    entails_second: bool
    interval_ok_first: bool
    interval_ok_second: bool
    witness_first: FocalSet | None
    witness_second: FocalSet | None
    combined: BeliefStructure | None
    interval_skipped: bool = False
    infeasible: bool = False


# Which inputs a rule's result is certain to flow-entail when K > 0
_CERTIFIED = {"unnormalized": (True, True), "priority-first": (True, False),
              "priority-second": (False, True)}


def monotonic_step(m_star: BeliefStructure, m_next: BeliefStructure,
                   rule: CombinationRule) -> MonotonicityReport:
    """Combine one more structure and report whether monotonicity survived.

    Each verdict comes from the first fact that decides it (see the module
    docstring): the product table's certificate, an interval violation on a
    normal result, then :func:`flow_entails`.
    """
    combined, conflict = _combine_with_conflict(m_star, m_next, rule)
    return _verdicts(m_star, m_next, rule, combined, conflict)


def _verdicts(m_star: BeliefStructure, m_next: BeliefStructure,
              rule: CombinationRule, combined: BeliefStructure,
              conflict: Fraction) -> MonotonicityReport:
    """The report of a step whose result under ``rule`` is ``combined``."""
    skipped = combined.is_subnormal
    certified = ((rule.kind != "discount",) * 2 if not conflict
                 else _CERTIFIED.get(rule.kind, (False, False)))
    verdicts = []
    for m, sure in zip((m_star, m_next), certified):
        if sure:
            verdicts.append((True, not skipped, None))
            continue
        ok, witness = (False, None) if skipped \
            else interval_contained(combined, m)
        verdicts.append(((ok or skipped)
                         and flow_entails(combined, m) is not None,
                         ok, witness))
    (e1, ok1, w1), (e2, ok2, w2) = verdicts
    return MonotonicityReport(rule, conflict, e1, e2, ok1, ok2, w1, w2,
                              combined, interval_skipped=skipped)


def _from_product(m1: BeliefStructure, m2: BeliefStructure):
    """The pair's K and, by rule kind, each cell-routing result read off
    the one unnormalized product (None for Dempster at K = 1)."""
    product, conflict = _combine_with_conflict(m1, m2, UNNORMALIZED)
    if not conflict:
        return conflict, dict.fromkeys(_CONFLICT_TARGET, product)
    frame, nums, den = product.frame, product._nums, product._den
    kept = {bits: w for bits, w in nums.items() if bits}
    full = frame.full.bits
    moved = {**kept, full: kept.get(full, 0) + nums[0]}
    return conflict, {
        "unnormalized": product,
        "dempster": BeliefStructure._from_form(frame, kept, den - nums[0])
        if kept else None,
        "yager": BeliefStructure._from_form(frame, moved, den)}


def _infeasible(rule: CombinationRule) -> MonotonicityReport:
    return MonotonicityReport(rule, ONE, False, False, False, False, None,
                              None, None, infeasible=True)


def pairwise_survey(m1: BeliefStructure, m2: BeliefStructure,
                    rules: list[CombinationRule]) -> list[MonotonicityReport]:
    """One report per rule over the same pair, in the given rule order.

    A rule that cannot run (Dempster at K = 1) contributes a report marked
    infeasible instead of aborting the survey; its conflict K is 1.  The
    results that the unnormalized product gives (see the module docstring)
    come from one pass over it.
    """
    reports, derived = [], {}
    for rule in rules:
        if not derived and rule.kind != "discount":
            conflict, derived = _from_product(m1, m2)
        if rule.kind in derived:
            combined = derived[rule.kind]
            reports.append(_infeasible(rule) if combined is None
                           else _verdicts(m1, m2, rule, combined, conflict))
            continue
        try:
            reports.append(monotonic_step(m1, m2, rule))
        except TotalConflict:
            reports.append(_infeasible(rule))
    return reports


_SWEEP_FRAME = Frame(["a", "b", "c", "d"])


def canonical_pair(alpha: Fraction, beta: Fraction,
                   disjoint: bool) -> tuple[BeliefStructure, BeliefStructure,
                                            FocalSet, FocalSet]:
    """The two-focal study family on a 4-atom frame.

    m1 puts alpha on A = {a, b}; m2 puts beta on B = {c, d} (disjoint) or
    B = {b, c} (overlapping); the rest of each goes to the full set, for
    0 <= alpha, beta <= 1.  Returns (m1, m2, A, B).
    """
    frame = _SWEEP_FRAME
    a_set = frame.subset(["a", "b"])
    b_set = frame.subset(["c", "d"] if disjoint else ["b", "c"])
    m1, m2 = (BeliefStructure._from_form(
        frame, *_typical_form(focal.bits, frame.full.bits, s))
        for focal, s in ((a_set, alpha), (b_set, beta)))
    return m1, m2, a_set, b_set


class SweepRow(_Value):
    """One grid point of a sweep over the two-focal family.

    ``violation`` is the interval-escape verdict with respect to m1; it is
    None when undefined (subnormal combined structure) and the bel/pl fields
    are None when the rule is infeasible at the grid point.
    """

    _fields = ("alpha", "beta", "conflict", "bel_a", "pl_a", "violation",
               "infeasible")
    _defaults = (False,)


def sweep(alpha_grid: list[MassLike], beta_grid: list[MassLike],
          disjoint: bool, rule: CombinationRule) -> list[SweepRow]:
    """Evaluate a rule over a grid of strengths on the canonical family.

    Rows are emitted in grid order (alpha outer, beta inner).  Grid values
    outside [0, 1] raise GridOutOfRange.
    """
    def grid(values: list[MassLike]) -> list[Fraction]:
        out = []
        for raw in values:
            value = _parse_mass(raw)
            if not 0 <= value <= 1:
                raise GridOutOfRange(
                    f"grid value {_num_text(value)} is outside [0, 1]")
            out.append(value)
        return out

    alphas, betas = grid(alpha_grid), grid(beta_grid)
    rows = []
    for alpha in alphas:
        for beta in betas:
            m1, m2, a_set, _ = canonical_pair(alpha, beta, disjoint)
            try:
                combined, conflict = _combine_with_conflict(m1, m2, rule)
            except TotalConflict:
                rows.append(SweepRow(alpha, beta, ONE, None, None, None,
                                     infeasible=True))
                continue
            violation = (None if combined.is_subnormal
                         else not interval_contained(combined, m1)[0])
            rows.append(SweepRow(alpha, beta, conflict,
                                 combined.bel(a_set), combined.pl(a_set),
                                 violation))
    return rows


_CSV_HEADER = ("alpha,alpha_exact,beta,beta_exact,K,K_exact,"
               "bel_A,bel_A_exact,pl_A,pl_A_exact,violation")


def sweep_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows as CSV, decimals to 6 places beside exact fractions.

    Infeasible rows leave the bel/pl cells empty and say "infeasible" in the
    violation column; rows whose violation verdict is undefined (subnormal
    result) leave that column empty.
    """
    lines = [_CSV_HEADER]
    for row in rows:
        if row.infeasible:
            verdict = "infeasible"
        elif row.violation is None:
            verdict = ""
        else:
            verdict = "true" if row.violation else "false"

        def cell(value: Fraction | None) -> str:
            if value is None:
                return ","
            return f"{decimal6(value)},{mass_str(value)}"

        lines.append(",".join([
            cell(row.alpha), cell(row.beta), cell(row.conflict),
            cell(row.bel_a), cell(row.pl_a), verdict]))
    return "\n".join(lines) + "\n"
