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

A survey gets K and every rule's result from :func:`_results`.  A rule
list with a cell-routing rule makes the unnormalized product once and
reads K and every cell-routing result off it.  At K = 0 each of them is
the product, and at K > 0 the unnormalized result still is.  Each other
one is the product's non-empty part plus every conflicting cell m1(A) *
m2(B), routed a row of m1 at a time where the rule sends it: to X for
Yager, to A | B for Dubois-Prade (Dubois and Prade 1988) and to A or to
B for the priority rules; a result past FOLD_FOCAL_BUDGET focal elements
after a row raises FoldTooLarge at statement 2, as the fold does.
Dempster's drops those cells and renormalizes the rest (Smets 1990).
Discount, which mixes instead, makes a pass of its own; a list of
discount rules alone builds no product and sums K cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combine import (_CONFLICT_TARGET, FOLD_FOCAL_BUDGET, UNNORMALIZED,
                      CombinationRule, _combine_with_conflict, _past_budget,
                      combine, conflict_mass)
from .core import (
    ONE,
    ZERO,
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


def _results(m1: BeliefStructure, m2: BeliefStructure,
             rules: list[CombinationRule]):
    """The pair's K and each rule's result, in rule order (None for
    Dempster at K = 1), every cell-routing one read off the one
    unnormalized product (see the module docstring)."""
    kinds = {rule.kind for rule in rules} - {"discount"}
    if kinds:
        product, conflict = _combine_with_conflict(m1, m2, UNNORMALIZED)
    else:
        product, conflict = None, conflict_mass(m1, m2) if rules else ZERO
    derived = dict.fromkeys(kinds, product)
    if kinds and conflict:
        frame, den = product.frame, m1._den * m2._den
        full, scale = frame.full.bits, den // product._den
        kept = {bits: w * scale for bits, w in product._nums.items() if bits}
        if "dempster" in kinds:  # drop the conflicting cells, renormalize
            derived["dempster"] = BeliefStructure._from_form(
                frame, kept, sum(kept.values())) if kept else None
        routed = [(kind, _CONFLICT_TARGET[kind], dict(kept))
                  for kind in kinds - {"dempster", "unnormalized"}]
        for a, wa in m1._nums.items() if routed else ():
            for b, wb in m2._nums.items():
                if not a & b:
                    w = wa * wb
                    for _, route, out in routed:
                        target = route(a, b, full)
                        out[target] = out.get(target, 0) + w
            for _, _, out in routed:
                if len(out) > FOLD_FOCAL_BUDGET:  # no cell removes a target
                    raise _past_budget(2)
        for kind, _, out in routed:
            derived[kind] = BeliefStructure._from_form(frame, out, den)
    return conflict, [derived[rule.kind] if rule.kind in derived
                      else combine(m1, m2, rule) for rule in rules]


def _infeasible(rule: CombinationRule) -> MonotonicityReport:
    return MonotonicityReport(rule, ONE, False, False, False, False, None,
                              None, None, infeasible=True)


def pairwise_survey(m1: BeliefStructure, m2: BeliefStructure,
                    rules: list[CombinationRule]) -> list[MonotonicityReport]:
    """One report per rule over the same pair, in the given rule order.

    A rule that cannot run (Dempster at K = 1) contributes a report marked
    infeasible instead of aborting the survey; its conflict K is 1.  K and
    every rule's result come from :func:`_results` (see the module
    docstring).
    """
    conflict, results = _results(m1, m2, rules)
    return [_infeasible(rule) if combined is None
            else _verdicts(m1, m2, rule, combined, conflict)
            for rule, combined in zip(rules, results)]


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
