"""Conjunctive combination of belief structures under conflict-handling rules.

Every pairwise combination starts from the same product table: one cell per
pair of focal elements, weighted by the product of their masses.  A cell
whose sets intersect always contributes its weight to the intersection.  The
rules differ only in where a *conflicting* cell (empty intersection) sends
its weight, and ``_CONFLICT_TARGET`` is the one list of these kinds:

* ``dempster``        drop it and renormalize the rest by 1/(1-K);
* ``yager``           send it to the full set X;
* ``dubois-prade``    send it to the union of the two sets;
* ``unnormalized``    keep it on the empty set (result is subnormal);
* ``priority-first``  send it to the left operand's set;
* ``priority-second`` send it to the right operand's set.

``discount:<c>`` ignores the product table entirely and returns the pointwise
mixture c*m1 + (1-c)*m2.

The table is never built cell by cell.  A structure stores its integer form
(bitmask -> numerator over one common denominator).  The one fold,
:func:`_fold`, takes numbered forms in (a structure's or a statement's), in
the order given, and makes one product pass per step: it routes each cell's
weight and sums K, taking the full set's row (X & a = a) as one scaled copy,
and builds one structure at the end.  After each row, it and a survey's
derived results raise FoldTooLarge past :data:`FOLD_FOCAL_BUDGET` focal
elements.  :func:`conflict_mass` sums K cell by cell with no table.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .core import (ZERO, ONE, BeliefStructure, FocalSet, Frame, MassLike,
                   _check_frame, _check_printable, _num_text, _Value,
                   mass_str, to_mass)
from .errors import (EmptyTarget, FoldTooLarge, SubnormalInput,
                     TotalConflict, _text)

FOLD_FOCAL_BUDGET = 200_000
"""The most focal elements a fold's product pass may build; one more
raises :class:`FoldTooLarge` as the row that adds it is done."""


# Where each rule sends a conflicting cell (a & b == 0); None drops it.
_CONFLICT_TARGET = {
    "dempster": None, "yager": lambda a, b, full: full,
    "dubois-prade": lambda a, b, full: a | b,
    "unnormalized": lambda a, b, full: 0,
    "priority-first": lambda a, b, full: a,
    "priority-second": lambda a, b, full: b}


class CombinationRule(_Value):
    """A combination rule, checked as built; ``param`` is discount's c."""

    _fields = ("kind", "param")
    _defaults = (None,)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        kind, c = self.kind, self.param
        if isinstance(kind, str) and kind in _CONFLICT_TARGET:
            if c is not None:
                raise ValueError(f"rule {kind} takes no parameter")
        elif kind != "discount":
            raise ValueError(f"unknown combination rule {_text(kind)}")
        elif isinstance(c, bool) or not isinstance(c, (int, Fraction)):
            raise ValueError(f"discount weight {_text(c)} is not a fraction")
        elif not 0 <= c <= 1:
            raise ValueError(
                f"discount weight {_num_text(c)} is outside [0, 1]")
        else:  # so that every rule prints as the name parse_rule reads
            _check_printable(c)

    def __str__(self) -> str:
        param = "" if self.param is None else f":{mass_str(self.param)}"
        return self.kind + param


CELL_ROUTING_RULES = tuple(map(CombinationRule, _CONFLICT_TARGET))
(DEMPSTER, YAGER, DUBOIS_PRADE, UNNORMALIZED, PRIORITY_FIRST,
 PRIORITY_SECOND) = CELL_ROUTING_RULES


def discount(c: MassLike) -> CombinationRule:
    """Pointwise mixture rule c*m1 + (1-c)*m2 with 0 <= c <= 1."""
    return CombinationRule("discount", to_mass(c))


def parse_rule(text: str) -> CombinationRule:
    """Parse a rule name as used on the CLI and in JSON."""
    name = text.strip()
    for rule in CELL_ROUTING_RULES:
        if name == rule.kind:
            return rule
    if name.startswith("discount:"):
        return discount(name.removeprefix("discount:"))
    raise ValueError(f"unknown combination rule {_text(text)}")


def conflict_mass(m1: BeliefStructure, m2: BeliefStructure) -> Fraction:
    """The conflict K: total product weight landing on empty intersections,
    summed cell by cell with no table (subnormal input is counted too)."""
    _check_frame(m1.frame, m2, BeliefStructure)
    n2 = m2._nums.items()
    return Fraction(sum(wa * wb for a, wa in m1._nums.items()
                        for b, wb in n2 if not a & b), m1._den * m2._den)


def possibility(b: FocalSet, a: FocalSet) -> Fraction:
    """Crisp possibility of b given a: 1 if they intersect, else 0.

    The conditioning set a must be non-empty.
    """
    if a.is_empty:
        raise EmptyTarget("possibility is conditioned on a non-empty set")
    return ONE if a.intersects(b) else ZERO


def _past_budget(index: int) -> FoldTooLarge:
    return FoldTooLarge(
        f"more than {FOLD_FOCAL_BUDGET} focal elements while combining "
        f"statement {index} into the running result", statement_index=index)


def _fold(frame: Frame,
          forms: Iterable[tuple[int, tuple[dict[int, int], int]]],
          rule: CombinationRule):
    """The left fold of one or more integer forms on one frame, in the
    order given, built into one structure at the end, and the last step's
    conflict numerator K (None under discount, which mixes instead).  Each
    step is one pass over the product table that routes every cell by the
    rule and sums K.  Each form comes as (position from 1, form), and a
    TotalConflict names the position of the form that reached K = 1.

    The product pass checks its output's size once per row, X's row
    included: a result of more than :data:`FOLD_FOCAL_BUDGET` focal
    elements raises FoldTooLarge, which names the position of the form
    being combined in.  Discount's mixture holds no more focal elements
    than its two inputs together."""
    forms = iter(forms)
    full = frame.full.bits  # read once: each read builds a new FocalSet
    route = _CONFLICT_TARGET.get(rule.kind)
    nums, den = next(forms)[1]
    conflict = None
    for index, (n2, d2) in forms:
        if 0 in nums or 0 in n2:  # which lets X's row below copy nums
            raise SubnormalInput(
                "combination requires normal input structures")
        if rule.kind == "discount":
            p, q = rule.param.numerator, rule.param.denominator
            out = {a: p * d2 * w for a, w in nums.items()}
            for b, w in n2.items():
                out[b] = out.get(b, 0) + (q - p) * den * w
            nums = {f: w for f, w in out.items() if w}  # c = 0 or c = 1
            den *= q * d2
            continue
        wx = n2.get(full)
        out = {a: wa * wx for a, wa in nums.items()} if wx else {}
        if len(out) > FOLD_FOCAL_BUDGET:  # X's row, checked as each below
            raise _past_budget(index)
        conflict = 0
        # n2 outside: a fold step's right operand is the small one
        for b, wb in n2.items():
            if b == full:
                continue
            for a, wa in nums.items():
                w = wa * wb
                target = a & b
                if not target:
                    conflict += w
                    if route is None:
                        continue
                    target = route(a, b, full)
                out[target] = out.get(target, 0) + w
            if len(out) > FOLD_FOCAL_BUDGET:  # no cell removes a target
                raise _past_budget(index)
        nums = out
        # Dempster renormalizes by 1 / (1 - K); at K = 1 nothing is left
        den = den * d2 - (conflict if rule.kind == "dempster" else 0)
        if not den:
            raise TotalConflict(
                f"total conflict (K = 1) while combining statement "
                f"{index} into the running result", statement_index=index)
    return BeliefStructure._from_form(
        frame, nums, den, subnormal=rule.kind == "unnormalized"), conflict


def _forms(items: Sequence[BeliefStructure]):
    """Each structure's numbered integer form, its frame checked as the
    fold gets it."""
    for position, m in enumerate(items, 1):
        _check_frame(items[0].frame, m, BeliefStructure)
        yield position, (m._nums, m._den)


def _combine_with_conflict(m1: BeliefStructure, m2: BeliefStructure,
                           rule: CombinationRule):
    """:func:`combine` and the pair's conflict K, from the same product
    pass; discount, which mixes instead, makes a pass for K alone."""
    result, conflict = _fold(m1.frame, _forms((m1, m2)), rule)
    return result, (conflict_mass(m1, m2) if conflict is None
                    else Fraction(conflict, m1._den * m2._den))


def combine(m1: BeliefStructure, m2: BeliefStructure,
            rule: CombinationRule = DEMPSTER) -> BeliefStructure:
    """Combine two normal structures under the given rule.

    Output masses are exact rationals summing to 1; coinciding target sets
    merge.  Only the unnormalized rule may yield a subnormal result (it does
    exactly when the conflict K is positive).  Dempster raises TotalConflict
    at K = 1, where its normalization divides by zero.
    """
    return combine_all((m1, m2), rule)


def combine_all(structures: Sequence[BeliefStructure] |
                Iterable[BeliefStructure],
                rule: CombinationRule = DEMPSTER) -> BeliefStructure:
    """Strict left fold of combine over a non-empty list, in list order.

    Dempster is associative and commutative, so its fold is order
    independent; for the other rules the input order is part of the answer.
    The fold runs on integer forms and builds one structure at the end (a
    single item is returned unchanged).  A TotalConflict carries in
    ``statement_index`` the position, from 1, of the structure whose
    combination reached K = 1, and a FoldTooLarge that of the structure
    whose combination passed :data:`FOLD_FOCAL_BUDGET` focal elements.
    """
    items = list(structures)
    if not items:
        raise ValueError("combine_all needs at least one structure")
    return (items[0] if len(items) == 1
            else _fold(items[0].frame, _forms(items), rule)[0])
