"""The entailment ordering between belief structures.

A specific structure entails a general one when the general structure can be
reached by relocating mass onto supersets.  Two predicates are exposed:

* :func:`partition_entails`, the grouping form.  The specific structure's
  focal elements are partitioned into groups, one group per focal element B
  of the general structure; every member of B's group must be contained in B
  and the group's masses must sum exactly to the general mass of B.  Each
  specific focal element therefore sends its whole mass to a single general
  focal element: no mass splitting.

* :func:`flow_entails`, the transport generalization.  Mass may split: a
  witness is any nonnegative transport w(A, B) supported on contained pairs
  A <= B whose row sums equal the specific masses and whose column sums
  equal the general masses.  Decided exactly by an integer max-flow on the
  bipartite containment graph, with the masses scaled to integers.

Every partition witness is a flow witness, so partition entailment implies
flow entailment; flow entailment is the weaker and more useful relation
(weakening a typicality strength, for instance, is licensed by flow but not
by partition).  For normal structures, flow entailment implies that every
subset's probability interval in the specific structure is contained in the
general structure's interval; :func:`interval_contained` checks that
consequence exhaustively.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm
from operator import add

from .core import (
    ZERO,
    BeliefStructure,
    FocalSet,
    MassLike,
    _check_frame,
    _num_text,
    _typical_form,
    _Value,
    _zeta,
    to_mass,
)
from .errors import (
    EmptyTarget,
    NotTypicalForm,
    SearchBudgetExceeded,
    StrengthIncrease,
    SubnormalInput,
)

PARTITION_NODE_BUDGET = 1_000_000
"""Most placements :func:`partition_entails` tries before it gives up."""


class EntailmentWitness(_Value):
    """Evidence that one structure entails another.

    ``triples`` lists (specific focal, general focal, transported mass) with
    the specific focal contained in the general one.  ``mode`` is "flow"
    or "partition"; for a partition every specific focal appears in
    exactly one triple, carrying its full mass.
    """

    _fields = ("mode", "triples")

    @property
    def assignment(self) -> dict[FocalSet, FocalSet]:
        """Partition view: the general focal each specific focal feeds."""
        if self.mode != "partition":
            raise ValueError("assignment view is only defined for partition "
                             "witnesses")
        return {a: b for a, b, _ in self.triples}


def validate_witness(specific: BeliefStructure, general: BeliefStructure,
                     witness: EntailmentWitness) -> bool:
    """Re-check a witness against the two structures, without searching.

    Verifies containment on every triple, positive weights, exact row sums
    against the specific masses, exact column sums against the general
    masses, and (for partition mode) that no specific focal is split.
    """
    _check_frame(specific.frame, general, BeliefStructure)
    rows: dict[FocalSet, Fraction] = {}
    cols: dict[FocalSet, Fraction] = {}
    for a, b, w in witness.triples:
        if (a.frame != specific.frame or b.frame != specific.frame
                or w <= 0 or not a.issubset(b)):
            return False
        rows[a] = rows.get(a, ZERO) + w
        cols[b] = cols.get(b, ZERO) + w
    if rows != dict(specific.items()) or cols != dict(general.items()):
        return False
    # a partition witness names each specific focal once
    return witness.mode != "partition" or len(rows) == len(witness.triples)


def partition_entails(m1: BeliefStructure,
                      m2: BeliefStructure) -> EntailmentWitness | None:
    """Grouping-form entailment of the general m2 by the specific m1.

    Searches for an assignment of each focal element of m1 to one focal
    element of m2 containing it, such that the masses assigned to each focal
    B of m2 sum exactly to m2(B).  Exact depth-first backtracking on an
    explicit stack, after a flow check (no transport, no partition); more
    than :data:`PARTITION_NODE_BUDGET` placements raise
    :class:`SearchBudgetExceeded`.
    """
    if flow_entails(m1, m2) is None:
        return None
    specific, general, scale, fits = _transport_problem(m1, m2)
    # Largest specific masses first: they are the hardest to place, so they
    # prune earliest.  Candidate order by bitmask keeps the result
    # deterministic.  Both sides sum to the scale, so placing every specific
    # focal leaves every residual at 0.
    order = sorted(range(len(specific)),
                   key=lambda i: (-specific[i][1], specific[i][0]))
    mass = [specific[i][1] for i in order]
    residual = [w for _, w in general]
    tries, chosen, nodes = [], [], 0  # per depth: candidates left, pick
    while len(chosen) < len(order):
        k = len(chosen)
        if len(tries) == k:
            tries.append(iter(fits[order[k]]))
        j = next((j for j in tries[k] if residual[j] >= mass[k]), None)
        if j is None:
            tries.pop()
            if not chosen:
                return None
            residual[chosen.pop()] += mass[k - 1]
            continue
        nodes += 1
        if nodes > PARTITION_NODE_BUDGET:
            raise SearchBudgetExceeded(f"partition search gave up after "
                                       f"{PARTITION_NODE_BUDGET} placements")
        residual[j] -= mass[k]
        chosen.append(j)
    pairing = dict(zip(order, chosen))
    focal = {b: m1.frame.from_bits(b) for b, _ in specific + general}
    return EntailmentWitness("partition", tuple(
        (focal[a], focal[general[pairing[i]][0]], Fraction(w, scale))
        for i, (a, w) in enumerate(specific)))


def _transport_problem(m1: BeliefStructure, m2: BeliefStructure):
    """Both (bitmask, numerator) lists, in bitmask order, over one common
    denominator, the lcm of theirs, that denominator and, per specific
    focal, the general focals containing it; the two must share a frame."""
    _check_frame(m1.frame, m2, BeliefStructure)
    scale = lcm(m1._den, m2._den)
    specific, general = ([(bits, w * (scale // m._den))
                          for bits, w in m._nums.items()] for m in (m1, m2))
    return specific, general, scale, [
        [j for j, (b, _) in enumerate(general) if a & b == a]
        for a, _ in specific]


def _max_flow(cap: dict[int, dict[int, int]], source: int, sink: int) -> None:
    """Edmonds-Karp on the residual capacities ``cap[u][v]``, in place: the
    flow on an edge ends as the capacity of its reverse.  Each augmenting
    path is a shortest one, found breadth-first with neighbours in insertion
    order and cut short at the first node found with room to the sink.
    """
    while True:
        prev, queue = {source: source}, deque([source])
        while queue and sink not in prev:
            u = queue.popleft()
            for v, room in cap[u].items():
                if room and v not in prev:
                    prev[v] = u
                    queue.append(v)
                    if cap[v].get(sink):
                        prev[sink] = v
                        break
        if sink not in prev:
            return
        path = [sink]
        while path[-1] != source:
            path.append(prev[path[-1]])
        _augment(cap, path, min(cap[u][v] for u, v in zip(path[1:], path)))


def _augment(cap: dict[int, dict[int, int]], path: list[int],
             delta: int) -> None:
    """Send ``delta`` along ``path``, given from the sink back to the
    source, edge by edge in that order."""
    for u, v in zip(path[1:], path):
        cap[u][v] -= delta
        cap[v][u] = cap[v].get(u, 0) + delta


def flow_entails(m1: BeliefStructure,
                 m2: BeliefStructure) -> EntailmentWitness | None:
    """Transport-form entailment of the general m2 by the specific m1.

    Decided by an exact integer max-flow, Edmonds-Karp's shortest augmenting
    paths (:func:`_max_flow`).  Rows are the focal elements of m1, columns
    those of m2, both in bitmask order, and paths augment from the rows in
    that order; supplies and demands are the masses scaled by their lcm; a
    row feeds a column that contains its set.  A witness exists iff the flow
    carries the whole unit of mass; its weights are exact (flow over the
    scale) and its triples come sorted by specific, then general bitmask.

    A one-row Hall bound comes first: a row whose supply exceeds the total
    demand of the columns containing it cannot be transported, so the
    answer is None without a max-flow (and the same as the max-flow's).

    Edmonds-Karp's first phase, the paths source -> row -> column -> sink,
    then runs in one pass with no search: rows in bitmask order, each
    feeding its columns in order with the least of the supply and demand
    left, ``cap`` updated edge by edge as :func:`_augment` does.  This is
    the path sequence the search itself would take.  Its breadth-first
    search pops every row before any column, so while a path of three
    edges exists it takes the first row with supply left and that row's
    first column with demand left; such a path uses forward edges only,
    so a row or column it drains never gets room back in this phase.
    Shortest-path lengths never fall under Edmonds-Karp, so no path of
    three edges comes back later, and the max-flow that finishes the
    transport finds every dict with the same keys in the same order.  The
    witness is therefore the plain max-flow's, not just a valid one.
    """
    specific, general, scale, adj = _transport_problem(m1, m2)
    if any(w > sum(general[j][1] for j in adj[i])
           for i, (_, w) in enumerate(specific)):
        return None
    rows, source, sink = len(specific), -1, -2
    cap = {source: {i: w for i, (_, w) in enumerate(specific)}, sink: {}}
    cap.update((i, {rows + j: scale for j in adj[i]}) for i in range(rows))
    cap.update((rows + j, {sink: w}) for j, (_, w) in enumerate(general))
    supply = cap[source]
    for i in range(rows):
        for col in (rows + j for j in adj[i]):
            delta = min(supply[i], cap[col][sink])
            if delta:
                _augment(cap, [sink, col, i, source], delta)
            if not supply[i]:
                break
    _max_flow(cap, source, sink)
    if sum(cap[sink].values()) != scale:
        return None
    focal = {b: m1.frame.from_bits(b) for b, _ in specific + general}
    return EntailmentWitness("flow", tuple(
        (focal[a], focal[general[j][0]], Fraction(cap[rows + j][i], scale))
        for i, (a, _) in enumerate(specific) for j in adj[i]
        if cap[rows + j].get(i)))


def interval_contained(
        m1: BeliefStructure,
        m2: BeliefStructure) -> tuple[bool, FocalSet | None]:
    """Check [bel1, pl1] <= [bel2, pl2] containment on every subset.

    Exhaustive over all 2**n subsets: an integer zeta transform
    (:func:`core._zeta`) of the signed difference m1 - m2 of the non-empty
    masses, both scaled by the lcm of their denominators, gives d(S) =
    (bel1(S) - bel2(S)) * scale, and d(X) = (tot1 - tot2) * scale for the
    non-empty totals.  Since pl(S) = tot - bel(X - S), also for subnormal
    structures, S violates containment exactly when d(S) < 0 (bel2 above
    bel1) or d(X - S) < d(X) (pl1 above pl2).  Returns (True, None) on
    success, else (False, first violating subset in bitmask order).

    The masks are decided in prefixes S < 2**j, one atom more at a time,
    so a check pays only for the levels up to its first violator.  Level j
    holds two tables of 2**j entries, with low = 2**j - 1: ``inner[S]`` is
    d(S), the bottom block of the full table, and ``outer[L]`` is d(L |
    (X - low)), its top block, so outer[low ^ S] is d(X - S) and
    outer[low] is d(X).  Level k = n // 2 comes from the focal elements:
    ``inner`` transforms the differences on those inside low, ``outer``
    every difference at its bits & low (a focal element misses S just
    when its low bits do).

    Past level k, the steps read ``delta``, one (bits, scaled numerator)
    pair per non-empty focal element of either side, made once level k
    finds no violator.  With T the j-bit transform, the step to j + 1
    gives inner T(B)[L] + inner[L] for its new masks 2**j + L, B holding
    at bits - 2**j the pairs whose top bit is j, and puts T(F) in front
    of outer, F holding at its low j bits every pair with bit j clear
    (the elements that can lie inside L | (X - 2**(j + 1) + 1)).  Only
    the new masks are tested.  At level n - 1 the two tables are the
    halves of the full table, so the top half is tested on them with no
    transform.
    """
    _check_frame(m1.frame, m2, BeliefStructure)
    n = m1.frame._table_atoms("exhaustive interval check")
    den = lcm(m1._den, m2._den)
    signed = ((m1._nums, den // m1._den), (m2._nums, -(den // m2._den)))
    k = n // 2
    low = (1 << k) - 1
    inner, outer = [0] * (low + 1), [0] * (low + 1)
    for nums, scale in signed:
        for bits, w in nums.items():
            if bits:  # empty-set mass counts toward neither bel nor pl
                w *= scale
                outer[bits & low] += w
                if bits <= low:
                    inner[bits] += w
    _zeta(inner, k)
    _zeta(outer, k)
    gap = outer[low]
    mask = _first_violator(inner, outer, gap)
    if mask is not None:
        return False, m1.frame.from_bits(mask)
    delta = [(bits, w * scale) for nums, scale in signed
             for bits, w in nums.items() if bits]
    for j in range(k, n - 1):
        half = 1 << j
        new, front = [0] * half, [0] * half
        for bits, w in delta:
            if not bits & half:
                front[bits & half - 1] += w
            elif bits < half << 1:
                new[bits - half] += w
        _zeta(new, j)
        _zeta(front, j)
        new[:] = map(add, new, inner)
        mask = _first_violator(new, front, gap)
        if mask is not None:
            return False, m1.frame.from_bits(half + mask)
        inner += new
        outer[:0] = front
    mask = _first_violator(outer, inner, gap)
    if mask is None:
        return True, None
    return False, m1.frame.from_bits(len(inner) + mask)


def _first_violator(below: list[int], above: list[int],
                    gap: int) -> int | None:
    """The first mask S with below[S] < 0 or above[last ^ S] < gap, if
    any; above[last ^ S] is above[last - S], the reversed list at S.  The
    two minima come first: most tables hold no violator."""
    if min(below) >= 0 and min(above) >= gap:
        return None
    return next((mask for mask, (inside, rest)
                 in enumerate(zip(below, reversed(above)))
                 if inside < 0 or rest < gap), None)


def weaken_to(m: BeliefStructure, target: FocalSet) -> BeliefStructure:
    """Coarsen a normal structure to the two-focal form on a target set.

    The result puts bel(m, target) on the target and the rest on the full
    set, degenerating to a single focal when that belief is 0 or 1.  The
    input always flow-entails the result.
    """
    if m.is_subnormal:
        raise SubnormalInput("weakening is defined for normal structures")
    if target.is_empty:
        raise EmptyTarget("cannot weaken toward the empty set")
    return BeliefStructure._from_form(m.frame, *_typical_form(
        target.bits, m.frame.full.bits, m.bel(target)))


def hedge(m: BeliefStructure, new_strength: MassLike) -> BeliefStructure:
    """Lower the strength of a typicality structure {B: s, X: 1-s}.

    Hedging to any smaller strength is always licensed: the original
    structure flow-entails the hedged one.  Raising the strength is not.
    """
    full, nums = m.frame.full.bits, m._nums
    body = next(iter(nums))  # bitmask order: X, the largest, comes last
    if len(nums) != 2 or full not in nums or not body:
        raise NotTypicalForm(
            "expected a two-focal structure {B: s, X: 1-s} with B a proper "
            "non-empty subset")
    strength = Fraction(nums[body], m._den)
    lowered = to_mass(new_strength)
    if lowered > strength:
        raise StrengthIncrease(
            f"cannot raise strength from {_num_text(strength)} to "
            f"{_num_text(lowered)}")
    return BeliefStructure._from_form(m.frame, *_typical_form(
        body, full, lowered))
