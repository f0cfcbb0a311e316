"""Independent oracles and seeded random generators for the test suite.

Everything here recomputes results from first principles (naive subset
enumeration, literal cell-by-cell routing) so library outputs are checked
against a second, separately written path.
"""

from __future__ import annotations

import argparse
import random
from collections import deque
from fractions import Fraction
from itertools import product
from math import lcm

from evicalc import (
    BeliefStructure,
    CombinationRule,
    FocalSet,
    Frame,
    MonotonicityReport,
)
from evicalc.errors import ParseError, UnknownAtom

ATOMS = "abcdefghij"
NAME_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                       "0123456789_")


def naive_bel(m: BeliefStructure, bits: int) -> Fraction:
    """Belief by direct enumeration of focal elements."""
    return sum((w for f, w in m.items()
                if f.bits and f.bits & bits == f.bits), Fraction(0))


def naive_pl(m: BeliefStructure, bits: int) -> Fraction:
    return sum((w for f, w in m.items() if f.bits & bits), Fraction(0))


def oracle_zeta(values: list[int]) -> list[int]:
    """The subset sums of a table over n-bit masks, each summed directly
    over the masks inside it."""
    return [sum(v for mask, v in enumerate(values) if mask & bits == mask)
            for bits in range(len(values))]


def oracle_interval_contained(m1: BeliefStructure, m2: BeliefStructure):
    """Interval containment [bel1, pl1] <= [bel2, pl2] by direct enumeration
    of all 2**n subsets, as (verdict, first violating subset or None)."""
    for bits in range(1 << len(m1.frame)):
        if naive_bel(m2, bits) > naive_bel(m1, bits) \
                or naive_pl(m1, bits) > naive_pl(m2, bits):
            return False, m1.frame.from_bits(bits)
    return True, None


def oracle_combine(m1: BeliefStructure, m2: BeliefStructure,
                   rule: CombinationRule) -> dict[int, Fraction]:
    """Literal cell-routing reimplementation; returns bits -> mass."""
    out: dict[int, Fraction] = {}

    def add(bits: int, w: Fraction) -> None:
        out[bits] = out.get(bits, Fraction(0)) + w

    if rule.kind == "discount":
        for f, w in m1.items():
            add(f.bits, rule.param * w)
        for f, w in m2.items():
            add(f.bits, (1 - rule.param) * w)
        return out

    full = m1.frame.full.bits
    conflict = Fraction(0)
    for a, wa in m1.items():
        for b, wb in m2.items():
            w = wa * wb
            meet = a.bits & b.bits
            if meet:
                add(meet, w)
            elif rule.kind == "dempster":
                conflict += w
            elif rule.kind == "yager":
                add(full, w)
            elif rule.kind == "dubois-prade":
                add(a.bits | b.bits, w)
            elif rule.kind == "unnormalized":
                add(0, w)
            elif rule.kind == "priority-first":
                add(a.bits, w)
            elif rule.kind == "priority-second":
                add(b.bits, w)
            else:
                raise ValueError(f"no oracle for rule {rule}")
    if rule.kind == "dempster" and conflict:
        out = {bits: w / (1 - conflict) for bits, w in out.items()}
    return out


def oracle_conflict(m1: BeliefStructure, m2: BeliefStructure) -> Fraction:
    """The conflict K: the product weight of every pair of focal elements
    that do not intersect."""
    return sum((wa * wb for a, wa in m1.items() for b, wb in m2.items()
                if not a.bits & b.bits), Fraction(0))


def oracle_fold(structures: list[BeliefStructure], rule: CombinationRule):
    """Left fold of oracle_combine in list order, as ("ok", bits -> mass
    without zero masses).  A step that cannot run ends the fold, at the
    position i (from 1) of the structure it would take in: ("total
    conflict", i) when Dempster meets K = 1, and ("subnormal", i) when the
    running result already carries mass on the empty set."""
    frame = structures[0].frame
    out = structure_bits(structures[0])
    for index, m in enumerate(structures[1:], start=2):
        if out.get(0):
            return "subnormal", index
        running = BeliefStructure(frame, [(frame.from_bits(bits), w)
                                          for bits, w in out.items()])
        if rule.kind == "dempster" and oracle_conflict(running, m) == 1:
            return "total conflict", index
        out = oracle_combine(running, m, rule)
    return "ok", {bits: w for bits, w in out.items() if w}


def oracle_monotonic_step(m1: BeliefStructure, m2: BeliefStructure,
                          rule: CombinationRule) -> MonotonicityReport:
    """The report of one step with both checks run on both inputs:
    oracle_combine, then oracle_flow_entails and oracle_interval_contained
    against each input.  Dempster at K = 1 gives the survey's infeasible
    report."""
    conflict = oracle_conflict(m1, m2)
    if rule.kind == "dempster" and conflict == 1:
        return MonotonicityReport(rule, conflict, False, False, False, False,
                                  None, None, None, infeasible=True)
    frame = m1.frame
    combined = BeliefStructure(
        frame, [(frame.from_bits(bits), w)
                for bits, w in oracle_combine(m1, m2, rule).items()],
        subnormal=True)
    skipped = combined.is_subnormal
    entails = [oracle_flow_entails(combined, m) for m in (m1, m2)]
    (ok1, w1), (ok2, w2) = [
        (False, None) if skipped else oracle_interval_contained(combined, m)
        for m in (m1, m2)]
    return MonotonicityReport(rule, conflict, *entails, ok1, ok2, w1, w2,
                              combined, interval_skipped=skipped)


def oracle_statement_set(frame: Frame, body: str, line: int,
                         col: int) -> FocalSet:
    """The set a knowledge-base statement's braces name, or the error its
    body gives.  The parts between commas, stripped as ``str.strip`` does,
    are checked in three passes: a body of one blank part names no atom;
    then the first part that is not a run of ASCII letters, digits and
    underscores is a bad name; then the first name outside the frame is
    unknown (an error with no column)."""
    names = [part.strip() for part in body.split(",")]
    if names == [""]:
        raise ParseError("a statement set must name at least one atom",
                         line=line, col=col)
    for name in names:
        if not name or not NAME_CHARS.issuperset(name):
            raise ParseError(f"bad atom name {name!r}", line=line, col=col)
    for name in names:
        if name not in frame.atoms:
            raise UnknownAtom(name, line=line)
    return frame.from_bits(sum({1 << frame.atoms.index(name)
                                for name in names}))


def assert_decimal(text: str, value: Fraction) -> None:
    """``text`` is ``value`` to 6 places: within half a unit in the 6th."""
    assert abs(Fraction(text) - value) <= Fraction(1, 2 * 10**6)


def structure_bits(m: BeliefStructure) -> dict[int, Fraction]:
    return {f.bits: w for f, w in m.items()}


def random_frame(rng: random.Random, min_atoms: int = 2,
                 max_atoms: int = 6) -> Frame:
    return Frame(ATOMS[:rng.randint(min_atoms, max_atoms)])


def random_structure(rng: random.Random, frame: Frame,
                     max_focals: int = 4,
                     total: int | None = None) -> BeliefStructure:
    """A normal structure with random focal sets and integer-born masses;
    with ``total`` the masses are integers over that denominator."""
    n = len(frame)
    count = rng.randint(1, min(max_focals, (1 << n) - 1))
    if total is not None:
        count = min(count, total)
    masks = rng.sample(range(1, 1 << n), count)
    if total is None:
        weights = [rng.randint(1, 9) for _ in masks]
        total = sum(weights)
    else:
        weights = _split_weight(rng, total, count)
    return BeliefStructure(
        frame, [(frame.from_bits(bits), Fraction(w, total))
                for bits, w in zip(masks, weights)])


def _split_weight(rng: random.Random, weight: int, parts: int) -> list[int]:
    """Split a positive integer into `parts` positive integers."""
    parts = min(parts, weight)
    cuts = sorted(rng.sample(range(1, weight), parts - 1)) if parts > 1 else []
    edges = [0, *cuts, weight]
    return [b - a for a, b in zip(edges, edges[1:])]


def coarsen(rng: random.Random, m: BeliefStructure) -> BeliefStructure:
    """A structure flow-entailed by m, built by splitting each focal mass
    into parts and relocating every part to a random superset."""
    scale = lcm(*(w.denominator for _, w in m.items()))
    n = len(m.frame)
    general: dict[int, Fraction] = {}
    for focal, w in m.items():
        units = int(w * scale)
        for part in _split_weight(rng, units, rng.randint(1, 3)):
            sup = focal.bits | rng.getrandbits(n)
            general[sup] = general.get(sup, Fraction(0)) \
                + Fraction(part, scale)
    return BeliefStructure(
        m.frame, [(m.frame.from_bits(bits), w)
                  for bits, w in general.items()])


def entailing_pair(rng: random.Random, frame: Frame,
                   max_focals: int = 3) -> tuple[BeliefStructure,
                                                 BeliefStructure]:
    """A specific structure and a coarsening of it; the pair flow-entails
    by construction."""
    specific = random_structure(rng, frame, max_focals)
    return specific, coarsen(rng, specific)


def partition_pair(rng: random.Random, frame: Frame,
                   max_focals: int = 4) -> tuple[BeliefStructure,
                                                 BeliefStructure]:
    """A pair related by the grouping form of entailment: the specific
    focal elements are partitioned and each group's mass lands on one
    superset of all its members."""
    specific = random_structure(rng, frame, max_focals)
    items = list(specific.items())
    rng.shuffle(items)
    group_count = rng.randint(1, len(items))
    groups: list[list] = [[] for _ in range(group_count)]
    for i, item in enumerate(items):
        groups[i % group_count].append(item)
    n = len(frame)
    general: dict[int, Fraction] = {}
    for group in groups:
        union = 0
        mass = Fraction(0)
        for focal, w in group:
            union |= focal.bits
            mass += w
        sup = union | rng.getrandbits(n)
        general[sup] = general.get(sup, Fraction(0)) + mass
    return specific, BeliefStructure(
        frame, [(frame.from_bits(bits), w) for bits, w in general.items()])


def bridge_triple(rng: random.Random, frame: Frame,
                  max_focals: int = 3) -> tuple[BeliefStructure,
                                                BeliefStructure,
                                                BeliefStructure]:
    """Three structures where adjacent pairs never conflict but the outer
    pair may: the middle one's focal elements contain both pivot atoms.
    Both parenthesizations of a fold then keep normal intermediates."""
    n = len(frame)
    p = 1 << rng.randrange(n)
    q = 1 << rng.randrange(n)

    def build(anchor: int) -> BeliefStructure:
        count = rng.randint(1, max_focals)
        seen: dict[int, int] = {}
        for _ in range(count):
            bits = anchor | rng.getrandbits(n)
            seen[bits] = seen.get(bits, 0) + rng.randint(1, 9)
        total = sum(seen.values())
        return BeliefStructure(
            frame, [(frame.from_bits(bits), Fraction(w, total))
                    for bits, w in seen.items()])

    return build(p), build(p | q), build(q)


def no_conflict_pair(rng: random.Random, min_atoms: int = 2,
                     max_atoms: int = 6,
                     max_focals: int = 4) -> tuple[BeliefStructure,
                                                   BeliefStructure]:
    """An unconstrained random pair, rejection-sampled until every pairwise
    focal intersection is non-empty."""
    while True:
        frame = random_frame(rng, min_atoms, max_atoms)
        m1 = random_structure(rng, frame, max_focals)
        m2 = random_structure(rng, frame, max_focals)
        if all(a.intersects(b)
               for a, _ in m1.items() for b, _ in m2.items()):
            return m1, m2


def total_conflict_pair(rng: random.Random, frame: Frame,
                        max_focals: int = 4) -> tuple[BeliefStructure,
                                                      BeliefStructure]:
    """A pair with K = 1: the atoms are split in two non-empty parts and
    each structure keeps its focal elements inside its own part.  The frame
    needs at least two atoms."""
    n = len(frame)
    left = rng.randrange(1, (1 << n) - 1)

    def build(part: int) -> BeliefStructure:
        seen: dict[int, int] = {}
        for _ in range(rng.randint(1, max_focals)):
            bits = part & rng.getrandbits(n) or part
            seen[bits] = seen.get(bits, 0) + rng.randint(1, 9)
        total = sum(seen.values())
        return BeliefStructure(
            frame, [(frame.from_bits(bits), Fraction(w, total))
                    for bits, w in seen.items()])

    return build(left), build(left ^ frame.full.bits)


def disjoint_support_pair(seed: int, atoms: int,
                          focals: int) -> tuple[BeliefStructure,
                                                BeliefStructure]:
    """Two structures of exactly ``focals`` focal elements each on atoms
    x0, x1, ...: the first inside the low half of the atoms, the second
    inside the high half.  So K = 1, and every pair of focal elements has
    a union of its own (Dubois-Prade's result holds focals ** 2)."""
    frame = Frame([f"x{i}" for i in range(atoms)])
    rng = random.Random(seed)
    half = atoms // 2
    pair = []
    for shift in (0, half):
        masks = rng.sample(range(1, 1 << half), focals)
        weights = [rng.randint(1, 9) for _ in masks]
        pair.append(BeliefStructure(frame, [
            (frame.from_bits(bits << shift), Fraction(w, sum(weights)))
            for bits, w in zip(masks, weights)]))
    return pair[0], pair[1]


def overlapping_pair(rng: random.Random, frame: Frame,
                     max_focals: int = 4) -> tuple[BeliefStructure,
                                                   BeliefStructure]:
    """A pair whose focal elements all share a pivot atom, so every pairwise
    intersection is non-empty and the conflict mass is zero."""
    n = len(frame)
    pivot = 1 << rng.randrange(n)

    def build() -> BeliefStructure:
        count = rng.randint(1, max_focals)
        seen: dict[int, int] = {}
        for _ in range(count):
            bits = pivot | rng.getrandbits(n)
            seen[bits] = seen.get(bits, 0) + rng.randint(1, 9)
        total = sum(seen.values())
        return BeliefStructure(
            frame, [(frame.from_bits(bits), Fraction(w, total))
                    for bits, w in seen.items()])

    return build(), build()


def oracle_flow_entails(m1: BeliefStructure, m2: BeliefStructure) -> bool:
    """Flow entailment by Hall's condition, brute force over the subsets S
    of m1's focal elements: the mass of S may not exceed the m2 mass on the
    focal elements that contain some member of S.  Both sides carry one unit
    of mass, so the condition is also sufficient."""
    specific = [(f.bits, w) for f, w in m1.items()]
    general = [(f.bits, w) for f, w in m2.items()]
    for chosen in range(1, 1 << len(specific)):
        members = [a for k, (a, _) in enumerate(specific) if chosen >> k & 1]
        supply = sum(w for k, (_, w) in enumerate(specific) if chosen >> k & 1)
        reach = sum(w for b, w in general
                    if any(a & b == a for a in members))
        if supply > reach:
            return False
    return True


def oracle_flow_witness(m1: BeliefStructure, m2: BeliefStructure):
    """The flow witness triples of plain Edmonds-Karp, or None: every
    augmenting path a shortest one, found breadth-first from the source.
    Rows are m1's focal elements and columns m2's, both in bitmask order,
    with supplies and demands the masses times the lcm of their
    denominators and row-to-column capacity that lcm; a node's neighbours
    are scanned in the order their edges were made, and the search stops
    at the first node found with room to the sink."""
    specific, general = list(m1.items()), list(m2.items())
    scale = lcm(*(w.denominator for _, w in specific + general))
    rows, source, sink = len(specific), "source", "sink"
    cap: dict = {source: {}, sink: {}}
    for i, (a, w) in enumerate(specific):
        cap[source][i] = int(w * scale)
        cap[i] = {rows + j: scale for j, (b, _) in enumerate(general)
                  if a.bits & b.bits == a.bits}
    for j, (_, w) in enumerate(general):
        cap[rows + j] = {sink: int(w * scale)}
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
            break
        path = [sink]
        while path[-1] != source:
            path.append(prev[path[-1]])
        edges = list(zip(path[1:], path))
        delta = min(cap[u][v] for u, v in edges)
        for u, v in edges:
            cap[u][v] -= delta
            cap[v][u] = cap[v].get(u, 0) + delta
    if sum(cap[sink].values()) != scale:
        return None
    return tuple((a, b, Fraction(cap[rows + j][i], scale))
                 for i, (a, _) in enumerate(specific)
                 for j, (b, _) in enumerate(general)
                 if cap[rows + j].get(i))


def oracle_partition(m1: BeliefStructure,
                     m2: BeliefStructure) -> dict[int, int] | None:
    """The grouping witness by exhaustion, as bits -> bits: the first
    assignment, in lexicographic order, of m1's focal elements (largest mass
    first, ties by bitmask) to containing m2 focal elements (in bitmask
    order) whose group masses equal every m2 mass."""
    specific = sorted(((f.bits, w) for f, w in m1.items()),
                      key=lambda item: (-item[1], item[0]))
    general = {f.bits: w for f, w in m2.items()}
    choices = [[b for b in general if a & b == a] for a, _ in specific]
    for pick in product(*choices):
        load = dict.fromkeys(general, Fraction(0))
        for (_, w), b in zip(specific, pick):
            load[b] += w
        if load == general:
            return {a: b for (a, _), b in zip(specific, pick)}
    return None


def subset_sum_trap(frame: Frame) -> tuple[BeliefStructure, BeliefStructure]:
    """A flow-entailing pair with no partition witness.  Ten focal elements
    inside the first four atoms weigh 3/28 each but one 1/28; the general
    side puts 1/2 on those four atoms and 1/2 on the frame, and no group of
    the specific masses sums to 14/28."""
    inner = (1 << 4) - 1
    masks = list(range(1, inner + 1))[:10]
    specific = BeliefStructure(frame, [
        (frame.from_bits(bits), Fraction(1 if k == 9 else 3, 28))
        for k, bits in enumerate(masks)])
    general = BeliefStructure(frame, [(frame.from_bits(inner), Fraction(1, 2)),
                                      (frame.full, Fraction(1, 2))])
    return specific, general


class ArgvRefused(Exception):
    """The argparse oracle refused a command line."""


class _OracleParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise ArgvRefused(message)


def argparse_oracle() -> argparse.ArgumentParser:
    """The command-line grammar as argparse declared it before evicalc
    read argv itself, help texts left out and prefix abbreviations off.
    ``parse_args`` gives a Namespace, or raises ArgvRefused."""
    parser = _OracleParser(prog="evicalc", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", allow_abbrev=False)
    p.add_argument("path")

    p = sub.add_parser("query", allow_abbrev=False)
    p.add_argument("path")
    p.add_argument("--set", required=True)
    p.add_argument("--rule", default="dempster")

    p = sub.add_parser("combine", allow_abbrev=False)
    p.add_argument("paths", nargs="+")
    p.add_argument("--rule", required=True)
    p.add_argument("-o", "--out")

    p = sub.add_parser("entails", allow_abbrev=False)
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--mode", choices=["flow", "partition", "interval"],
                   default="flow")
    p.add_argument("--assert", dest="assert_", action="store_true")

    p = sub.add_parser("monotone", allow_abbrev=False)
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--rules", required=True)

    p = sub.add_parser("kb-infer", allow_abbrev=False)
    p.add_argument("path")
    p.add_argument("--rule", default="dempster")
    p.add_argument("--weaken-to")
    p.add_argument("-o", "--out")

    p = sub.add_parser("kb-query", allow_abbrev=False)
    p.add_argument("path")
    p.add_argument("--set", required=True)
    p.add_argument("--rule", default="dempster")

    p = sub.add_parser("sweep", allow_abbrev=False)
    p.add_argument("--alphas", required=True)
    p.add_argument("--betas", required=True)
    p.add_argument("--overlap", action="store_true")
    p.add_argument("--rule", required=True)
    p.add_argument("-o", "--out")

    return parser
