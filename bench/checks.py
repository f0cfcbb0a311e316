"""Correctness checkers of the benchmark, written apart from evicalc's own code.

Every checker raises :class:`CheckFailed` on a wrong result.  Masses are
handled as ``{bitmask: Fraction}`` dicts or through the naive oracles of
``tests/oracles.py``, so nothing here relies on ``evicalc.entailment`` or on
evicalc's rendering to decide a verdict.
``selftest.py`` feeds each checker a deliberately wrong result.
"""

from __future__ import annotations

import json
from collections import deque
from fractions import Fraction
from math import lcm

from oracles import naive_bel, naive_pl, structure_bits

ZERO = Fraction(0)


class CheckFailed(Exception):
    """A benchmark output disagrees with its independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- transport (flow) entailment ---------------------------------------------

def decide_transport(specific: dict[int, Fraction],
                     general: dict[int, Fraction]):
    """Decide whether ``specific`` entails ``general`` by moving mass onto
    supersets.  Returns ``(True, triples)`` with a transport
    ``[(a, b, mass)]``, or ``(False, rows)`` with a set of specific focal
    elements whose mass exceeds that of every general superset of them (a
    Hall violator).  Augmenting paths on integer units, after a greedy fill.
    """
    rows = sorted(specific)
    cols = sorted(general)
    scale = lcm(*(w.denominator for w in specific.values()),
                *(w.denominator for w in general.values()))
    left = [int(specific[a] * scale) for a in rows]
    room = [int(general[b] * scale) for b in cols]
    adj = [[j for j, b in enumerate(cols) if a & b == a] for a in rows]
    sent: list[dict[int, int]] = [{} for _ in rows]
    for i, fits in enumerate(adj):
        for j in fits:
            move = min(left[i], room[j])
            if move:
                sent[i][j] = sent[i].get(j, 0) + move
                left[i] -= move
                room[j] -= move
    while True:
        # Breadth-first search from rows with supply left: row -> any
        # superset column, column -> a row already sending to it.
        row_from = {i: None for i, rest in enumerate(left) if rest}
        col_from: dict[int, int] = {}
        queue = deque(row_from)
        end = None
        while queue and end is None:
            i = queue.popleft()
            for j in adj[i]:
                if j in col_from:
                    continue
                col_from[j] = i
                if room[j]:
                    end = j
                    break
                for k in range(len(rows)):
                    if k not in row_from and sent[k].get(j):
                        row_from[k] = j
                        queue.append(k)
        if end is None:
            break
        path = []  # (row, col, +1 forward / -1 backward)
        j = end
        while True:
            i = col_from[j]
            path.append((i, j, 1))
            back = row_from[i]
            if back is None:
                break
            path.append((i, back, -1))
            j = back
        move = min(left[i], room[end],
                   *(sent[r][c] for r, c, d in path if d < 0))
        for r, c, d in path:
            sent[r][c] = sent[r].get(c, 0) + d * move
        left[i] -= move
        room[end] -= move
    if any(left):
        return False, {rows[i] for i in row_from}
    return True, [(rows[i], cols[j], Fraction(n, scale))
                  for i, out in enumerate(sent) for j, n in out.items() if n]


def check_transport(specific: dict[int, Fraction],
                    general: dict[int, Fraction], triples) -> None:
    """A transport witness: contained pairs, positive weights, exact row
    sums equal to the specific masses and column sums to the general ones."""
    rows: dict[int, Fraction] = {}
    cols: dict[int, Fraction] = {}
    for a, b, w in triples:
        require(w > 0, f"witness weight {w} is not positive")
        require(a & b == a, f"witness moves {a:#x} onto non-superset {b:#x}")
        rows[a] = rows.get(a, ZERO) + w
        cols[b] = cols.get(b, ZERO) + w
    require(rows == specific, "witness row sums differ from the masses")
    require(cols == general, "witness column sums differ from the masses")


def check_hall_violator(specific: dict[int, Fraction],
                        general: dict[int, Fraction], row_set) -> None:
    """Rows whose mass exceeds the mass of all their general supersets."""
    need = sum((specific[a] for a in row_set), ZERO)
    reach = sum((w for b, w in general.items()
                 if any(a & b == a for a in row_set)), ZERO)
    require(need > reach, "claimed Hall violator is not one")


def flow_verdict(specific: dict[int, Fraction],
                 general: dict[int, Fraction]) -> bool:
    """The transport verdict, with its certificate re-checked."""
    ok, certificate = decide_transport(specific, general)
    if ok:
        check_transport(specific, general, certificate)
    else:
        check_hall_violator(specific, general, certificate)
    return ok


# -- monotonicity reports -----------------------------------------------------

def conflict_of(m1: dict[int, Fraction], m2: dict[int, Fraction]) -> Fraction:
    return sum((wa * wb for a, wa in m1.items() for b, wb in m2.items()
                if not a & b), ZERO)


def interval_violated(specific, general, bits: int) -> bool:
    """Does [bel, pl] of ``specific`` escape that of ``general`` at bits?"""
    return (naive_bel(general, bits) > naive_bel(specific, bits)
            or naive_pl(specific, bits) > naive_pl(general, bits))


def check_report(report, m1, m2, expected: dict[int, Fraction] | None,
                 conflict_free: bool) -> None:
    """One MonotonicityReport of surveying the pair (m1, m2).

    ``expected`` is the oracle combination (None when the rule cannot run).
    """
    rule = str(report.rule)
    require(report.conflict == conflict_of(structure_bits(m1),
                                           structure_bits(m2)),
            f"{rule}: wrong conflict")
    if expected is None:
        require(report.infeasible and report.conflict == 1,
                f"{rule}: infeasible without total conflict")
        return
    require(not report.infeasible, f"{rule}: reported infeasible")
    combined = structure_bits(report.combined)
    require(combined == expected, f"{rule}: combined masses differ from "
                                  "the oracle")
    require(sum(combined.values(), ZERO) == 1, f"{rule}: masses do not sum "
                                               "to 1")
    for name, given, entails, ok, witness in (
            ("first", m1, report.entails_first, report.interval_ok_first,
             report.witness_first),
            ("second", m2, report.entails_second, report.interval_ok_second,
             report.witness_second)):
        require(entails == flow_verdict(combined, structure_bits(given)),
                f"{rule}: flow verdict on the {name} input is wrong")
        if report.interval_skipped:
            require(0 in combined and not ok and witness is None,
                    f"{rule}: interval check skipped on a normal result")
            continue
        require(0 not in combined, f"{rule}: subnormal result not skipped")
        require(not entails or ok,
                f"{rule}: entails the {name} input but escapes its intervals")
        require(ok == (witness is None),
                f"{rule}: interval verdict and violating set disagree")
        if witness is not None:
            require(interval_violated(report.combined, given, witness.bits),
                    f"{rule}: reported violating set {witness.label()} does "
                    "not violate")
    if conflict_free and not rule.startswith("discount"):
        require(report.entails_first and report.entails_second
                and report.interval_ok_first and report.interval_ok_second,
                f"{rule}: a conflict-free pair lost monotonicity")


# -- CLI output ---------------------------------------------------------------

def load_bits(path) -> tuple[list[str], dict[int, Fraction]]:
    """A belief-structure JSON file as (atoms, {bitmask: mass})."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    atoms = doc["frame"]
    masses: dict[int, Fraction] = {}
    for entry in doc["masses"]:
        bits = sum(1 << atoms.index(a) for a in entry["set"])
        masses[bits] = masses.get(bits, ZERO) + Fraction(str(entry["mass"]))
    return atoms, masses


def parse_combine_stdout(text: str, atoms: list[str]):
    """(rule, conflict, {bitmask: mass}) from a `combine` command's stdout."""
    rule = conflict = None
    masses: dict[int, Fraction] = {}
    for line in text.splitlines():
        if line.startswith("rule: "):
            rule = line[len("rule: "):]
        elif line.startswith("conflict: "):
            conflict = Fraction(line.split()[1])
        elif line.startswith("m({"):
            label, value = line[len("m({"):].split("}) = ")
            names = [a for a in label.split(", ") if a]
            bits = sum(1 << atoms.index(a) for a in names)
            masses[bits] = Fraction(value.split(" ~ ")[0])
    return rule, conflict, masses


def check_golden(name: str, produced: bytes, golden: bytes) -> None:
    if produced != golden:
        at = next((i for i, (x, y) in enumerate(zip(produced, golden))
                   if x != y), min(len(produced), len(golden)))
        raise CheckFailed(f"{name}: differs from the golden file at byte {at}")
