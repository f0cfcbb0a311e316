"""The benchmark's workloads: seeded inputs, the timed operation, its check.

A workload has ``items`` (cycled in order by the timed loop), ``round``
(every run attempts a whole number of rounds of this many items, so each
run has the same mix of op kinds), ``op(item)`` (the timed call into
evicalc), ``before(item)`` (untimed preparation) and ``check(index,
result)`` (untimed; raises CheckFailed).  Ops call evicalc
through module attributes (``kb.infer``, not a copied name), so the traced
run sees every call.  README.md describes the make-up of each workload.
"""

from __future__ import annotations

import contextlib
import io as stdio
import os
import random
import shlex
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from evicalc import (CELL_ROUTING_RULES, CombinationRule, cli, discount, kb,
                     monotonicity, parse_rule)
from evicalc.core import BeliefStructure, Frame
from oracles import (naive_bel, naive_pl, oracle_combine, overlapping_pair,
                     structure_bits)

from checks import (
    check_golden,
    check_report,
    conflict_of,
    load_bits,
    parse_combine_stdout,
    require,
)

POOL = 128  # items generated per run; more than a run can use


def _structure(frame: Frame, masses: dict[int, Fraction]) -> BeliefStructure:
    return BeliefStructure(frame, [(frame.from_bits(b), w)
                                   for b, w in masses.items()])


def _repeated(seen: dict, index: int, result) -> bool:
    """True if the item ran before; its result must then equal the first,
    which passed the full check."""
    if index not in seen:
        return False
    require(result == seen[index], f"item {index} changed between runs")
    return True


# -- cli_golden ---------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]
    outputs: tuple[Path, ...]


def golden_commands(script: Path, data: Path, outdir: Path) -> list[Command]:
    """The `run NAME ARGS...` lines of golden_tables.sh, in script order."""
    commands = []
    for line in script.read_text().replace("\\\n", " ").splitlines():
        if not line.startswith("run "):
            continue
        name, *args = shlex.split(line)[1:]
        args = [a.replace("$data", str(data)).replace("$outdir", str(outdir))
                for a in args]
        outputs = tuple(Path(args[i + 1]) for i, a in enumerate(args)
                        if a == "-o")
        commands.append(Command(name, tuple(args), outputs))
    return commands


class CliGolden:
    """The golden-table commands, one `python -m evicalc` process each.

    The seed changes nothing: the commands and their inputs are fixed.
    """

    name = "cli_golden"

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.golden = root / "tests" / "golden"
        self.items = golden_commands(root / "scripts" / "golden_tables.sh",
                                     root / "tests" / "data", scratch)
        self.round = len(self.items)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.cwd = root
        self.in_process = False  # the traced run calls cli.main directly
        self.oracle_checked: set[int] = set()

    def before(self, item: Command) -> None:
        for path in item.outputs:
            path.unlink(missing_ok=True)

    def op(self, item: Command) -> tuple[int, bytes]:
        if self.in_process:
            buffer = stdio.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(item.args))
            return code, buffer.getvalue().encode("utf-8")
        proc = subprocess.run([sys.executable, "-m", "evicalc", *item.args],
                              cwd=self.cwd, env=self.env, capture_output=True,
                              timeout=120)
        return proc.returncode, proc.stdout

    def check(self, index: int, result: tuple[int, bytes]) -> None:
        item = self.items[index]
        code, stdout = result
        require(code == 0, f"{item.name}: exit status {code}")
        check_golden(item.name, stdout,
                     (self.golden / f"{item.name}.txt").read_bytes())
        for path in item.outputs:
            require(path.exists(), f"{item.name}: did not write {path.name}")
            check_golden(path.name, path.read_bytes(),
                         (self.golden / path.name).read_bytes())
        if item.args[0] == "combine" and index not in self.oracle_checked:
            self.oracle_checked.add(index)
            check_combine_output(item, stdout.decode("utf-8"))


def check_combine_output(item: Command, stdout: str) -> None:
    """Masses and conflict printed by `combine P1 P2 --rule R` equal the
    cell-routing oracle on the input files."""
    args = list(item.args)
    paths = [Path(a) for a in args[1:args.index("--rule")]]
    require(len(paths) == 2, f"{item.name}: expected two inputs")
    (atoms, m1), (_, m2) = (load_bits(p) for p in paths)
    rule_text = args[args.index("--rule") + 1]
    kind, _, param = rule_text.partition(":")
    rule = CombinationRule(kind, Fraction(param) if param else None)
    frame = Frame(atoms)
    expected = oracle_combine(_structure(frame, m1), _structure(frame, m2),
                              rule)
    printed_rule, conflict, masses = parse_combine_stdout(stdout, atoms)
    require(printed_rule == rule_text, f"{item.name}: printed rule "
                                       f"{printed_rule!r}")
    require(conflict == conflict_of(m1, m2), f"{item.name}: wrong conflict")
    require(masses == expected, f"{item.name}: masses differ from the oracle")


# -- kb_fold ------------------------------------------------------------------

KB_ATOMS = "abcdefghijkl"
KB_STATEMENTS = 30
KB_SIZES = (4, 5, 6, 7)  # each text uses every size equally often
KB_ABSOLUTES = 3
# Round of eight texts: (rule, whether absolute statements are mixed in).
KB_PATTERN = (("dempster", False), ("yager", False), ("dempster", False),
              ("dempster", True), ("dempster", False), ("yager", False),
              ("dempster", False), ("dempster", True))


@dataclass(frozen=True)
class KbItem:
    rule: CombinationRule
    statements: tuple[tuple[int, Fraction | None], ...]  # None: absolute
    text: str
    query_bits: tuple[int, ...]
    summary_bits: int


def kb_text(statements) -> str:
    lines = ["frame: " + ", ".join(KB_ATOMS)]
    for bits, strength in statements:
        names = ", ".join(a for i, a in enumerate(KB_ATOMS) if bits >> i & 1)
        if strength is None:
            lines.append(f"V is {{{names}}}")
        else:
            lines.append(f"typically V is {{{names}}} strength {strength}")
    return "\n".join(lines) + "\n"


def kb_item(rng: random.Random, rule_name: str, absolute: bool) -> KbItem:
    n = len(KB_ATOMS)
    sizes = [KB_SIZES[i % len(KB_SIZES)] for i in range(KB_STATEMENTS)]
    rng.shuffle(sizes)
    pivot = rng.randrange(n)
    # Absolute statements close the text: the fold is as large as in the
    # other texts until they collapse it.
    first_absolute = KB_STATEMENTS - (KB_ABSOLUTES if absolute else 0)
    statements = []
    for i, size in enumerate(sizes):
        atoms = rng.sample(range(n), size)
        if i >= first_absolute:
            # Absolute sets share the pivot atom, so they never conflict
            # outright and the fold never hits total conflict.
            if pivot not in atoms:
                atoms[0] = pivot
            statements.append((sum(1 << a for a in atoms), None))
        else:
            statements.append((sum(1 << a for a in atoms),
                               Fraction(rng.randint(50, 99), 100)))
    statements = tuple(statements)

    def subset(size: int) -> int:
        return sum(1 << a for a in rng.sample(range(n), size))

    return KbItem(parse_rule(rule_name), statements,
                  kb_text(statements), (subset(6), subset(3)), subset(8))


class KbFold:
    """Seeded knowledge bases folded by `kb.infer`, then queried."""

    name = "kb_fold"

    def __init__(self, root: Path, seed: int, scratch: Path):
        rng = random.Random(seed)
        self.items = [kb_item(rng, *KB_PATTERN[i % len(KB_PATTERN)])
                      for i in range(POOL)]
        self.round = len(KB_PATTERN)
        self.frame = Frame(KB_ATOMS)
        self.seen: dict = {}

    def before(self, item: KbItem) -> None:
        pass

    def op(self, item: KbItem):
        base = kb.parse_kb(item.text)
        frame = base.frame
        inferred = kb.infer(base, item.rule)
        intervals = [kb.query(base, item.rule, frame.from_bits(bits))
                     for bits in item.query_bits]
        summary = kb.typical_summary(base, item.rule,
                                     frame.from_bits(item.summary_bits))
        return inferred, intervals, summary

    def check(self, index: int, result) -> None:
        if _repeated(self.seen, index, result):
            return
        item = self.items[index]
        inferred, intervals, summary = result
        frame = self.frame
        full = frame.full.bits
        expected: dict[int, Fraction] | None = None
        for bits, strength in item.statements:
            step = ({bits: Fraction(1)} if strength is None
                    else {bits: strength, full: 1 - strength})
            expected = step if expected is None else oracle_combine(
                _structure(frame, expected), _structure(frame, step),
                item.rule)
        masses = structure_bits(inferred)
        require(masses == expected, f"kb item {index}: infer differs from "
                                    "the oracle fold")
        require(sum(masses.values()) == 1, f"kb item {index}: masses do not "
                                           "sum to 1")
        for bits, interval in zip(item.query_bits, intervals):
            require((interval.lower, interval.upper)
                    == (naive_bel(inferred, bits), naive_pl(inferred, bits)),
                    f"kb item {index}: query interval is wrong")
        strength = naive_bel(inferred, item.summary_bits)
        weakened = {item.summary_bits: strength, full: 1 - strength}
        require(structure_bits(summary)
                == {b: w for b, w in weakened.items() if w},
                f"kb item {index}: typical_summary is wrong")
        if item.rule.kind == "dempster":
            shuffled = list(item.statements)
            random.Random(index).shuffle(shuffled)
            again = kb.infer(kb.parse_kb(kb_text(shuffled)), item.rule)
            require(again == inferred, f"kb item {index}: Dempster result "
                                       "depends on statement order")
        self.seen[index] = result


# -- monotone_survey ----------------------------------------------------------

SURVEY_ATOMS = "abcdefghij"
SURVEY_FOCALS = 12
SURVEY_RULES = (*CELL_ROUTING_RULES, discount("1/2"))


@dataclass(frozen=True)
class SurveyItem:
    m1: BeliefStructure
    m2: BeliefStructure
    conflict_free: bool


def random_structure(rng: random.Random, frame: Frame) -> BeliefStructure:
    masks = rng.sample(range(1, 1 << len(frame)), SURVEY_FOCALS)
    weights = [rng.randint(1, 9) for _ in masks]
    return _structure(frame, {b: Fraction(w, sum(weights))
                              for b, w in zip(masks, weights)})


def survey_item(rng: random.Random, frame: Frame,
                conflict_free: bool) -> SurveyItem:
    while True:
        if conflict_free:
            m1, m2 = overlapping_pair(rng, frame, max_focals=2 * SURVEY_FOCALS)
            if all(abs(len(m) - SURVEY_FOCALS) <= 2 for m in (m1, m2)):
                return SurveyItem(m1, m2, True)
        else:
            m1 = random_structure(rng, frame)
            m2 = random_structure(rng, frame)
            if conflict_of(structure_bits(m1), structure_bits(m2)):
                return SurveyItem(m1, m2, False)


class MonotoneSurvey:
    """Seeded pairs surveyed under every cell-routing rule and discount:1/2.

    Items alternate: a random pair with conflict, then a conflict-free one.
    """

    name = "monotone_survey"

    def __init__(self, root: Path, seed: int, scratch: Path):
        rng = random.Random(seed)
        frame = Frame(SURVEY_ATOMS)
        self.items = [survey_item(rng, frame, conflict_free=i % 2 == 1)
                      for i in range(POOL)]
        self.round = 2
        self.seen: dict = {}

    def before(self, item: SurveyItem) -> None:
        pass

    def op(self, item: SurveyItem):
        return monotonicity.pairwise_survey(item.m1, item.m2,
                                            list(SURVEY_RULES))

    def check(self, index: int, result) -> None:
        if _repeated(self.seen, index, result):
            return
        item = self.items[index]
        require(len(result) == len(SURVEY_RULES), "one report per rule")
        for report, rule in zip(result, SURVEY_RULES):
            require(report.rule == rule, "reports out of rule order")
            expected = (None if report.infeasible
                        else oracle_combine(item.m1, item.m2, rule))
            check_report(report, item.m1, item.m2, expected,
                         item.conflict_free)
        self.seen[index] = result


WORKLOADS = {w.name: w for w in (CliGolden, KbFold, MonotoneSurvey)}
