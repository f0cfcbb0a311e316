"""Self-tests of the benchmark's checkers; no timed loop runs.

    python3 bench/selftest.py

Each checker first accepts a real result, then must reject a deliberately
wrong one: a perturbed mass, a flipped verdict, a changed golden byte.
Exits 1 if any checker lets a wrong result through.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from evicalc.core import BeliefStructure, ProbabilityInterval  # noqa: E402

from checks import (  # noqa: E402
    CheckFailed,
    check_hall_violator,
    check_transport,
    decide_transport,
    require,
)
from workloads import (  # noqa: E402
    CliGolden,
    KbFold,
    MonotoneSurvey,
    check_combine_output,
)

failures = 0


def expect(name: str, accepts: bool, check) -> None:
    """Run ``check``; it must pass when ``accepts`` and raise otherwise."""
    global failures
    try:
        check()
        passed = True
    except CheckFailed:
        passed = False
    ok = passed == accepts
    failures += not ok
    verdict = "accepts" if accepts else "rejects"
    print(f"{'PASS' if ok else 'FAIL'}: {name} {verdict}")


def perturbed(m: BeliefStructure) -> BeliefStructure:
    """The same structure with a small mass moved between two focals."""
    (a, wa), (b, wb), *rest = m.items()
    eps = min(wa, wb) / 7
    return BeliefStructure(m.frame, [(a, wa - eps), (b, wb + eps), *rest],
                           subnormal=m.is_subnormal)


def kb_tests(seed: int) -> None:
    for index in (0, 1):  # a Dempster text, then a Yager one
        w = KbFold(ROOT, seed, BENCH)
        inferred, intervals, summary = w.op(w.items[index])
        rule = w.items[index].rule
        low, high = intervals[0]
        wrong_interval = [ProbabilityInterval(low, high + (1 - high) / 3),
                          *intervals[1:]]
        for name, result in (
                ("perturbed infer mass",
                 (perturbed(inferred), intervals, summary)),
                ("perturbed summary mass",
                 (inferred, intervals, perturbed(summary))),
                ("widened query interval",
                 (inferred, wrong_interval, summary))):
            expect(f"kb_fold ({rule}) {name}", False,
                   lambda: KbFold(ROOT, seed, BENCH).check(index, result))
        expect(f"kb_fold ({rule}) true result", True,
               lambda: w.check(index, (inferred, intervals, summary)))
        expect(f"kb_fold ({rule}) changed repeat", False,
               lambda: w.check(index, (perturbed(inferred), intervals,
                                       summary)))


def survey_tests(seed: int) -> None:
    for index in (0, 1):  # a conflicting pair, then a conflict-free one
        w = MonotoneSurvey(ROOT, seed, BENCH)
        reports = w.op(w.items[index])
        kind = "conflict-free" if w.items[index].conflict_free else "conflict"
        for k, report in enumerate(reports):
            mutations = {"flipped flow verdict": dict(
                entails_first=not report.entails_first)}
            if report.combined is not None:
                mutations["perturbed combined mass"] = dict(
                    combined=perturbed(report.combined))
            if report.combined is not None and not report.interval_skipped:
                mutations["flipped interval verdict"] = dict(
                    interval_ok_first=not report.interval_ok_first)
            for name, change in mutations.items():
                wrong = list(reports)
                wrong[k] = dataclasses.replace(report, **change)
                expect(f"monotone_survey ({kind}) {name}, {report.rule}",
                       False, lambda: w.check(index, wrong))
        expect(f"monotone_survey ({kind}) true reports", True,
               lambda: w.check(index, reports))


def flow_tests() -> None:
    f = Fraction
    specific = {0b011: f(1, 2), 0b100: f(1, 2)}
    general = {0b111: f(1, 3), 0b011: f(1, 6), 0b110: f(1, 2)}
    ok, witness = decide_transport(specific, general)

    def found():
        require(ok, "no transport found")
        check_transport(specific, general, witness)

    expect("transport witness", True, found)
    bad = [(a, b, w + f(1, 12) if i == 0 else w)
           for i, (a, b, w) in enumerate(witness)]
    expect("transport witness with a perturbed weight", False,
           lambda: check_transport(specific, general, bad))
    moved = [(a, 0b001 if i == 0 else b, w)
             for i, (a, b, w) in enumerate(witness)]
    expect("transport witness onto a non-superset", False,
           lambda: check_transport(specific, general, moved))
    stuck = {0b011: f(2, 3), 0b100: f(1, 3)}
    ok, rows = decide_transport(stuck, general)

    def violator():
        require(not ok, "found a transport where none exists")
        check_hall_violator(stuck, general, rows)

    expect("no transport, Hall violator", True, violator)
    expect("a set that is no Hall violator", False,
           lambda: check_hall_violator(stuck, general, {0b100}))


def cli_tests(scratch: Path) -> None:
    w = CliGolden(ROOT, 0, scratch)
    for index, item in enumerate(w.items):
        w.before(item)
        code, stdout = w.op(item)
        if item.name == "combine_dempster_disjoint":
            expect(f"cli_golden {item.name} golden output", True,
                   lambda: w.check(index, (code, stdout)))
            flipped = bytearray(stdout)
            flipped[-3] ^= 1
            expect(f"cli_golden {item.name} one changed stdout byte", False,
                   lambda: w.check(index, (code, bytes(flipped))))
            text = stdout.decode().replace("m({a, b}) = 3/7", "m({a, b}) = 2/7")
            expect(f"cli_golden {item.name} mass off the oracle", False,
                   lambda: check_combine_output(item, text))
            out = item.outputs[0]
            data = bytearray(out.read_bytes())
            data[len(data) // 2] ^= 1
            out.write_bytes(bytes(data))
            expect(f"cli_golden {out.name} one changed file byte", False,
                   lambda: w.check(index, (code, stdout)))
            return


def main() -> int:
    scratch = BENCH / "out" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        kb_tests(seed=3)
        survey_tests(seed=3)
        flow_tests()
        cli_tests(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{failures} checker self-test(s) failed" if failures
          else "all checker self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
