"""One workload in a fresh interpreter: set up, warm up, then a timed loop.

Started by run.py, which times it from spawn to its "ready" line (the set-up
time).  Prints a JSON object with the raw op times as its last line.  A
single client runs one op at a time (a closed loop): no threads, and no
child processes except the `python -m evicalc` commands of cli_golden.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from checks import CheckFailed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REF_TERMS = 1600


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes on this core, right now.

    Exact rational sums, like the ops: a Fraction loop follows the machine's
    drift in speed more closely than an integer loop does.  op_ref_p50
    divides op times by this, so changing the loop (or REF_TERMS)
    redefines that metric: never change either.
    """
    start = perf_counter()
    acc = Fraction(0)
    for k in range(REF_TERMS):
        acc += Fraction(1, k % 97 + 1)
    return perf_counter() - start


class Run:
    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []

    def attempt(self, index: int, timed):
        """One op, timed by ``timed(op, item)``, then checked untimed."""
        item = self.w.items[index]
        self.w.before(item)
        self.attempted += 1
        try:
            seconds, result = timed(self.w.op, item)
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
            return None
        try:
            self.w.check(index, result)
        except CheckFailed as exc:
            self.wrong += 1
            self.errors.append(f"check failed: {exc}")
        return seconds


def plain(op, item):
    start = perf_counter()
    result = op(item)
    return perf_counter() - start, result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    scratch = BENCH / "out" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, scratch)
        run = Run(workload)
        run.attempt(0, plain)  # warm-up: checked, not counted or timed
        run.attempted = run.failed = 0
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = (traced_loop(run, args) if args.trace
                  else timed_loop(run, args.seconds))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for error in run.errors[:5]:
        print(error, file=sys.stderr)
    who = (resource.RUSAGE_CHILDREN if args.workload == "cli_golden"
           else resource.RUSAGE_SELF)
    result.update(attempted=run.attempted, failed=run.failed,
                  correct=run.wrong == 0,
                  peak_rss_kb=resource.getrusage(who).ru_maxrss)
    print(json.dumps(result))
    return 0


def timed_loop(run: Run, seconds: float) -> dict:
    """Whole rounds of ops until their timed total reaches ``seconds``; each
    op sits between two runs of the reference loop."""
    op_s, ref_s = [], []
    spent = 0.0
    index = 0
    stop = perf_counter() + 2 * seconds + 60  # ends a run of failing ops
    while ((spent < seconds or index % run.w.round)
           and perf_counter() < stop):
        before = reference_loop()
        took = run.attempt(index % len(run.w.items), plain)
        after = reference_loop()
        if took is not None:
            op_s.append(took)
            ref_s.append((before + after) / 2)
            spent += took
        spent += before + after
        index += 1
    return {"op_s": op_s, "ref_s": ref_s}


def traced_loop(run: Run, args) -> dict:
    """Each op runs untraced, then traced, until ``seconds`` are spent; the
    ratio of the two sums is the tracing overhead."""
    from tracing import Tracer
    if args.workload == "cli_golden":
        run.w.in_process = True
    tracer = Tracer()
    plain_s = traced_s = 0.0
    index = 0
    stop = perf_counter() + 2 * args.seconds + 60  # ends a run of failing ops
    while ((plain_s + traced_s < args.seconds or index % run.w.round)
           and perf_counter() < stop):
        i = index % len(run.w.items)
        took = run.attempt(i, plain)
        traced = run.attempt(i, tracer.run_op)
        if took is not None and traced is not None:
            plain_s += took
            traced_s += traced
        index += 1
    layers = tracer.metrics()
    layers["trace.overhead_pct"] = {
        "value": (traced_s / plain_s - 1) * 100 if plain_s else 0.0,
        "unit": "%"}
    tracer.dump(BENCH / "out" / f"spans-{args.workload}-{args.seed}.json")
    return {"layers": layers}


if __name__ == "__main__":
    sys.exit(main())
