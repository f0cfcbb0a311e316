"""Command-line front end.

Exit codes: 0 on success, 1 on I/O or parse errors (bad files, or a reader
that closes the output pipe early), 2 on domain errors (total conflict, or a
false answer under --assert).  Output is deterministic byte-for-byte for
identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io
from .combine import _combine_with_conflict, combine_all, parse_rule
from .core import BeliefStructure, FocalSet
from .entailment import flow_entails, interval_contained, partition_entails
from .errors import EvicalcError, _text
from .kb import KnowledgeBase, infer, parse_kb, typical_summary


class _LoadFailure(Exception):
    """A file could not be read, parsed or written; exits with status 1."""

    def __init__(self, path: str, cause: Exception):
        # one bounded line: errors._text shows a long or unprintable path
        shown = path if path.isprintable() and len(path) < 100 else _text(path)
        text = str(cause).replace(repr(path), _text(path))  # OSError quotes it
        super().__init__(f"{shown}: {type(cause).__name__}: {text}")


def _load(path: str, parse):
    """Read an input file and parse its text; a failure exits with status 1."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse(f.read())
    except Exception as exc:
        raise _LoadFailure(path, exc) from exc


class _Parser(argparse.ArgumentParser):
    """Ends a usage error in one bounded ``error:`` line and status 2."""

    def parse_known_args(self, args=None, namespace=None):
        self._argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        values = {v for a in self._argv for v in (a, a.partition("=")[2])}
        for value in sorted(values, key=len, reverse=True):
            if len(value) > 99:
                message = message.replace(repr(value), _text(value))
                message = message.replace(value, _text(value))
        self.exit(2, f"error: {' '.join(message.split())}\n")


def _parse_any(text: str) -> BeliefStructure | KnowledgeBase:
    if io.sniff_kind(text) == "structure":
        return io.loads_structure(text)
    return parse_kb(text)


def _parse_set(value: str, frame) -> FocalSet:
    names = [part.strip() for part in value.split(",") if part.strip()]
    return frame.subset(names)


def _interval_text(m: BeliefStructure, target: FocalSet) -> str:
    lower, upper = m.interval(target)
    width = ("undefined (subnormal)" if m.is_subnormal
             else io.format_mass(upper - lower))
    return (f"set: {target.label()}\nbel = {io.format_mass(lower)}\n"
            f"pl = {io.format_mass(upper)}\nrange = {width}\n")


def _cmd_validate(args) -> int:
    m = _load(args.path, io.loads_structure)
    sys.stdout.write(io.format_structure(m))
    return 0


def _cmd_query(args) -> int:
    rule = parse_rule(args.rule)
    loaded = _load(args.path, args.parse)
    # Compute first, so that a run ending in an error prints no partial answer
    if isinstance(loaded, KnowledgeBase):
        m = infer(loaded, rule)
        head = f"variable: {loaded.variable}\nrule: {rule}\n"
    else:
        m, head = loaded, ""
    sys.stdout.write(head + _interval_text(m, _parse_set(args.set, m.frame)))
    return 0


def _cmd_combine(args) -> int:
    rule = parse_rule(args.rule)
    structures = [_load(path, io.loads_structure) for path in args.paths]
    if len(structures) == 2:
        result, conflict = _combine_with_conflict(*structures, rule)
        head = f"rule: {rule}\nconflict: {io.format_mass(conflict)}\n"
    else:
        result, head = combine_all(structures, rule), f"rule: {rule}\n"
    answer = head + io.format_structure(result)
    if args.out:  # written first: a failing write leaves stdout empty
        _write(args.out, io.dumps_structure(result))
    sys.stdout.write(answer)
    return 0


def _write(path: str, text: str) -> None:
    """Write an output file; a failure exits with status 1."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise _LoadFailure(path, exc) from exc


def _cmd_entails(args) -> int:
    m1 = _load(args.path1, io.loads_structure)
    m2 = _load(args.path2, io.loads_structure)
    # Decide first, so that a run ending in an error prints no partial answer
    if args.mode == "interval":
        verdict, violator = interval_contained(m1, m2)
        answer = f"contained: {'true' if verdict else 'false'}\n"
        if violator is not None:
            answer += f"violating set: {violator.label()}\n"
    else:
        check = flow_entails if args.mode == "flow" else partition_entails
        witness = check(m1, m2)
        verdict = witness is not None
        answer = f"entails: {'true' if verdict else 'false'}\n"
        if verdict:
            answer += io.format_witness(witness)
    sys.stdout.write(f"mode: {args.mode}\n{answer}")
    return 2 if args.assert_ and not verdict else 0


def _cmd_monotone(args) -> int:
    # Imported here and in _cmd_sweep only: monotonicity's reports are
    # dataclasses, and the other commands start sooner without dataclasses.
    from .monotonicity import pairwise_survey

    rules = [parse_rule(name) for name in args.rules.split(",")]
    m1 = _load(args.path1, io.loads_structure)
    m2 = _load(args.path2, io.loads_structure)
    reports = pairwise_survey(m1, m2, rules)
    print(json.dumps([io.report_to_obj(r) for r in reports], indent=2))
    return 0


def _cmd_kb_infer(args) -> int:
    rule = parse_rule(args.rule)
    kb = _load(args.path, parse_kb)
    head = f"variable: {kb.variable}\nrule: {rule}\n"
    if args.weaken_to is not None:
        target = _parse_set(args.weaken_to, kb.frame)
        head += f"weaken to: {target.label()}\n"
        result = typical_summary(kb, rule, target)
    else:
        result = infer(kb, rule)
    answer = head + io.format_structure(result)
    if args.out:  # written first: a failing write leaves stdout empty
        _write(args.out, io.dumps_structure(result))
    sys.stdout.write(answer)
    return 0


def _cmd_sweep(args) -> int:
    from .monotonicity import sweep, sweep_csv

    rule = parse_rule(args.rule)
    alphas = [part.strip() for part in args.alphas.split(",")]
    betas = [part.strip() for part in args.betas.split(",")]
    rows = sweep(alphas, betas, disjoint=not args.overlap, rule=rule)
    if args.out:
        _write(args.out, sweep_csv(rows))
    else:
        sys.stdout.write(sweep_csv(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evicalc",
        description="Exact-arithmetic belief structures: combination, "
                    "entailment, monotonicity analysis, and default "
                    "knowledge bases.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check and display a stored "
                                        "belief structure")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("query", help="belief/plausibility interval of a set")
    p.add_argument("path", help="belief-structure JSON or knowledge-base "
                                "text file")
    p.add_argument("--set", required=True,
                   help="comma-separated atom names")
    p.add_argument("--rule", default="dempster",
                   help="combination rule (knowledge-base input only)")
    p.set_defaults(func=_cmd_query, parse=_parse_any)

    p = sub.add_parser("combine", help="combine stored belief structures")
    p.add_argument("paths", nargs="+")
    p.add_argument("--rule", required=True)
    p.add_argument("-o", "--out", help="write the result as JSON")
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("entails", help="does the first structure entail "
                                       "the second?")
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--mode", choices=["flow", "partition", "interval"],
                   default="flow")
    p.add_argument("--assert", dest="assert_", action="store_true",
                   help="exit 2 when the answer is no")
    p.set_defaults(func=_cmd_entails)

    p = sub.add_parser("monotone", help="monotonicity reports for a pair "
                                        "under several rules")
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--rules", required=True,
                   help="comma-separated rule names")
    p.set_defaults(func=_cmd_monotone)

    p = sub.add_parser("kb-infer", help="combine a knowledge base's "
                                        "statements")
    p.add_argument("path")
    p.add_argument("--rule", default="dempster")
    p.add_argument("--weaken-to", metavar="SET",
                   help="summarize the result as 'typically SET'")
    p.add_argument("-o", "--out", help="write the result as JSON")
    p.set_defaults(func=_cmd_kb_infer)

    p = sub.add_parser("kb-query", help="probability interval a knowledge "
                                        "base assigns to a set")
    p.add_argument("path")
    p.add_argument("--set", required=True)
    p.add_argument("--rule", default="dempster")
    p.set_defaults(func=_cmd_query, parse=parse_kb)

    p = sub.add_parser("sweep", help="grid study of the two-focal family")
    p.add_argument("--alphas", required=True,
                   help="comma-separated strengths for the first structure")
    p.add_argument("--betas", required=True,
                   help="comma-separated strengths for the second structure")
    p.add_argument("--overlap", action="store_true",
                   help="use the overlapping family instead of the "
                        "disjoint one")
    p.add_argument("--rule", required=True)
    p.add_argument("-o", "--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone; the interpreter's own flush at exit must not
        # raise again, so what is still buffered goes to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output pipe closed before the answer was written",
              file=sys.stderr)
        return 1
    except _LoadFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EvicalcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # bad rule names and similar usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
