"""Command-line front end.

The grammar is one table, COMMANDS, read by :func:`parse_args` with no
argparse: an option's value follows it or its "=", options may come before,
among or after the positionals, and a repeated option's last value wins.
Exit codes: 0 on success, 1 on I/O or parse errors (bad files, or a reader
that closes the output pipe early), 2 on usage errors and domain errors
(total conflict, or a false answer under --assert).  Output is
deterministic byte-for-byte for identical inputs and flags.  The handlers
only decide; :func:`main` is the only writer of stdout and of the --out file,
which it writes first, so a failing run or write leaves stdout empty.
"""

from __future__ import annotations

import os
import sys

from . import io
from .combine import _combine_with_conflict, combine_all, parse_rule
from .core import BeliefStructure, FocalSet
from .errors import EvicalcError, _text


class _LoadFailure(Exception):
    """A file could not be read, parsed or written; exits with status 1."""

    def __init__(self, path: str, cause: Exception):
        # one bounded line: errors._text shows a long or unprintable path
        shown = path if path.isprintable() and 0 < len(path) < 100 \
            else _text(path)
        text = str(cause).replace(repr(path), _text(path))  # OSError quotes it
        super().__init__(f"{shown}: {type(cause).__name__}: {text}")


def _load(path: str, parse):
    """Read an input file and parse its text; a failure exits with status 1."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse(f.read())
    except Exception as exc:
        raise _LoadFailure(path, exc) from exc


def _parse_kb(text: str):
    from .kb import parse_kb
    return parse_kb(text)


def _parse_any(text: str):
    if io.sniff_kind(text) == "structure":
        return io.loads_structure(text)
    return _parse_kb(text)


def _parse_set(value: str, frame) -> FocalSet:
    names = [part.strip() for part in value.split(",") if part.strip()]
    return frame.subset(names)


def _interval_text(m: BeliefStructure, target: FocalSet) -> str:
    lower, upper = m.interval(target)
    width = ("undefined (subnormal)" if m.is_subnormal
             else io.format_mass(upper - lower))
    return (f"set: {target.label()}\nbel = {io.format_mass(lower)}\n"
            f"pl = {io.format_mass(upper)}\nrange = {width}\n")


# Each handler returns (stdout text, --out file text or None, exit code).
# It imports what it runs beyond core, combine, errors and io (json too), so
# that each command loads and compiles only the modules it runs.
def _cmd_validate(args) -> tuple:
    m = _load(args["path"], io.loads_structure)
    return io.format_structure(m), None, 0


def _cmd_query(args, parse=_parse_any) -> tuple:
    rule = parse_rule(args["--rule"])
    loaded = _load(args["path"], parse)
    if isinstance(loaded, BeliefStructure):
        m, head = loaded, ""
    else:
        from .kb import infer
        m = infer(loaded, rule)
        head = f"variable: {loaded.variable}\nrule: {rule}\n"
    target = _parse_set(args["--set"], m.frame)
    return head + _interval_text(m, target), None, 0


def _cmd_combine(args) -> tuple:
    rule = parse_rule(args["--rule"])
    structures = [_load(path, io.loads_structure) for path in args["paths"]]
    if len(structures) == 2:
        result, conflict = _combine_with_conflict(*structures, rule)
        head = f"rule: {rule}\nconflict: {io.format_mass(conflict)}\n"
    else:
        result, head = combine_all(structures, rule), f"rule: {rule}\n"
    saved = io.dumps_structure(result) if args["--out"] is not None else None
    return head + io.format_structure(result), saved, 0


def _cmd_entails(args) -> tuple:
    from .entailment import flow_entails, interval_contained, partition_entails
    m1 = _load(args["path1"], io.loads_structure)
    m2 = _load(args["path2"], io.loads_structure)
    if args["--mode"] == "interval":
        verdict, violator = interval_contained(m1, m2)
        answer = f"contained: {'true' if verdict else 'false'}\n"
        if violator is not None:
            answer += f"violating set: {violator.label()}\n"
    else:
        check = flow_entails if args["--mode"] == "flow" else partition_entails
        witness = check(m1, m2)
        verdict = witness is not None
        answer = f"entails: {'true' if verdict else 'false'}\n"
        if verdict:
            answer += io.format_witness(witness)
    code = 2 if args["--assert"] and not verdict else 0
    return f"mode: {args['--mode']}\n{answer}", None, code


def _cmd_monotone(args) -> tuple:
    import json
    from .monotonicity import pairwise_survey
    rules = [parse_rule(name) for name in args["--rules"].split(",")]
    m1 = _load(args["path1"], io.loads_structure)
    m2 = _load(args["path2"], io.loads_structure)
    reports = [io.report_to_obj(r) for r in pairwise_survey(m1, m2, rules)]
    return json.dumps(reports, indent=2) + "\n", None, 0


def _cmd_kb_infer(args) -> tuple:
    from .kb import infer, parse_kb, typical_summary
    rule = parse_rule(args["--rule"])
    kb = _load(args["path"], parse_kb)
    head = f"variable: {kb.variable}\nrule: {rule}\n"
    if args["--weaken-to"] is not None:
        target = _parse_set(args["--weaken-to"], kb.frame)
        head += f"weaken to: {target.label()}\n"
        result = typical_summary(kb, rule, target)
    else:
        result = infer(kb, rule)
    saved = io.dumps_structure(result) if args["--out"] is not None else None
    return head + io.format_structure(result), saved, 0


def _cmd_sweep(args) -> tuple:
    from .monotonicity import sweep, sweep_csv
    rule = parse_rule(args["--rule"])
    alphas = [part.strip() for part in args["--alphas"].split(",")]
    betas = [part.strip() for part in args["--betas"].split(",")]
    rows = sweep(alphas, betas, disjoint=not args["--overlap"], rule=rule)
    csv = sweep_csv(rows)
    return ("", csv, 0) if args["--out"] is not None else (csv, None, 0)


# The command-line grammar: each command's handler, its positionals and its
# options.  An option maps to its default: REQUIRED when it must be given, or
# False for a flag, which is True once given.  A trailing "..." takes any
# number more positionals, and all of them as "paths".  Only --mode has
# CHOICES.  USAGE, printed by -h or --help anywhere, restates the table.
REQUIRED = object()
QUERY = {"--set": REQUIRED, "--rule": "dempster"}
COMMANDS = {
    "validate": (_cmd_validate, ("path",), {}),
    "query": (_cmd_query, ("path",), QUERY),
    "combine": (_cmd_combine, ("path1", "path2", "..."),
                {"--rule": REQUIRED, "--out": None}),
    "entails": (_cmd_entails, ("path1", "path2"),
                {"--mode": "flow", "--assert": False}),
    "monotone": (_cmd_monotone, ("path1", "path2"), {"--rules": REQUIRED}),
    "kb-infer": (_cmd_kb_infer, ("path",),
                 {"--rule": "dempster", "--weaken-to": None, "--out": None}),
    "kb-query": (lambda args: _cmd_query(args, _parse_kb), ("path",), QUERY),
    "sweep": (_cmd_sweep, (), {"--alphas": REQUIRED, "--betas": REQUIRED,
                               "--overlap": False, "--rule": REQUIRED,
                               "--out": None}),
}
CHOICES = {"--mode": ("flow", "partition", "interval")}
USAGE = """\
usage: evicalc validate PATH
       evicalc query PATH --set A,B [--rule R]
       evicalc combine PATH PATH [PATH ...] --rule R [-o OUT]
       evicalc entails PATH PATH [--mode flow|partition|interval] [--assert]
       evicalc monotone PATH PATH --rules R1,R2
       evicalc kb-infer PATH [--rule R] [--weaken-to A,B] [-o OUT]
       evicalc kb-query PATH --set A,B [--rule R]
       evicalc sweep --alphas S1,S2 --betas S1,S2 [--overlap] --rule R [-o OUT]
An option's value follows it or its "="; -o is --out; -h prints this text.
"""


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _choice(name: str, value: str, choices) -> str:
    if value not in choices:
        _usage_error(f"argument {name}: invalid choice: {_text(value)} "
                     f"(choose from {', '.join(map(repr, choices))})")
    return value


def parse_args(argv: list[str]):
    """The handler and the arguments, by positional or option name, that
    ``argv`` gives under COMMANDS.  A usage error prints one ``error:`` line
    (argv values in it shown by ``errors._text``) and exits 2."""
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        raise SystemExit(0)
    if not argv:
        _usage_error("the following arguments are required: command")
    handler, positionals, options = COMMANDS[
        _choice("command", argv[0], COMMANDS)]
    values, given, tokens = dict(options), [], iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        name = "--out" if name == "-o" else name
        if len(token) < 2 or token[0] != "-":
            given.append(token)
        elif name not in options or eq and options[name] is False:
            _usage_error(f"unrecognized argument: {_text(token)}")
        elif options[name] is False:
            values[name] = True
        else:  # a value option takes the next token, whatever it is
            value = value if eq else next(tokens, None)
            if value is None:
                _usage_error(f"argument {name}: expected one argument")
            values[name] = _choice(name, value, CHOICES.get(name, [value]))
    named = [p for p in positionals if p != "..."]
    missing = named[len(given):] + [n for n, v in values.items()
                                    if v is REQUIRED]
    if missing:
        _usage_error(f"the following arguments are required: "
                     f"{', '.join(missing)}")
    if len(given) > len(named) and "..." not in positionals:
        _usage_error(f"unrecognized argument: {_text(given[len(named)])}")
    values.update({"paths": given} if "..." in positionals
                  else zip(named, given))
    return handler, values


def main(argv: list[str] | None = None) -> int:
    handler, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        answer, saved, code = handler(args)
        if saved is not None:
            try:
                with open(args["--out"], "w", encoding="utf-8") as f:
                    f.write(saved)
            except OSError as exc:
                raise _LoadFailure(args["--out"], exc) from exc
        sys.stdout.write(answer)
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

