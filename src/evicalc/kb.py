"""Default-knowledge bases: a small statement language over one variable.

Grammar (UTF-8, line oriented, "#" starts a comment, blank lines ignored):

    frame: a, b, c, d
    V is {a, b}
    typically V is {b, c} strength 0.95

The frame line must come first.  An absolute statement ("V is A") compiles to
all mass on its set; a typical statement compiles to a two-focal structure
putting its strength on the set and the rest on the full set.  Strengths are
parsed exactly (decimals or p/q fractions) and must lie strictly between 0
and 1: strength 1 is an absolute statement and must be written as one, and
strength 0 says nothing.

Inference folds the statements' integer forms (:func:`compile_statement`).
The default rule (Dempster's) does not depend on the order, so its fold
takes the most restrictive statements first: the absolute ones in file
order, then the typical ones by ascending set size.  Every other rule folds
in file order.  Under Dempster a typical statement that conflicts outright
with an absolute one is completely discounted, and between two conflicting
typical statements the one with the larger strength keeps the larger share
of belief; strengths thereby act as priorities.

A knowledge base is immutable, so it keeps each inference it has made, one
per combination rule: :func:`infer`, :func:`query` and
:func:`typical_summary` on one knowledge base and rule share a single fold.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .combine import DEMPSTER, CombinationRule, _fold
from .core import (ONE, BeliefStructure, FocalSet, Frame, MassLike,
                   ProbabilityInterval, _check_frame, _num_text, _parse_mass,
                   _typical_form, _Value)
from .errors import (
    MissingFrame,
    ParseError,
    StrengthOutOfRange,
    UnknownAtom,
    VariableMismatch,
    _text,
)


class Absolute(_Value):
    """"V is A": the value certainly lies in the set."""

    _fields = ("set",)
    strength = ONE  # not a field: "typically V is A" at strength 1

    def __init__(self, set: FocalSet):
        if set.is_empty:
            raise ValueError("a statement set must be non-empty")
        object.__setattr__(self, "set", set)


class Typical(_Value):
    """"typically V is B": mass ``strength`` on the set, rest anywhere."""

    _fields = ("set", "strength")

    def __init__(self, set: FocalSet, strength: MassLike):
        if set.is_empty:
            raise ValueError("a statement set must be non-empty")
        strength = _parse_mass(strength)  # 0.99 is 99/100, as in to_mass
        if not 0 < strength.numerator < strength.denominator:
            hint = ("; write an absolute statement instead"
                    if strength == 1 else "")
            raise StrengthOutOfRange(
                f"strength must be strictly between 0 and 1, got "
                f"{_num_text(strength)}{hint}")
        object.__setattr__(self, "set", set)
        object.__setattr__(self, "strength", strength)


Statement = Absolute | Typical


class KnowledgeBase(_Value):
    """An ordered list of statements about one variable over one frame.

    Each instance keeps its inferences by rule in ``_inferred``, which is
    not a field: ``==``, ``hash``, ``repr`` and pickling ignore it.
    """

    _fields = ("frame", "variable", "statements")

    def __init__(self, frame: Frame, variable: str,
                 statements: tuple[Statement, ...]):
        if not statements:
            raise ValueError("a knowledge base needs at least one statement")
        for stmt in statements:
            _check_frame(frame, stmt.set)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "statements", statements)
        object.__setattr__(self, "_inferred", {})


_NAME = re.compile(r"[A-Za-z0-9_]+")
_FRAME_LINE = re.compile(r"^frame\s*:\s*(?P<body>.*)$")
_STMT_LINE = re.compile(
    rf"^(?P<typ>typically\s+)?(?P<var>{_NAME.pattern})\s+is\s+"
    rf"\{{(?P<set>[^{{}}]*)\}}(?P<rest>.*)$")
_STRENGTH = re.compile(r"^\s+strength\s+(?P<num>\S+)\s*$")
# p/q, a whole number, or a decimal with or without its whole part
_NUMBER = re.compile(r"^(?=\.?\d)(\d*)(?:/(\d+)|\.(\d+))?$", re.ASCII)


def _parse_set(frame: Frame, body: str, line: int, col: int) -> FocalSet:
    """The set a statement's braces name, one lookup per name.  A frame
    from :func:`parse_kb` holds only names that match ``_NAME``, so every
    hit is well formed; the first miss runs the checks below, which name
    the first error in the body."""
    index, bits = frame._index, 0
    for part in body.split(","):
        atom = index.get(part.strip())
        if atom is None:
            break
        bits |= 1 << atom
    else:
        return FocalSet(frame, bits)
    names = [part.strip() for part in body.split(",")]
    if names == [""]:
        raise ParseError("a statement set must name at least one atom",
                         line=line, col=col)
    for name in names:
        if not _NAME.fullmatch(name):
            raise ParseError(f"bad atom name {_text(name)}", line=line,
                             col=col)
    try:
        return frame.subset(names)
    except UnknownAtom as exc:
        raise UnknownAtom(exc.name, line=line) from None


def parse_kb(text: str) -> KnowledgeBase:
    """Parse knowledge-base text, reporting errors with line numbers."""
    frame: Frame | None = None
    variable: str | None = None
    statements: list[Statement] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        indent = len(line) - len(line.lstrip()) + 1

        frame_match = (stripped.startswith("frame")
                       and _FRAME_LINE.match(stripped))
        if frame_match:
            if frame is not None:
                raise ParseError("duplicate frame declaration",
                                 line=lineno, col=indent)
            atoms = [part.strip() for part in
                     frame_match.group("body").split(",")]
            if not all(map(_NAME.fullmatch, atoms)):
                raise ParseError("frame atoms must be comma-separated names",
                                 line=lineno, col=indent)
            try:
                frame = Frame(atoms)
            except Exception as exc:
                raise ParseError(str(exc), line=lineno, col=indent) from None
            continue

        if frame is None:
            raise MissingFrame(
                "a frame declaration must precede all statements",
                line=lineno, col=indent)
        stmt = _STMT_LINE.match(stripped)
        if not stmt:
            raise ParseError(
                'expected "VAR is {...}" or "typically VAR is {...} '
                'strength N"', line=lineno, col=indent)
        name = stmt.group("var")
        if variable is None:
            variable = name
        elif name != variable:
            raise VariableMismatch(
                f"statements must use one variable; saw {_text(name)} after "
                f"{_text(variable)}", line=lineno,
                col=indent + stmt.start("var"))
        focal = _parse_set(frame, stmt.group("set"), lineno,
                           indent + stmt.start("set"))
        typ, rest = stmt.group("typ", "rest")
        at = {"line": lineno, "col": indent + stmt.start("rest")}
        if typ:
            strength_match = _STRENGTH.match(rest)
            if not strength_match:
                raise ParseError('a typical statement ends with "strength N"',
                                 **at)
            token = strength_match.group("num")
            number = _NUMBER.match(token)
            if not number:
                raise ParseError(f"bad strength {_text(token)}: use a decimal "
                                 f"or p/q fraction", **at)
            whole, den, digits = number.groups()
            try:  # each part its own int, as Fraction(token) reads them
                if digits:
                    num = int(digits)
                    scale = 10 ** len(digits)
                    strength = Fraction(int(whole or 0) * scale + num, scale)
                else:
                    strength = Fraction(int(whole), int(den or 1))
            except ZeroDivisionError:
                raise ParseError(f"bad strength {_text(token)}: zero "
                                 f"denominator", **at) from None
            except ValueError:  # past the interpreter's integer digit limit
                raise ParseError(f"bad strength: too many digits "
                                 f"({len(token)} characters)", **at) from None
            try:
                statements.append(Typical(focal, strength))
            except StrengthOutOfRange as exc:  # Typical's text, placed
                raise StrengthOutOfRange(str(exc), **at) from None
        else:
            if rest.strip():
                raise ParseError(
                    f"unexpected trailing text {_text(rest.strip())}", **at)
            statements.append(Absolute(focal))
    if frame is None:
        raise MissingFrame("no frame declaration found")
    if not statements:
        raise ParseError("the knowledge base has no statements")
    return KnowledgeBase(frame, variable, tuple(statements))


def serialize_kb(kb: KnowledgeBase) -> str:
    """Canonical text for a knowledge base; parses back to an equal KB."""
    for name in (*kb.frame.atoms, kb.variable):
        if not (isinstance(name, str) and _NAME.fullmatch(name)):
            raise ValueError(f"{_text(name)} is not a knowledge-base name")
    lines = ["frame: " + ", ".join(kb.frame.atoms)]
    for stmt in kb.statements:
        line = f"{kb.variable} is {stmt.set.label()}"
        lines.append(line if isinstance(stmt, Absolute)
                     else f"typically {line} strength {stmt.strength}")
    return "\n".join(lines) + "\n"


def compile_statement(stmt: Statement, frame: Frame) -> BeliefStructure:
    """The belief structure a single statement stands for, built from the
    integer form :func:`infer` folds."""
    return BeliefStructure._from_form(frame, *_typical_form(
        stmt.set.bits, frame.full.bits, stmt.strength))


def _restrictive_first(numbered: tuple[int, Statement]) -> int:
    """Sort key for a Dempster fold: absolute statements first, then
    typical ones by the size of their set."""
    stmt = numbered[1]
    return 0 if isinstance(stmt, Absolute) else stmt.set.bits.bit_count()


def infer(kb: KnowledgeBase,
          rule: CombinationRule = DEMPSTER) -> BeliefStructure:
    """Combine the compiled statements of a knowledge base.

    Every rule but Dempster's folds in knowledge-base order, which is part
    of its answer.  Dempster's rule is commutative and associative, so its
    fold takes the absolute statements first, in knowledge-base order, then
    the typical ones by ascending set size (a stable sort): the running
    result stays small.  A typical statement never reaches K = 1 under
    Dempster, so total conflict comes at the first absolute statement
    disjoint from the intersection of those before it, in either order,
    and is reported with that statement's number in the knowledge base.
    A running result past ``combine.FOLD_FOCAL_BUDGET`` focal elements
    raises FoldTooLarge, which names a statement the same way.

    The fold runs on integer forms and builds one structure at the end,
    once per (knowledge base, rule): its result is kept on the knowledge
    base and returned by every later call, including those made by
    :func:`query` and :func:`typical_summary`.  Errors are not kept, so a
    failing fold raises again on every call.
    """
    if rule not in kb._inferred:
        numbered = enumerate(kb.statements, 1)
        if rule.kind == "dempster":
            numbered = sorted(numbered, key=_restrictive_first)
        full = kb.frame.full.bits
        kb._inferred[rule] = _fold(kb.frame, [
            (position, _typical_form(stmt.set.bits, full, stmt.strength))
            for position, stmt in numbered], rule)[0]
    return kb._inferred[rule]


def query(kb: KnowledgeBase, rule: CombinationRule,
          target: FocalSet) -> ProbabilityInterval:
    """The probability interval the knowledge base assigns to a set.

    Reads the inference :func:`infer` keeps, so it folds only if no call
    has yet folded this knowledge base under this rule.
    """
    return infer(kb, rule).interval(target)


def typical_summary(kb: KnowledgeBase, rule: CombinationRule,
                    target: FocalSet) -> BeliefStructure:
    """Summarize an inference as "typically target", via weakening.

    Returns the two-focal structure whose strength on the target is the
    inferred belief in it; the full inference always flow-entails it.
    Like :func:`query`, it shares the fold :func:`infer` keeps.
    """
    from .entailment import weaken_to
    return weaken_to(infer(kb, rule), target)
