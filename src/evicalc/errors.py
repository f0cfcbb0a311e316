"""Exception hierarchy for evicalc.

Domain errors (frame mismatches, conflict, malformed structures) all derive
from :class:`EvicalcError`; knowledge-base text errors additionally derive
from :class:`KbError`, which carries source position information.
"""

from __future__ import annotations

from functools import partial


def _text(raw: object) -> str:
    """``repr(raw)`` for an error message, or "<n characters>" for a string
    past 99 characters, so that no message echoes outside text unbounded."""
    if isinstance(raw, str) and len(raw) > 99:
        return f"<{len(raw)} characters>"
    return repr(raw)


class EvicalcError(Exception):
    """Base class for all evicalc errors."""


class FrameMismatch(EvicalcError):
    """Two values bound to different frames were combined."""


class FrameTooLarge(EvicalcError):
    """The frame exceeds the size cap of the requested operation."""


class NegativeMass(EvicalcError):
    """A mass value below zero was supplied."""


class MassSumNotOne(EvicalcError):
    """Focal masses of a belief structure do not sum to exactly 1."""


class EmptyFocalInNormal(EvicalcError):
    """The empty set carried mass in a structure not flagged subnormal."""


class SubnormalInput(EvicalcError):
    """A subnormal structure was passed where a normal one is required."""


class EmptyTarget(EvicalcError):
    """An operation that needs a non-empty set received the empty set."""


class NotTypicalForm(EvicalcError):
    """Hedging requires a two-focal structure of the form {B: s, X: 1-s}."""


class StrengthIncrease(EvicalcError):
    """Hedging can only lower a typicality strength, never raise it."""


class TotalConflict(EvicalcError):
    """Dempster combination is undefined when the conflict mass equals 1."""

    def __init__(self, message: str = "total conflict (K = 1)", *,
                 statement_index: int | None = None):
        super().__init__(message)
        self.statement_index = statement_index


class FoldTooLarge(EvicalcError):
    """A fold's running result, or a result a survey derives from its
    product (checked after each row), passed ``combine.FOLD_FOCAL_BUDGET``
    focal elements; ``statement_index`` names the form being combined in."""

    def __init__(self, message: str, *, statement_index: int | None = None):
        super().__init__(message)
        self.statement_index = statement_index


class ExponentTooLarge(EvicalcError, ValueError):
    """A decimal number's exponent is past ``core.MAX_EXPONENT`` in
    magnitude; a ValueError too, as every other malformed number is."""


class SearchBudgetExceeded(EvicalcError):
    """An exact search hit its node budget before reaching an answer."""


class GridOutOfRange(EvicalcError):
    """A sweep grid value fell outside [0, 1]."""


class KbError(EvicalcError):
    """Base class for knowledge-base text errors; knows its source line."""

    def __init__(self, message: str, *, line: int | None = None,
                 col: int | None = None):
        self.line, self.col = line, col
        where = "" if line is None else f"line {line}" + (
            "" if col is None else f", col {col}") + ": "
        super().__init__(where + message)


class ParseError(KbError):
    """A line does not match the knowledge-base grammar."""


class MissingFrame(KbError):
    """A statement appeared before any frame declaration."""


class UnknownAtom(KbError):
    """A set referenced an atom that is not in the frame."""

    def __init__(self, name: str, *, line: int | None = None,
                 col: int | None = None):
        self.name = name
        super().__init__(f"unknown atom {_text(name)}", line=line, col=col)

    def __reduce__(self):  # rebuilt from its parts, not from its message
        return partial(UnknownAtom, line=self.line, col=self.col), (self.name,)


class VariableMismatch(KbError):
    """Statements used more than one variable name."""


class StrengthOutOfRange(KbError):
    """A typicality strength was outside the open interval (0, 1)."""
