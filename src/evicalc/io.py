"""JSON documents and deterministic text rendering.

The belief-structure document looks like

    {"frame": ["a", "b", "c", "d"],
     "subnormal": false,
     "masses": [{"set": ["a", "b"], "mass": "3/5"},
                {"set": ["a", "b", "c", "d"], "mass": "2/5"}]}

Masses accept "p/q" strings, decimal strings, or JSON numbers; all parse
exactly (a JSON literal like 0.99 becomes the rational 99/100, never the
nearest double).  Serialization sorts sets by bitmask and emits reduced
fractions, so writing is byte-stable.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .core import (
    BeliefStructure,
    FocalSet,
    Frame,
    _check_printable,
    _parse_mass,
    decimal6,
    mass_str,
    to_mass,
)
from .errors import EvicalcError


def set_to_obj(focal: FocalSet) -> list[str]:
    return list(focal.atoms)


def structure_to_obj(m: BeliefStructure) -> dict[str, object]:
    return {
        "frame": list(m.frame.atoms),
        "subnormal": m.is_subnormal,
        "masses": [{"set": set_to_obj(f), "mass": mass_str(w)}
                   for f, w in m.items()],
    }


def structure_from_obj(obj: object) -> BeliefStructure:
    if not isinstance(obj, dict):
        raise ValueError("belief-structure document must be a JSON object")
    try:
        atoms = obj["frame"]
        masses = obj["masses"]
    except KeyError as exc:
        raise ValueError(f"missing key {exc.args[0]!r}") from None
    if not isinstance(atoms, list):
        raise ValueError('"frame" must be a list of atom names')
    frame = Frame(atoms)
    subnormal = obj.get("subnormal", False)
    if not isinstance(subnormal, bool):
        raise ValueError('"subnormal" must be true or false')
    if not isinstance(masses, list):
        raise ValueError('"masses" must be a list of {"set", "mass"} entries')
    assignments = []
    for entry in masses:
        if not isinstance(entry, dict) or "set" not in entry \
                or "mass" not in entry:
            raise ValueError('each mass entry needs "set" and "mass"')
        if not isinstance(entry["set"], list) or not all(
                isinstance(name, str) for name in entry["set"]):
            raise ValueError('"set" must be a list of atom names')
        assignments.append((frame.subset(entry["set"]),
                            to_mass(entry["mass"])))
    m = BeliefStructure(frame, assignments, subnormal=subnormal)
    for _, mass in m.bit_items():  # each must print; their lcm need not
        _check_printable(mass)
    return m


def dumps_structure(m: BeliefStructure) -> str:
    import json
    return json.dumps(structure_to_obj(m), indent=2, ensure_ascii=False) + "\n"


def loads_structure(text: str) -> BeliefStructure:
    import json
    # parse_float sees the literal source text, so decimals convert exactly
    return structure_from_obj(json.loads(text, parse_float=_parse_mass))


def load_structure(path: str | os.PathLike) -> BeliefStructure:
    with open(path, encoding="utf-8") as f:
        return loads_structure(f.read())


def save_structure(m: BeliefStructure, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_structure(m))


def witness_to_obj(witness) -> dict[str, object]:
    """An :class:`evicalc.entailment.EntailmentWitness` as a JSON object."""
    return {
        "mode": witness.mode,
        "triples": [{"from": set_to_obj(a), "to": set_to_obj(b),
                     "mass": mass_str(w)} for a, b, w in witness.triples],
    }


def report_to_obj(report) -> dict[str, object]:
    """A :class:`evicalc.monotonicity.MonotonicityReport` as a JSON object."""
    def maybe_set(focal: FocalSet | None) -> list[str] | None:
        return None if focal is None else set_to_obj(focal)

    return {
        "rule": str(report.rule),
        "conflict": mass_str(report.conflict),
        "infeasible": report.infeasible,
        "entails_first": report.entails_first,
        "entails_second": report.entails_second,
        "interval_ok_first": report.interval_ok_first,
        "interval_ok_second": report.interval_ok_second,
        "interval_skipped": report.interval_skipped,
        "witness_first": maybe_set(report.witness_first),
        "witness_second": maybe_set(report.witness_second),
        "combined": (None if report.combined is None
                     else structure_to_obj(report.combined)),
    }


def format_mass(value: Fraction) -> str:
    """Fraction first, 6-place decimal alongside: "3/5 ~ 0.600000"."""
    return f"{mass_str(value)} ~ {decimal6(value)}"


def format_structure(m: BeliefStructure) -> str:
    """Deterministic text block listing the focal elements in bitmask order."""
    lines = [
        "frame: " + ", ".join(m.frame.atoms),
        f"subnormal: {'true' if m.is_subnormal else 'false'}",
        f"focal elements: {len(m)}",
    ]
    for focal, mass in m.items():
        lines.append(f"m({focal.label()}) = {format_mass(mass)}")
    return "\n".join(lines) + "\n"


def format_witness(witness) -> str:
    """An :class:`evicalc.entailment.EntailmentWitness` as text."""
    lines = ["witness:"]
    for a, b, w in witness.triples:
        lines.append(f"  {a.label()} -> {b.label()} : {mass_str(w)}")
    return "\n".join(lines) + "\n"


def sniff_kind(text: str) -> str:
    """Classify input text as a JSON structure or knowledge-base source."""
    for ch in text:
        if not ch.isspace():
            return "structure" if ch == "{" else "kb"
    raise EvicalcError("empty input file")
