"""Exact-arithmetic belief structures and evidential reasoning.

Belief structures over finite frames with rational masses, the family of
conflict-handling combination rules, entailment checking with verifiable
witnesses, monotonicity analysis of evidence aggregation, and a small
default-knowledge language.
"""

from .core import (BeliefStructure, FocalSet, Frame, ProbabilityInterval,
                   decimal6, mass_str, to_mass)
from .combine import (CELL_ROUTING_RULES, DEMPSTER, DUBOIS_PRADE,
                      PRIORITY_FIRST, PRIORITY_SECOND, UNNORMALIZED, YAGER,
                      CombinationRule, combine, combine_all, conflict_mass,
                      discount, parse_rule, possibility)
from . import errors
from . import io

__version__ = "0.1.0"

# Served on first use (PEP 562), each name from the module it is listed
# under, so that a command loads and compiles only the modules it runs.
# core, combine, errors and io stay eager: every command needs them, and
# combine must, as the package binds that name to the function, which a lazy
# load of the submodule would rebind to the module.
_LAZY = {
    "entailment": (
        "EntailmentWitness", "flow_entails", "hedge", "interval_contained",
        "partition_entails", "validate_witness", "weaken_to"),
    "kb": (
        "Absolute", "KnowledgeBase", "Statement", "Typical",
        "compile_statement", "infer", "parse_kb", "query", "serialize_kb",
        "typical_summary"),
    "monotonicity": (
        "MonotonicityReport", "SweepRow", "canonical_pair", "monotonic_step",
        "pairwise_survey", "sweep", "sweep_csv"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "BeliefStructure", "FocalSet", "Frame", "ProbabilityInterval",
    "decimal6", "mass_str", "to_mass",
    "CELL_ROUTING_RULES", "DEMPSTER", "DUBOIS_PRADE", "PRIORITY_FIRST",
    "PRIORITY_SECOND", "UNNORMALIZED", "YAGER", "CombinationRule",
    "combine", "combine_all", "conflict_mass", "discount", "parse_rule",
    "possibility",
    *_HOME,
    "errors", "io",
]


def __getattr__(name: str):
    home = _HOME.get(name, name)
    if home not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAZY})
