"""Exact-arithmetic belief structures and evidential reasoning.

Belief structures over finite frames with rational masses, the family of
conflict-handling combination rules, entailment checking with verifiable
witnesses, monotonicity analysis of evidence aggregation, and a small
default-knowledge language.
"""

from .core import (
    BeliefStructure,
    FocalSet,
    Frame,
    ProbabilityInterval,
    decimal6,
    mass_str,
    to_mass,
)
from .combine import (
    CELL_ROUTING_RULES,
    DEMPSTER,
    DUBOIS_PRADE,
    PRIORITY_FIRST,
    PRIORITY_SECOND,
    UNNORMALIZED,
    YAGER,
    CombinationRule,
    combine,
    combine_all,
    conflict_mass,
    discount,
    parse_rule,
    possibility,
)
from .entailment import (
    EntailmentWitness,
    flow_entails,
    hedge,
    interval_contained,
    partition_entails,
    validate_witness,
    weaken_to,
)
from .kb import (
    Absolute,
    KnowledgeBase,
    Statement,
    Typical,
    compile_statement,
    infer,
    parse_kb,
    query,
    serialize_kb,
    typical_summary,
)
from . import errors
from . import io

__version__ = "0.1.0"

# Served on first use (PEP 562): MonotonicityReport is a dataclass, and
# importing dataclasses (with inspect, ast and dis) would be a large share
# of the start-up of every command that needs no report.
_MONOTONICITY = (
    "MonotonicityReport", "SweepRow", "canonical_pair", "monotonic_step",
    "pairwise_survey", "sweep", "sweep_csv",
)

__all__ = [
    "BeliefStructure", "FocalSet", "Frame", "ProbabilityInterval",
    "decimal6", "mass_str", "to_mass",
    "CELL_ROUTING_RULES", "DEMPSTER", "DUBOIS_PRADE", "PRIORITY_FIRST",
    "PRIORITY_SECOND", "UNNORMALIZED", "YAGER", "CombinationRule",
    "combine", "combine_all", "conflict_mass", "discount", "parse_rule",
    "possibility",
    "EntailmentWitness", "flow_entails", "hedge", "interval_contained",
    "partition_entails", "validate_witness", "weaken_to",
    *_MONOTONICITY,
    "Absolute", "KnowledgeBase", "Statement", "Typical", "compile_statement",
    "infer", "parse_kb", "query", "serialize_kb", "typical_summary",
    "errors", "io",
]


def __getattr__(name: str):
    if name in _MONOTONICITY:
        from . import monotonicity
        return getattr(monotonicity, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
