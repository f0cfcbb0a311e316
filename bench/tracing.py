"""Spans around the calls into each evicalc layer, recorded from outside.

The tracer replaces each timed function wherever an evicalc module binds it
(``evicalc.monotonicity.flow_entails`` as well as
``evicalc.entailment.flow_entails``), so calls between layers are seen too.
Spans are ``[name, start, end, parent]`` rows kept in memory; a span's self
time is its duration minus that of its direct children.  The benchmark's own
root span, ``bench.op``, wraps one op: its self time is the op time no layer
accounts for.  Counts are exact and kept beside the spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

from evicalc import cli, core, entailment, io, kb, monotonicity

# The package binds the name `combine` to the function, not the module.
combine = importlib.import_module("evicalc.combine")

# (layer, owner, function): owner is the defining module, or the class for
# a method.  The metric is "<layer>.<function>_ms", self time per op.
TIMED = (
    ("cli", cli, "main"),
    ("io", io, "loads_structure"),
    ("io", io, "format_structure"),
    ("io", io, "dumps_structure"),
    ("kb", kb, "parse_kb"),
    ("kb", kb, "infer"),
    ("kb", kb, "query"),
    ("kb", kb, "typical_summary"),
    ("combine", combine, "combine"),
    ("combine", combine, "conflict_mass"),
    ("core", core.BeliefStructure, "bel_table"),
    ("entailment", entailment, "interval_contained"),
    ("entailment", entailment, "flow_entails"),
    ("entailment", entailment, "partition_entails"),
    ("entailment", entailment, "weaken_to"),
    ("monotonicity", monotonicity, "monotonic_step"),
    ("monotonicity", monotonicity, "pairwise_survey"),
    ("monotonicity", monotonicity, "sweep"),
)

# Counts reported per op (except the *_max and per-output ones), with units.
COUNTS = {
    "combine.calls": "count",
    "combine.product_cells": "count",
    "core.bel_table_calls": "count",
    "core.bel_table_distinct": "count",
    "core.bel_table_cells": "count",
    "entailment.interval_calls": "count",
    "entailment.flow_calls": "count",
    "entailment.flow_edges": "count",
    "kb.focals_out": "count",
    "kb.den_bits_max": "bits",
}


def _count_combine(c: Counter, args, kwargs, result) -> None:
    m1, m2 = args[:2]
    rule = args[2] if len(args) > 2 else kwargs.get("rule", combine.DEMPSTER)
    c["combine.calls"] += 1
    if rule.kind != "discount":
        c["combine.product_cells"] += len(m1) * len(m2)


def _count_conflict(c: Counter, args, kwargs, result) -> None:
    c["combine.product_cells"] += len(args[0]) * len(args[1])


def _count_flow(c: Counter, args, kwargs, result) -> None:
    general = [f.bits for f in args[1].focal_sets()]
    c["entailment.flow_calls"] += 1
    c["entailment.flow_edges"] += sum(
        1 for a in args[0].focal_sets() for b in general
        if a.bits & b == a.bits)


def _count_interval(c: Counter, args, kwargs, result) -> None:
    c["entailment.interval_calls"] += 1


def _count_infer(c: Counter, args, kwargs, result) -> None:
    c["kb.infers"] += 1
    c["kb.focals_total"] += len(result)
    bits = max(w.denominator.bit_length() for _, w in result.items())
    c["kb.den_bits_max"] = max(c["kb.den_bits_max"], bits)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.ops = 0
        self._stack: list[int] = []
        self._tables: set[int] = set()  # ids of structures tabled in this op
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers = {}
        hooks = {"combine": _count_combine, "conflict_mass": _count_conflict,
                 "flow_entails": _count_flow,
                 "interval_contained": _count_interval, "infer": _count_infer,
                 "bel_table": self._count_table}
        for layer, owner, name in TIMED:
            original = getattr(owner, name)
            self._wrappers[original] = (
                owner, name,
                self._wrap(f"{layer}.{name}", original, hooks.get(name)))

    def _count_table(self, c: Counter, args, kwargs, result) -> None:
        c["core.bel_table_calls"] += 1
        c["core.bel_table_cells"] += len(result)
        self._tables.add(id(args[0]))

    def _wrap(self, name: str, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counts, args, kwargs, result)
                return result
            finally:
                stack.pop()
                row[2] = perf_counter()

        return wrapper

    def install(self) -> None:
        """Bind the wrappers wherever an evicalc module binds the originals."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "evicalc" or n.startswith("evicalc.")]
        for original, (owner, name, wrapper) in self._wrappers.items():
            if isinstance(owner, type):
                self._patched.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def run_op(self, op, item):
        """Run one op traced, under a root span; returns (seconds, result)."""
        self._tables.clear()
        root = len(self.spans)
        self.install()
        try:
            result = self._wrap("bench.op", op, None)(item)
        finally:
            self.uninstall()
        self.ops += 1
        self.counts["core.bel_table_distinct"] += len(self._tables)
        _, start, end, _ = self.spans[root]
        return end - start, result

    def metrics(self) -> dict[str, dict]:
        """Self time per op of every timed function, counts per op."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            own[name] += end - start - child[i]
        ops = max(self.ops, 1)
        out = {f"{layer}.{name}_ms":
               {"value": own[f"{layer}.{name}"] * 1000 / ops, "unit": "ms"}
               for layer, _, name in TIMED}
        out["bench.other_ms"] = {"value": own["bench.op"] * 1000 / ops,
                                 "unit": "ms"}
        c = self.counts
        for name, unit in COUNTS.items():
            out[name] = {"value": c[name] / ops, "unit": unit}
        out["kb.focals_out"]["value"] = (c["kb.focals_total"] / c["kb.infers"]
                                         if c["kb.infers"] else 0)
        out["kb.den_bits_max"]["value"] = c["kb.den_bits_max"]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
