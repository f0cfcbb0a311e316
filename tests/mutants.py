"""Mutants that the test suite must kill, for ``scripts/mutate.py``.

Each entry names a file under ``src/``, an ``old`` text that must occur in
it exactly once, the ``new`` text that replaces it, and the ``tests`` (files
or node ids, relative to the repository) of which at least one must fail on
the mutated copy.  An entry with ``equivalent`` (the reason) changes no
behaviour: the gate checks only that its old text still occurs once.  A
refactor that moves an old text updates its entry here.  Standard library
only: the runner imports this file before any test tool.
"""

MUTANTS = [
    # monotonicity._from_product: the survey's results off the product
    {
        "name": "derived Dubois-Prade routed to the left set",
        "path": "evicalc/monotonicity.py",
        "old": "route = _CONFLICT_TARGET[kind]",
        "new": "route = _CONFLICT_TARGET[\n"
               "            'priority-first' if kind == 'dubois-prade'"
               " else kind]",
        "tests": ["tests/test_monotonicity.py"],
    },
    {
        "name": "derived priority targets swapped",
        "path": "evicalc/monotonicity.py",
        "old": "route = _CONFLICT_TARGET[kind]",
        "new": "route = _CONFLICT_TARGET[{\n"
               "            'priority-first': 'priority-second',\n"
               "            'priority-second': 'priority-first'}.get(kind,"
               " kind)]",
        "tests": ["tests/test_monotonicity.py"],
    },
    {
        "name": "derived results keep the empty set's mass",
        "path": "evicalc/monotonicity.py",
        "old": "for bits, w in product._nums.items() if bits}",
        "new": "for bits, w in product._nums.items()}",
        "tests": ["tests/test_monotonicity.py"],
    },
    {
        "name": "derived Dempster over the product's whole denominator",
        "path": "evicalc/monotonicity.py",
        "old": "frame, kept, sum(kept.values()))",
        "new": "frame, kept, den)",
        "tests": ["tests/test_monotonicity.py"],
    },
    # entailment.interval_contained
    {
        "name": "interval prelude counts the empty set's mass",
        "path": "evicalc/entailment.py",
        "old": "            if bits:  # empty-set mass counts toward neither",
        "new": "            if True:  # empty-set mass counts toward neither",
        "tests": ["tests/test_entailment.py"],
    },
    {
        "name": "interval check adds m2 instead of subtracting it",
        "path": "evicalc/entailment.py",
        "old": "(m2._nums, -(den // m2._den))",
        "new": "(m2._nums, den // m2._den)",
        "tests": ["tests/test_entailment.py"],
    },
    {
        "name": "interval check drops the complement (pl) clause",
        "path": "evicalc/entailment.py",
        "old": "if inside < 0 or rest < gap), None)",
        "new": "if inside < 0), None)",
        "tests": ["tests/test_entailment.py"],
    },
    {
        "name": "interval growth appends the new block without inner",
        "path": "evicalc/entailment.py",
        "old": "        new[:] = map(add, new, inner)\n",
        "new": "",
        "tests": ["tests/test_entailment.py::TestIntervalLevels"],
    },
    {
        "name": "interval growth's front block takes only pairs below 2**j",
        "path": "evicalc/entailment.py",
        "old": "if not bits & half:",
        "new": "if bits < half:",
        "tests": ["tests/test_entailment.py::TestIntervalLevels::"
                  "test_every_level[6]"],
    },
    {
        "name": "interval growth's new block takes every pair with bit j",
        "path": "evicalc/entailment.py",
        "old": "            elif bits < half << 1:\n"
               "                new[bits - half] += w",
        "new": "            else:\n"
               "                new[bits & half - 1] += w",
        "tests": ["tests/test_entailment.py::TestIntervalLevels::"
                  "test_every_level[6]"],
    },
    {
        "name": "interval growth counts the empty set's mass",
        "path": "evicalc/entailment.py",
        "old": "for bits, w in nums.items() if bits]",
        "new": "for bits, w in nums.items()]",
        "tests": ["tests/test_entailment.py::TestIntervalLevels::"
                  "test_every_level"],
    },
    # combine
    {
        "name": "Dempster conflict routed to X",
        "path": "evicalc/combine.py",
        "old": '"dempster": None,',
        "new": '"dempster": lambda a, b, full: full,',
        "tests": ["tests/test_combine.py"],
    },
    {
        "name": "conflict cells skip X's row",
        "path": "evicalc/combine.py",
        "old": "    n2 = m2._nums.items()\n    return ((a, b, wa * wb)",
        "new": "    n2 = [(b, w) for b, w in m2._nums.items()\n"
               "          if b != m2.frame.full.bits]\n"
               "    return ((a, b, wa * wb)",
        "tests": ["tests/test_combine.py"],
    },
    # kb
    {
        "name": "Yager knowledge bases fold restrictive-first too",
        "path": "evicalc/kb.py",
        "old": 'if rule.kind == "dempster":',
        "new": 'if rule.kind in ("dempster", "yager"):',
        "tests": ["tests/test_kb.py"],
    },
    {
        "name": "statements numbered after the restrictive-first sort",
        "path": "evicalc/kb.py",
        "old": "numbered = sorted(numbered, key=_restrictive_first)",
        "new": "numbered = enumerate([stmt for _, stmt in sorted(\n"
               "                numbered, key=_restrictive_first)], 1)",
        "tests": ["tests/test_kb.py"],
    },
    {
        "name": "empty statement set read as one atom named ''",
        "path": "evicalc/kb.py",
        "old": "    if names == [\"\"]:\n"
               "        raise ParseError(\"a statement set must name at"
               " least one atom\",\n"
               "                         line=line, col=col)\n",
        "new": "",
        "tests": ["tests/test_kb.py::TestParse::"
                  "test_each_parse_error_names_its_line_and_column"],
    },
    {
        "name": "discount weight above 1 accepted",
        "path": "evicalc/combine.py",
        "old": "elif not 0 <= c <= 1:",
        "new": "elif not 0 <= c:",
        "tests": ["tests/test_combine.py"],
    },
    # cli
    {
        "name": "sweep tests --out for truth",
        "path": "evicalc/cli.py",
        "old": 'return ("", csv, 0) if args["--out"] is not None',
        "new": 'return ("", csv, 0) if args["--out"]',
        "tests": ["tests/test_cli.py::TestCombine"],
    },
    {
        "name": "a flag accepts a value after =",
        "path": "evicalc/cli.py",
        "old": "elif name not in options or eq and options[name] is False:",
        "new": "elif name not in options:",
        "tests": ["tests/test_cli.py::TestUsageErrors::"
                  "test_dropped_and_refused_forms"],
    },
    {
        "name": "-o no longer stands for --out",
        "path": "evicalc/cli.py",
        "old": "        name = \"--out\" if name == \"-o\" else name\n",
        "new": "",
        "tests": ["tests/test_cli.py::TestCombine::"
                  "test_write_then_validate_round_trip"],
    },
    # io
    {
        "name": "mass entries read without the set and mass key check",
        "path": "evicalc/io.py",
        "old": "        if not isinstance(entry, dict) or \"set\" not in entry \\\n"
               "                or \"mass\" not in entry:",
        "new": "        if not isinstance(entry, dict):",
        "tests": ["tests/test_io.py::TestStructureDocuments::"
                  "test_malformed_documents"],
    },
    {
        "name": "json imported at the top of cli",
        "path": "evicalc/cli.py",
        "old": "import os\nimport sys\n",
        "new": "import json\nimport os\nimport sys\n",
        "tests": ["tests/test_cli.py::TestImports"],
    },
    {
        "name": "entailment imported at the top of cli",
        "path": "evicalc/cli.py",
        "old": "from .combine import _combine_with_conflict, combine_all,"
               " parse_rule\n",
        "new": "from .combine import _combine_with_conflict, combine_all,"
               " parse_rule\nfrom . import entailment\n",
        "tests": ["tests/test_cli.py::TestImports"],
    },
    # core._zeta
    {
        "name": "zeta pair partner on the wrong bit",
        "path": "evicalc/core.py",
        "old": "(mask, mask ^ 1 << i) for i in range(n)",
        "new": "(mask, mask ^ 1 << n - 1 - i) for i in range(n)",
        "tests": ["tests/test_core.py::TestZeta"],
    },
    {
        "name": "zeta pair-list cutoff",
        "path": "evicalc/core.py",
        "old": "if n <= 8:",
        "new": "if n <= 7:",
        "equivalent": "both shapes add the same partners bit by bit; the "
                      "cutoff only picks the faster one and bounds the "
                      "listed pairs' memory",
    },
    {
        "name": "zeta slice-shape threshold",
        "path": "evicalc/core.py",
        "old": "if half * step <= size:",
        "new": "if half * step < size:",
        "equivalent": "both slice shapes add the same partners; the "
                      "threshold only picks the faster one",
    },
]
