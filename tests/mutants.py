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
    # monotonicity._results: the survey's results off the product
    {
        "name": "derived Dubois-Prade routed to the left set",
        "path": "evicalc/monotonicity.py",
        "old": "(kind, _CONFLICT_TARGET[kind], dict(kept))",
        "new": "(kind, _CONFLICT_TARGET[\n"
               "            'priority-first' if kind == 'dubois-prade'"
               " else kind], dict(kept))",
        "tests": ["tests/test_monotonicity.py"],
    },
    {
        "name": "derived priority targets swapped",
        "path": "evicalc/monotonicity.py",
        "old": "(kind, _CONFLICT_TARGET[kind], dict(kept))",
        "new": "(kind, _CONFLICT_TARGET[{\n"
               "            'priority-first': 'priority-second',\n"
               "            'priority-second': 'priority-first'}.get(kind,"
               " kind)], dict(kept))",
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
    {
        "name": "survey refuses a derived result of exactly the budget",
        "path": "evicalc/monotonicity.py",
        "old": "if len(out) > FOLD_FOCAL_BUDGET:",
        "new": "if len(out) >= FOLD_FOCAL_BUDGET:",
        "tests": ["tests/test_monotonicity.py::TestSurveyBudget::"
                  "test_a_result_of_the_budget_passes"],
    },
    {
        "name": "survey does not check derived results against the budget",
        "path": "evicalc/monotonicity.py",
        "old": "            for _, _, out in routed:\n"
               "                if len(out) > FOLD_FOCAL_BUDGET:  # no cell "
               "removes a target\n"
               "                    raise _past_budget(2)\n",
        "new": "",
        "tests": ["tests/test_monotonicity.py::TestSurveyBudget::"
                  "test_a_result_of_the_budget_passes"],
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
    # entailment: the flow layer and the partition search
    {
        "name": "Hall bound refutes a row that fits exactly",
        "path": "evicalc/entailment.py",
        "old": "if any(w > sum(general[j][1] for j in adj[i])",
        "new": "if any(w >= sum(general[j][1] for j in adj[i])",
        "tests": ["tests/test_entailment.py::TestHallBound::"
                  "test_verdict_witness_and_early_out"],
    },
    {
        "name": "flow's first phase feeds each row's columns in reverse",
        "path": "evicalc/entailment.py",
        "old": "for col in (rows + j for j in adj[i]):",
        "new": "for col in (rows + j for j in reversed(adj[i])):",
        "tests": ["tests/test_entailment.py::TestFlowWitnessEquality::"
                  "test_identical_triples"],
    },
    {
        "name": "flow accepts a partial transport",
        "path": "evicalc/entailment.py",
        "old": "if sum(cap[sink].values()) != scale:",
        "new": "if not sum(cap[sink].values()):",
        "tests": ["tests/test_entailment.py::TestFlowOracle::"
                  "test_verdict_and_witness"],
    },
    {
        "name": "partition search skips exact fits",
        "path": "evicalc/entailment.py",
        "old": "residual[j] >= mass[k]",
        "new": "residual[j] > mass[k]",
        "tests": ["tests/test_entailment.py::TestPartition::"
                  "test_no_conflict_combination_entails_the_input"],
    },
    {
        "name": "partition search runs without the flow check first",
        "path": "evicalc/entailment.py",
        "old": "    if flow_entails(m1, m2) is None:\n        return None\n",
        "new": "",
        "tests": ["tests/test_entailment.py::TestPartitionSearch::"
                  "test_flow_check_comes_before_the_search"],
    },
    {
        "name": "flow's first phase skipped",
        "path": "evicalc/entailment.py",
        "old": "    for i in range(rows):\n",
        "new": "    for i in range(0):\n",
        "equivalent": "the first phase takes the paths the max-flow's own "
                      "search would take, in the same order, so only the "
                      "time changes, not the witness",
    },
    {
        "name": "flow's breadth-first search not cut short at the sink",
        "path": "evicalc/entailment.py",
        "old": "                    if cap[v].get(sink):\n"
               "                        prev[sink] = v\n"
               "                        break\n",
        "new": "",
        "equivalent": "the queue pops nodes in the order it finds them, so "
                      "the first column popped with room to the sink is the "
                      "first one found; the search only runs longer",
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
        "name": "fold refuses a result of exactly the budget",
        "path": "evicalc/combine.py",
        "old": "if len(out) > FOLD_FOCAL_BUDGET:  # no cell",
        "new": "if len(out) >= FOLD_FOCAL_BUDGET:  # no cell",
        "tests": ["tests/test_combine.py::TestFoldBudget"],
    },
    {
        "name": "fold does not check X's row against the budget",
        "path": "evicalc/combine.py",
        "old": "        if len(out) > FOLD_FOCAL_BUDGET:  # X's row, checked as "
               "each below\n"
               "            raise _past_budget(index)\n",
        "new": "",
        "tests": ["tests/test_combine.py::TestFoldBudget::"
                  "test_a_vacuous_operand_passes_on_a_result_past_it"],
    },
    {
        "name": "conflict_mass skips X's row",
        "path": "evicalc/combine.py",
        "old": "    n2 = m2._nums.items()\n    return Fraction(sum(",
        "new": "    n2 = [(b, w) for b, w in m2._nums.items()\n"
               "          if b != m2.frame.full.bits]\n"
               "    return Fraction(sum(",
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
        "name": "statement set skips an unknown name",
        "path": "evicalc/kb.py",
        "old": "        if atom is None:\n            break\n",
        "new": "        if atom is None:\n            continue\n",
        "tests": ["tests/test_kb.py::TestParse::"
                  "test_unknown_atom_carries_its_line"],
    },
    {
        "name": "frame line read only as \"frame:\"",
        "path": "evicalc/kb.py",
        "old": 'stripped.startswith("frame")',
        "new": 'stripped.startswith("frame:")',
        "tests": ["tests/test_kb.py::TestParse::test_frame_line_spacing"],
    },
    {
        "name": "duplicate frame declaration accepted",
        "path": "evicalc/kb.py",
        "old": "            if frame is not None:\n"
               "                raise ParseError(\"duplicate frame "
               "declaration\",\n"
               "                                 line=lineno, col=indent)\n",
        "new": "",
        "tests": ["tests/test_kb.py::TestParse::"
                  "test_parse_errors[err_duplicate_frame.kb]"],
    },
    {
        "name": "second variable name accepted",
        "path": "evicalc/kb.py",
        "old": "        elif name != variable:\n",
        "new": "        elif False:\n",
        "tests": ["tests/test_kb.py::TestParse::test_variable_mismatch"],
    },
    {
        "name": "trailing text after an absolute statement accepted",
        "path": "evicalc/kb.py",
        "old": "            if rest.strip():\n"
               "                raise ParseError(\n"
               "                    f\"unexpected trailing text "
               "{_text(rest.strip())}\", **at)\n",
        "new": "",
        "tests": ["tests/test_kb.py::TestParse::"
                  "test_each_parse_error_names_its_line_and_column"
                  "[trailing-text]"],
    },
    {
        "name": "typical strength 1 accepted",
        "path": "evicalc/kb.py",
        "old": "0 < strength.numerator < strength.denominator",
        "new": "0 < strength.numerator <= strength.denominator",
        "tests": ["tests/test_kb.py::TestParse::"
                  "test_strength_out_of_range[err_strength_one.kb]"],
    },
    {
        "name": "typical strength 0 accepted",
        "path": "evicalc/kb.py",
        "old": "0 < strength.numerator < strength.denominator",
        "new": "0 <= strength.numerator < strength.denominator",
        "tests": ["tests/test_kb.py::TestParse::"
                  "test_strength_out_of_range[err_strength_zero.kb]"],
    },
    {
        "name": "strength token's zero denominator escapes the parser",
        "path": "evicalc/kb.py",
        "old": "            except ZeroDivisionError:\n"
               "                raise ParseError(f\"bad strength "
               "{_text(token)}: zero \"\n"
               "                                 f\"denominator\", **at) "
               "from None\n",
        "new": "",
        "tests": ["tests/test_kb.py::TestParse::"
                  "test_each_parse_error_names_its_line_and_column"
                  "[zero-denominator]"],
    },
    {
        "name": "discount weight above 1 accepted",
        "path": "evicalc/combine.py",
        "old": "elif not 0 <= c <= 1:",
        "new": "elif not 0 <= c:",
        "tests": ["tests/test_combine.py"],
    },
    {
        "name": "unknown rule kind accepted",
        "path": "evicalc/combine.py",
        "old": "            raise ValueError(f\"unknown combination rule "
               "{_text(kind)}\")\n",
        "new": "            pass\n",
        "tests": ["tests/test_combine.py::TestCombineContracts::"
                  "test_unknown_rule_kind_is_refused"],
    },
    {
        "name": "cell-routing rule accepts a parameter",
        "path": "evicalc/combine.py",
        "old": "            if c is not None:\n"
               "                raise ValueError(f\"rule {kind} takes no "
               "parameter\")\n",
        "new": "            pass\n",
        "tests": ["tests/test_combine.py::TestCombineContracts::"
                  "test_cell_routing_rule_with_a_parameter_is_refused"],
    },
    {
        "name": "discount weight that is not a fraction accepted",
        "path": "evicalc/combine.py",
        "old": "        elif isinstance(c, bool) or not isinstance(c, (int, "
               "Fraction)):\n"
               "            raise ValueError(f\"discount weight {_text(c)} is "
               "not a fraction\")\n",
        "new": "",
        "tests": ["tests/test_combine.py::TestCombineContracts::"
                  "test_discount_rule_without_a_fraction_weight_is_refused"],
    },
    {
        "name": "discount weight too long to print accepted",
        "path": "evicalc/combine.py",
        "old": "            _check_printable(c)\n",
        "new": "            pass\n",
        "tests": ["tests/test_combine.py::TestCombineContracts::"
                  "test_discount_weight_too_long_to_print_is_refused"],
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
        "name": "structure frame read without the list check",
        "path": "evicalc/io.py",
        "old": "    if not isinstance(atoms, list):\n"
               "        raise ValueError('\"frame\" must be a list of atom "
               "names')\n",
        "new": "",
        "tests": ["tests/test_io.py::TestStructureDocuments::"
                  "test_malformed_documents"],
    },
    {
        "name": "mass entry's set read without the list check",
        "path": "evicalc/io.py",
        "old": "        if not isinstance(entry[\"set\"], list) or not all(\n"
               "                isinstance(name, str) for name in "
               "entry[\"set\"]):\n"
               "            raise ValueError('\"set\" must be a list of atom "
               "names')\n",
        "new": "",
        "tests": ["tests/test_io.py::TestStructureDocuments::"
                  "test_malformed_documents"],
    },
    {
        "name": "subnormal flag read without the bool check",
        "path": "evicalc/io.py",
        "old": "    if not isinstance(subnormal, bool):\n"
               "        raise ValueError('\"subnormal\" must be true or "
               "false')\n",
        "new": "",
        "tests": ["tests/test_io.py::TestStructureDocuments::"
                  "test_subnormal_flag_gates_the_empty_set"],
    },
    {
        "name": "masses read without the list check",
        "path": "evicalc/io.py",
        "old": "    if not isinstance(masses, list):\n"
               "        raise ValueError('\"masses\" must be a list of "
               "{\"set\", \"mass\"} entries')\n",
        "new": "",
        "tests": ["tests/test_io.py::TestStructureDocuments::"
                  "test_masses_must_be_a_list"],
    },
    {
        "name": "structure masses loaded without the printable check",
        "path": "evicalc/io.py",
        "old": "    for _, mass in m.bit_items():  # each must print; "
               "their lcm need not\n"
               "        _check_printable(mass)\n",
        "new": "",
        "tests": ["tests/test_cli.py::TestLongNumbersInErrors::"
                  "test_structure_file_exits_1[unprintable-mass]"],
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
    # core: the one-pass interval and the typical form
    {
        "name": "interval counts every set that meets the target as bel",
        "path": "evicalc/core.py",
        "old": "                if f & bits == f:\n",
        "new": "                if True:\n",
        "tests": ["tests/test_core.py::TestBelPl::"
                  "test_interval_is_the_naive_bel_and_pl"],
    },
    {
        "name": "typical form keeps a zero strength on its set",
        "path": "evicalc/core.py",
        "old": "if not n or body == full:",
        "new": "if body == full:",
        "tests": ["tests/test_core.py::TestTypicalForm::"
                  "test_form_is_the_spelled_out_one"],
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
