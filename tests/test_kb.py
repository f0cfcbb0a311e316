import copy
import importlib
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evicalc.kb as kb_module
from evicalc import (
    CELL_ROUTING_RULES,
    DEMPSTER,
    UNNORMALIZED,
    YAGER,
    Absolute,
    BeliefStructure,
    Frame,
    KnowledgeBase,
    Typical,
    combine_all,
    compile_statement,
    discount,
    infer,
    parse_kb,
    query,
    serialize_kb,
    typical_summary,
)
from evicalc.errors import (
    EmptyTarget,
    FoldTooLarge,
    MissingFrame,
    ParseError,
    StrengthOutOfRange,
    SubnormalInput,
    TotalConflict,
    UnknownAtom,
    VariableMismatch,
)

from oracles import (
    assert_decimal,
    naive_bel,
    naive_pl,
    oracle_fold,
    oracle_statement_set,
    random_frame,
    structure_bits,
)

F = Fraction
DATA = Path(__file__).parent / "data"


def load(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


class TestParse:
    def test_basic_syntax(self):
        kb = parse_kb("frame: a,b,c,d\n"
                      "V is {a,b}\n"
                      "typically V is {b,c} strength 0.95\n")
        assert kb.variable == "V"
        assert kb.frame.atoms == ("a", "b", "c", "d")
        first, second = kb.statements
        assert first == Absolute(kb.frame.subset(["a", "b"]))
        assert second == Typical(kb.frame.subset(["b", "c"]), F(19, 20))

    def test_statement_before_frame(self):
        with pytest.raises(MissingFrame) as err:
            parse_kb(load("err_missing_frame.kb"))
        assert err.value.line == 1

    def test_unknown_atom_carries_its_line(self):
        with pytest.raises(UnknownAtom) as err:
            parse_kb(load("err_unknown_atom.kb"))
        assert err.value.name == "e"
        assert err.value.line == 2

    @pytest.mark.parametrize("line, col", [(None, None), (2, None), (3, 7)])
    def test_unknown_atom_survives_pickle_and_copy(self, line, col):
        err = UnknownAtom("e", line=line, col=col)
        for other in (pickle.loads(pickle.dumps(err)), copy.deepcopy(err)):
            assert type(other) is UnknownAtom
            assert str(other) == str(err)
            assert (other.name, other.line, other.col) == ("e", line, col)

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch) as err:
            parse_kb(load("err_variable_mismatch.kb"))
        assert err.value.line == 3

    @pytest.mark.parametrize("name", ["err_strength_high.kb",
                                      "err_strength_one.kb",
                                      "err_strength_zero.kb"])
    def test_strength_out_of_range(self, name):
        with pytest.raises(StrengthOutOfRange) as err:
            parse_kb(load(name))
        assert err.value.line == 2

    @pytest.mark.parametrize("name", ["err_parse_syntax.kb",
                                      "err_parse_empty_set.kb",
                                      "err_duplicate_frame.kb"])
    def test_parse_errors(self, name):
        with pytest.raises(ParseError) as err:
            parse_kb(load(name))
        assert err.value.line == 2

    @pytest.mark.parametrize("text, line, col, message", [
        ("frame: a, b\nV is {a b}\n", 2, 7, "bad atom name 'a b'"),
        ("frame: a, b\nV is {}\n", 2, 7,
         "a statement set must name at least one atom"),
        ("frame: a, b c\n", 1, 1,
         "frame atoms must be comma-separated names"),
        ("frame: a, a\n", 1, 1, "duplicate atom 'a'"),
        ("frame: " + ", ".join(f"x{i}" for i in range(25)) + "\n", 1, 1,
         "frame has 25 atoms; the cap is 24"),
        ("frame: a, b\ntypically V is {a}\n", 2, 19,
         'a typical statement ends with "strength N"'),
        ("frame: a, b\ntypically V is {a} strength high\n", 2, 19,
         "bad strength 'high': use a decimal or p/q fraction"),
        ("frame: a, b\ntypically V is {a} strength 1/0\n", 2, 19,
         "bad strength '1/0': zero denominator"),
        ("frame: a, b\nV is {a} always\n", 2, 9,
         "unexpected trailing text 'always'"),
    ], ids=["atom-name", "empty-set", "frame-atoms", "duplicate-atom",
            "25-atoms", "no-strength", "strength-token", "zero-denominator",
            "trailing-text"])
    def test_each_parse_error_names_its_line_and_column(self, text, line,
                                                        col, message):
        with pytest.raises(ParseError) as err:
            parse_kb(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value) == f"line {line}, col {col}: {message}"

    @pytest.mark.parametrize("line", ["frame : a, b", "frame:a,b",
                                      "frame\t:\ta ,b", "  frame  :a, b"])
    def test_frame_line_spacing(self, line):
        kb = parse_kb(line + "\nV is {b}\n")
        assert kb.frame.atoms == ("a", "b")
        assert kb.statements == (Absolute(kb.frame.subset(["b"])),)

    def test_variable_named_like_the_frame_keyword(self):
        kb = parse_kb("frame: a, b\nframe is {a}\n"
                      "typically frame is {b} strength 1/2\n")
        assert kb.variable == "frame"
        assert len(kb.statements) == 2

    def test_over_long_strength_is_a_parse_error(self):
        # 5,000 digits pass the grammar but not the interpreter's digit limit
        text = "frame: a, b\ntypically V is {a} strength " + "1" * 5000
        with pytest.raises(ParseError, match="too many digits") as err:
            parse_kb(text)
        assert (err.value.line, err.value.col) == (2, 19)

    @settings(max_examples=200, deadline=None)
    @given(st.from_regex(r"\A([0-9]{1,5}/[0-9]{1,5}|[0-9]{1,5}(\.[0-9]{1,5})?"
                         r"|\.[0-9]{1,5})\Z"))
    def test_strength_reads_as_fraction_reads_it(self, token):
        text = f"frame: a, b\ntypically V is {{a}} strength {token}\n"
        den = token.partition("/")[2]
        if den and not int(den):
            with pytest.raises(ParseError, match="zero denominator$"):
                parse_kb(text)
        elif 0 < Fraction(token) < 1:
            assert parse_kb(text).statements[0].strength == Fraction(token)
        else:
            with pytest.raises(StrengthOutOfRange) as err:
                parse_kb(text)
            hint = ("; write an absolute statement instead"
                    if Fraction(token) == 1 else "")
            assert str(err.value) == (
                f"line 2, col 19: strength must be strictly between 0 and 1,"
                f" got {Fraction(token)}{hint}")

    @pytest.mark.parametrize("token, strength", [
        ("0." + "0" * 4000 + "1", F(1, 10**4001)),
        ("." + "9" * 4300, 1 - F(1, 10**4300)),
        ("1" * 4300 + "/" + "1" * 4299 + "2", F(int("1" * 4300),
                                                 int("1" * 4299 + "2"))),
    ], ids=["decimal-4001-digits", "leading-dot-4300-digits",
            "fraction-4300-digit-parts"])
    def test_long_strength_parts_are_read_each_on_its_own(self, token,
                                                          strength):
        # each part stays within the digit limit, as in Fraction(token)
        kb = parse_kb(f"frame: a, b\ntypically V is {{a}} strength {token}")
        assert kb.statements[0].strength == strength

    def test_comments_and_whitespace_are_ignored(self):
        kb = parse_kb(load("kb_fraction_strengths.kb"))
        assert kb.variable == "heading"
        assert kb.statements[0].strength == F(19, 20)
        assert kb.statements[1].strength == F(1, 3)
        assert kb.statements[1].set.atoms == ("up",)

    def test_empty_and_statementless_input(self):
        with pytest.raises(MissingFrame):
            parse_kb("")
        with pytest.raises(ParseError):
            parse_kb("frame: a, b\n# nothing else\n")

    def test_corpus_round_trips(self):
        for path in sorted(DATA.glob("kb_*.kb")):
            kb = parse_kb(path.read_text(encoding="utf-8"))
            again = parse_kb(serialize_kb(kb))
            assert again == kb, path.name
            # a second serialize is byte-identical
            assert serialize_kb(again) == serialize_kb(kb)

    def test_knowledge_bases_built_in_code_round_trip(self):
        rng = random.Random(24)
        for _ in range(50):
            frame = random_frame(rng, 2, 6)
            kb = KnowledgeBase(frame, rng.choice(["V", "x_1", "9"]), tuple(
                random_statements(rng, frame, rng.randint(1, 6), 0.3)))
            assert parse_kb(serialize_kb(kb)) == kb

    @pytest.mark.parametrize("atoms, variable, shown", [
        (("a b", "c"), "V", "'a b'"),
        (("a", "a " * 60), "V", "<120 characters>"),
        (("a", "c"), "my var", "'my var'"),
        (("a", "c"), "", "''"),
        (("a", "c"), None, "None"),
    ], ids=["atom-with-space", "long-atom", "variable-with-space",
            "empty-variable", "variable-none"])
    def test_serialize_refuses_a_name_the_grammar_cannot_read(
            self, atoms, variable, shown):
        frame = Frame(atoms)
        kb = KnowledgeBase(frame, variable, (Absolute(frame.from_bits(1)),))
        with pytest.raises(ValueError) as err:
            serialize_kb(kb)
        assert str(err.value) == f"{shown} is not a knowledge-base name"
        # the knowledge base itself is not checked: it still infers
        assert infer(kb) == BeliefStructure(frame, {frame.from_bits(1): 1})


KB_FRAME = parse_kb("frame: a, b, x1, _, 9, Ab\nV is {a}\n").frame
# Line breaks to str.splitlines, so a body may hold them only when read
# on its own, not inside a knowledge-base line
LINE_BREAKS = "\x0b\x0c\x85"
PADDING = st.text(" \t\u00a0\u2003\u3000" + LINE_BREAKS, max_size=2)
PARTS = st.one_of(
    st.sampled_from(KB_FRAME.atoms),  # known, often repeated
    st.from_regex(r"[A-Za-z0-9_]{1,3}", fullmatch=True),  # mostly unknown
    st.sampled_from(["", "a b", "é", "a-b", "\u0663", "x.1", "b\u00a0b"]),
)


@st.composite
def set_bodies(draw):
    """A statement set's body: 1 to 5 parts, each padded with ASCII and
    Unicode whitespace, joined by commas."""
    parts = draw(st.lists(PARTS, min_size=1, max_size=5))
    return ",".join(draw(PADDING) + part + draw(PADDING) for part in parts)


def set_or_error(read, body, line, col):
    try:
        return read(KB_FRAME, body, line, col)
    except (ParseError, UnknownAtom) as err:
        return type(err), str(err), err.line, err.col


class TestStatementSet:
    """kb._parse_set looks each name up once and, on its first miss, names
    the same error as the three-pass oracle, for known, unknown and
    malformed names, blank parts, repeats and Unicode whitespace."""

    @settings(max_examples=400, deadline=None)
    @given(set_bodies())
    def test_set_or_error_is_the_oracles(self, body):
        expected = set_or_error(oracle_statement_set, body, 3, 9)
        assert set_or_error(kb_module._parse_set, body, 3, 9) == expected
        if any(c in body for c in LINE_BREAKS):
            return
        # the same inside a statement, placed at the body's column
        text = f"frame: {', '.join(KB_FRAME.atoms)}\nV is {{{body}}}\n"
        try:
            got = parse_kb(text).statements[0].set
        except (ParseError, UnknownAtom) as err:
            got = type(err), str(err), err.line, err.col
        assert got == set_or_error(oracle_statement_set, body, 2, 7)

    @pytest.mark.parametrize("body, expected", [
        ("a", ("a",)), (" Ab ,\t9,a, a ", ("a", "9", "Ab")),
        ("\u3000_\u00a0,x1", ("x1", "_")),
    ])
    def test_known_names(self, body, expected):
        assert kb_module._parse_set(KB_FRAME, body, 1, 1).atoms == expected

    @pytest.mark.parametrize("body, message", [
        (" ", "line 3, col 9: a statement set must name at least one atom"),
        ("a,,b", "line 3, col 9: bad atom name ''"),
        ("zz, a b", "line 3, col 9: bad atom name 'a b'"),
        ("a, zz, é", "line 3, col 9: bad atom name 'é'"),
        ("a, zz, yy", "line 3: unknown atom 'zz'"),
    ])
    def test_first_error_in_the_body(self, body, message):
        with pytest.raises((ParseError, UnknownAtom)) as err:
            kb_module._parse_set(KB_FRAME, body, 3, 9)
        assert str(err.value) == message


class TestCompile:
    def test_absolute_puts_all_mass_on_its_set(self, frame5):
        m = compile_statement(Absolute(frame5.subset(["a", "b"])), frame5)
        assert m == BeliefStructure(frame5, [(frame5.subset(["a", "b"]), 1)])

    def test_typical_splits_between_set_and_frame(self, frame5):
        m = compile_statement(
            Typical(frame5.subset(["b", "c"]), F(19, 20)), frame5)
        assert m.mass(frame5.subset(["b", "c"])) == F(19, 20)
        assert m.mass(frame5.full) == F(1, 20)

    def test_typical_over_full_frame_merges_to_vacuous(self):
        kb = parse_kb(load("kb_full_set_typical.kb"))
        m = compile_statement(kb.statements[0], kb.frame)
        assert m == BeliefStructure.vacuous(kb.frame)

    def test_strength_bounds_enforced_in_code_too(self, frame5):
        for strength, shown in (
                (F(1), "1; write an absolute statement instead"), (F(0), "0"),
                (F(3, 2), "3/2"), (F(10**4400), "<4401 digits>")):
            with pytest.raises(StrengthOutOfRange) as err:
                Typical(frame5.subset(["a"]), strength)
            assert str(err.value) == ("strength must be strictly between 0 "
                                      f"and 1, got {shown}")

    def test_statement_sets_must_be_non_empty_and_on_frame(
            self, frame4, frame5):
        with pytest.raises(ValueError):
            Absolute(frame5.empty)
        with pytest.raises(ValueError):
            Typical(frame5.empty, F(1, 2))
        from evicalc.errors import FrameMismatch
        with pytest.raises(FrameMismatch):
            KnowledgeBase(frame4, "V",
                          (Absolute(frame5.subset(["a"])),))


class TestInfer:
    def test_absolute_with_overlapping_typical(self):
        kb = parse_kb(load("kb_absolute_overlap.kb"))
        m = infer(kb)
        a = kb.frame.subset(["a", "b"])
        meet = kb.frame.subset(["b"])
        assert m == BeliefStructure(kb.frame, [(meet, F(19, 20)),
                                               (a, F(1, 20))])
        assert m.bel(a) == m.pl(a) == 1

    def test_absolute_discounts_conflicting_typical(self):
        kb = parse_kb(load("kb_absolute_disjoint.kb"))
        m = infer(kb)
        assert m == BeliefStructure(
            kb.frame, [(kb.frame.subset(["a", "b"]), 1)])

    def test_strength_orders_the_conclusions(self):
        kb = parse_kb(load("kb_strong_weak.kb"))
        m = infer(kb)
        a = kb.frame.subset(["a", "b"])
        b = kb.frame.subset(["c", "d"])
        assert m.mass(a) == F(990, 1090)
        assert m.mass(b) == F(90, 1090)
        assert m.mass(kb.frame.full) == F(10, 1090)
        assert m.bel(a) > m.bel(b)

    def test_equal_strengths(self):
        kb = parse_kb(load("kb_equal_95.kb"))
        m = infer(kb)
        a = kb.frame.subset(["a", "b"])
        b = kb.frame.subset(["c", "d"])
        assert m.mass(a) == m.mass(b) == F(19, 39)
        assert m.mass(kb.frame.full) == F(1, 39)
        assert m.interval(a) == m.interval(b)

    def test_total_conflict_names_the_statement(self):
        frame = Frame(["a", "b"])
        kb = KnowledgeBase(frame, "V", (
            Absolute(frame.subset(["a"])),
            Absolute(frame.subset(["b"])),
        ))
        with pytest.raises(TotalConflict) as err:
            infer(kb)
        assert err.value.statement_index == 2

    def test_rule_can_be_selected(self):
        kb = parse_kb(load("kb_strong_weak.kb"))
        m = infer(kb, YAGER)
        assert m.mass(kb.frame.full) == \
            F(1, 100) * F(1, 10) + F(99, 100) * F(9, 10)

    def test_permutation_invariance_under_dempster(self):
        rng = random.Random(60)
        for _ in range(20):
            frame = random_frame(rng, 3, 5)
            n = len(frame)
            statements = []
            for _ in range(rng.randint(2, 4)):
                bits = rng.randint(1, (1 << n) - 2)
                strength = F(rng.randint(1, 19), 20)
                statements.append(Typical(frame.from_bits(bits), strength))
            kb = KnowledgeBase(frame, "V", tuple(statements))
            shuffled = list(statements)
            rng.shuffle(shuffled)
            kb2 = KnowledgeBase(frame, "V", tuple(shuffled))
            try:
                assert infer(kb) == infer(kb2)
            except TotalConflict:
                pass


class TestQuery:
    def test_strong_weak_intervals(self):
        kb = parse_kb(load("kb_strong_weak.kb"))
        a = kb.frame.subset(["a", "b"])
        b = kb.frame.subset(["c", "d"])
        assert tuple(query(kb, DEMPSTER, a)) == (F(990, 1090), F(1000, 1090))
        assert tuple(query(kb, DEMPSTER, b)) == (F(90, 1090), F(100, 1090))
        union = query(kb, DEMPSTER, a | b)
        assert union.lower == F(1080, 1090)
        assert union.lower >= F(98, 100)

    def test_equal_half_interval(self):
        kb = parse_kb(load("kb_equal_half.kb"))
        a = kb.frame.subset(["a", "b"])
        assert tuple(query(kb, DEMPSTER, a)) == (F(1, 3), F(2, 3))
        both = query(kb, DEMPSTER, a | kb.frame.subset(["c", "d"]))
        assert both.lower == F(2, 3) and both.upper == 1


class TestTypicalSummary:
    def test_overlapping_defaults_summarize_to_their_conjunction(self):
        kb = parse_kb(load("kb_overlap_strong.kb"))
        meet = kb.frame.subset(["b"])
        summary = typical_summary(kb, DEMPSTER, meet)
        alpha_beta = F(99, 100) * F(9, 10)
        assert summary == BeliefStructure(
            kb.frame, [(meet, alpha_beta),
                       (kb.frame.full, 1 - alpha_beta)])

    def test_full_set_target(self):
        kb = parse_kb(load("kb_overlap_strong.kb"))
        assert typical_summary(kb, DEMPSTER, kb.frame.full) == \
            BeliefStructure.vacuous(kb.frame)

    def test_single_typical_is_a_fixed_point(self):
        kb = parse_kb(load("kb_single_typical.kb"))
        body = kb.frame.subset(["c", "d"])
        assert typical_summary(kb, DEMPSTER, body) == infer(kb)

    def test_empty_target_rejected(self):
        kb = parse_kb(load("kb_single_typical.kb"))
        with pytest.raises(EmptyTarget):
            typical_summary(kb, DEMPSTER, kb.frame.empty)


class TestKbProperties:
    def test_absolute_dominance(self):
        rng = random.Random(61)
        for _ in range(30):
            frame = random_frame(rng, 3, 6)
            n = len(frame)
            anchor = frame.from_bits(rng.randint(1, (1 << n) - 1))
            statements = [Absolute(anchor)]
            for _ in range(rng.randint(1, 3)):
                bits = rng.randint(1, (1 << n) - 2)
                statements.append(Typical(frame.from_bits(bits),
                                          F(rng.randint(1, 9), 10)))
            m = infer(KnowledgeBase(frame, "V", tuple(statements)))
            assert m.bel(anchor) == m.pl(anchor) == 1

    def test_conflict_discount_is_exact(self):
        rng = random.Random(62)
        for _ in range(30):
            frame = random_frame(rng, 3, 6)
            n = len(frame)
            a_bits = rng.randint(1, (1 << n) - 2)
            rest = (~frame.from_bits(a_bits)).bits
            # pick a non-empty subset of the complement
            b_bits = 0
            while not b_bits:
                b_bits = rest & rng.getrandbits(n)
            kb = KnowledgeBase(frame, "V", (
                Absolute(frame.from_bits(a_bits)),
                Typical(frame.from_bits(b_bits), F(rng.randint(1, 99), 100)),
            ))
            assert infer(kb) == BeliefStructure(
                frame, [(frame.from_bits(a_bits), 1)])

    def test_strength_order_matches_belief_order(self):
        rng = random.Random(63)
        frame = Frame(["a", "b", "c", "d", "e"])
        a = frame.subset(["a", "b"])
        b = frame.subset(["c", "d"])
        for _ in range(40):
            alpha = F(rng.randint(1, 99), 100)
            beta = F(rng.randint(1, 99), 100)
            kb = KnowledgeBase(frame, "V", (Typical(a, alpha),
                                            Typical(b, beta)))
            m = infer(kb)
            assert (alpha > beta) == (m.bel(a) > m.bel(b))
            assert (alpha == beta) == (m.bel(a) == m.bel(b))


def random_statements(rng, frame, count, absolute_share):
    n = len(frame)
    statements = []
    for _ in range(count):
        focal = frame.from_bits(rng.randint(1, (1 << n) - 1))
        if rng.random() < absolute_share:
            statements.append(Absolute(focal))
        else:
            q = rng.choice([2, 100, 997, 1009])
            statements.append(Typical(focal, F(rng.randint(1, q - 1), q)))
    return statements


def statement_structure(frame, stmt):
    """The structure a statement stands for, built here apart from
    compile_statement."""
    if isinstance(stmt, Absolute):
        return BeliefStructure(frame, {stmt.set: 1})
    return BeliefStructure(frame, [(stmt.set, stmt.strength),
                                   (frame.full, 1 - stmt.strength)])


class TestStatementForms:
    """infer folds each statement's integer form; compile_statement builds
    a structure from that form, equal to the public constructor's."""

    TEXTS = {
        "typical-on-full-set": "typically V is {a, b, c} strength 3/4\n"
                               "typically V is {a} strength 0.6\n",
        "absolute-on-full-set": "V is {a, b, c}\n"
                                "typically V is {b, c} strength 0.9\n",
        "one-statement": "typically V is {a, b} strength 0.6\n",
        "one-full-set-statement": "typically V is {a, b, c} strength 1/3\n",
    }

    @pytest.mark.parametrize("rule", [*CELL_ROUTING_RULES, discount(F(2, 5))],
                             ids=str)
    @pytest.mark.parametrize("body", TEXTS.values(), ids=TEXTS)
    def test_infer_is_the_oracle_fold(self, body, rule):
        kb = parse_kb("frame: a, b, c\n" + body)
        compiled = [compile_statement(s, kb.frame) for s in kb.statements]
        assert compiled == [statement_structure(kb.frame, s)
                            for s in kb.statements]
        assert structure_bits(infer(kb, rule)) == \
            oracle_fold(compiled, rule)[1]

    def test_strength_is_read_once_as_a_mass(self):
        # the stored strength is the exact mass, so the text round-trips
        f = Frame("abc")
        kb = KnowledgeBase(f, "V", (Typical(f.subset(["a"]), 0.99),))
        assert kb.statements[0].strength == F(99, 100)
        assert parse_kb(serialize_kb(kb)) == kb
        assert Typical(f.subset(["a"]), "1/2").strength == F(1, 2)
        with pytest.raises(TypeError, match="bool"):
            Typical(f.subset(["a"]), True)
        with pytest.raises(StrengthOutOfRange, match="got -1/2"):
            Typical(f.subset(["a"]), -0.5)

    def test_float_strength_is_read_as_its_decimal(self, frame5):
        # as to_mass reads a float mass: 0.99 is 99/100, not the binary
        # fraction nearest to it
        a = frame5.subset(["a"])
        assert compile_statement(Typical(a, 0.99), frame5) == \
            BeliefStructure(frame5, [(a, "99/100"), (frame5.full, "1/100")])

    def test_infer_builds_one_structure(self, monkeypatch):
        """A 30-statement fold checks and stores one integer form, the
        result's; building each statement's structure first made 31."""
        rng = random.Random(71)
        frame = Frame("abcdef")
        kb = KnowledgeBase(frame, "V", tuple(
            Typical(frame.from_bits(1 | rng.randrange(64)),
                    F(rng.randint(50, 99), 100)) for _ in range(30)))
        built = []
        store = BeliefStructure._set
        monkeypatch.setattr(BeliefStructure, "_set", lambda self, *args:
                            built.append(args) or store(self, *args))
        m = infer(kb)
        assert len(built) == 1
        assert structure_bits(m) == oracle_fold(
            [statement_structure(frame, s) for s in kb.statements],
            DEMPSTER)[1]


class TestInferOracle:
    """infer runs one integer fold; an oracle_combine fold is the judge."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1),  # st.randoms leans to its edge values
           st.sampled_from([DEMPSTER, YAGER, UNNORMALIZED]))
    def test_infer_is_the_oracle_fold(self, seed, rule):
        rng = random.Random(seed)
        frame = random_frame(rng, 2, 5)
        statements = random_statements(rng, frame, rng.randint(1, 6), 0.3)
        kb = KnowledgeBase(frame, "V", tuple(statements))
        outcome, expected = oracle_fold(
            [statement_structure(frame, s) for s in statements], rule)
        if outcome == "total conflict":
            with pytest.raises(TotalConflict) as err:
                infer(kb, rule)
            assert err.value.statement_index == expected
        elif outcome == "subnormal":
            # the unnormalized step after K > 0 has a subnormal input
            with pytest.raises(SubnormalInput):
                infer(kb, rule)
        else:
            assert structure_bits(infer(kb, rule)) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_total_conflict_names_its_statement(self, seed):
        rng = random.Random(seed)
        frame = random_frame(rng, 2, 5)
        head = random_statements(rng, frame, rng.randint(0, 3), 0)
        middle = random_statements(rng, frame, rng.randint(0, 3), 0)
        a, b = frame.from_bits(1), frame.from_bits(2)
        statements = [*head, Absolute(a), *middle, Absolute(b)]
        kb = KnowledgeBase(frame, "V", tuple(statements))
        index = len(statements)
        assert oracle_fold([statement_structure(frame, s)
                            for s in statements], DEMPSTER) == \
            ("total conflict", index)
        with pytest.raises(TotalConflict) as err:
            infer(kb)
        assert err.value.statement_index == index
        assert str(err.value) == (f"total conflict (K = 1) while combining "
                                  f"statement {index} into the running "
                                  f"result")


def restrictive_statements(rng, frame, count):
    """Statements with absolute ones mixed in; some absolute sets lie
    outside an earlier absolute set, so the fold may meet K = 1."""
    full = frame.full.bits
    statements = []
    for _ in range(count):
        if rng.random() < 0.1:
            # most absolute sets drop two atoms; some lie outside another
            earlier = [s.set.bits for s in statements
                       if isinstance(s, Absolute)]
            bits = full & ~(1 << rng.randrange(len(frame))) \
                & ~(1 << rng.randrange(len(frame)))
            if earlier and rng.random() < 0.3:
                bits = full & ~rng.choice(earlier) or bits
            statements.append(Absolute(frame.from_bits(bits)))
        else:
            statements.append(Typical(frame.from_bits(rng.randint(1, full)),
                                      F(rng.randint(50, 99), 100)))
    return statements


class TestRestrictiveFirst:
    """Under Dempster infer folds absolute statements first, then typical
    ones by ascending set size; the answer and any TotalConflict are those
    of the file-order fold."""

    TEXT = ("frame: a, b, c, d, e\n"
            "typically V is {a, b, c} strength 0.9\n"
            "V is {a, b, c, d}\n"
            "typically V is {a} strength 0.8\n"
            "typically V is {a, b} strength 0.7\n"
            "V is {a, b}\n"
            "typically V is {b, c, d, e} strength 0.6\n"
            "typically V is {c} strength 0.5\n")

    @pytest.mark.parametrize("rule, order", [
        (DEMPSTER, [2, 5, 3, 7, 4, 1, 6]),
        *[(rule, [1, 2, 3, 4, 5, 6, 7]) for rule in
          (*CELL_ROUTING_RULES, discount(F(2, 5))) if rule != DEMPSTER]],
        ids=str)
    def test_the_order_fold_receives(self, monkeypatch, rule, order):
        received = []
        fold = kb_module._fold

        def recording(frame, forms, rule):
            forms = list(forms)
            received.append([position for position, _ in forms])
            return fold(frame, forms, rule)

        monkeypatch.setattr(kb_module, "_fold", recording)
        kb = parse_kb(self.TEXT)
        try:
            infer(kb, rule)
        except SubnormalInput:  # unnormalized after a conflicting step
            pass
        assert received == [order]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))  # st.randoms leans to its edge values
    def test_dempster_is_the_file_order_oracle_fold(self, seed):
        frame = Frame("abcdefghijkl")
        statements = restrictive_statements(random.Random(seed), frame, 30)
        kb = KnowledgeBase(frame, "V", tuple(statements))
        outcome, expected = oracle_fold(
            [statement_structure(frame, s) for s in statements], DEMPSTER)
        if outcome == "total conflict":
            with pytest.raises(TotalConflict) as err:
                infer(kb)
            assert err.value.statement_index == expected
            assert str(err.value) == (f"total conflict (K = 1) while "
                                      f"combining statement {expected} into "
                                      f"the running result")
        else:
            assert structure_bits(infer(kb)) == expected


class TestFoldBudget:
    """A fold whose running result passes combine.FOLD_FOCAL_BUDGET raises
    FoldTooLarge naming the statement it was combining in, by its number
    in the file; under the budget the result is the oracle fold's."""

    TEXT = ("frame: a, b, c, d, e, f\n"
            "typically V is {a, b, c, d, e} strength 0.9\n"
            "typically V is {a} strength 0.5\n"
            "typically V is {b} strength 0.5\n"
            "typically V is {c} strength 0.5\n")

    # Dempster folds statements 2, 3, 4 and then 1 (sizes 2, 3, 4, 5);
    # Yager in file order (sizes 2, 3, 4, 5 at statements 2, 3, 4)
    @pytest.mark.parametrize("rule, budget, index", [
        (DEMPSTER, 4, 1), (YAGER, 4, 4), (YAGER, 3, 3), (DEMPSTER, 2, 3),
    ], ids=["dempster-last", "yager-last", "yager-third", "dempster-first"])
    def test_refused_at_the_statement_past_the_budget(
            self, monkeypatch, rule, budget, index):
        combine_module = importlib.import_module("evicalc.combine")
        monkeypatch.setattr(combine_module, "FOLD_FOCAL_BUDGET", budget)
        kb = parse_kb(self.TEXT)
        with pytest.raises(FoldTooLarge) as err:
            infer(kb, rule)
        assert err.value.statement_index == index
        assert str(err.value) == (
            f"more than {budget} focal elements while combining statement "
            f"{index} into the running result")
        assert rule not in kb._inferred  # an error is not kept
        monkeypatch.setattr(combine_module, "FOLD_FOCAL_BUDGET", 5)
        frame = kb.frame
        assert structure_bits(infer(kb, rule)) == oracle_fold(
            [statement_structure(frame, s) for s in kb.statements], rule)[1]


@pytest.fixture
def folds(monkeypatch):
    """Counts the folds infer runs, by wrapping the _fold it calls."""
    calls = []
    fold = kb_module._fold

    def counting(frame, forms, rule):
        calls.append(rule)
        return fold(frame, forms, rule)

    monkeypatch.setattr(kb_module, "_fold", counting)
    return calls


class TestInferCache:
    """A knowledge base keeps its inference per rule, so infer, query and
    typical_summary share one fold; errors are not kept."""

    def test_one_fold_per_knowledge_base_and_rule(self, folds):
        text = load("kb_strong_weak.kb")
        kb = parse_kb(text)
        a, b = kb.frame.subset(["a", "b"]), kb.frame.subset(["c", "d"])
        m = infer(kb)
        assert query(kb, DEMPSTER, a) == m.interval(a)
        assert query(kb, DEMPSTER, b) == m.interval(b)
        typical_summary(kb, DEMPSTER, a)
        assert infer(kb, DEMPSTER) is m
        assert folds == [DEMPSTER]
        # another rule folds once more, and keeps its own result
        assert infer(kb, YAGER) is infer(kb, YAGER) is not m
        query(kb, YAGER, a)
        assert folds == [DEMPSTER, YAGER]
        assert infer(kb) is m
        # an equal knowledge base parsed again folds again
        again = parse_kb(text)
        assert again == kb
        assert infer(again) == m
        assert folds == [DEMPSTER, YAGER, DEMPSTER]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([*CELL_ROUTING_RULES, discount(F(2, 5))]))
    def test_kept_result_is_a_fresh_fold(self, seed, rule):
        rng = random.Random(seed)
        frame = random_frame(rng, 2, 5)
        kb = KnowledgeBase(frame, "V", tuple(
            random_statements(rng, frame, rng.randint(1, 6), 0.3)))
        compiled = [compile_statement(s, frame) for s in kb.statements]
        try:
            fresh = combine_all(compiled, rule)
        except (TotalConflict, SubnormalInput) as exc:
            for _ in range(2):
                with pytest.raises(type(exc)):
                    infer(kb, rule)
            return
        for _ in range(2):
            assert infer(kb, rule) == fresh

    def test_total_conflict_is_raised_on_every_call(self, folds):
        kb = parse_kb("frame: a, b\ntypically V is {a} strength 1/2\n"
                      "V is {a}\nV is {b}\n")
        for count in (1, 2, 3):
            with pytest.raises(TotalConflict) as err:
                query(kb, DEMPSTER, kb.frame.full)
            assert err.value.statement_index == 3
            assert len(folds) == count
        assert kb._inferred == {}

    def test_value_semantics_ignore_the_kept_inference(self):
        kb = parse_kb(load("kb_three_statements.kb"))
        names = list(kb._fields)
        before = (repr(kb), hash(kb), serialize_kb(kb))
        infer(kb)
        infer(kb, YAGER)
        assert (repr(kb), hash(kb), serialize_kb(kb)) == before
        assert kb == parse_kb(load("kb_three_statements.kb"))
        assert list(kb._fields) == names == \
            ["frame", "variable", "statements"]

    def test_pickle_and_deepcopy_before_and_after_inference(self):
        kb = parse_kb(load("kb_strong_weak.kb"))
        expected = infer(parse_kb(load("kb_strong_weak.kb")))
        for filled in (False, True):
            if filled:
                infer(kb)
            for other in (pickle.loads(pickle.dumps(kb)), copy.deepcopy(kb)):
                assert other == kb and hash(other) == hash(kb)
                assert infer(other) == expected


GOLDEN = Path(__file__).parent / "golden"
# Each kb_* golden, as scripts/golden_tables.sh makes it: the knowledge
# base, and the --set of a kb-query or the --weaken-to of a kb-infer.
GOLDEN_KB = {
    "kb_absolute_overlap": ("kb_absolute_overlap.kb", {}),
    "kb_absolute_disjoint": ("kb_absolute_disjoint.kb", {}),
    "kb_strong_weak_infer": ("kb_strong_weak.kb", {}),
    "kb_strong_weak_query_first": ("kb_strong_weak.kb", {"set": "a,b"}),
    "kb_strong_weak_query_second": ("kb_strong_weak.kb", {"set": "c,d"}),
    "kb_strong_weak_query_union": ("kb_strong_weak.kb", {"set": "a,b,c,d"}),
    "kb_equal_95_infer": ("kb_equal_95.kb", {}),
    "kb_equal_half_infer": ("kb_equal_half.kb", {}),
    "kb_equal_half_query": ("kb_equal_half.kb", {"set": "a,b"}),
    "kb_equal_half_query_union": ("kb_equal_half.kb", {"set": "a,b,c,d"}),
    "kb_overlap_weaken": ("kb_overlap_strong.kb", {"weaken": "b"}),
}
MASS_LINE = re.compile(r"m\(\{(.*)\}\) = (\d+(?:/\d+)?) ~ (\d+\.\d{6})")


def golden_fold(kb):
    """oracle_fold, under Dempster, of each statement built by the
    constructor: {B: 1} for "V is B", {B: s, X: 1 - s} for "typically V
    is B" at strength s."""
    frame = kb.frame
    structures = [BeliefStructure(frame, [(stmt.set, 1)])
                  if isinstance(stmt, Absolute) else
                  BeliefStructure(frame, [(stmt.set, stmt.strength),
                                          (frame.full, 1 - stmt.strength)])
                  for stmt in kb.statements]
    status, masses = oracle_fold(structures, DEMPSTER)
    assert status == "ok"
    return BeliefStructure(frame, [(frame.from_bits(bits), w)
                                   for bits, w in masses.items()])


class TestGoldenAudit:
    """The kb-infer and kb-query goldens re-derived from the oracles, not
    from the program: masses from oracle_fold (and, for --weaken-to, the
    weakening of it), bel, pl and range from naive_bel and naive_pl, each
    exact value compared with == and each decimal to 6 places."""

    def test_every_golden_is_audited(self):
        assert sorted(GOLDEN_KB) == sorted(
            p.stem for p in GOLDEN.glob("kb_*.txt"))

    @pytest.mark.parametrize("name", sorted(GOLDEN_KB))
    def test_golden(self, name):
        source, options = GOLDEN_KB[name]
        kb = parse_kb(load(source))
        frame, fold = kb.frame, golden_fold(kb)
        lines = (GOLDEN / f"{name}.txt").read_text("utf-8").splitlines()
        head = [line.split(": ", 1) for line in lines]
        assert head[:2] == [["variable", kb.variable], ["rule", "dempster"]]
        if "set" in options:
            target = frame.subset(options["set"].split(","))
            assert head[2] == ["set", target.label()]
            bel, pl = naive_bel(fold, target.bits), naive_pl(fold, target.bits)
            for line, (label, value) in zip(lines[3:], [
                    ("bel", bel), ("pl", pl), ("range", pl - bel)],
                    strict=True):
                exact, decimal = line.removeprefix(f"{label} = ").split(" ~ ")
                assert F(exact) == value
                assert_decimal(decimal, value)
            return
        if "weaken" in options:
            target = frame.subset(options["weaken"].split(","))
            assert head.pop(2) == ["weaken to", target.label()]
            bel = naive_bel(fold, target.bits)
            expected = {bits: w for bits, w in ((target.bits, bel),
                                                 (frame.full.bits, 1 - bel))
                        if w}
        else:
            expected = structure_bits(fold)
        assert head[2:5] == [["frame", ", ".join(frame.atoms)],
                             ["subnormal", "false"],
                             ["focal elements", str(len(expected))]]
        printed = {}
        for line in lines[5 + ("weaken" in options):]:
            atoms, mass, decimal = MASS_LINE.fullmatch(line).groups()
            bits = frame.subset(atoms.split(", ") if atoms else []).bits
            printed[bits] = F(mass)
            assert_decimal(decimal, printed[bits])
        assert printed == expected
