import importlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import BytesIO, TextIOWrapper
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import evicalc
from evicalc import BeliefStructure, Frame, entailment, io
from evicalc import cli
from evicalc.cli import main, parse_args

from oracles import (ArgvRefused, argparse_oracle, disjoint_support_pair,
                     subset_sum_trap)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(evicalc.__file__).resolve().parents[1]


def child_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this checkout."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])))


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_normal_structure(self, capsys):
        code, out, _ = run(capsys, "validate", DATA / "desk_a.bs")
        assert code == 0
        assert "subnormal: false" in out
        assert "m({a, b}) = 3/5 ~ 0.600000" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", DATA / "nope.bs")
        assert code == 1
        assert "nope.bs" in err

    def test_unprintable_path_is_one_line(self, capsys, tmp_path):
        path = tmp_path / "no\npe.bs"
        code, out, err = run(capsys, "validate", path)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {str(path)!r}: FileNotFoundError: [Errno 2] No such "
            f"file or directory: {str(path)!r}"]

    @pytest.mark.parametrize("length", [300, 5000])
    def test_long_path_is_one_short_line(self, capsys, tmp_path, monkeypatch,
                                         length):
        # errors._text's bound: the path is shown as "<n characters>" in
        # the prefix and in the OSError's own text
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "validate", "x" * length)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert len(err.encode()) < 200
        assert err.count(f"<{length} characters>") == 2

    def test_bad_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.bs"
        bad.write_text('{"frame": ["a"], "masses": '
                       '[{"set": ["a"], "mass": "1/2"}]}')
        code, _, err = run(capsys, "validate", bad)
        assert code == 1
        assert "MassSumNotOne" in err

    @pytest.mark.parametrize("mass", ['"1e-100000000"', "1e-100000000"])
    def test_huge_mass_exponent_is_one_error_line(self, tmp_path, mass):
        path = tmp_path / "exponent.bs"
        path.write_text('{"frame": ["a"], "masses": '
                        '[{"set": ["a"], "mass": %s}]}' % mass)
        # without the bound, Fraction expands 10**100000000: minutes
        done = subprocess.run(
            [sys.executable, "-m", "evicalc", "validate", path],
            env=child_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            f"error: {path}: ExponentTooLarge: mass '1e-100000000' has an "
            "exponent beyond 4300 in magnitude"]

    @pytest.mark.parametrize("atom, shown", [
        # printed as is, the name would forge a mass line of its own
        ("a\nm({z}) = 1 ~ 1.000000", r"'a\nm({z}) = 1 ~ 1.000000'"),
        # a lone surrogate cannot be written as UTF-8
        ("\ud800", r"'\ud800'")], ids=["line-break", "surrogate"])
    @pytest.mark.parametrize("command", [("validate",),
                                         ("query", "--set", "b")])
    def test_unprintable_atom_name_exits_1(self, capsys, tmp_path, atom,
                                           shown, command):
        path = tmp_path / "atoms.bs"
        path.write_text(json.dumps(
            {"frame": [atom, "b"],
             "masses": [{"set": [atom], "mass": "1/2"},
                        {"set": ["b"], "mass": "1/2"}]}))
        code, out, err = run(capsys, command[0], path, *command[1:])
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {path}: ValueError: atom name {shown} is not printable"]

    def test_file_that_is_not_utf8_names_the_path(self, tmp_path):
        bad = tmp_path / "bad.bs"
        bad.write_bytes((DATA / "desk_a.bs").read_bytes() + b"\xff")
        done = subprocess.run(
            [sys.executable, "-m", "evicalc", "validate", bad],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and str(bad) in lines[0]


class TestQuery:
    def test_structure_query(self, capsys):
        code, out, _ = run(capsys, "query", DATA / "desk_a.bs",
                           "--set", "a,b")
        assert code == 0
        assert out == ("set: {a, b}\n"
                       "bel = 3/5 ~ 0.600000\n"
                       "pl = 1 ~ 1.000000\n"
                       "range = 2/5 ~ 0.400000\n")

    def test_kb_query_via_generic_query(self, capsys):
        code, out, _ = run(capsys, "query", DATA / "kb_strong_weak.kb",
                           "--set", "a,b")
        assert code == 0
        assert "variable: V" in out
        assert "bel = 99/109" in out

    def test_subnormal_query_has_no_range(self, capsys, tmp_path):
        out_path = tmp_path / "sub.bs"
        run(capsys, "combine", DATA / "desk_a.bs",
            DATA / "desk_b_disjoint.bs", "--rule", "unnormalized",
            "-o", out_path)
        code, out, _ = run(capsys, "query", out_path, "--set", "a,b")
        assert code == 0
        assert "bel = 3/10" in out
        assert "range = undefined (subnormal)" in out

    def test_unknown_set_atom_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "query", DATA / "desk_a.bs",
                           "--set", "a,zebra")
        assert code == 2
        assert "zebra" in err


    @pytest.mark.parametrize("text", ["", " \n\t\n"],
                             ids=["empty", "whitespace"])
    def test_empty_input_file_exits_1(self, capsys, tmp_path, text):
        path = tmp_path / "empty.kb"
        path.write_text(text)
        code, out, err = run(capsys, "query", path, "--set", "a")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {path}: EvicalcError: empty input file"]


LONG = "1." + "0" * 4299 + "1"  # 1 + 10**-4300, beyond str()'s digit limit


class TestLongNumbersInErrors:
    """A number too long to print is named by its digit counts, and a long
    input text by its length."""

    @pytest.mark.parametrize("document, message", [
        ('{"frame": ["a"], "masses": [{"set": ["a"], "mass": "1e-4300"}]}',
         "MassSumNotOne: masses sum to 1/<4301 digits>, not 1"),
        ('{"frame": ["a", "b"], "masses": [{"set": ["a"], "mass": "1e-4299"},'
         ' {"set": ["b"], "mass": "1"}]}',
         "MassSumNotOne: masses sum to <4300 digits>/<4300 digits>, not 1"),
        ('{"frame": ["a"], "masses": [{"set": ["a"], "mass": "-1e-4300"}]}',
         "NegativeMass: mass -1/<4301 digits> is negative"),
        pytest.param(
            '{"frame": ["a"], "masses": [{"set": ["a"], "mass": "%s"}]}'
            % ("1" * 5000), "ValueError: cannot parse mass <5000 characters>",
            id="5000-digit-mass"),
        # every check passes, but 1/10**4300 has too many digits to print
        pytest.param(
            '{"frame": ["a", "b"], "masses": [{"set": ["a"], "mass": '
            '"1e-4300"}, {"set": ["b"], "mass": "0.%s"}]}' % ("9" * 4300),
            "ValueError: mass 1/<4301 digits> has more than 4300 digits, too "
            "many to print", id="unprintable-mass"),
        pytest.param(
            "frame: a, b\ntypically V is {a} strength 1%s\n" % ("0" * 4000),
            "StrengthOutOfRange: line 2, col 19: strength must be strictly "
            "between 0 and 1, got <4001 digits>", id="kb-strength"),
        pytest.param(
            "frame: a, b\nV is {a} %s\n" % ("x" * 6000),
            "ParseError: line 2, col 9: unexpected trailing text <6000 "
            "characters>", id="kb-trailing-text"),
        pytest.param(
            "frame: a, b\nV is {a, b-%s}\n" % ("z" * 6000),
            "ParseError: line 2, col 7: bad atom name <6002 characters>",
            id="kb-bad-atom-name"),
        pytest.param(
            "frame: a, b\n%s is {a}\n%s is {b}\n" % ("V" * 5000, "W" * 6000),
            "VariableMismatch: line 3, col 1: statements must use one "
            "variable; saw <6000 characters> after <5000 characters>",
            id="kb-variable"),
        pytest.param(
            "frame: a, %s, %s\nV is {a}\n" % ("z" * 6000, "z" * 6000),
            "ParseError: line 1, col 1: duplicate atom <6000 characters>",
            id="kb-duplicate-atom"),
        # a JSON number is no atom name, so its 4,300 digits are not echoed
        pytest.param(
            '{"frame": ["a"], "masses": [{"set": [1e-4299], "mass": "1"}]}',
            'ValueError: "set" must be a list of atom names',
            id="number-as-atom"),
    ])
    def test_structure_file_exits_1(self, capsys, tmp_path, document,
                                    message):
        path = tmp_path / "long.bs"
        path.write_text(document)
        # a knowledge base has no validate command
        command = "validate" if document.startswith("{") else "kb-infer"
        code, out, err = run(capsys, command, path)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {path}: {message}"]
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("argv, message", [
        (("combine", DATA / "desk_a.bs", DATA / "desk_b_overlap.bs",
          "--rule", "discount:" + LONG),
         "discount weight <4301 digits>/<4301 digits> is outside [0, 1]"),
        (("sweep", "--alphas", LONG, "--betas", "1/2", "--rule", "dempster"),
         "GridOutOfRange: grid value <4301 digits>/<4301 digits> is outside "
         "[0, 1]"),
        pytest.param(
            ("sweep", "--alphas", "-0." + "0" * 4298 + "1", "--betas", "1/2",
             "--rule", "dempster"),
            "GridOutOfRange: grid value -1/<4300 digits> is outside [0, 1]",
            id="negative-grid-value"),
        pytest.param(
            ("query", DATA / "desk_a.bs", "--set", "y" * 6000),
            "UnknownAtom: unknown atom <6000 characters>", id="long-atom"),
        pytest.param(
            ("combine", DATA / "desk_a.bs", DATA / "desk_b_overlap.bs",
             "--rule", "r" * 6000),
            "unknown combination rule <6000 characters>", id="long-rule"),
        pytest.param(
            ("combine", DATA / "desk_a.bs", DATA / "desk_b_overlap.bs",
             "--rule", "discount:1e-4300"),
            "mass 1/<4301 digits> has more than 4300 digits, too many to "
            "print", id="unprintable-discount-weight"),
    ])
    def test_argument_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("command", [
        ("combine", "--rule", "yager"), ("monotone", "--rules", "yager")])
    def test_unprintable_result_exits_2(self, capsys, tmp_path, command):
        # each input prints, but the product of their denominators has
        # 4,794 digits: the result is refused as a loaded mass would be
        frame = Frame(["a", "b"])
        paths = []
        for name, focal, mass in (("c1.bs", "a", Fraction(1, 2**8000)),
                                  ("c2.bs", "b", Fraction(1, 3**5000))):
            paths.append(tmp_path / name)
            paths[-1].write_text(io.dumps_structure(BeliefStructure(
                frame, [(frame.subset([focal]), mass),
                        (frame.full, 1 - mass)])))
        code, out, err = run(capsys, command[0], *paths, *command[1:])
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: mass 1/<4794 digits> has more than 4300 digits, too "
            "many to print"]


    def test_frames_of_long_atoms_exit_2(self, capsys, tmp_path):
        # both frames in full would make a 12,072-byte line
        shared, first, second = ("x" * 3000, "y" * 3000, "z" * 3000)
        paths = []
        for name, atoms in (("f1.bs", [shared, first]),
                            ("f2.bs", [shared, second])):
            paths.append(tmp_path / name)
            paths[-1].write_text(io.dumps_structure(
                BeliefStructure.vacuous(Frame(atoms))))
        code, out, err = run(capsys, "combine", *paths, "--rule", "dempster")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: FrameMismatch: frames differ: <frame of 2 atoms, 6015 "
            "characters> vs <frame of 2 atoms, 6015 characters>"]


class TestCombine:
    def test_total_conflict_exits_2(self, capsys):
        code, out, err = run(capsys, "combine", DATA / "point_a.bs",
                             DATA / "point_b.bs", "--rule", "dempster")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: TotalConflict: total conflict (K = 1) while combining "
            "statement 2 into the running result"]

    def test_write_then_validate_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "out.bs"
        code, out, _ = run(capsys, "combine", DATA / "desk_a.bs",
                           DATA / "desk_b_disjoint.bs",
                           "--rule", "dempster", "-o", out_path)
        assert code == 0
        assert "conflict: 3/10 ~ 0.300000" in out
        code, out, _ = run(capsys, "validate", out_path)
        assert code == 0
        assert "m({a, b}) = 3/7" in out

    def test_subnormal_output_is_flagged_on_validate(self, capsys, tmp_path):
        out_path = tmp_path / "sub.bs"
        code, _, _ = run(capsys, "combine", DATA / "desk_a.bs",
                         DATA / "desk_b_disjoint.bs",
                         "--rule", "unnormalized", "-o", out_path)
        assert code == 0
        code, out, _ = run(capsys, "validate", out_path)
        assert code == 0
        assert "subnormal: true" in out
        assert "m({}) = 3/10" in out

    def test_three_way_fold(self, capsys):
        code, out, _ = run(capsys, "combine", DATA / "desk_a.bs",
                           DATA / "desk_b_overlap.bs", DATA / "desk_a.bs",
                           "--rule", "dempster")
        assert code == 0
        assert "rule: dempster" in out
        # conflict line only appears for exactly two inputs
        assert "conflict:" not in out

    def test_huge_weight_exponent_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "combine", DATA / "desk_a.bs",
                             DATA / "desk_b_overlap.bs",
                             "--rule", "discount:1e-99999")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: ExponentTooLarge: mass '1e-99999' has an exponent beyond "
            "4300 in magnitude"]

    def test_underscored_mass_is_refused(self, capsys, tmp_path):
        # Python 3.11's Fraction reads "1_0/2_0"; the mass grammar does not
        code, out, err = run(capsys, "combine", DATA / "desk_a.bs",
                             DATA / "desk_b_overlap.bs",
                             "--rule", "discount:1_0/2_0")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: cannot parse mass '1_0/2_0'"]
        path = tmp_path / "underscored.bs"
        path.write_text('{"frame": ["a"], "masses": [{"set": ["a"], '
                        '"mass": "1_0/1_0"}]}', encoding="utf-8")
        code, out, err = run(capsys, "validate", path)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {path}: ValueError: cannot parse mass '1_0/1_0'"]

    def test_unknown_rule_exits_2(self, capsys):
        code, _, err = run(capsys, "combine", DATA / "desk_a.bs",
                           DATA / "desk_b_overlap.bs", "--rule", "median")
        assert code == 2
        assert "unknown combination rule" in err

    @pytest.mark.parametrize("argv", [
        ("combine", DATA / "desk_a.bs", DATA / "desk_b_overlap.bs",
         "--rule", "yager"),
        ("kb-infer", DATA / "kb_equal_half.kb"),
        ("sweep", "--alphas", "1/2", "--betas", "1/2", "--rule", "yager")])
    def test_unwritable_output_exits_1(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out"
        code, out, err = run(capsys, *argv, "-o", path)
        assert (code, out) == (1, "")  # the answer is written after the file
        assert err.splitlines() == [
            f"error: {path}: FileNotFoundError: [Errno 2] No such file or "
            f"directory: '{path}'"]

    @pytest.mark.parametrize("out", [["-o", ""], ["-o="], ["--out="]],
                             ids=["-o-space", "-o=", "--out="])
    @pytest.mark.parametrize("argv", [
        ("combine", DATA / "desk_a.bs", DATA / "desk_b_overlap.bs",
         "--rule", "yager"),
        ("kb-infer", DATA / "kb_equal_half.kb"),
        ("sweep", "--alphas", "1/2", "--betas", "1/2", "--rule", "yager")],
        ids=["combine", "kb-infer", "sweep"])
    def test_empty_out_path_is_a_failed_write(self, capsys, argv, out):
        # an empty path asks for a file all the same, which cannot be made
        code, stdout, err = run(capsys, *argv, *out)
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [
            "error: '': FileNotFoundError: [Errno 2] No such file or "
            "directory: ''"]

    @pytest.mark.parametrize("argv", [
        ("combine", DATA / "desk_a.bs", DATA / "desk_b_overlap.bs",
         "--rule", "yager"),
        ("kb-infer", DATA / "kb_equal_half.kb")])
    def test_file_text_is_built_only_for_out(self, capsys, monkeypatch,
                                             argv):
        monkeypatch.setattr(io, "dumps_structure", None)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out


class TestEntails:
    def test_flow_witness_for_hedge(self, capsys):
        code, out, _ = run(capsys, "entails", DATA / "typical_b_99.bs",
                           DATA / "typical_b_90.bs", "--mode", "flow")
        assert code == 0
        assert "entails: true" in out
        assert "{c, d} -> {a, b, c, d, e} : 9/100" in out

    def test_partition_has_no_witness_for_hedge(self, capsys):
        code, out, _ = run(capsys, "entails", DATA / "typical_b_99.bs",
                           DATA / "typical_b_90.bs", "--mode", "partition")
        assert code == 0
        assert "entails: false" in out

    def test_assert_flag_turns_answers_into_exit_codes(self, capsys):
        code, _, _ = run(capsys, "entails", DATA / "typical_b_99.bs",
                         DATA / "typical_b_90.bs", "--mode", "partition",
                         "--assert")
        assert code == 2
        code, _, _ = run(capsys, "entails", DATA / "typical_b_99.bs",
                         DATA / "typical_b_90.bs", "--mode", "flow",
                         "--assert")
        assert code == 0

    def test_partition_budget_is_one_error_line(self, capsys, tmp_path,
                                                monkeypatch):
        specific, general = subset_sum_trap(Frame("abcde"))
        paths = tmp_path / "specific.bs", tmp_path / "general.bs"
        for path, m in zip(paths, (specific, general)):
            path.write_text(io.dumps_structure(m))
        monkeypatch.setattr(entailment, "PARTITION_NODE_BUDGET", 20)
        code, out, err = run(capsys, "entails", *paths, "--mode", "partition")
        assert code == 2
        assert out == ""  # no partial answer before the error
        assert err.startswith("error: SearchBudgetExceeded: ")
        assert err.count("\n") == 1

    def test_interval_mode_reports_violator(self, capsys, tmp_path):
        out_path = tmp_path / "conflict.bs"
        run(capsys, "combine", DATA / "desk_a.bs",
            DATA / "desk_b_disjoint.bs", "--rule", "dempster",
            "-o", out_path)
        code, out, _ = run(capsys, "entails", out_path, DATA / "desk_a.bs",
                           "--mode", "interval")
        assert code == 0
        assert "contained: false" in out
        assert "violating set: {a, b}" in out


class TestMonotone:
    def test_survey_json(self, capsys):
        code, out, _ = run(capsys, "monotone", DATA / "desk_a.bs",
                           DATA / "desk_b_disjoint.bs",
                           "--rules", "dempster,priority-first,unnormalized")
        assert code == 0
        reports = json.loads(out)
        by_rule = {r["rule"]: r for r in reports}
        assert not by_rule["dempster"]["interval_ok_first"]
        assert by_rule["dempster"]["witness_first"] == ["a", "b"]
        assert by_rule["priority-first"]["entails_first"]
        assert not by_rule["priority-first"]["entails_second"]
        assert by_rule["unnormalized"]["entails_first"]
        assert by_rule["unnormalized"]["entails_second"]
        assert by_rule["unnormalized"]["interval_skipped"]


class TestKbCommands:
    def test_kb_infer(self, capsys):
        code, out, _ = run(capsys, "kb-infer", DATA / "kb_strong_weak.kb")
        assert code == 0
        assert "variable: V" in out
        assert "m({a, b}) = 99/109" in out

    def test_kb_infer_weaken_to(self, capsys):
        code, out, _ = run(capsys, "kb-infer", DATA / "kb_overlap_strong.kb",
                           "--weaken-to", "b")
        assert code == 0
        assert "weaken to: {b}" in out
        assert "m({b}) = 891/1000" in out
        assert "m({a, b, c, d, e}) = 109/1000" in out

    def test_kb_query(self, capsys):
        code, out, _ = run(capsys, "kb-query", DATA / "kb_equal_half.kb",
                           "--set", "a,b")
        assert code == 0
        assert "bel = 1/3" in out
        assert "pl = 2/3" in out

    def test_kb_parse_error_exits_1(self, capsys):
        code, _, err = run(capsys, "kb-infer", DATA / "err_unknown_atom.kb")
        assert code == 1
        assert "UnknownAtom" in err
        assert "line 2" in err

    def test_over_long_strength_is_one_parse_error(self, capsys, tmp_path):
        path = tmp_path / "long.kb"
        path.write_text("frame: a, b\ntypically V is {a} strength "
                        + "1" * 5000 + "\n")
        code, out, err = run(capsys, "kb-infer", path)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "ParseError: line 2, col 19: bad strength: too many digits" \
            in err

    def test_kb_total_conflict_exits_2(self, capsys, tmp_path):
        path = tmp_path / "clash.kb"
        path.write_text("frame: a, b\nV is {a}\nV is {b}\n")
        code, _, err = run(capsys, "kb-infer", path)
        assert code == 2
        assert "total conflict" in err
        assert "statement 2" in err


def write_budget_inputs(directory: Path) -> None:
    """Seeded inputs whose folds pass FOLD_FOCAL_BUDGET: on 24 atoms,
    budget.kb, 30 typical statements over 22 atoms each, and m1.bs and
    m2.bs, 1,000 random focal sets each; and d1.bs and d2.bs, 600 focal
    sets each on 20 atoms with disjoint supports, whose product and
    Yager result hold one focal element and Dubois-Prade's 360,000."""
    frame = Frame([f"x{i}" for i in range(24)])
    rng = random.Random(25)
    lines = ["frame: " + ", ".join(frame.atoms)]
    for _ in range(30):
        names = ", ".join(rng.sample(frame.atoms, 22))
        lines.append(f"typically V is {{{names}}} strength "
                     f"0.{rng.randint(50, 99)}")
    (directory / "budget.kb").write_text("\n".join(lines) + "\n")
    for name in ("m1.bs", "m2.bs"):
        masks = rng.sample(range(1, 1 << 24), 1000)
        weights = [rng.randint(1, 9) for _ in masks]
        m = BeliefStructure(frame, [
            (frame.from_bits(bits), Fraction(w, sum(weights)))
            for bits, w in zip(masks, weights)])
        (directory / name).write_text(io.dumps_structure(m))
    for name, m in zip(("d1.bs", "d2.bs"), disjoint_support_pair(35, 20, 600)):
        (directory / name).write_text(io.dumps_structure(m))


class TestFoldBudget:
    """Every command that folds ends with exit 2 and one error line once
    the running result passes FOLD_FOCAL_BUDGET, naming the statement it
    was combining in, and its traced peak stays under 48 MB.  Without the
    budget the knowledge base folds to 804,777 focal elements, at a traced
    peak of 235 MB for the fold alone, and the pair's Yager combination
    to 421,394, at 66 MB.  A survey checks its derived results as the
    fold checks the product, so `monotone --rules dubois-prade` refuses
    the disjoint pair as `combine --rule dubois-prade` does."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("budget")
        write_budget_inputs(directory)
        return directory

    @pytest.mark.parametrize("argv, index", [
        (("kb-infer", "budget.kb"), 22),
        (("combine", "m1.bs", "m2.bs", "--rule", "yager"), 2),
        (("monotone", "m1.bs", "m2.bs", "--rules", "dempster,yager"), 2),
        (("monotone", "d1.bs", "d2.bs", "--rules", "dubois-prade"), 2),
    ], ids=["kb-infer", "combine", "monotone", "monotone-disjoint"])
    def test_one_error_line_within_a_bounded_peak(self, capsys, inputs,
                                                  argv, index):
        command, *rest = argv
        tracemalloc.start()
        try:
            code, out, err = run(capsys, command, *(
                inputs / arg if arg.endswith((".kb", ".bs")) else arg
                for arg in rest))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        budget = importlib.import_module("evicalc.combine").FOLD_FOCAL_BUDGET
        assert err == (f"error: FoldTooLarge: more than {budget} focal "
                       f"elements while combining statement {index} into "
                       f"the running result\n")
        assert peak < 48 << 20


class TestNoPartialAnswer:
    """A set naming an unknown atom is found before anything is written."""

    @pytest.mark.parametrize("command, flag", [
        ("query", "--set"), ("kb-query", "--set"),
        ("kb-infer", "--weaken-to")])
    def test_unknown_atom_leaves_stdout_empty(self, command, flag):
        done = subprocess.run(
            [sys.executable, "-m", "evicalc", command,
             DATA / "kb_equal_half.kb", flag, "zz"],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            "error: UnknownAtom: unknown atom 'zz'"]


class TestSweep:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(capsys, "sweep", "--alphas", "3/5",
                           "--betas", "0.5", "--rule", "dempster")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("alpha,alpha_exact")
        assert lines[1] == ("0.600000,3/5,0.500000,1/2,0.300000,3/10,"
                            "0.428571,3/7,0.714286,5/7,true")

    def test_csv_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--alphas", "1/2,1",
                           "--betas", "1/2", "--rule", "yager",
                           "--overlap", "-o", out_path)
        assert code == 0
        assert out == ""
        assert out_path.read_text().count("\n") == 3

    @pytest.mark.parametrize("alphas, rule", [("1e-100000000", "dempster"),
                                              ("1/2", "discount:1e100000000")])
    def test_huge_exponent_is_a_usage_error(self, capsys, alphas, rule):
        code, out, err = run(capsys, "sweep", "--alphas", alphas,
                             "--betas", "1/2", "--rule", rule)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "exponent beyond 4300" in err

    def test_grid_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--alphas", "3/2",
                           "--betas", "1/2", "--rule", "dempster")
        assert code == 2
        assert "GridOutOfRange" in err


class TestNonAsciiDigits:
    """Digits outside ASCII are not numbers, though int and Fraction would
    read them: a strength of "٠.٩" or a mass of "١/٢" is refused."""

    def test_kb_strength_exits_1(self, capsys, tmp_path):
        path = tmp_path / "digits.kb"
        path.write_text("frame: a, b\ntypically V is {a} strength ٠.٩\n",
                        encoding="utf-8")
        code, out, err = run(capsys, "kb-infer", path)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {path}: ParseError: line 2, col 19: bad strength "
            "'٠.٩': use a decimal or p/q fraction"]

    def test_structure_mass_exits_1(self, capsys, tmp_path):
        path = tmp_path / "digits.bs"
        path.write_text('{"frame": ["a", "b"], "masses": ['
                        '{"set": ["a"], "mass": "١/٢"}, '
                        '{"set": ["b"], "mass": "1/2"}]}', encoding="utf-8")
        code, out, err = run(capsys, "validate", path)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {path}: ValueError: cannot parse mass '١/٢': not ASCII"]


def usage(capsys, *argv):
    """Run a command line that ends before any command runs (a usage error
    or -h); its status, stdout, stderr."""
    with pytest.raises(SystemExit) as stop:
        main([str(a) for a in argv])
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


class TestUsageErrors:
    """A command line that the parser refuses ends in exit status 2, an
    empty stdout and one ``error:`` line, with a long value shown by its
    length."""

    @pytest.mark.parametrize("argv, start", [
        (["entails", "a.bs", "b.bs", "--mode", "bogus"],
         "error: argument --mode: invalid choice: 'bogus' "),
        (["query", "a.kb"],
         "error: the following arguments are required: --set"),
        (["bogus"], "error: argument command: invalid choice: 'bogus' "),
        (["entails", "a.bs", "b.bs", "--mode", "m" * 5000],
         "error: argument --mode: invalid choice: <5000 characters> "),
    ], ids=["bad-mode", "missing-set", "unknown-command", "long-mode"])
    def test_one_error_line(self, capsys, argv, start):
        code, out, err = usage(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith(start)
        assert len(err) < 200

    def test_help_still_prints(self, capsys):
        code, out, err = usage(capsys, "-h")
        assert (code, err) == (0, "")
        assert out.startswith("usage: evicalc")

    @pytest.mark.parametrize("argv", [
        ["--help"], ["combine", "-h"], ["sweep", "--rule", "yager", "--help"]])
    def test_help_names_every_command_and_option(self, capsys, argv):
        code, out, err = usage(capsys, *argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        for command, (_, _, options) in cli.COMMANDS.items():
            line, = [ln for ln in lines if f"evicalc {command} " in ln]
            assert all(name in line for name in options if name != "--out")
            assert ("--out" in options) == ("[-o OUT]" in line)

    @pytest.mark.parametrize("argv, message", [
        (["combine", "a.bs", "b.bs", "--ru", "dempster"],
         "unrecognized argument: '--ru'"),
        (["validate", "--", "a.bs"], "unrecognized argument: '--'"),
        (["combine", "a.bs", "b.bs", "--rule", "dempster", "-oout.bs"],
         "unrecognized argument: '-oout.bs'"),
        (["combine", "a.bs", "--rule", "dempster"],
         "the following arguments are required: path2"),
        (["entails", "a.bs", "b.bs", "--assert=yes"],
         "unrecognized argument: '--assert=yes'"),
        (["validate", "a.bs", "b.bs"], "unrecognized argument: 'b.bs'"),
        (["sweep", "--alphas", "1/2", "--betas", "1/2", "--rule"],
         "argument --rule: expected one argument"),
        ([], "the following arguments are required: command"),
    ], ids=["prefix", "end-of-options", "attached-short-value",
            "one-combine-path", "flag-value", "extra-path", "no-value",
            "no-command"])
    def test_dropped_and_refused_forms(self, capsys, argv, message):
        """Forms argparse read (a unique prefix, "--" ending the options,
        -oPATH, one combine path) and forms it refused: one line, exit 2."""
        code, out, err = usage(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("argv, expected", [
        (["combine", "a.bs", "--rule=yager", "b.bs", "c.bs", "-o", "x.bs"],
         {"paths": ["a.bs", "b.bs", "c.bs"], "--rule": "yager",
          "--out": "x.bs"}),
        (["kb-infer", "-o=x.bs", "--rule", "a", "--rule", "b", "k.kb"],
         {"path": "k.kb", "--rule": "b", "--weaken-to": None,
          "--out": "x.bs"}),
        (["sweep", "--alphas", "-1/2", "--betas=", "--rule", "--out",
          "--overlap"],
         {"--alphas": "-1/2", "--betas": "", "--rule": "--out",
          "--overlap": True, "--out": None}),
    ], ids=["interleaved", "last-wins", "values-taken-as-given"])
    def test_accepted_forms(self, argv, expected):
        handler, args = parse_args(argv)
        assert handler is cli.COMMANDS[argv[0]][0]
        assert args == expected


class TestImports:
    """The CLI runs on the standard library alone."""

    @staticmethod
    def python(code, *args, flags=()):
        return subprocess.run([sys.executable, *flags, "-c", code,
                               *map(str, args)],
                              env=child_env(), capture_output=True,
                              text=True, timeout=120)

    def test_cli_import_leaves_networkx_out(self):
        done = self.python("import sys, evicalc.cli; "
                           "print('networkx' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"
        # without site, which may import them itself, typing, pathlib and
        # dataclasses (with inspect) stay out too, and so do json and the
        # modules a command may not run: each handler imports its own
        done = self.python("import sys, evicalc.cli; print(sorted("
                           "{'networkx', 'typing', 'pathlib', 'dataclasses', "
                           "'inspect', 'json', 'evicalc.entailment', "
                           "'evicalc.kb', 'evicalc.monotonicity'} "
                           "& sys.modules.keys()))", flags=("-S",))
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_cli_leaves_argparse_out(self):
        # argparse, shutil and gettext stay out (without site, which may
        # import them itself) after the import, a command and -h
        done = self.python(
            "import sys\n"
            "import evicalc.cli\n"
            "names = {'argparse', 'shutil', 'gettext'}\n"
            "seen = [sorted(names & sys.modules.keys())]\n"
            "evicalc.cli.main(['validate', sys.argv[1]])\n"
            "seen.append(sorted(names & sys.modules.keys()))\n"
            "try:\n"
            "    evicalc.cli.main(['-h'])\n"
            "except SystemExit as stop:\n"
            "    seen.append((stop.code, sorted(names & sys.modules.keys())))\n"
            "print(seen)\n", DATA / "desk_a.bs", flags=("-S",))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[[], [], (0, [])]"

    def test_commands_leave_dataclasses_out(self):
        # only monotone and sweep load monotonicity, whose reports are
        # dataclasses (with inspect); without site, which may import them
        # itself, the other commands run without any of the three
        done = self.python(
            "import sys\n"
            "from evicalc.cli import main\n"
            "a, b, kb = sys.argv[1:]\n"
            "codes = [main(['validate', a]),\n"
            "         main(['query', a, '--set', 'a']),\n"
            "         main(['combine', a, b, '--rule', 'yager']),\n"
            "         main(['entails', a, b]), main(['kb-infer', kb])]\n"
            "print(codes, sorted({'dataclasses', 'inspect', "
            "'evicalc.monotonicity'} & sys.modules.keys()))\n",
            DATA / "desk_a.bs", DATA / "desk_b_overlap.bs",
            DATA / "kb_equal_half.kb", flags=("-S",))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"

    def test_commands_leave_the_zeta_pairs_unbuilt(self):
        # core._zeta lists its additions per width on first use, so a
        # command that runs no transform builds none of them; a passing
        # interval check on 5 atoms builds the widths it transforms, 2
        # (its first level and the step to 3 atoms) and 3
        done = self.python(
            "import sys\n"
            "from evicalc.cli import main\n"
            "from evicalc.core import _ZETA_PAIRS\n"
            "a, b = sys.argv[1:]\n"
            "codes = [main(['validate', a]),\n"
            "         main(['entails', a, b, '--mode', 'flow'])]\n"
            "seen = [sorted(_ZETA_PAIRS)]\n"
            "codes.append(main(['entails', a, a, '--mode', 'interval']))\n"
            "print(codes, seen, sorted(_ZETA_PAIRS))\n",
            DATA / "desk_a.bs", DATA / "desk_b_overlap.bs", flags=("-S",))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0, 0] [[]] [2, 3]"

    def test_lazy_modules_load_on_first_use(self):
        # each lazy module loads when one of its names is first read, and
        # none rebinds a public name of the package: combine stays the
        # function, not the submodule of that name
        done = self.python(
            "import sys, evicalc\n"
            "homes = ['entailment', 'kb', 'monotonicity']\n"
            "seen = [[h for h in homes if f'evicalc.{h}' in sys.modules]]\n"
            "for name in ('hedge', 'parse_kb', 'MonotonicityReport'):\n"
            "    seen.append(getattr(evicalc, name).__module__)\n"
            "    seen.append([h for h in homes\n"
            "                 if f'evicalc.{h}' in sys.modules])\n"
            "combine = sys.modules['evicalc.combine'].combine\n"
            "print(seen, evicalc.combine is combine)\n", flags=("-S",))
        assert done.returncode == 0, done.stderr
        assert done.stdout == (
            "[[], 'evicalc.entailment', ['entailment'], 'evicalc.kb', "
            "['entailment', 'kb'], 'evicalc.monotonicity', "
            "['entailment', 'kb', 'monotonicity']] True\n")
        with pytest.raises(AttributeError, match="no attribute 'nothing'"):
            evicalc.nothing

    def test_lazy_modules_import_from_the_package(self):
        done = self.python(
            "import evicalc\n"
            "from evicalc import entailment, kb\n"
            "print(entailment.flow_entails is evicalc.flow_entails,\n"
            "      kb.infer is evicalc.infer, evicalc.monotonicity.__name__,\n"
            "      callable(evicalc.combine))\n", flags=("-S",))
        assert done.returncode == 0, done.stderr
        assert done.stdout == "True True evicalc.monotonicity True\n"

    def test_public_names_are_their_modules_objects(self):
        modules = {name: importlib.import_module(f"evicalc.{name}")
                   for name in ("core", "combine", "entailment", "errors",
                                "io", "kb", "monotonicity")}
        for name in evicalc.__all__:
            value = getattr(evicalc, name)
            if name in ("errors", "io"):  # combine is the function
                assert value is modules[name]
                continue
            holders = [m for m in modules.values() if name in vars(m)]
            assert holders, name
            assert all(vars(m)[name] is value for m in holders), name

    def test_dir_lists_every_public_name(self):
        listed = set(dir(evicalc))
        assert set(evicalc.__all__) <= listed
        assert {"entailment", "kb", "monotonicity"} <= listed

    # What each command loads of these, run as `python -S -m evicalc`;
    # SAVED stands for an -o path in the test's own directory
    SAVED = "<the saved file>"
    WATCHED = ("evicalc.entailment", "evicalc.kb", "evicalc.monotonicity",
               "json", "dataclasses", "inspect", "argparse", "typing",
               "pathlib")
    BY_COMMAND = [
        ("validate", ("validate", GOLDEN / "noconflict.bs"),
         "validate_noconflict", {"json"}),
        ("combine", ("combine", DATA / "desk_a.bs",
                     DATA / "desk_b_disjoint.bs", "--rule", "yager"),
         "combine_yager_disjoint", {"json"}),
        ("combine-o", ("combine", DATA / "desk_a.bs",
                       DATA / "desk_b_overlap.bs", "--rule", "dempster",
                       "-o", SAVED),
         "combine_dempster_overlap", {"json"}),
        ("entails-flow", ("entails", DATA / "typical_b_99.bs",
                          DATA / "typical_b_90.bs", "--mode", "flow"),
         "hedge_flow", {"evicalc.entailment", "json"}),
        ("entails-interval", ("entails", GOLDEN / "conflict.bs",
                              DATA / "desk_a.bs", "--mode", "interval"),
         "entails_conflict_interval", {"evicalc.entailment", "json"}),
        ("kb-infer", ("kb-infer", DATA / "kb_equal_half.kb"),
         "kb_equal_half_infer", {"evicalc.kb"}),
        ("kb-infer-weaken", ("kb-infer", DATA / "kb_overlap_strong.kb",
                             "--weaken-to", "b"),
         "kb_overlap_weaken", {"evicalc.kb", "evicalc.entailment"}),
        ("kb-query", ("kb-query", DATA / "kb_equal_half.kb", "--set", "a,b"),
         "kb_equal_half_query", {"evicalc.kb"}),
        ("query-bs", ("query", DATA / "desk_a.bs", "--set", "a"), None,
         {"json"}),
        ("query-kb", ("query", DATA / "kb_strong_weak.kb", "--set", "c,d"),
         None, {"evicalc.kb"}),
        ("monotone", ("monotone", DATA / "desk_a.bs",
                      DATA / "desk_b_disjoint.bs", "--rules",
                      "dempster,yager,dubois-prade,discount:1/2,"
                      "priority-first,priority-second,unnormalized"),
         "survey_disjoint", {"evicalc.entailment", "evicalc.monotonicity",
                             "json", "dataclasses", "inspect"}),
        ("sweep", ("sweep", "--alphas", "1/10,3/10,5/10,7/10,9/10",
                   "--betas", "1/10,3/10,5/10,7/10,9/10", "--rule",
                   "dempster"),
         "sweep_dempster", {"evicalc.entailment", "evicalc.monotonicity",
                            "dataclasses", "inspect"}),
    ]

    @pytest.mark.parametrize("argv, golden, loads",
                             [case[1:] for case in BY_COMMAND],
                             ids=[case[0] for case in BY_COMMAND])
    def test_each_command_loads_only_what_it_runs(self, capsys, tmp_path,
                                                  argv, golden, loads):
        # a fresh process per command, without site, which may import
        # modules itself; the modules it loaded go to stderr at exit
        saved = tmp_path / "saved.bs"
        done = self.python(
            "import runpy, sys\n"
            "try:\n"
            "    runpy.run_module('evicalc', run_name='__main__')\n"
            "finally:\n"
            f"    print(sorted(set({self.WATCHED!r}) & sys.modules.keys()),\n"
            "          file=sys.stderr)\n",
            *(saved if a == self.SAVED else a for a in argv), flags=("-S",))
        assert done.returncode == 0, done.stderr
        assert done.stderr == f"{sorted(loads)}\n"
        if golden is None:  # query has no golden command
            assert run(capsys, *argv) == (0, done.stdout, "")
        else:
            assert done.stdout == (GOLDEN / f"{golden}.txt").read_text()
        if self.SAVED in argv:
            assert saved.read_text() == (GOLDEN / "noconflict.bs").read_text()

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from evicalc import *", namespace)
        assert [n for n in evicalc.__all__ if n not in namespace] == []

    def test_flow_entails_with_networkx_blocked(self):
        # a None entry makes any import of networkx fail, installed or not
        done = self.python("import runpy, sys; sys.modules['networkx'] = None; "
                           "runpy.run_module('evicalc', run_name='__main__')",
                           "entails", DATA / "typical_b_99.bs",
                           DATA / "typical_b_90.bs", "--mode", "flow")
        assert done.returncode == 0, done.stderr
        assert done.stdout == (GOLDEN / "hedge_flow.txt").read_text()


class TestBrokenPipe:
    def test_reader_closing_early_is_one_error_line(self, tmp_path):
        # a witness of about 1.5 MB, far more than a pipe holds, so the
        # child is still writing when the reader goes away
        frame = Frame([f"atom_{i:02d}_" + "x" * 100 for i in range(20)])
        masks = random.Random(5).sample(range(1, 1 << 20), 600)
        big = tmp_path / "big.bs"
        big.write_text(io.dumps_structure(BeliefStructure(
            frame, [(frame.from_bits(b), Fraction(1, 600)) for b in masks])))
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)  # the usual block-buffered pipe
        with subprocess.Popen([sys.executable, "-m", "evicalc", "entails",
                               big, big, "--mode", "flow"], env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as child:
            first = child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read().decode()
            code = child.wait(timeout=120)
        assert first == b"mode: flow\n"
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


# Junk for the fuzz: atom names with control characters, a line break, a
# lone surrogate and a long name; masses that are negative, unparsable,
# not strings, or too long to print.
ATOM_NAMES = st.one_of(
    st.sampled_from("abcde"),
    st.sampled_from(["", " ", "a b", "\t", "\x00", "\ud800", "\u200b",
                     "a\nm({z}) = 1 ~ 1.000000", "y" * 120]),
    st.text(max_size=4))
MASS_TEXTS = st.one_of(
    st.sampled_from(["1", "1/2", "1/3", "2/3", "0", "0.5", "-1/2", "1/0",
                     "x", "", "1e-4300", "1e-100000000", "nan", "inf"]),
    st.fractions(0, 1, max_denominator=12).map(str))
MASSES = st.one_of(MASS_TEXTS, st.integers(-1, 2), st.booleans(), st.none(),
                   st.just([]))
SET_VALUES = st.lists(ATOM_NAMES, max_size=3).map(",".join)
RULES = st.sampled_from(["dempster", "yager", "dubois-prade", "unnormalized",
                         "priority-first", "priority-second", "discount:1/2"])
BAD_RULES = st.one_of(st.sampled_from(["discount:", "discount:3/2",
                                       "discount:x", "discount:1e-4300",
                                       "median", ""]),
                      st.text(max_size=8))


def mostly(draw, good, bad):
    """A draw from ``good`` three times in four, else from ``bad``."""
    return draw(bad if draw(st.integers(0, 3)) == 0 else good)


@st.composite
def structure_texts(draw, n=None):
    """A belief-structure document on a frame of ``n`` atoms (drawn from 1
    to 5 when not given); most are well formed, the rest carry junk names
    or masses."""
    n = draw(st.integers(1, 5)) if n is None else n
    if draw(st.integers(0, 3)):  # three in four, as in mostly()
        atoms = list("abcde"[:n])
        masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1,
                              max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(masks),
                                max_size=len(masks)))
        masses = [{"set": [a for i, a in enumerate(atoms) if bits >> i & 1],
                   "mass": f"{w}/{sum(weights)}"}
                  for bits, w in zip(masks, weights)]
    else:
        atoms = draw(st.lists(ATOM_NAMES, min_size=n, max_size=n))
        masses = draw(st.lists(st.fixed_dictionaries({
            "set": st.lists(st.one_of(st.sampled_from(atoms), ATOM_NAMES),
                            max_size=n),
            "mass": MASSES}), max_size=4))
    return json.dumps({"frame": atoms, "masses": masses})


@st.composite
def kb_texts(draw):
    """Knowledge-base text: mostly well-formed lines, with junk among them."""
    frame = mostly(draw, st.just("frame: a, b, c"), st.lists(
        ATOM_NAMES, min_size=1, max_size=4).map(", ".join).map(
            "frame: {}".format))
    good = st.sampled_from([
        "V is {a, b}", "typically V is {a} strength 0.9",
        "typically V is {b, c} strength 1/2", "# note",
        "typically V is {c} strength 99/100"])
    bad = st.one_of(st.sampled_from([
        "W is {b}", "V is {}", "V is {z}", "frame: a, b", "V is {c} x",
        "typically V is {a} strength 1", "typically V is {c} strength 1/0"]),
        st.text(max_size=12))
    lines = [mostly(draw, good, bad) for _ in range(draw(st.integers(1, 4)))]
    return "\n".join([frame, *lines]) + "\n"


ANY_FILE = st.one_of(structure_texts(), kb_texts(), st.binary(max_size=40))


OUT = "<the test's -o path>"


@st.composite
def cli_runs(draw):
    """A well-formed command line with fuzzed values, and its files: most
    of the kind the command reads, the rest of any kind.  OUT stands for a
    path in the test's own directory."""
    command = draw(st.sampled_from(["validate", "query", "combine", "entails",
                                    "monotone", "kb-infer", "kb-query",
                                    "sweep"]))
    count = {"combine": draw(st.integers(2, 3)), "entails": 2, "monotone": 2,
             "sweep": 0}.get(command, 1)
    # one frame size for all files, so that most combine, entails and
    # monotone runs reach the computation
    kind = (kb_texts() if command.startswith("kb")
            else structure_texts(draw(st.integers(1, 5))))
    files = [mostly(draw, kind, ANY_FILE) for _ in range(count)]
    options = []
    if command in ("query", "kb-query"):
        options.append("--set=" + draw(SET_VALUES))
    if command in ("query", "combine", "kb-infer", "kb-query", "sweep"):
        options.append("--rule=" + mostly(draw, RULES, BAD_RULES))
    if command == "entails":
        options.append("--mode=" + draw(st.sampled_from(
            ["flow", "partition", "interval"])))
        if draw(st.booleans()):
            options.append("--assert")
    if command == "monotone":
        options.append("--rules=" + ",".join(
            mostly(draw, RULES, BAD_RULES)
            for _ in range(draw(st.integers(1, 3)))))
    if command == "kb-infer" and draw(st.booleans()):
        options.append("--weaken-to=" + mostly(draw, st.sampled_from(
            ["a", "a,b", "b,c", "a,b,c"]), SET_VALUES))
    if command == "sweep":
        options.append("--alphas=" + ",".join(
            draw(st.lists(MASS_TEXTS, min_size=1, max_size=3))))
        options.append("--betas=1/2")
    if command in ("combine", "kb-infer", "sweep") and draw(st.booleans()):
        options += ["-o", OUT]
    return command, files, options


COMMANDS = ["validate", "query", "combine", "entails", "monotone",
            "kb-infer", "kb-query", "sweep"]
# Files in the argv fuzz's directory, so that accepted command lines reach
# the handlers: each name there is a copy of the data file named here.
FUZZ_FILES = {"desk.bs": "desk_a.bs", "half.kb": "kb_equal_half.kb"}
# No "/" in drawn text, so that an -o value is a name in that directory
FUZZ_CHARACTERS = st.characters(blacklist_categories=("Cs",),
                                blacklist_characters="/")
OPTIONS = ["--set", "--rule", "--mode", "--mode=bogus", "--assert", "--rules",
           "--weaken-to", "-o", "--out", "--alphas", "--betas", "--overlap",
           "--bogus", "-", "--"]
JUNK = st.one_of(
    st.sampled_from(list(FUZZ_FILES)),
    st.sampled_from(["bogus", "", "a\nb", "flow", "dempster", "1/2", "a,b",
                     "v" * 5000, "--mode=" + "w" * 300, "--rule=" + "r" * 300,
                     "missing.bs"]),
    st.text(FUZZ_CHARACTERS, max_size=8))


@st.composite
def malformed_argv(draw):
    """A command line of commands, options and junk in any order: most lack
    a required option or give a bad value, and a few happen to be valid."""
    head = draw(st.one_of(st.sampled_from(COMMANDS), JUNK))
    rest = draw(st.lists(st.one_of(st.sampled_from(COMMANDS),
                                   st.sampled_from(OPTIONS), JUNK),
                         max_size=6))
    return [head, *rest]


# The grammar as the README states it, written out independently of
# cli.COMMANDS: each command's positional count and its options, True for
# a flag.  combine reads two or more paths.
GRAMMAR = {
    "validate": (st.just(1), {}),
    "query": (st.just(1), {"--set": False, "--rule": False}),
    "combine": (st.integers(2, 4), {"--rule": False, "--out": False}),
    "entails": (st.just(2), {"--mode": False, "--assert": True}),
    "monotone": (st.just(2), {"--rules": False}),
    "kb-infer": (st.just(1), {"--rule": False, "--weaken-to": False,
                              "--out": False}),
    "kb-query": (st.just(1), {"--set": False, "--rule": False}),
    "sweep": (st.just(0), {"--alphas": False, "--betas": False,
                           "--overlap": True, "--rule": False,
                           "--out": False}),
}
VALUES = st.one_of(
    st.sampled_from([*FUZZ_FILES, "flow", "partition", "interval", "a.bs",
                     "x=y", "", "dempster", "yager", "discount:1/2",
                     "dempster,yager", "a,b", "1/2", "1/2,3/4", "validate"]),
    st.text(FUZZ_CHARACTERS, max_size=6)).filter(
        lambda value: not value.startswith("-"))
ORACLE = argparse_oracle()


@st.composite
def grammar_argv(draw):
    """A command line from GRAMMAR: its positionals and options in any
    order, each option given 0 to 2 times in either spelling (-o too)."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    count, options = GRAMMAR[command]
    groups = [[draw(VALUES)] for _ in range(draw(count))]
    for name, flag in options.items():
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
            spelled = draw(st.sampled_from(
                [name, "-o"] if name == "--out" else [name]))
            value = draw(VALUES)
            groups.append([spelled] if flag
                          else draw(st.sampled_from([[spelled, value],
                                                     [f"{spelled}={value}"]])))
    return [command, *(token for group in draw(st.permutations(groups))
                       for token in group)]


class TestFuzz:
    """Any well-formed command line on any file ends in exit 0, 1 or 2; a
    failure leaves stdout empty, writes no -o file and prints exactly one
    ``error:`` line.  The one non-zero exit with an answer is a false
    verdict under ``entails --assert``: exit 2, the whole answer on stdout
    and nothing on stderr."""

    @given(cli_runs())
    @settings(max_examples=300, deadline=None)
    def test_every_run_ends_cleanly(self, run_args):
        command, files, options = run_args
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, content in enumerate(files):
                paths.append(os.path.join(tmp, f"input{i}"))
                with open(paths[-1], "wb") as f:
                    f.write(content if isinstance(content, bytes)
                            else content.encode("utf-8", "surrogatepass"))
            out_path = os.path.join(tmp, "saved")
            # strict UTF-8, as on a terminal or a pipe
            out = TextIOWrapper(BytesIO(), "utf-8", write_through=True)
            err = TextIOWrapper(BytesIO(), "utf-8", write_through=True)
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, *paths,
                             *(out_path if o == OUT else o for o in options)])
            saved = (Path(out_path).read_text(encoding="utf-8")
                     if os.path.exists(out_path) else None)
        out, err = out.buffer.getvalue(), err.buffer.getvalue()
        assert code in (0, 1, 2)
        assert (saved is not None) == (code == 0 and OUT in options)
        if code and not err:
            assert (command, code) == ("entails", 2) and "--assert" in options
            assert re.fullmatch(rb"mode: (flow|partition)\nentails: false\n"
                                rb"|mode: interval\ncontained: false\n"
                                rb"violating set: \{.*\}\n", out)
        elif code:
            assert out == b""
            assert err.startswith(b"error: ") and err.count(b"\n") == 1
            assert err.endswith(b"\n")
        else:
            assert err == b""
        if saved is not None and command == "sweep":
            assert out == b"" and saved.startswith("alpha,")
        elif saved is not None:  # stdout ends with the structure saved
            assert out.endswith(io.format_structure(
                io.loads_structure(saved)).encode())

    @given(st.one_of(malformed_argv(), grammar_argv()))
    @settings(max_examples=400, deadline=None)
    def test_malformed_argv_is_one_usage_line(self, argv):
        """A command line the parser refuses exits 2 with an empty stdout
        and one ``error:`` line, each long value shown by its length; one it
        accepts keeps the contract above.  Junk lines and lines of the
        grammar are both drawn, the latter mostly reaching a handler.  Runs
        in a directory that holds only the FUZZ_FILES, so that an -o writes
        nowhere else."""
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            for name, source in FUZZ_FILES.items():
                shutil.copyfile(DATA / source, os.path.join(tmp, name))
            os.chdir(tmp)
            out = TextIOWrapper(BytesIO(), "utf-8", write_through=True)
            # the interpreter's own stderr escapes what UTF-8 cannot encode
            err = TextIOWrapper(BytesIO(), "utf-8", "backslashreplace",
                                write_through=True)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
            except SystemExit as stop:
                code, usage_error = stop.code, True
            else:
                usage_error = False
            finally:
                os.chdir(cwd)
        event("refused by the parser" if usage_error else "reached a handler")
        out, err = out.buffer.getvalue(), err.buffer.getvalue()
        assert code in (0, 1, 2)
        if code:
            assert out == b""
            assert err.startswith(b"error: ") and err.count(b"\n") == 1
            assert err.endswith(b"\n")
            assert not usage_error or (code == 2 and len(err) < 1000)
        else:
            assert err == b""


class TestArgparseOracle:
    """The command table reads every command line of the grammar that
    argparse read, to the same values."""

    @given(grammar_argv())
    @settings(max_examples=500, deadline=None)
    def test_same_values_as_argparse(self, argv):
        try:
            expected = vars(ORACLE.parse_args(argv))
        except ArgvRefused:
            return
        handler, args = parse_args(argv)
        assert handler is cli.COMMANDS[expected.pop("command")][0]
        assert args == {key if key.startswith("path")
                        else "--" + key.rstrip("_").replace("_", "-"): value
                        for key, value in expected.items()}
