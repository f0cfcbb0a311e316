import json
import random
from fractions import Fraction

import pytest

from evicalc import BeliefStructure, DEMPSTER, UNNORMALIZED, combine, \
    flow_entails, monotonic_step
from evicalc import io
from evicalc.errors import EmptyFocalInNormal, UnknownAtom

from oracles import random_frame, random_structure

F = Fraction


class TestStructureDocuments:
    def test_json_decimal_literals_parse_exactly(self):
        m = io.loads_structure(
            '{"frame": ["a", "b"], '
            ' "masses": [{"set": ["a"], "mass": 0.99},'
            '            {"set": ["a", "b"], "mass": 0.01}]}')
        assert m.mass(m.frame.subset(["a"])) == F(99, 100)

    def test_mass_string_forms(self):
        m = io.loads_structure(
            '{"frame": ["a", "b"],'
            ' "masses": [{"set": ["a"], "mass": "1/3"},'
            '            {"set": ["b"], "mass": "0.5"},'
            '            {"set": ["a", "b"], "mass": "1/6"}]}')
        assert m.mass(m.frame.subset(["b"])) == F(1, 2)

    def test_json_true_nan_and_infinity_are_not_masses(self):
        doc = '{"frame": ["a"], "masses": [{"set": ["a"], "mass": %s}]}'
        with pytest.raises(TypeError, match="bool"):
            io.loads_structure(doc % "true")
        for literal, name in (("NaN", "nan"), ("Infinity", "inf")):
            with pytest.raises(ValueError, match=f"mass {name} is not"):
                io.loads_structure(doc % literal)

    def test_mass_exponent_is_bounded_in_strings_and_numbers(self):
        doc = '{"frame": ["a"], "masses": [{"set": ["a"], "mass": %s}]}'
        assert len(io.loads_structure(doc % "1e0")) == 1
        for literal in ('"1e-100000000"', "1e-100000000", "1E+4301"):
            with pytest.raises(ValueError, match="exponent beyond 4300"):
                io.loads_structure(doc % literal)

    def test_each_mass_must_print_though_their_lcm_need_not(self):
        # 2**8000 and 3**5000 each print; their lcm has 4,794 digits
        a, b = 2**8000, 3**5000
        masses = {"a": F(1, a), "b": F(a // 2 - 1, a), "c": F(1, b),
                  "d": F(b - 2, 2 * b)}
        m = io.structure_from_obj({"frame": list(masses), "masses": [
            {"set": [atom], "mass": f"{w.numerator}/{w.denominator}"}
            for atom, w in masses.items()]})
        assert dict(m.items()) == {m.frame.subset([atom]): w
                                   for atom, w in masses.items()}
        assert io.format_structure(m).count("\n") == 7

    def test_subnormal_flag_gates_the_empty_set(self):
        doc = ('{"frame": ["a"], "subnormal": %s,'
               ' "masses": [{"set": [], "mass": "1/2"},'
               '            {"set": ["a"], "mass": "1/2"}]}')
        with pytest.raises(EmptyFocalInNormal):
            io.loads_structure(doc % "false")
        # only a JSON boolean is a flag; a truthy string or number is not
        for flag in ('"false"', "1"):
            with pytest.raises(ValueError, match='"subnormal" must be'):
                io.loads_structure(doc % flag)
        m = io.loads_structure(doc % "true")
        assert m.is_subnormal

    def test_unknown_atom_in_set(self):
        with pytest.raises(UnknownAtom):
            io.loads_structure('{"frame": ["a"],'
                               ' "masses": [{"set": ["z"], "mass": 1}]}')

    def test_malformed_documents(self):
        for doc in ('[1, 2]',
                    '{"frame": ["a"]}',
                    '{"frame": "a", "masses": []}',
                    '{"frame": ["a"], "masses": [{"set": ["a"]}]}',
                    '{"frame": ["a"], "masses": [{"set": "a", "mass": 1}]}'):
            with pytest.raises(ValueError):
                io.loads_structure(doc)

    @pytest.mark.parametrize("masses", ['{"set": ["a"], "mass": 1}', '"a"',
                                        "1", "null"])
    def test_masses_must_be_a_list(self, masses):
        obj = json.loads('{"frame": ["a"], "masses": %s}' % masses)
        with pytest.raises(ValueError) as err:
            io.structure_from_obj(obj)
        assert str(err.value) == \
            '"masses" must be a list of {"set", "mass"} entries'

    def test_round_trip_random_structures(self):
        rng = random.Random(70)
        for _ in range(25):
            m = random_structure(rng, random_frame(rng), max_focals=5)
            assert io.loads_structure(io.dumps_structure(m)) == m

    def test_serialization_is_sorted_by_bitmask(self, frame4):
        m = BeliefStructure(frame4, [(frame4.subset(["c"]), F(1, 2)),
                                     (frame4.subset(["a"]), F(1, 2))])
        obj = io.structure_to_obj(m)
        assert [e["set"] for e in obj["masses"]] == [["a"], ["c"]]

    def test_file_round_trip(self, tmp_path, frame4):
        m = BeliefStructure.vacuous(frame4)
        path = tmp_path / "m.bs"
        io.save_structure(m, path)
        assert io.load_structure(path) == m


class TestWitnessAndReportDocuments:
    def test_witness_serialization(self, frame4):
        a = frame4.subset(["a", "b"])
        m1 = BeliefStructure(frame4, [(a, F(3, 4)), (frame4.full, F(1, 4))])
        m2 = BeliefStructure(frame4, [(a, F(1, 2)), (frame4.full, F(1, 2))])
        witness = flow_entails(m1, m2)
        obj = io.witness_to_obj(witness)
        assert obj["mode"] == "flow"
        assert {"from": ["a", "b"], "to": ["a", "b"],
                "mass": "1/2"} in obj["triples"]
        json.dumps(obj)  # must be JSON-clean

    def test_report_serialization(self, frame4):
        m1 = BeliefStructure(frame4, [(frame4.subset(["a", "b"]), F(3, 5)),
                                      (frame4.full, F(2, 5))])
        m2 = BeliefStructure(frame4, [(frame4.subset(["c", "d"]), F(1, 2)),
                                      (frame4.full, F(1, 2))])
        report = monotonic_step(m1, m2, DEMPSTER)
        obj = io.report_to_obj(report)
        assert obj["rule"] == "dempster"
        assert obj["conflict"] == "3/10"
        assert obj["witness_first"] == ["a", "b"]
        json.dumps(obj)
        sub = io.report_to_obj(monotonic_step(m1, m2, UNNORMALIZED))
        assert sub["interval_skipped"] is True
        assert sub["combined"]["subnormal"] is True

    def test_format_structure_block(self, frame4):
        m = combine(
            BeliefStructure(frame4, [(frame4.subset(["a", "b"]), F(3, 5)),
                                     (frame4.full, F(2, 5))]),
            BeliefStructure(frame4, [(frame4.subset(["b", "c"]), F(1, 2)),
                                     (frame4.full, F(1, 2))]),
            DEMPSTER)
        assert io.format_structure(m) == (
            "frame: a, b, c, d\n"
            "subnormal: false\n"
            "focal elements: 4\n"
            "m({b}) = 3/10 ~ 0.300000\n"
            "m({a, b}) = 3/10 ~ 0.300000\n"
            "m({b, c}) = 1/5 ~ 0.200000\n"
            "m({a, b, c, d}) = 1/5 ~ 0.200000\n")

    def test_sniff(self):
        assert io.sniff_kind('  {"frame": []}') == "structure"
        assert io.sniff_kind("frame: a, b\nV is {a}\n") == "kb"
