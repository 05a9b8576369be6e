import dataclasses
import gc
import json
import os
import random
import re
import subprocess
import sys
import timeit
import tracemalloc
from itertools import accumulate
from pathlib import Path

import pytest
from alpha_tables import ACTIVATED, FAMILIES, generate
from references import diagram, json_document, reading, reference_parse, reference_parse_json, text_document
from test_simulate import random_circuits

import rootsynth
from rootsynth import cli, textio
from rootsynth.bits import index_to_bits
from rootsynth.circuit import Circuit, controlled_root, feynman, not_gate
from rootsynth.synth import (
    _gate_table,
    iterative_polarity_flip,
    synth_barenco_toffoli,
    synth_peres,
    synth_toffoli,
    synth_zero_polarity,
)
from rootsynth.textio import (
    ParseError,
    load_circuit,
    parse,
    parse_json,
    render_ascii,
    serialize,
    serialize_json,
)

SRC = str(Path(rootsynth.__file__).resolve().parents[1])
FAMILY_CASES = [
    (family, n)
    for family in ("peres", "toffoli", "barenco", "or-gate", "and-complemented")
    for n in range(1, 7)
]


def mixed_activation(n):
    return tuple(1 if i % 3 != 1 else 0 for i in range(n))


def family_circuit(family, n):
    act = mixed_activation(n)
    if family == "peres":
        return synth_peres(n, act)
    if family == "toffoli":
        return synth_toffoli(n, act)
    if family == "barenco":
        return synth_barenco_toffoli(n, act)
    return synth_zero_polarity(n, family)


class TestRoundTrips:
    @pytest.mark.parametrize("family,n", FAMILY_CASES)
    def test_text(self, family, n):
        c = family_circuit(family, n)
        back = parse(serialize(c))
        assert back == c
        assert back.label == c.label

    @pytest.mark.parametrize("family,n", FAMILY_CASES)
    def test_json(self, family, n):
        c = family_circuit(family, n)
        back = parse_json(serialize_json(c))
        assert back == c
        assert back.label == c.label

    @pytest.mark.parametrize("suffix", [".txt", ".json"])
    def test_load_dispatches_on_extension(self, tmp_path, suffix):
        c = synth_toffoli(3, (1, 0, 1))
        path = tmp_path / f"c{suffix}"
        path.write_text(serialize_json(c) if suffix == ".json" else serialize(c))
        assert load_circuit(path) == c

    @pytest.mark.parametrize("suffix", [".txt", ".json"])
    def test_load_reads_utf8_under_an_ascii_locale(self, tmp_path, suffix):
        path = tmp_path / f"c{suffix}"
        c = dataclasses.replace(synth_peres(2), label="peres ü")
        path.write_bytes((serialize_json(c) if suffix == ".json" else serialize(c)).encode("utf-8"))
        script = "import sys; from rootsynth.textio import load_circuit; print(ascii(load_circuit(sys.argv[1]).label))"
        env = {**os.environ, "PYTHONPATH": SRC, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        shown = subprocess.run([sys.executable, "-c", script, str(path)],
                               capture_output=True, text=True, env=env, check=True).stdout
        assert shown.strip() == ascii("peres ü")

    def test_blank_label_writes_no_label_line(self):
        c = dataclasses.replace(synth_peres(2), label="   ")
        text = serialize(c)
        assert "label" not in text
        assert parse(text) == c

    def test_blank_label_round_trips_as_empty_in_json(self):
        c = dataclasses.replace(synth_peres(2), label="   ")
        assert parse_json(serialize_json(c)).label == ""

    @pytest.mark.parametrize("line", ["label", "label ", "label   ", "label\t"], ids=["bare", "one-space", "spaces", "tab"])
    def test_blank_label_line_reads_as_the_empty_label(self, line):
        c = parse(f"circuit v1\nwidth 2\ncontrols 1\n{line}\ncnot 1 2\n")
        assert c.label == "" and c.gates == (feynman(1, 2),)
        with pytest.raises(ParseError) as info:
            parse(f"circuit v1\nwidth 2\ncontrols 1\n{line}\nlabel x\n")
        assert str(info.value) == "line 5: duplicate label directive"

    def test_label_keeps_hash_and_outer_spaces(self):
        c = dataclasses.replace(synth_peres(2), label="  run #3  ")
        assert parse(serialize(c)).label == "  run #3  "
        assert parse_json(serialize_json(c)).label == "  run #3  "
        for line, label in (("label\tx", "x"), ("label  x ", " x ")):  # the one whitespace character after the word
            assert parse(f"circuit v1\nwidth 2\ncontrols 1\n{line}\n").label == label


class TestDistinctGates:
    @pytest.mark.parametrize("family,n", [(f, 6) for f in ("peres", "toffoli", "barenco", "and-complemented")])
    def test_readers_build_each_distinct_gate_once(self, family, n):
        c = family_circuit(family, n)
        bound = n * (n - 1) // 2 + 2 * n + 1
        for back in (parse(serialize(c)), parse_json(serialize_json(c))):
            assert len(set(map(id, back.gates))) == len(set(back.gates)) <= bound

    def test_json_is_one_line_of_the_whole_document(self):
        c = synth_zero_polarity(3, "and-complemented")
        text = serialize_json(c)
        assert text.endswith("\n") and "\n" not in text[:-1]
        assert text == json.dumps(json.loads(text)) + "\n"
        assert json.loads(text)["gates"][-1] == {"gate": "not", "line": 4}

    def test_empty_circuit(self):
        c = Circuit(2, label="empty")
        assert parse(serialize(c)) == c
        assert parse_json(serialize_json(c)) == c


HEADER = ["circuit v1", "width 4", "controls 3", "cnot 1 2", "croot 4 +1 1 4"]

BAD_GATE_LINES = [
    ("cnot 1", "cnot takes <control> <target>"),
    ("cnot 1 2 3", "cnot takes <control> <target>"),
    ("cnot a 2", "control must be an integer, got 'a'"),
    ("cnot 1 b", "target must be an integer, got 'b'"),
    ("cnot 2 2", "control and target coincide on line 2"),
    ("cnot 1 5", "line 5 out of range for width 4"),
    ("cnot 0 2", "control line 0 must be >= 1"),
    ("croot 4 +1 1", "croot takes <kappa> <+1|-1> <control> <target>"),
    ("croot 4 +2 1 4", "direction must be +1 or -1, got '+2'"),
    ("croot x +1 1 4", "kappa must be an integer, got 'x'"),
    ("croot 3 +1 1 4", "kappa must be a power of two >= 1, got 3"),
    ("croot 4 -1 1 9", "line 9 out of range for width 4"),
    ("not", "not takes <line>"),
    ("not z", "line must be an integer, got 'z'"),
    ("not 0", "target line 0 must be >= 1"),
    ("not 5", "line 5 out of range for width 4"),
    ("toffoli 1 2 3", "unknown directive 'toffoli'"),
    ("labelx 1", "unknown directive 'labelx'"),
    ("cnot \u0661 2", "control must be an integer, got '\u0661'"),
    ("cnot 1 \uff12", "target must be an integer, got '\uff12'"),
    ("croot 0_4 +1 1 4", "kappa must be an integer, got '0_4'"),
    ("not 1_0", "line must be an integer, got '1_0'"),
]


# Bad lines to plant among good ones: an out-of-range gate, each repeated
# directive of the document below, and an unknown word.
PLANTED_LINES = [
    ("cnot 1 5", "line 5 out of range for width 4"),
    ("width 4", "duplicate width directive"),
    ("controls 3", "duplicate controls directive"),
    ("label seeded # document", "duplicate label directive"),
    ("circuit v1", "duplicate header 'circuit v1'"),
    ("swap 1 2", "unknown directive 'swap'"),
]


class TestParseErrors:
    @pytest.mark.parametrize("bad,message", BAD_GATE_LINES, ids=[b for b, _ in BAD_GATE_LINES])
    def test_bad_gate_line_is_named_by_its_line(self, bad, message):
        text = "\n".join(HEADER + ["cnot 1 2", bad, "cnot 1 2"]) + "\n"
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.line_no == len(HEADER) + 2
        assert str(info.value) == f"line {len(HEADER) + 2}: {message}"

    @pytest.mark.parametrize("bad", ["cnot 1 14", "cnot 1 2 3", "croot 2048 +3 12 13", "croot 1000 +1 12 13", "not 14"])
    def test_bad_line_after_thousands_of_good_ones(self, bad):
        lines = serialize(synth_peres(12)).splitlines()
        assert len(lines) > 8000
        at = 6000
        lines[at] = bad + "  # after thousands of repeats"
        with pytest.raises(ParseError) as info:
            parse("\n".join(lines))
        assert info.value.line_no == at + 1

    def test_repeats_with_comments_and_spacing_still_parse(self):
        lines = HEADER + ["  cnot 1 2   # again", "cnot 1 2#", "croot 4 +1 1 4 # x"] * 3
        c = parse("\n".join(lines))
        cnot, croot = feynman(1, 2), controlled_root(4, 1, 1, 4)
        assert c.gates == (cnot, croot) + (cnot, cnot, croot) * 3

    def test_gate_before_directives(self):
        with pytest.raises(ParseError) as info:
            parse("circuit v1\n\ncnot 1 2\nwidth 3\ncontrols 2\n")
        assert info.value.line_no == 3

    @pytest.mark.parametrize(
        "lines,line_no",
        [
            (["width 3"], 1),
            (["circuit v1", "width 3", "width 3"], 3),
            (["circuit v1", "width 3", "controls 2", "controls 2"], 4),
            (["circuit v1", "width three"], 2),
            (["circuit v1", "width 3 4"], 2),
            (["label x", "circuit v1"], 1),
            (["circuit v1", "label a", "label b"], 3),
            (["circuit v1", "label\tx", "label b"], 3),
        ],
    )
    def test_bad_directive_lines(self, lines, line_no):
        with pytest.raises(ParseError) as info:
            parse("\n".join(lines))
        assert info.value.line_no == line_no

    @pytest.mark.parametrize(
        "lines,line_no",
        [
            (["circuit v1", "circuit v1"], 2),
            (["circuit v1", "width 4", "controls 3", "cnot 1 2", "  circuit v1  # again"], 5),
            (HEADER + ["cnot 1 2"] * 3000 + ["circuit v1", "cnot 1 9"], len(HEADER) + 3001),
        ],
        ids=["second-line", "spaced-and-commented", "after-thousands"],
    )
    def test_repeated_header_is_a_duplicate_header(self, lines, line_no):
        with pytest.raises(ParseError) as info:
            parse("\n".join(lines))
        assert str(info.value) == f"line {line_no}: duplicate header 'circuit v1'"

    @pytest.mark.parametrize(
        "lines,message",
        [
            (["circuit v1", "width 4", "controls 3", "width 4", "cnot 1 9"], "line 4: duplicate width directive"),
            (["circuit v1", "width 3", "width 3"], "line 3: duplicate width directive"),
            (["circuit v1", "width 4", "circuit v1", "toffoli 1"], "line 3: duplicate header 'circuit v1'"),
            (HEADER + ["label a"] + ["cnot 1 2"] * 10 + ["label a", "not 9"], "line 17: duplicate label directive"),
            (HEADER + ["controls 3", "controls 3"], "line 6: duplicate controls directive"),
            (["circuit v1", "width 4", "cnot 1 2", "width 4"], "line 3: gate line before width/controls directives"),
            (["circuit v1", "width 4", "controls 3", "not 9", "controls 3"], "line 4: line 9 out of range for width 4"),
        ],
        ids=["before-a-bad-gate", "before-a-missing-directive", "header-before-unknown", "label-after-gates",
             "controls-twice-over", "after-a-gate-before-directives", "after-a-bad-gate"],
    )
    def test_the_first_error_in_line_order_is_reported(self, lines, message):
        with pytest.raises(ParseError) as info:
            parse("\n".join(lines))
        assert str(info.value) == message

    @pytest.mark.parametrize("value", ["1_0", "\u0663"])
    @pytest.mark.parametrize("directive", ["width", "controls"])
    def test_directive_integers_are_ascii_digits(self, directive, value):
        with pytest.raises(ParseError) as info:
            parse(f"circuit v1\n{directive} {value}\n")
        assert str(info.value) == f"line 2: {directive} must be an integer, got {value!r}"

    @pytest.mark.parametrize(
        "lines,line_no,message",
        [
            (["circuit v1", "width " + "3" * 5000], 2, "width has too many digits (5000)"),
            (HEADER + ["cnot 1 2"] * 3 + ["not +" + "0" * 4999 + "1"], len(HEADER) + 4, "line has too many digits (5000)"),
            (HEADER + ["croot -" + "4" * 6000 + " +1 1 4"], len(HEADER) + 1, "kappa has too many digits (6000)"),
        ],
        ids=["width", "not-line", "croot-kappa"],
    )
    def test_integers_past_the_digit_limit_are_parse_errors(self, lines, line_no, message):
        # int() refuses strings of more than 4300 digits with a bare ValueError.
        with pytest.raises(ParseError) as info:
            parse("\n".join(lines))
        assert info.value.line_no == line_no and str(info.value) == f"line {line_no}: {message}"

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("bad,message", PLANTED_LINES, ids=[b for b, _ in PLANTED_LINES])
    def test_a_planted_bad_line_is_named_among_repeats_blanks_and_comments(self, bad, message, seed):
        rng = random.Random(seed)
        lines = ["circuit v1", "width 4", "controls 3", "label seeded # document"]
        pool = ["cnot 1 2", "croot 4 +1 1 4", "not 3", "croot 4 -1 2 4  # adjoint"]
        while len(lines) < 5000:
            r = rng.random()
            lines.append(rng.choice(pool) if r < 0.8 else "" if r < 0.9 else rng.choice(["# note", "   #", "  "]))
        at = rng.randrange(4, len(lines))
        lines.insert(at, bad)
        with pytest.raises(ParseError) as info:
            parse("\n".join(lines))
        assert info.value.line_no == at + 1 and str(info.value) == f"line {at + 1}: {message}"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "empty document: missing header"),
            ("circuit v1\ncontrols 2\n", "missing width directive"),
            ("circuit v1\nwidth 3\n", "missing controls directive"),
            ("circuit v1\nwidth 4\ncontrols 2\n", "width 4 does not match controls 2 + 1"),
            ("circuit v1\nwidth 1\ncontrols 0\n", "need n >= 1, got 0"),
        ],
    )
    def test_document_errors_have_no_line(self, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.line_no is None and str(info.value) == message


def json_doc(gates, **fields):
    doc = {"format": "circuit v1", "width": 4, "controls": 3, "label": "", "gates": gates}
    doc.update(fields)
    return json.dumps(doc)


GOOD_RECORDS = [
    {"gate": "cnot", "control": 1, "target": 2},
    {"gate": "croot", "kappa": 4, "direction": -1, "control": 2, "target": 4},
    {"gate": "not", "line": 4},
]


class TestParseJsonIntegers:
    @pytest.mark.parametrize("value", [3.9, 3.0, True, "3", None, [3]], ids=repr)
    @pytest.mark.parametrize("field", ["width", "controls"])
    def test_header_fields(self, field, value):
        with pytest.raises(ParseError, match=f"{field} must be an integer"):
            parse_json(json_doc([], **{field: value}))

    @pytest.mark.parametrize("value", [1.9, 1.0, True, "1"], ids=repr)
    @pytest.mark.parametrize(
        "record,field",
        [(0, "control"), (0, "target"), (1, "kappa"), (1, "direction"), (1, "control"), (1, "target"), (2, "line")],
    )
    def test_gate_fields(self, record, field, value):
        gates = [dict(r) for r in GOOD_RECORDS]
        gates[record][field] = value
        with pytest.raises(ParseError) as info:
            parse_json(json_doc(gates))
        assert str(info.value) == f"gate {record}: {field} must be an integer, got {json.dumps(value)}"

    @pytest.mark.parametrize("value", [True, 1.0, "1"], ids=repr)
    def test_equal_value_of_another_type_after_a_stored_record(self, value):
        # true == 1.0 == 1 with equal hashes: a stored {"control": 1} record must not admit them.
        good = {"gate": "cnot", "control": 1, "target": 2}
        gates = [good] * 3000 + [{"gate": "cnot", "control": value, "target": 2}]
        with pytest.raises(ParseError) as info:
            parse_json(json_doc(gates))
        assert str(info.value) == f"gate 3000: control must be an integer, got {json.dumps(value)}"

    def test_good_records_in_any_key_order_with_extra_fields(self):
        gates = GOOD_RECORDS + [
            {"target": 2, "control": 1, "gate": "cnot"},
            {"gate": "not", "line": 4, "note": "inverter", "weight": 0.5},
        ]
        c = parse_json(json_doc(gates))
        assert c.gates == (
            feynman(1, 2), controlled_root(4, -1, 2, 4), not_gate(4), feynman(1, 2), not_gate(4),
        )

    @pytest.mark.parametrize(
        "record,stray",
        [
            ({"gate": "not", "line": 2, "control": 1}, "control"),
            ({"gate": "not", "line": 4, "target": 4}, "target"),
            ({"gate": "not", "line": 4, "kappa": 1, "direction": 1}, "kappa, direction"),
            ({"gate": "cnot", "control": 1, "target": 2, "kappa": 1}, "kappa"),
            ({"gate": "cnot", "control": 1, "target": 2, "direction": 1, "line": 2}, "direction, line"),
            ({"gate": "croot", "kappa": 4, "direction": 1, "control": 1, "target": 4, "line": 4}, "line"),
        ],
    )
    def test_a_field_of_another_gate_kind_is_refused(self, record, stray):
        # The text reader refuses the same thing: `not 2 1` is "not takes <line>".
        with pytest.raises(ParseError) as info:
            parse_json(json_doc(GOOD_RECORDS + [record]))
        assert str(info.value) == f"gate 3: {record['gate']} takes no {stray}"

    @pytest.mark.parametrize(
        "gates,message",
        [
            ([GOOD_RECORDS[0], 7], "gate 1: malformed gate entry"),
            ([GOOD_RECORDS[0], {"gate": "swap", "a": 1}], "gate 1: unknown gate 'swap'"),
            ([{"gate": "croot", "kappa": 4, "control": 1, "target": 4}],
             "gate 0: croot takes kappa, direction, control, target; missing direction"),
            ([{"gate": "cnot", "control": 3, "target": 3}], "gate 0: control and target coincide on line 3"),
            ([GOOD_RECORDS[0]] * 5 + [{"gate": "not", "line": 9}], "gate 5: line 9 out of range for width 4"),
            ({"gate": "not"}, "gates must be a list of gate records"),
        ],
    )
    def test_malformed_records(self, gates, message):
        with pytest.raises(ParseError) as info:
            parse_json(json_doc(gates))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("{", "invalid JSON"),
            ("[" * 100_000, "invalid JSON"),
            ("[]", "expected a document with format"),
            ('{"format": "circuit v1", "width": 3}', "missing width/controls"),
            (json_doc([], width=5), "width 5 does not match controls 3 + 1"),
            (json_doc([], label="two\nlines"), "label must be a single line"),
        ],
    )
    def test_document_errors(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_json(text)

    @pytest.mark.parametrize(
        "doc,number",
        [
            (json_doc([]), '"width": 4'),
            (json_doc([{"gate": "not", "line": 4}]), '"line": 4'),
            (json.dumps({"format": "circuit v2", "width": 4, "controls": 3, "gates": [GOOD_RECORDS[2]],
                         "sequence": [0, 1]}), "1]"),
        ],
        ids=["width", "gate-field", "sequence-index"],
    )
    def test_integers_past_the_digit_limit_are_invalid_json(self, doc, number):
        # json.loads refuses a number of more than 4300 digits with a bare ValueError.
        doc = doc.replace(number, number[:-1] + "1" * 4400 + number[-1])
        with pytest.raises(ParseError, match="^invalid JSON: Exceeds the limit"):
            parse_json(doc)

    def test_an_out_of_range_gate_is_reported_before_a_width_mismatch(self):
        # Both readers check each gate against the width as they read it.
        doc = json_doc([{"gate": "not", "line": 6}], width=5)
        with pytest.raises(ParseError, match=re.escape("gate 0: line 6 out of range for width 5")):
            parse_json(doc)
        with pytest.raises(ParseError, match=re.escape("line 4: line 6 out of range for width 5")):
            parse("circuit v1\nwidth 5\ncontrols 3\nnot 6\n")


class TestParseJsonLabel:
    @pytest.mark.parametrize("value", [None, 5, True, [1], {"a": 1}], ids=repr)
    @pytest.mark.parametrize("version", ["circuit v1", "circuit v2"])
    def test_label_must_be_a_string(self, version, value):
        with pytest.raises(ParseError) as info:
            parse_json(json_doc([], format=version, sequence=[], label=value))
        assert str(info.value) == f"label must be a string, got {json.dumps(value)}"

    def test_missing_label_is_empty(self):
        doc = json.loads(json_doc([GOOD_RECORDS[0]]))
        del doc["label"]
        assert parse_json(json.dumps(doc)) == Circuit(3, [feynman(1, 2)])


def v2_doc(records, sequence, **fields):
    return json_doc(records, format="circuit v2", sequence=sequence, **fields)


class TestJsonV2:
    def test_writer_emits_each_distinct_record_once_in_order_of_first_use(self):
        cnot, root = feynman(1, 2), controlled_root(4, -1, 2, 4)
        # Equal copies of one gate share its record.
        gates = [root, cnot, dataclasses.replace(root), not_gate(4), dataclasses.replace(cnot), root]
        doc = json.loads(serialize_json(Circuit(3, gates)))
        assert doc["format"] == "circuit v2"
        assert doc["gates"] == [GOOD_RECORDS[1], GOOD_RECORDS[0], GOOD_RECORDS[2]]
        assert doc["sequence"] == [0, 1, 0, 2, 1, 0]

    def test_generated_circuit_holds_few_records(self):
        c = synth_peres(12)
        doc = json.loads(serialize_json(c))
        assert len(doc["sequence"]) == len(c.gates) == 8178
        assert len(doc["gates"]) == len(set(c.gates)) == 89
        assert parse_json(serialize_json(c)) == c

    def test_sequence_maps_the_table_in_circuit_order(self):
        c = parse_json(v2_doc(GOOD_RECORDS, [2, 0, 0, 1, 2]))
        cnot, root, inv = feynman(1, 2), controlled_root(4, -1, 2, 4), not_gate(4)
        assert c.gates == (inv, cnot, cnot, root, inv)

    @pytest.mark.parametrize(
        "sequence,message",
        [
            ("missing", "circuit v2 takes a sequence of gate indices; missing sequence"),
            ({"0": 1}, "sequence must be a list of gate indices"),
            (None, "sequence must be a list of gate indices"),
            ([0, 1, True], "sequence 2: index must be an integer, got true"),
            ([0, 1.0], "sequence 1: index must be an integer, got 1.0"),
            ([0, "1", 1.0], 'sequence 1: index must be an integer, got "1"'),
            ([0, 2, -1, 7], "sequence 2: index -1 out of range for 3 gate records"),
            ([0, 3], "sequence 1: index 3 out of range for 3 gate records"),
            ([0] * 3000 + [3] + [True], "sequence 3000: index 3 out of range for 3 gate records"),
            ([0, 2**70], f"sequence 1: index {2**70} out of range for 3 gate records"),
        ],
        ids=["missing", "object", "null", "true", "float", "string", "negative", "len-gates", "after-thousands",
             "beyond-intp"],
    )
    def test_bad_sequences(self, sequence, message):
        text = v2_doc(GOOD_RECORDS, sequence)
        if sequence == "missing":
            doc = json.loads(text)
            del doc["sequence"]
            text = json.dumps(doc)
        with pytest.raises(ParseError) as info:
            parse_json(text)
        assert str(info.value) == message

    def test_empty_table_takes_only_an_empty_sequence(self):
        assert parse_json(v2_doc([], [])) == Circuit(3)
        with pytest.raises(ParseError, match="^sequence 0: index 0 out of range for 0 gate records$"):
            parse_json(v2_doc([], [0]))

    @pytest.mark.parametrize(
        "records,message",
        [
            (GOOD_RECORDS + [{"gate": "cnot", "control": True, "target": 2}],
             "gate 3: control must be an integer, got true"),
            (GOOD_RECORDS + [dict(GOOD_RECORDS[0], target=1.0)], "gate 3: target must be an integer, got 1.0"),
            (GOOD_RECORDS + [{"gate": "swap"}], "gate 3: unknown gate 'swap'"),
            (GOOD_RECORDS + [{"gate": "not", "line": 9}], "gate 3: line 9 out of range for width 4"),
            ([dict(GOOD_RECORDS[0], control=5)] + GOOD_RECORDS, "gate 0: line 5 out of range for width 4"),
        ],
    )
    def test_every_record_is_checked_used_or_not(self, records, message):
        with pytest.raises(ParseError) as info:
            parse_json(v2_doc(records, [0, 1, 2]))
        assert str(info.value) == message

    def test_duplicate_records_build_equal_gates(self):
        records = GOOD_RECORDS + [dict(GOOD_RECORDS[0]), dict(GOOD_RECORDS[0])]
        c = parse_json(v2_doc(records, [3, 0, 4]))
        assert c.gates == (feynman(1, 2),) * 3

    def test_sequence_is_ignored_by_v1(self):
        c = parse_json(json_doc(GOOD_RECORDS, sequence=[True, -1]))
        assert c.gates == (feynman(1, 2), controlled_root(4, -1, 2, 4), not_gate(4))


# Every line break str.splitlines honours, "\n" most often; whitespace that breaks no line.
BREAKS = ["\n"] * 10 + ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = [" "] * 6 + ["\t", "\xa0", "\u3000", "\x1f"]
GOOD_LINES = ["  cnot  1  2  ", "cnot 3 1", "croot 4 +1 1 4", "croot 4 -1 2 4", "croot 4 1 3 4", "not 4", "not 2",
              "cnot +1 02", "croot +004 -1 3 +4", "croot " + str(2**200) + " +1 2 4", "not +0000000000000000000004"]
OTHER_LINES = ["", "# note", "  #", "\t# c1 c2", ""]
LABEL_LINES = ["label a # b", "label", "label  ", "label\t#x", "  label\xa0lead "]
BAD_LINES = [
    "cnot 1 5", "cnot 2 2", "cnot 1", "cnot 1 2 3", "croot 3 +1 1 4", "croot 4 +2 1 4", "croot 4 01 1 4",
    "croot -4 +1 1 4", "not 0", "not -1", "not 1" + "0" * 40, "not " + "9" * 5000, "cnot 1_0 2", "cnot \u0661 2",
    "swap 1 2", "labelx 1", "label#x", "circuit  v1", "circuit v2", "circuit v1", "width 4", "controls 3",
    "width four", "controls 3 3", "width " + "4" * 4400,
]


def random_text(rng):
    """A text document of directives, gate lines with repeats, labels, comments and at most a few planted bad lines."""
    width = rng.choice([4] * 20 + [5, 1, -3, 10**30])
    controls = 0 if width == 1 else rng.choice([3] * 9 + [2])
    preamble = ["circuit v1", f"width {width}", f"controls {controls}"] + [rng.choice(LABEL_LINES)] * (rng.random() < 0.5)
    if rng.random() < 0.1:
        rng.shuffle(preamble)
    if rng.random() < 0.05:
        preamble.pop(rng.randrange(3))
    body = [rng.choice(GOOD_LINES) if rng.random() < 0.7 else rng.choice(OTHER_LINES) for _ in range(rng.randrange(30))]
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        body.insert(rng.randrange(len(body) + 1), rng.choice(BAD_LINES))
    lines = [
        (line.replace(" ", rng.choice(SPACES)) if rng.random() < 0.2 and line != "circuit v1" else line)
        + (rng.choice(["", "  # c", "#"]) if rng.random() < 0.2 else "")
        for line in preamble + body
    ]
    text = "".join(line + rng.choice(BREAKS) for line in lines)
    return text if rng.random() < 0.8 else text.rstrip("\n")


GOOD_JSON_RECORDS = GOOD_RECORDS + [
    {"gate": "croot", "kappa": 4, "direction": 1, "control": 3, "target": 4},
    {"target": 1, "gate": "cnot", "control": 3, "note": "reordered"},
    {"gate": "not", "line": 2, "weight": 0.5, "gate ": "swap"},
    {"gate": "croot", "kappa": 2**200, "direction": -1, "control": 1, "target": 4},
]
BAD_JSON_RECORDS = [
    7, [], None, {"gate": "swap"}, {"gate": ["cnot"]}, {"control": 1, "target": 2},
    {"gate": "cnot", "control": 1}, {"gate": "not", "line": 2, "control": 1},
    {"gate": "cnot", "control": 1, "target": 2, "kappa": 1}, {"gate": "cnot", "control": True, "target": 2},
    {"gate": "cnot", "control": 1.0, "target": 2}, {"gate": "not", "line": "4"}, {"gate": "not", "line": 10**40},
    {"gate": "cnot", "control": 2, "target": 2}, {"gate": "not", "line": 0},
    {"gate": "croot", "kappa": 3, "direction": 1, "control": 1, "target": 4},
    {"gate": "croot", "kappa": 4, "direction": 0, "control": 1, "target": 4},
    {"gate": "croot", "kappa": 4, "direction": True, "control": 1, "target": 4},
]
BAD_INDICES = [-1, 7, True, 1.0, "0", None, 2**70, [0]]


def random_json(rng):
    """A JSON document, v2 or v1, with good and bad records and indices, odd fields and, rarely, no valid JSON."""
    records = [dict(rng.choice(GOOD_JSON_RECORDS)) for _ in range(rng.randrange(1, 6))]
    if rng.random() < 0.4:
        records.insert(rng.randrange(len(records) + 1), rng.choice(BAD_JSON_RECORDS))
    doc = {"format": rng.choice(["circuit v2"] * 12 + ["circuit v1"] * 6 + ["circuit v3"]),
           "width": 4, "controls": 3, "label": rng.choice(["", "x # y", "  ", "a\x1fb"] * 4 + ["a\nb", "a\u2028b"]),
           "gates": records, "sequence": [rng.randrange(len(records)) for _ in range(rng.randrange(12))]}
    if rng.random() < 0.15:
        doc[rng.choice(["width", "controls", "label", "gates", "sequence", "format"])] = rng.choice(
            [5, 0, -1, True, 4.0, "4", None, {}, 10**30, "x"])
    if rng.random() < 0.2 and isinstance(doc["sequence"], list):
        doc["sequence"].insert(rng.randrange(len(doc["sequence"]) + 1), rng.choice(BAD_INDICES))
    if rng.random() < 0.05:
        del doc[rng.choice(list(doc))]
    text = json.dumps(doc)
    if rng.random() < 0.03:
        text = text.replace('"controls": 3', '"controls": ' + "3" * 4400)
    if rng.random() < 0.03:
        text = text[: rng.randrange(len(text))]
    return text


def reader_result(read, text):
    """What read gives on text, in the form of the reference readers: a reading, or where the document went wrong."""
    try:
        return reading(read(text))
    except ParseError as exc:
        if read is parse:
            return exc.line_no
        at = re.match(r"(gate|sequence) (\d+): ", str(exc))
        return at and (at[1], int(at[2]))


def reader_outcome(read, source):
    """What read gives on source: a reading, or the ParseError's message and line number."""
    try:
        return reading(read(source))
    except ParseError as exc:
        return str(exc), exc.line_no


class TestAgainstTheReferenceReaders:
    @pytest.mark.parametrize("read,reference,make", [(parse, reference_parse, random_text),
                                                     (parse_json, reference_parse_json, random_json)],
                             ids=["text", "json"])
    def test_the_readers_agree_with_their_references(self, read, reference, make):
        rng = random.Random(f"{read.__name__} reference")
        results = []
        for _ in range(2500):
            text = make(rng)
            results.append(reference(text))
            assert reader_result(read, text) == results[-1], text
        accepted = sum(isinstance(r, tuple) and len(r) == 4 for r in results)
        assert 0.2 * len(results) < accepted < 0.8 * len(results)  # both outcomes are well represented

    def test_the_documents_break_lines_at_every_break_splitlines_honours(self):
        every = "".join(map(chr, range(0x110000))).splitlines(keepends=True)
        assert {line[-1] for line in every[:-1]} == set(BREAKS) - {"\r\n"}
        assert not set(SPACES).intersection(BREAKS) and all(space.isspace() for space in SPACES)


CHUNK = textio._CHUNK
EDGE_BREAKS = sorted(set(BREAKS))
# No empty line: after a "\r" break, an empty line's "\n" would make one "\r\n" break.
EDGE_LINES = GOOD_LINES + ["# note", "  #", "\t# c1 c2"]


def edge_document(rng, bad, shift):
    """A text document of four chunk edges, with chosen lines at and beside each edge.

    Both readers cut a chunk right after the first "\n" at least CHUNK - 1
    characters into it: parse in the document, and load_circuit in the text
    the file reads, in which "\r\n" and "\r" read as one "\n". So the line
    at an edge holds its chunk's character CHUNK - 1 (from 0) as the file
    reads it. Without shift, that character is its break, the rest of the
    line that readline takes after a read of CHUNK - 1 characters. With
    shift, the read ends earlier in the line, or right before it, and
    readline takes more of it. The line at an edge ends in "\n" or "\r\n"
    and has no fewer characters than its chunk has "\r\n" breaks, so
    without shift parse cuts the document right after it too. Around the
    edge, lines of gates repeated from the filler end in every break in
    seeded order. A bad document holds one bad line, just before, at or
    just after an edge.

    Returns the document, each edge as (its position in the document, its
    position as the file reads it), and the bad line's number or None.
    """
    pieces = ["circuit v1\nwidth 4\ncontrols 3\n"]
    size = read = len(pieces[0])  # characters so far, in the document and as the file reads them
    lines, crlf = 3, 0  # lines so far; "\r\n" breaks since the last edge
    edges, planted = [], None
    plant = (rng.randrange(4), rng.randrange(3)) if bad else None

    def add(line, brk):
        nonlocal size, read, lines, crlf
        pieces.append(line + brk)
        size, read, lines, crlf = size + len(line) + len(brk), read + len(line) + 1, lines + 1, crlf + (brk == "\r\n")

    def around():
        return [[rng.choice(EDGE_LINES), brk] for brk in rng.sample(EDGE_BREAKS, len(EDGE_BREAKS))]

    for k in range(4):
        before, edge, after = around(), [rng.choice(EDGE_LINES), rng.choice(["\n", "\r\n"])], around()
        if plant and plant[0] == k:
            (before[-1], edge, after[0])[plant[1]][0] = rng.choice(BAD_LINES)
        edge[0] = edge[0].ljust(crlf + sum(brk == "\r\n" for _, brk in before + [edge]))
        taken = rng.randint(2, len(edge[0]) + 1) if shift else 1  # the edge line's characters that readline takes
        start = edges[-1][1] if edges else 0
        target = start + CHUNK - 1 + taken - sum(len(line) + 1 for line, _ in before + [edge])
        while target - read > 80:  # longer than any filler line
            add(rng.choice(GOOD_LINES), "\n")
        add("#" * (target - read - 1), "\n")
        for i, (line, brk) in enumerate(before + [edge] + after):
            if plant and plant[0] == k and i == len(before) + plant[1] - 1:
                planted = lines + 1
            add(line, brk)
            if i == len(before):
                edges.append((size, read))
                crlf = 0
    for _ in range(rng.randrange(50)):
        add(rng.choice(GOOD_LINES), "\n")
    return "".join(pieces), edges, planted


class TestChunkedReader:
    @pytest.mark.parametrize("seed", range(8))
    def test_lines_at_and_beside_every_chunk_edge_read_as_the_reference_reads_them(self, tmp_path, seed):
        shift = seed % 4 >= 2
        text, edges, planted = edge_document(random.Random(f"edges {seed}"), bad=seed % 2 == 1, shift=shift)
        assert len(text) > 3 * CHUNK
        want = reference_parse(text)
        assert want == planted if planted else isinstance(want, tuple)
        if not shift:
            assert list(accumulate(map(len, textio._text_chunks(text)))) == [at for at, _ in edges] + [len(text)]
        as_read = text.replace("\r\n", "\n").replace("\r", "\n")  # the text as the file reads it
        chunks = list(textio._text_chunks(as_read))
        assert list(accumulate(map(len, chunks))) == [at for _, at in edges] + [len(as_read)]
        results = {"parse": reader_outcome(parse, text)}
        for bom in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / f"doc{len(bom)}.txt"
            path.write_bytes(bom + text.encode("utf-8"))
            with path.open(encoding="utf-8-sig") as file:
                assert list(textio._file_chunks(file)) == chunks
            results[f"load {bom!r}"] = reader_outcome(load_circuit, path)
        for outcome in results.values():
            assert outcome == results["parse"]
        assert reader_result(parse, text) == want

    def test_a_line_longer_than_three_chunks_reads_in_linear_time(self, tmp_path, monkeypatch):
        def seconds(length):
            label = "x" * length
            text = f"circuit v1\nwidth 2\ncontrols 1\nlabel {label}\ncnot 1 2\n"
            path = tmp_path / f"long{length}.txt"
            path.write_text(text)
            for read, source in ((parse, text), (load_circuit, path)):
                circuit = read(source)
                assert circuit.label == label and circuit.gates == (feynman(1, 2),)
            return min(timeit.repeat(lambda: (parse(text), load_circuit(path)), number=1, repeat=5))

        seconds(3 * CHUNK + 1)
        # In chunks of 256 characters, a reader that joined the carried line
        # again at every chunk would take about 64 times as long on 8 times
        # the characters.
        monkeypatch.setattr(textio, "_CHUNK", 256)
        short, long = seconds(3 * CHUNK + 1), seconds(24 * CHUNK + 8)
        assert long < 24 * short, (short, long)

    def test_loading_a_16_control_text_file_peaks_within_four_times_its_codes(self, tmp_path):
        circuit = synth_toffoli(16)
        path = tmp_path / "t16.txt"
        path.write_text(serialize(circuit))
        gc.collect()
        tracemalloc.start()
        try:
            loaded = load_circuit(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == circuit
        assert peak <= 4 * circuit.codes.nbytes, (peak, circuit.codes.nbytes)

    @pytest.mark.parametrize("bom,newline", [(b"", b"\n"), (b"\xef\xbb\xbf", b"\r\n")], ids=["plain", "bom-crlf"])
    def test_a_byte_that_is_not_utf8_is_named_by_its_line_and_file_offset_at_every_chunk_edge(
            self, tmp_path, bom, newline):
        circuit = dataclasses.replace(synth_toffoli(13), label="Σ über → ok")  # characters of two and three bytes
        data = bom + serialize(circuit).encode().replace(b"\n", newline)
        line_start = data.index(b"\n", 2 * CHUNK) + 1
        assert len(data) > 3 * CHUNK + 2
        path = tmp_path / "bad.txt"

        def load_with(at, bad):
            path.write_bytes(data[:at] + bad + data[at:])
            with pytest.raises(ParseError) as info:
                load_circuit(path)
            return str(info.value)

        for at in [k * CHUNK + d for k in (1, 2, 3) for d in (-1, 0, 1)] + [line_start, len(data)]:
            line = len((data[:at].decode("utf-8-sig") + "x").splitlines())  # the lines up to the bad byte's
            assert load_with(at, b"\xff") == f"line {line}: can't decode byte 0xff at byte offset {at}: invalid start byte"
            reason = "unexpected end of data" if at == len(data) else "invalid continuation byte"
            truncated = "€".encode()[:2]
            assert load_with(at, truncated) == f"line {line}: can't decode byte 0xe2 at byte offset {at}: {reason}"
        with pytest.raises(ValueError):  # a ParseError is a ValueError
            load_circuit(path)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_a_json_file_names_a_byte_that_is_not_utf8_by_its_line_and_file_offset(self, tmp_path, bom):
        one_line = serialize_json(synth_toffoli(3))
        path = tmp_path / "bad.json"
        for text in (one_line, json.dumps(json.loads(one_line), indent=1)):
            data = bom + text.encode()
            for at in (43, data.index(b"\n") + 1, len(data) - 5):
                path.write_bytes(data[:at] + b"\xff" + data[at:])
                line = len((data[:at].decode("utf-8-sig") + "x").splitlines())
                with pytest.raises(ParseError) as info:
                    load_circuit(path)
                assert str(info.value) == f"line {line}: can't decode byte 0xff at byte offset {at}: invalid start byte"

    def test_a_bad_line_before_the_undecodable_byte_is_reported_first(self, tmp_path):
        data = serialize(synth_toffoli(13)).encode()
        at = data.index(b"\n", 2 * CHUNK) + 1
        assert len(data) > at + CHUNK
        path = tmp_path / "bad.txt"
        bad_line = data[:at].count(b"\n") + 1  # the line the bad byte starts
        for number, want in [(5, "line 5: line 15 out of range"),  # in the first chunk
                             (bad_line - 1, f"line {bad_line - 1}: line 15 out of range"),  # in the byte's chunk
                             (bad_line + 1, f"line {bad_line}: can't decode byte 0xff")]:  # after the byte's line
            lines = data.split(b"\n")
            lines[number - 1] = b"not 15"
            lines[bad_line - 1] = b"\xff" + lines[bad_line - 1]
            path.write_bytes(b"\n".join(lines))
            with pytest.raises(ParseError, match=f"^{want}"):
                load_circuit(path)
        # The part of the byte's line before it is not read as a line of its own.
        path.write_bytes(data[:at] + b"cnot 1 \xff2\n" + data[at:])
        with pytest.raises(ParseError, match=f"^line {bad_line}: can't decode byte 0xff at byte offset {at + 7}: "):
            load_circuit(path)


WRITER_CASES = [
    (family, n)
    for family in ("peres", "toffoli", "barenco", "or-gate", "and-complemented")
    for n in range(1, 13)
]


class TestWritersMatchTheGateByGateReference:
    @pytest.mark.parametrize("family,n", WRITER_CASES)
    def test_text_and_json_are_byte_identical(self, family, n):
        c = family_circuit(family, n)
        assert serialize(c) == text_document(c)
        assert serialize_json(c) == json_document(c)

    @pytest.mark.parametrize("n", [3, 5])
    def test_a_document_out_of_first_use_order_reads_canonically(self, n):
        c = synth_toffoli(n, mixed_activation(n))
        doc = json.loads(serialize_json(c))
        size, seq = len(doc["gates"]), doc["sequence"]
        common = max(range(size), key=seq.count)
        # Records reversed after one unused record, and a second copy of the
        # most used record last, which every second use of it takes.
        records = [{"gate": "not", "line": n + 1}] + doc["gates"][::-1] + [doc["gates"][common]]
        uses = iter(range(len(seq)))
        sequence = [size + 1 if i == common and next(uses) % 2 else size - i for i in seq]
        assert size + 1 in sequence and size - common in sequence
        back = parse_json(json.dumps(dict(doc, gates=records, sequence=sequence)))
        assert back == c and hash(back) == hash(c)
        assert back.table == c.table and back.label == c.label
        assert serialize_json(back) == serialize_json(c) == json_document(c)
        assert serialize(back) == text_document(c)


# Gate lines, after HEADER's width 4, whose words int() or the file format
# might read otherwise, with the gate or the message each must give.
ADVERSARIAL_LINES = [
    ("cnot +01 2", feynman(1, 2)),
    ("cnot -0 2", "control line 0 must be >= 1"),
    ("cnot 00 2", "control line 0 must be >= 1"),
    ("cnot 1_0 2", "control must be an integer, got '1_0'"),
    ("cnot \u0661 2", "control must be an integer, got '\u0661'"),
    ("cnot \u00b2 2", "control must be an integer, got '\u00b2'"),
    ("cnot ++1 2", "control must be an integer, got '++1'"),
    ("not " + "1" * 4301, "line has too many digits (4301)"),
    ("not -" + "0" * 4300 + "4", "line has too many digits (4301)"),
    ("not " + "0" * 4299 + "4", not_gate(4)),
    ("croot 4 +01 1 4", "direction must be +1 or -1, got '+01'"),
    ("croot 4 -01 1 4", "direction must be +1 or -1, got '-01'"),
    ("croot 4 -1 1 4", controlled_root(4, -1, 1, 4)),
    ("croot 4 1 1 4", controlled_root(4, 1, 1, 4)),
    ("croot +4 +1 +1 +4", controlled_root(4, 1, 1, 4)),
    ("cnot\t1\t2", feynman(1, 2)),
    ("cnot\u30001\u30002", feynman(1, 2)),
    ("cnot 1\x1f2", feynman(1, 2)),
    ("cnot 1 2 # 3", feynman(1, 2)),
    ("croot 4 -1 1 4#x y", controlled_root(4, -1, 1, 4)),
    ("not 4 #", not_gate(4)),
    ("cnot 1 # 2", "cnot takes <control> <target>"),
    ("cnot 1 2 3", "cnot takes <control> <target>"),
]
# Words for random gate lines: good, malformed, past the digit limit and unusually spaced.
ADVERSARIAL_WORDS = ["1", "2", "3", "4", "+1", "-1", "01", "+01", "-0", "00", "0", "5", "8", "1_0", "\u0661", "\u00b2",
                     "x", "+", "1" * 4301, "0" * 4299 + "2", "2" * 40]


class TestDerivedCodecs:
    """The writers and readers derived from the gate table match the gate-by-gate path."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_generated_gate_is_written_as_the_reference_writes_it_and_read_back(self, n):
        c = Circuit(n, _gate_table(n), label=f"every gate n={n}")
        assert len(c.table) == len(set(_gate_table(n)))
        text, doc = serialize(c), serialize_json(c)
        assert text == text_document(c) and doc == json_document(c)
        assert parse(text) == c == parse_json(doc)

    @pytest.mark.parametrize("line,want", ADVERSARIAL_LINES, ids=[repr(line[:20]) for line, _ in ADVERSARIAL_LINES])
    def test_adversarial_words_read_as_the_reference_reads_them(self, line, want):
        text = "\n".join(HEADER[:3] + ["cnot 1 2", line, "not 4"]) + "\n"
        outcome = reader_outcome(parse, text)
        if isinstance(want, str):
            assert outcome == (f"line 5: {want}", 5)
            assert reference_parse(text) == 5
        else:
            assert outcome == reading(Circuit(3, [feynman(1, 2), want, not_gate(4)]))
            assert reference_parse(text) == outcome

    def test_the_line_patterns_read_as_the_field_by_field_checks(self, monkeypatch):
        rng = random.Random("line patterns")
        lines = []
        for _ in range(1500):  # a good line with each number swapped for an adversarial word at random
            name, *words = rng.choice(GOOD_LINES).split()
            words = [rng.choice(ADVERSARIAL_WORDS) if rng.random() < 0.15 else word for word in words]
            words += rng.choices(ADVERSARIAL_WORDS, k=rng.random() < 0.05)
            lines.append(" ".join([name, *words[:len(words) - (rng.random() < 0.05)]]))
        texts = ["\n".join(HEADER[:3] + ["cnot 1 2", line]) + "\n" for line in lines]
        derived = [reader_outcome(parse, text) for text in texts]
        assert 0.1 * len(texts) < sum(len(outcome) == 4 for outcome in derived) < 0.9 * len(texts)
        never = re.compile("(?!)")
        monkeypatch.setattr(textio, "_PATTERNS", dict.fromkeys(textio._PATTERNS, never))
        assert [reader_outcome(parse, text) for text in texts] == derived
        assert [reader_result(parse, text) for text in texts] == list(map(reference_parse, texts))

    def test_record_keys_are_refused_as_the_field_by_field_checks_refuse_them(self):
        fields = {"cnot": ["control", "target"], "croot": ["kappa", "direction", "control", "target"], "not": ["line"]}
        values = {"control": 1, "target": 2, "kappa": 2, "direction": -1, "line": 2}
        every = list(values)
        for name, own in fields.items():
            for mask in range(1 << len(every)):
                record = {"gate": name} | {f: values[f] for i, f in enumerate(every) if mask >> i & 1}
                missing = [f for f in own if f not in record]
                stray = [f for f in every if f in record and f not in own]
                doc = json.dumps({"format": "circuit v1", "width": 2, "controls": 1, "gates": [record]})
                outcome = reader_outcome(parse_json, doc)
                if missing:
                    assert outcome == (f"gate 0: {name} takes {', '.join(own)}; missing {', '.join(missing)}", None)
                elif stray:
                    assert outcome == (f"gate 0: {name} takes no {', '.join(stray)}", None)
                else:
                    assert outcome[3] == ((name, *(values[f] for f in own)),)

    def test_serializing_a_16_control_circuit_peaks_within_three_and_a_quarter_times_its_codes(self):
        circuit = synth_toffoli(16)
        gc.collect()
        tracemalloc.start()
        try:
            text = serialize(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The document is about 1.94 times the codes and the list of its lines once more: a copy of it would pass 4.8.
        assert len(text) < 2 * circuit.codes.nbytes
        assert peak <= 3.25 * circuit.codes.nbytes, (peak, circuit.codes.nbytes)


V1_FIXTURE = Path(__file__).parent / "data" / "peres-5-v1.json"


class TestJsonV1Fixture:
    """A document written by the circuit v1 writer, kept as a file."""

    expected = synth_peres(5, (1, 0, 1, 1, 0))

    def test_fixture_is_v1(self):
        doc = json.loads(V1_FIXTURE.read_text())
        assert doc["format"] == "circuit v1" and "sequence" not in doc
        assert len(doc["gates"]) == len(self.expected.gates)

    def test_parse_json_reads_it(self):
        c = parse_json(V1_FIXTURE.read_text())
        assert c == self.expected
        assert c.label == self.expected.label

    def test_load_circuit_reads_it(self):
        assert load_circuit(V1_FIXTURE) == self.expected

    def test_cli_verifies_it(self, capsys):
        argv = ["verify", "--circuit", str(V1_FIXTURE), "--family", "peres", "--n", "5", "--activation", "10110"]
        assert cli.main(argv) == 0
        assert "pass (64 inputs checked)" in capsys.readouterr().out


GOLDEN_TEXT = Path(__file__).parent / "data" / "mixed-3.txt"
GOLDEN_JSON = Path(__file__).parent / "data" / "mixed-3.json"


class TestGoldenDocuments:
    """Both writers' exact bytes for a circuit of every gate kind, kept as files."""

    circuit = Circuit(3, (
        controlled_root(4, 1, 1, 4),
        feynman(1, 2),
        controlled_root(4, -1, 2, 4),
        not_gate(2),
        feynman(3, 1),
        controlled_root(4, 1, 1, 4),
        not_gate(4),
        controlled_root(4, -1, 2, 4),
    ), label="  mixed #1  ")

    def test_serialize_writes_the_text_file(self):
        assert serialize(self.circuit).encode() == GOLDEN_TEXT.read_bytes()

    def test_serialize_json_writes_the_json_file(self):
        assert serialize_json(self.circuit).encode() == GOLDEN_JSON.read_bytes()

    @pytest.mark.parametrize("path", [GOLDEN_TEXT, GOLDEN_JSON], ids=["text", "json"])
    def test_reader_gives_the_circuit_back(self, path):
        c = load_circuit(path)
        assert c == self.circuit
        assert c.label == "  mixed #1  "


class TestRenderAscii:
    def test_draws_each_gate_kind(self):
        c = Circuit(2, (not_gate(3), feynman(1, 3), controlled_root(2, -1, 2, 3)))
        assert render_ascii(c) == "\n".join([
            "c1 ─────●───────",
            "c2 ─────│───●───",
            " t ─[X]─⊕─[V2†]─",
        ])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_and_its_flips_draw_as_gate_by_gate(self, family):
        rng = random.Random(len(family))
        for n in range(1, 8):
            c = generate(family, n, index_to_bits(rng.randrange(1, 1 << n), n) if family in ACTIVATED else None)
            assert render_ascii(c) == diagram(c), n
            for i in range(1, n + 1):
                flipped = iterative_polarity_flip(c, i)
                assert render_ascii(flipped) == diagram(flipped), (n, i)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_circuits_draw_as_gate_by_gate(self, seed):
        for c in random_circuits(seed):
            assert render_ascii(c) == diagram(c)

    @pytest.mark.parametrize("n", [1, 2, 25])
    def test_an_empty_circuit_draws_its_wires(self, n):
        assert render_ascii(Circuit(n)) == diagram(Circuit(n))
        assert render_ascii(Circuit(n)).splitlines()[-1] == f"{'t':>{len(f'c{n}')}} ─"

    def test_draws_from_the_table_and_codes_without_the_gates(self, monkeypatch):
        c = synth_toffoli(5, (1, 0, 1, 1, 0))
        want = diagram(c)

        def refuse(self):
            raise AssertionError("the gate tuple was built")

        monkeypatch.setattr(Circuit, "gates", property(refuse))
        monkeypatch.setattr(Circuit, "__iter__", refuse)
        assert render_ascii(c) == want

    def test_refuses_more_than_26_lines(self):
        render_ascii(Circuit(25))
        with pytest.raises(ValueError, match="rendering supports at most 26 lines, got 27"):
            render_ascii(Circuit(26))

    def test_refuses_more_than_65536_gates_before_drawing_any(self, monkeypatch):
        assert render_ascii(Circuit(1, (feynman(1, 2),) * 65_536)).count("⊕") == 65_536
        c = Circuit(1, (feynman(1, 2),) * 65_537)

        def refuse(self):
            raise AssertionError("a column was built")

        monkeypatch.setattr(Circuit, "gates", property(refuse))
        monkeypatch.setattr(Circuit, "__iter__", refuse)
        with pytest.raises(ValueError, match="rendering supports at most 65,536 gates, got 65537"):
            render_ascii(c)
