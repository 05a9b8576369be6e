import dataclasses
import gc
import json
import os
import pickle
import random
import re
import subprocess
import sys
import timeit
import tracemalloc
import weakref
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from alpha_tables import ACTIVATED, FAMILIES, generate
from references import (
    code_digits,
    diagram,
    json_document,
    reading,
    reference_parse,
    reference_parse_json,
    text_document,
)
from test_circuit import POOL, WIDE_N, wide_circuit
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

    @pytest.mark.parametrize(
        "directive,message",
        [("width 4", "duplicate width directive"), ("controls 3", "duplicate controls directive"),
         ("label a", "duplicate label directive"), ("circuit v1", "duplicate header 'circuit v1'")],
        ids=["width", "controls", "label", "header"],
    )
    def test_a_repeated_directive_past_the_first_chunk_names_its_own_line(self, tmp_path, directive, message):
        # Only gate lines are stored: the same directive line read again is checked again, in the chunk it is in.
        lines = ["circuit v1", "width 4", "controls 3", "label a"] + ["cnot 1 2"] * (CHUNK // 8) + [directive, "not 4"]
        text = "\n".join(lines)
        assert text.rindex(f"\n{directive}\n") > CHUNK
        path = tmp_path / "repeat.txt"
        path.write_text(text)
        for read, source in ((parse, text), (load_circuit, path)):
            with pytest.raises(ParseError) as info:
                read(source)
            assert info.value.line_no == len(lines) - 1 and str(info.value) == f"line {len(lines) - 1}: {message}"

    def test_a_repeated_one_character_unknown_line_is_named_at_its_first_occurrence(self):
        lines = HEADER + ["label x", "not 4  # x", "", "x"] + ["cnot 1 2", "x"] * 3
        with pytest.raises(ParseError) as info:
            parse("\n".join(lines))
        assert info.value.line_no == 9 and str(info.value) == "line 9: unknown directive 'x'"

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
    """A circuit v3 document of width 4 whose sequence takes each of its records once, in order."""
    digits = code_digits(len(gates))
    doc = {"format": "circuit v3", "width": 4, "controls": 3, "label": "", "gates": gates,
           "sequence": "".join(f"{i:0{digits}x}" for i in range(len(gates)))}
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
            ('{"format": {}}', "expected a document with format"),
            ('{"format": ["circuit v3"]}', "expected a document with format"),
            ('{"format": "circuit v4"}', "expected a document with format 'circuit v3', got format 'circuit v4'"),
            ('{"format": "circuit v3", "width": 3}', "missing width/controls"),
            (json_doc([], width=5), "width 5 does not match controls 3 + 1"),
            (json_doc([], label="two\nlines"), "label must be a single line"),
        ],
        ids=["unclosed", "nested-100000", "a-list", "format-an-object", "format-a-list", "format-v4",
             "no-controls", "width-mismatch", "two-line-label"],
    )
    def test_document_errors(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_json(text)

    @pytest.mark.parametrize(
        "doc,number",
        [
            (json_doc([]), '"width": 4'),
            (json_doc([{"gate": "not", "line": 4}]), '"line": 4'),
            (json_doc([GOOD_RECORDS[2]], sequence=1), "1}"),
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
    def test_label_must_be_a_string(self, value):
        with pytest.raises(ParseError) as info:
            parse_json(json_doc([], label=value))
        assert str(info.value) == f"label must be a string, got {json.dumps(value)}"

    def test_missing_label_is_empty(self):
        doc = json.loads(json_doc([GOOD_RECORDS[0]]))
        del doc["label"]
        assert parse_json(json.dumps(doc)) == Circuit(3, [feynman(1, 2)])


# Records equal to a live gate's own record, or to it with one field more, that must keep their refusals.
KNOWN_RECORDS_REFUSED = {
    "true control": ({"gate": "cnot", "control": True, "target": 2}, "control must be an integer, got true"),
    "float target": ({"gate": "cnot", "control": 1, "target": 2.0}, "target must be an integer, got 2.0"),
    "true line": ({"gate": "not", "line": True}, "line must be an integer, got true"),
    "float direction": ({"gate": "croot", "kappa": 4, "direction": -1.0, "control": 2, "target": 4},
                        "direction must be an integer, got -1.0"),
    "list control": ({"gate": "cnot", "control": [1], "target": 2}, "control must be an integer, got [1]"),
    "a not gate's field": ({"gate": "cnot", "control": 1, "target": 2, "line": 2}, "cnot takes no line"),
    "a cnot gate's field": ({"gate": "not", "line": 1, "target": 1}, "not takes no target"),
}


class TestKnownGateForms:
    """A live gate's own text line and JSON record find it, and the document's checks still run on them."""

    def test_a_known_line_is_checked_against_the_width_of_its_document(self):
        line = "croot 1048576 -1 1 13"  # a gate no generator builds, kept alive by the circuit read
        c = parse(f"circuit v1\nwidth 13\ncontrols 12\n{line}\n")
        assert textio._LINE_GATES[line] is c.table[0]
        with pytest.raises(ParseError) as info:
            parse(f"circuit v1\nwidth 5\ncontrols 4\nnot 5\n{line}\nnot 5\n")
        assert (str(info.value), info.value.line_no) == ("line 5: line 13 out of range for width 5", 5)

    @pytest.mark.parametrize("lines,message", [
        (["cnot 1 2", "circuit v1"], "expected header 'circuit v1', got 'cnot 1 2'"),
        (["circuit v1", "cnot 1 2", "width 3", "controls 2"], "gate line before width/controls directives"),
        (["circuit v1", "width 3", "cnot 1 2", "controls 2"], "gate line before width/controls directives"),
        (["circuit v1", "controls 2", "not 3", "width 3"], "gate line before width/controls directives"),
    ])
    def test_a_known_line_before_the_directives_is_refused_at_its_line(self, lines, message):
        gates = feynman(1, 2), not_gate(3)
        serialize(Circuit(2, gates))
        assert textio._LINE_GATES["cnot 1 2"] is gates[0] and textio._LINE_GATES["not 3"] is gates[1]
        at = next(i for i, line in enumerate(lines, 1) if line.startswith(("cnot", "not")))
        with pytest.raises(ParseError) as info:
            parse("\n".join(lines) + "\n")
        assert (str(info.value), info.value.line_no) == (f"line {at}: {message}", at)

    @pytest.mark.parametrize("record,message", KNOWN_RECORDS_REFUSED.values(), ids=KNOWN_RECORDS_REFUSED)
    def test_a_known_record_of_another_type_or_kind_keeps_its_refusal(self, record, message):
        gates = feynman(1, 2), not_gate(1), not_gate(4), controlled_root(4, -1, 2, 4)
        assert parse_json(serialize_json(Circuit(3, gates))).table == gates
        assert all(textio._RECORD_GATES[tuple(textio._record(g).items())] is g for g in gates)
        with pytest.raises(ParseError) as info:
            parse_json(json_doc([GOOD_RECORDS[0], record]))
        assert str(info.value) == f"gate 1: {message}"

    def test_a_known_record_is_checked_against_the_width_of_its_document(self):
        g = not_gate(9)
        parse_json(serialize_json(Circuit(8, [g])))
        assert textio._RECORD_GATES[(("gate", "not"), ("line", 9))] is g
        with pytest.raises(ParseError) as info:
            parse_json(json_doc([GOOD_RECORDS[0], {"gate": "not", "line": 9}]))
        assert str(info.value) == "gate 1: line 9 out of range for width 4"

    def test_the_forms_of_a_dropped_gate_are_keys_no_longer(self):
        g = controlled_root(1 << 40, -1, 9, 3)  # no other test or generator holds this gate
        c = Circuit(8, [g])
        text, doc = serialize(c), serialize_json(c)
        line, key = text.splitlines()[-1], tuple(json.loads(doc)["gates"][0].items())
        assert line == "croot 1099511627776 -1 9 3" and textio._LINE_GATES[line] is textio._RECORD_GATES[key] is g
        dropped = weakref.ref(g)
        del g, c
        gc.collect()
        assert dropped() is None
        assert line not in textio._LINE_GATES and key not in textio._RECORD_GATES
        back = parse(text)  # read again by every check, which keeps the new gate's forms
        assert back == parse_json(doc) and textio._LINE_GATES[line] is textio._RECORD_GATES[key] is back.table[0]

    def test_a_gate_holding_its_forms_reprs_compares_hashes_pickles_and_replaces_as_before(self):
        g = controlled_root(1 << 41, 1, 2, 7)
        before = repr(g), hash(g), [pickle.dumps(g, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        assert "_line" not in vars(g) and "_record_text" not in vars(g)
        serialize_json(Circuit(6, [g]))
        serialize(Circuit(6, [g]))
        assert {"_line", "_record_text"} <= vars(g).keys()
        assert (repr(g), hash(g), [pickle.dumps(g, p) for p in range(pickle.HIGHEST_PROTOCOL + 1)]) == before
        assert g == controlled_root(1 << 41, 1, 2, 7) and g != g.adjoint()
        assert pickle.loads(pickle.dumps(g)) is g and dataclasses.replace(g) is g
        assert dataclasses.asdict(g) == {"kind": g.kind, "target": 7, "control": 2, "kappa": 1 << 41, "direction": 1}


def v3_doc(records, sequence, **fields):
    return json_doc(records, sequence=sequence, **fields)


class TestJsonV3:
    def test_writer_emits_each_distinct_record_once_in_order_of_first_use(self):
        cnot, root = feynman(1, 2), controlled_root(4, -1, 2, 4)
        # Equal copies of one gate share its record.
        gates = [root, cnot, dataclasses.replace(root), not_gate(4), dataclasses.replace(cnot), root]
        doc = json.loads(serialize_json(Circuit(3, gates)))
        assert doc["format"] == "circuit v3"
        assert doc["gates"] == [GOOD_RECORDS[1], GOOD_RECORDS[0], GOOD_RECORDS[2]]
        assert doc["sequence"] == "000100020100"

    def test_generated_circuit_holds_few_records_and_two_hex_digits_a_gate(self):
        c = synth_peres(12)
        doc = json.loads(serialize_json(c))
        assert len(doc["sequence"]) == 2 * len(c.gates) == 2 * 8178
        assert len(doc["gates"]) == len(set(c.gates)) == 89
        assert parse_json(serialize_json(c)) == c

    def test_sequence_maps_the_table_in_circuit_order(self):
        c = parse_json(v3_doc(GOOD_RECORDS, "0200000102"))
        cnot, root, inv = feynman(1, 2), controlled_root(4, -1, 2, 4), not_gate(4)
        assert c.gates == (inv, cnot, cnot, root, inv) and c.codes.dtype == np.uint8

    @pytest.mark.parametrize("sequence", ["0a0b00", "0A0B00", "0a0B00"])
    def test_hex_digits_read_in_either_case(self, sequence):
        c = parse_json(v3_doc(GOOD_RECORDS * 4, sequence))  # records 10 and 11 are GOOD_RECORDS[1] and [2]
        assert c.gates == (controlled_root(4, -1, 2, 4), not_gate(4), feynman(1, 2))

    @pytest.mark.parametrize(
        "sequence,message",
        [
            ("missing", "circuit v3 takes a sequence of gate indices; missing sequence"),
            ([0, 1], "sequence must be a string of hex digits"),
            (None, "sequence must be a string of hex digits"),
            (1, "sequence must be a string of hex digits"),
            ({"0": 1}, "sequence must be a string of hex digits"),
            ("00 01", "sequence: non-hex character ' ' at digit 2"),
            (" 0001", "sequence: non-hex character ' ' at digit 0"),
            ("0001\n", "sequence: non-hex character '\\n' at digit 4"),
            ("00\t01", "sequence: non-hex character '\\t' at digit 2"),
            ("0x01", "sequence: non-hex character 'x' at digit 1"),
            ("000g", "sequence: non-hex character 'g' at digit 3"),
            ("00-1", "sequence: non-hex character '-' at digit 2"),
            ("00\u0661\u0661", "sequence: non-hex character '\u0661' at digit 2"),
            ("02x", "sequence: non-hex character 'x' at digit 2"),
            ("020", "sequence has 3 hex digits, not a whole number of 2-digit codes for 3 gate records"),
            ("2", "sequence has 1 hex digits, not a whole number of 2-digit codes for 3 gate records"),
            ("0003", "sequence 1: index 3 out of range for 3 gate records"),
            ("02ff07", "sequence 1: index 255 out of range for 3 gate records"),
            ("00" * 3000 + "0A" + "07", "sequence 3000: index 10 out of range for 3 gate records"),
        ],
        ids=["missing", "list", "null", "int", "object", "space", "leading-space", "newline", "tab", "x", "g",
             "minus", "other-script-digit", "non-hex-before-odd-count", "odd-count", "one-digit", "len-gates", "ff",
             "after-thousands"],
    )
    def test_bad_sequences(self, sequence, message):
        text = v3_doc(GOOD_RECORDS, sequence)
        if sequence == "missing":
            doc = json.loads(text)
            del doc["sequence"]
            text = json.dumps(doc)
        with pytest.raises(ParseError) as info:
            parse_json(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-16", "utf-32"])
    def test_a_document_given_as_bytes_reads_as_its_text(self, encoding):
        text = serialize_json(synth_peres(4))
        assert parse_json(text.encode(encoding)) == parse_json(text) == synth_peres(4)

    def test_empty_table_takes_only_an_empty_sequence(self):
        assert parse_json(v3_doc([], "")) == Circuit(3)
        assert parse_json(serialize_json(Circuit(3))) == Circuit(3)
        with pytest.raises(ParseError, match="^sequence 0: index 0 out of range for 0 gate records$"):
            parse_json(v3_doc([], "00"))

    def test_duplicate_records_build_equal_gates(self):
        records = GOOD_RECORDS + [dict(GOOD_RECORDS[0]), dict(GOOD_RECORDS[0])]
        c = parse_json(v3_doc(records, "030004"))
        assert c.gates == (feynman(1, 2),) * 3


class TestJsonDocuments:
    """v3 documents built record by record, and the formats before v3, which parse_json refuses by name."""

    @pytest.mark.parametrize("label", ["true", "false", "true or false"])
    def test_a_label_holding_true_or_false_reads_back(self, label):
        c = parse_json(v3_doc(GOOD_RECORDS, "0200000102", label=label))
        cnot, root, inv = feynman(1, 2), controlled_root(4, -1, 2, 4), not_gate(4)
        assert c.label == label and c.gates == (inv, cnot, cnot, root, inv) and c.codes.dtype == np.uint8

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-16", "utf-32"])
    def test_a_document_given_as_bytes_reads_as_its_text(self, encoding):
        text = v3_doc(GOOD_RECORDS, "0200000102", label="a")
        assert parse_json(text.encode(encoding)) == parse_json(text)
        # A fault in a document given as bytes is named as in its text.
        with pytest.raises(ParseError, match="^sequence: non-hex character 'x' at digit 4$"):
            parse_json(v3_doc(GOOD_RECORDS, "0001x2", label="a").encode(encoding))

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
            parse_json(v3_doc(records, "000102"))
        assert str(info.value) == message

    @pytest.mark.parametrize("version", ["circuit v2", "circuit v1"])
    @pytest.mark.parametrize("reader", ["load_circuit", "parse_json", "cli"])
    def test_a_document_of_a_format_before_v3_is_refused(self, capsys, reader, version):
        # The two writers before v3, kept as files, and documents of each built by hand.
        fixture = V2_FIXTURE if version == "circuit v2" else V1_FIXTURE
        message = f"expected a document with format 'circuit v3', got format '{version}'"
        assert json.loads(fixture.read_text())["format"] == version
        if reader == "cli":
            assert cli.main(["cost", "--circuit", str(fixture)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
            return
        if reader == "load_circuit":
            read, source = load_circuit, fixture
        else:  # a v2 document holds a list of indices, a v1 document one record per gate and no sequence
            doc = json.loads(json_doc(GOOD_RECORDS, format=version, sequence=[2, 0, 0, 1, 2]))
            if version == "circuit v1":
                del doc["sequence"]
            read, source = parse_json, json.dumps(doc)
        with pytest.raises(ParseError) as info:
            read(source)
        assert str(info.value) == message and info.value.line_no is None

    @pytest.mark.parametrize("version", ["circuit v2", "circuit v1"])
    @pytest.mark.parametrize(
        "argv",
        [["verify", "--family", "peres", "--n", "5"], ["simulate", "--input", "101101"], ["draw"]],
        ids=["verify", "simulate", "draw"],
    )
    def test_every_command_that_reads_a_circuit_exits_2_on_a_format_before_v3(self, capsys, argv, version):
        fixture = V2_FIXTURE if version == "circuit v2" else V1_FIXTURE
        assert cli.main([*argv, "--circuit", str(fixture)]) == 2
        message = f"expected a document with format 'circuit v3', got format '{version}'"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "version,named",
        [
            ("circuit v4", "'circuit v4'"),
            ("circuit v0", "'circuit v0'"),
            ("", "''"),
            ("Circuit v3", "'Circuit v3'"),
            ("circuit v3 ", "'circuit v3 '"),
            ("circuit\u00a0v3", "'circuit\\xa0v3'"),
            (3, "3"),
            (None, "None"),
            (["circuit v3"], "['circuit v3']"),
            ("missing", "None"),
        ],
        ids=["v4", "v0", "empty", "capital", "trailing-space", "no-break-space", "int", "null", "list", "missing"],
    )
    def test_a_format_other_than_circuit_v3_is_named_in_the_refusal(self, version, named):
        # Every other field is that of a good v3 document: the format alone is refused, as written.
        doc = json.loads(v3_doc(GOOD_RECORDS, "0200000102", format=version))
        if version == "missing":
            del doc["format"]
        with pytest.raises(ParseError) as info:
            parse_json(json.dumps(doc))
        assert str(info.value) == f"expected a document with format 'circuit v3', got format {named}"

    @pytest.mark.parametrize("label", ["", "true", "false"])
    @pytest.mark.parametrize("sequence", [True, False])
    def test_a_bool_sequence_is_refused_whatever_the_label_holds(self, sequence, label):
        with pytest.raises(ParseError, match="^sequence must be a string of hex digits$"):
            parse_json(v3_doc(GOOD_RECORDS, sequence, label=label))


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
# Characters a v3 sequence may not hold: whitespace, which bytes.fromhex skips, letters past f, other scripts' digits.
BAD_HEX = [" ", "\n", "\t", "x", "g", "-", "\u0661", "\uff10"]


def hex_sequence(rng, indices):
    """indices as a v3 sequence, two hex digits each, in either case, with at most one planted fault.

    The fault is a code out of range, a character that is no hex digit, or
    one digit too few.
    """
    codes = [f"{index:02x}" for index in indices]
    fault = rng.random()
    if fault < 0.1 and codes:
        codes[rng.randrange(len(codes))] = f"{rng.choice([6, 7, 16, 255]):02x}"
    text = "".join(codes)
    if 0.1 <= fault < 0.2:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(BAD_HEX) + text[at:]
    elif 0.2 <= fault < 0.25 and text:
        at = rng.randrange(len(text))
        text = text[:at] + text[at + 1:]
    return text.upper() if rng.random() < 0.1 else text


def random_json(rng):
    """A JSON document, v3 but for a few of other formats, with good and bad records and hex digits, odd fields
    and, rarely, no valid JSON."""
    records = [dict(rng.choice(GOOD_JSON_RECORDS)) for _ in range(rng.randrange(1, 6))]
    if rng.random() < 0.4:
        records.insert(rng.randrange(len(records) + 1), rng.choice(BAD_JSON_RECORDS))
    doc = {"format": rng.choice(["circuit v3"] * 16 + ["circuit v2", "circuit v1", "circuit v4"]),
           "width": 4, "controls": 3, "label": rng.choice(["", "x # y", "  ", "a\x1fb"] * 4 + ["a\nb", "a\u2028b"]),
           "gates": records, "sequence": [rng.randrange(len(records)) for _ in range(rng.randrange(12))]}
    if doc["format"] == "circuit v3" and rng.random() < 0.95:  # else a list, which v3 refuses
        doc["sequence"] = hex_sequence(rng, doc["sequence"])
    if rng.random() < 0.15:
        doc[rng.choice(["width", "controls", "label", "gates", "sequence", "format"])] = rng.choice(
            [5, 0, -1, True, 4.0, "4", None, {}, 10**30, "x"])
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
        at = re.match(r"(gate|sequence) (\d+): ", str(exc)) or re.fullmatch(r"sequence: .+ at (digit) (\d+)", str(exc))
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
        # Bounds on peaks are stated per gate in units of an 8-byte (intp) code, whatever dtype the codes take.
        assert peak <= 4 * 8 * len(circuit), (peak, len(circuit))

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


class TestCodeColumns:
    """Both readers build codes in the circuit's dtype, one byte a gate up to 256 distinct gates."""

    # JSON: the document and its sequence string, 2 bytes a gate each, the decoded bytes and the circuit's
    # codes, 1 each, and Circuit's arange of positions, 8; 14.3 measured.
    @pytest.mark.parametrize("suffix,bound", [(".txt", 12), (".json", 16)])
    def test_loading_a_16_control_file_peaks_within_its_bound_in_bytes_a_gate(self, tmp_path, suffix, bound):
        circuit = synth_toffoli(16)
        path = tmp_path / f"t16{suffix}"
        path.write_text(serialize_json(circuit) if suffix == ".json" else serialize(circuit))
        gc.collect()
        tracemalloc.start()
        try:
            loaded = load_circuit(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == circuit and loaded.codes.dtype == np.uint8
        assert peak <= bound * len(circuit), (peak / len(circuit), bound)

    @pytest.mark.parametrize("chunk", [64, 256, 4096, CHUNK])
    def test_a_table_past_256_gates_reads_back_in_chunks_of_any_size(self, tmp_path, monkeypatch, chunk):
        circuit = wide_circuit(POOL, 2000)
        text = serialize(circuit)
        assert text == text_document(circuit)
        path = tmp_path / "wide.txt"
        path.write_text(text)
        monkeypatch.setattr(textio, "_CHUNK", chunk)
        # The table passes 256 gates inside the one chunk of CHUNK, and between chunks of the smaller sizes.
        assert (len(list(textio._text_chunks(text))) == 1) == (chunk == CHUNK)
        for back in (parse(text), load_circuit(path)):
            assert back == circuit and hash(back) == hash(circuit) and back.label == circuit.label
            assert back.gates == circuit.gates and back.codes.dtype == np.uint16
            rebuilt = Circuit(WIDE_N, back.gates)
            assert rebuilt == back and hash(rebuilt) == hash(back)

    def test_json_of_a_table_past_256_gates_reads_back(self):
        circuit = wide_circuit(POOL, 2000)
        doc = serialize_json(circuit)
        assert doc == json_document(circuit)
        assert len(json.loads(doc)["sequence"]) == 4 * len(circuit)  # 4 hex digits a code for 421 records
        back = parse_json(doc)
        assert back == circuit and hash(back) == hash(circuit) and back.codes.dtype == np.uint16
        rebuilt = Circuit(WIDE_N, back.gates)
        assert rebuilt == back and hash(rebuilt) == hash(back)

    @pytest.mark.parametrize("size,digits,dtype", [(256, 2, np.uint8), (257, 4, np.uint16)])
    def test_json_codes_widen_past_256_records(self, size, digits, dtype):
        circuit = wide_circuit(POOL[:size], 600, seed=size)
        doc = serialize_json(circuit)
        assert doc == json_document(circuit) and len(json.loads(doc)["sequence"]) == digits * len(circuit)
        back = parse_json(doc)
        assert back == circuit and hash(back) == hash(circuit) and back.codes.dtype == dtype

    @pytest.mark.parametrize("code", ["01a5", "ffff"])
    def test_a_code_past_a_wide_table_is_named_by_its_position(self, code):
        doc = json.loads(serialize_json(wide_circuit(POOL, 600)))
        doc["sequence"] = doc["sequence"][:1200] + code + doc["sequence"][1204:]
        message = f"^sequence 300: index {int(code, 16)} out of range for 421 gate records$"
        with pytest.raises(ParseError, match=message):
            parse_json(json.dumps(doc))

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_a_wide_sequence_takes_whole_four_digit_codes(self, cut):
        doc = json.loads(serialize_json(wide_circuit(POOL, 600)))
        doc["sequence"] = doc["sequence"][:-cut]
        message = f"^sequence has {2400 - cut} hex digits, not a whole number of 4-digit codes for 421 gate records$"
        with pytest.raises(ParseError, match=message):
            parse_json(json.dumps(doc))


class TestWritersMatchTheGateByGateReference:
    @pytest.mark.parametrize("family,n", WRITER_CASES)
    def test_text_and_json_are_byte_identical(self, family, n):
        c = family_circuit(family, n)
        assert serialize(c) == text_document(c)
        assert serialize_json(c) == json_document(c)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_the_pieces_the_cli_writes_join_to_the_document(self, family):
        for n in range(1, 17):
            c = family_circuit(family, n)
            assert "".join(textio._text_pieces(c)) == serialize(c), n

    @pytest.mark.parametrize("gates", [0, 1, 4095, 4096, 4097, 8193])
    def test_the_pieces_break_after_each_4096_gates(self, gates):
        c = Circuit(3, [feynman(1, 2), not_gate(4), controlled_root(4, -1, 2, 4)] * (gates // 3 + 1), label="# x")
        c = Circuit(3, c.gates[:gates], label=c.label)
        pieces = list(textio._text_pieces(c))
        assert pieces[0] == "circuit v1\nwidth 4\ncontrols 3\nlabel # x\n"
        full, rest = divmod(gates, 4096)
        assert [piece.count("\n") for piece in pieces[1:]] == [4096] * full + [rest] * (rest > 0)
        assert "".join(pieces) == serialize(c) == text_document(c)

    @pytest.mark.parametrize("n", [3, 5])
    def test_a_document_out_of_first_use_order_reads_canonically(self, n):
        c = synth_toffoli(n, mixed_activation(n))
        doc = json.loads(json_document(c))
        size, seq = len(doc["gates"]), list(bytes.fromhex(doc["sequence"]))
        common = max(range(size), key=seq.count)
        # Records reversed after one unused record, and a second copy of the
        # most used record last, which every second use of it takes.
        records = [{"gate": "not", "line": n + 1}] + doc["gates"][::-1] + [doc["gates"][common]]
        uses = iter(range(len(seq)))
        sequence = [size + 1 if i == common and next(uses) % 2 else size - i for i in seq]
        assert size + 1 in sequence and size - common in sequence
        back = parse_json(json.dumps(dict(doc, gates=records, sequence=bytes(sequence).hex())))
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
        # A live gate's own line would skip both paths: let every line be read by them.
        monkeypatch.setattr(textio._LINE_GATES, "get", lambda key, default=None: default)
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
                doc = json.dumps({"format": "circuit v3", "width": 2, "controls": 1, "gates": [record],
                                  "sequence": "00"})
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
        # Per gate, in units of an 8-byte (intp) code, whatever dtype the codes take: the document is about
        # 1.94 of them and the list of its lines once more, and a copy of it would pass 4.8.
        assert len(text) < 2 * 8 * len(circuit)
        assert peak <= 3.25 * 8 * len(circuit), (peak, len(circuit))

    def test_serializing_a_16_control_circuit_to_json_holds_its_hex_sequence_at_most_three_times(self):
        circuit = synth_toffoli(16)
        gc.collect()
        tracemalloc.start()
        try:
            doc = serialize_json(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The hex string and the document take 2 bytes a gate each: 4.31 bytes a gate in all on Python 3.11.
        # The bound leaves room for a third copy, the one json.dumps makes of a string it quotes, and for the
        # records and the encoder's pieces of them: 106 KB on Python 3.12 and 3.13, 117 KB on 3.11 and 126 KB
        # on 3.10; a fourth copy would take 262 KB. v2 peaked at 16.3 bytes a gate.
        assert len(doc) < 2.1 * len(circuit)
        assert peak <= 6 * len(circuit) + 160_000, (peak - 6 * len(circuit))


V1_FIXTURE = Path(__file__).parent / "data" / "peres-5-v1.json"


class TestJsonV1Fixture:
    """A document written by the circuit v1 writer, kept as a file that parse_json refuses."""

    expected = synth_peres(5, (1, 0, 1, 1, 0))

    def test_fixture_is_v1(self):
        doc = json.loads(V1_FIXTURE.read_text())
        assert doc["format"] == "circuit v1" and "sequence" not in doc
        assert len(doc["gates"]) == len(self.expected.gates)

    @staticmethod
    def as_v3() -> str:
        """The fixture's records, one a gate, given the v3 format and a sequence that takes each once, in order."""
        doc = json.loads(V1_FIXTURE.read_text())
        digits = code_digits(len(doc["gates"]))
        sequence = "".join(f"{i:0{digits}x}" for i in range(len(doc["gates"])))
        return json.dumps(dict(doc, format="circuit v3", sequence=sequence))

    def test_its_records_read_as_a_v3_document(self):
        c = parse_json(self.as_v3())
        assert c == self.expected and c.label == self.expected.label
        assert serialize_json(c) == json_document(self.expected)

    def test_cli_verifies_its_records_as_a_v3_file(self, tmp_path, capsys):
        path = tmp_path / "peres-5.json"
        path.write_text(self.as_v3())
        argv = ["verify", "--circuit", str(path), "--family", "peres", "--n", "5", "--activation", "10110"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "pass (64 inputs checked)\n"


GOLDEN_TEXT = Path(__file__).parent / "data" / "mixed-3.txt"
GOLDEN_JSON = Path(__file__).parent / "data" / "mixed-3-v3.json"
# The same circuit as the circuit v2 writer wrote it, kept as a file that parse_json refuses.
V2_FIXTURE = Path(__file__).parent / "data" / "mixed-3.json"


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

    def test_the_v2_fixture_is_v2(self):
        doc = json.loads(V2_FIXTURE.read_text())
        assert doc["format"] == "circuit v2" and doc["sequence"] == [0, 1, 2, 3, 4, 0, 5, 2]
        # The v3 file's records and codes: a list of indices there, hex digits here.
        golden = json.loads(GOLDEN_JSON.read_text())
        assert dict(doc, format="circuit v3", sequence=bytes(doc["sequence"]).hex()) == golden

    @pytest.mark.parametrize("path", [GOLDEN_TEXT, GOLDEN_JSON], ids=["text", "json"])
    def test_reader_gives_the_circuit_back(self, path):
        c = load_circuit(path)
        assert c == self.circuit
        assert c.label == "  mixed #1  "

    @pytest.mark.parametrize("path", [GOLDEN_JSON], ids=["json"])
    def test_cli_costs_the_json_files_as_the_text_file(self, capsys, path):
        assert cli.main(["cost", "--circuit", str(GOLDEN_TEXT)]) == 0
        want = capsys.readouterr().out
        assert cli.main(["cost", "--circuit", str(path)]) == 0
        assert capsys.readouterr().out == want


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
