import dataclasses
import json
import re

import pytest

from rootsynth.circuit import Circuit, controlled_root, distinct_gates, feynman, not_gate
from rootsynth.synth import (
    synth_barenco_toffoli,
    synth_peres,
    synth_toffoli,
    synth_zero_polarity,
)
from rootsynth.textio import ParseError, load_circuit, parse, parse_json, serialize, serialize_json

FAMILY_CASES = [
    (family, n)
    for family in ("peres", "toffoli", "barenco", "or-gate", "and-complemented")
    for n in range(1, 7)
    if not (family == "barenco" and n == 1)
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

    def test_blank_label_writes_no_label_line(self):
        c = dataclasses.replace(synth_peres(2), label="   ")
        text = serialize(c)
        assert "label" not in text
        assert parse(text) == c

    def test_blank_label_round_trips_as_empty_in_json(self):
        c = dataclasses.replace(synth_peres(2), label="   ")
        assert parse_json(serialize_json(c)).label == ""

    def test_label_keeps_hash_and_outer_spaces(self):
        c = dataclasses.replace(synth_peres(2), label="  run #3  ")
        assert parse(serialize(c)).label == "  run #3  "
        assert parse_json(serialize_json(c)).label == "  run #3  "


class TestDistinctGates:
    @pytest.mark.parametrize("family,n", [(f, 6) for f in ("peres", "toffoli", "barenco", "and-complemented")])
    def test_readers_build_each_distinct_gate_once(self, family, n):
        c = family_circuit(family, n)
        bound = n * (n - 1) // 2 + 2 * n + 1
        for back in (parse(serialize(c)), parse_json(serialize_json(c))):
            assert len(distinct_gates(back.gates)) == len(set(back.gates)) <= bound

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
    ("cnot \u0661 2", "control must be an integer, got '\u0661'"),
    ("cnot 1 \uff12", "target must be an integer, got '\uff12'"),
    ("croot 0_4 +1 1 4", "kappa must be an integer, got '0_4'"),
    ("not 1_0", "line must be an integer, got '1_0'"),
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
            (["label x", "circuit v1"], 1),
        ],
    )
    def test_bad_directive_lines(self, lines, line_no):
        with pytest.raises(ParseError) as info:
            parse("\n".join(lines))
        assert info.value.line_no == line_no

    @pytest.mark.parametrize("value", ["1_0", "\u0663"])
    @pytest.mark.parametrize("directive", ["width", "controls"])
    def test_directive_integers_are_ascii_digits(self, directive, value):
        with pytest.raises(ParseError) as info:
            parse(f"circuit v1\n{directive} {value}\n")
        assert str(info.value) == f"line 2: {directive} must be an integer, got {value!r}"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "empty document: missing header"),
            ("circuit v1\ncontrols 2\n", "missing width directive"),
            ("circuit v1\nwidth 3\n", "missing controls directive"),
            ("circuit v1\nwidth 4\ncontrols 2\n", "width 4 does not match controls 2 + 1"),
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
        "gates,message",
        [
            ([GOOD_RECORDS[0], 7], "gate 1: malformed gate entry"),
            ([GOOD_RECORDS[0], {"gate": "swap", "a": 1}], "gate 1: unknown gate 'swap'"),
            ([{"gate": "croot", "kappa": 4, "control": 1, "target": 4}],
             "gate 0: croot takes kappa, direction, control, target; missing direction"),
            ([{"gate": "cnot", "control": 3, "target": 3}], "gate 0: control and target coincide on line 3"),
            ([GOOD_RECORDS[0]] * 5 + [{"gate": "not", "line": 9}], "line 9 out of range for width 4"),
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
            ("[]", "expected a document with format"),
            ('{"format": "circuit v1", "width": 3}', "missing width/controls"),
            (json_doc([], width=5), "width 5 does not match controls 3 + 1"),
            (json_doc([], label="two\nlines"), "label must be a single line"),
        ],
    )
    def test_document_errors(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_json(text)
