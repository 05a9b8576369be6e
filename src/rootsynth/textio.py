"""Line-oriented circuit files and ASCII rendering.

Text format, one directive or gate per line, `#` starts a comment:

    circuit v1
    width 3
    controls 2
    label peres n=2 a=11
    croot 2 +1 1 3
    cnot 1 2
    not 3

Gate lines are `cnot <control> <target>`, `croot <kappa> <+1|-1> <control>
<target>` and `not <line>`; their numbers are an optional sign and ASCII
digits. A `label` line holds the label verbatim after `label `, a `#` and
outer spaces included.

Both formats read and write a gate through one table of gate names and
their fields in argument order; a text line writes the fields in that
order, a JSON record names each one.

Files ending in .json hold the same schema as one JSON object, and every
number in it must be a JSON integer. The writer emits format "circuit v2":
"gates" is a table holding each distinct gate record once, in order of
first use, and "sequence" lists one index into that table per gate, in
circuit order:

    {"format": "circuit v2", "width": 3, "controls": 2, "label": "",
     "gates": [{"gate": "cnot", "control": 1, "target": 2},
               {"gate": "not", "line": 3}],
     "sequence": [0, 1, 0]}

A generated circuit of about 2^(n+1) gates holds only O(n^2) distinct
ones, so the table keeps the document small and its reader decodes one
integer, not one record, per gate. Format "circuit v1", with one record
per gate in "gates" and no "sequence", is still read.

A generated circuit repeats a few distinct gates many times, so each reader
and writer formats or checks each distinct gate once and looks it up for
every repeat.
"""
from __future__ import annotations

import json
import re
from itertools import chain
from pathlib import Path

from .circuit import Circuit, Gate, GateKind, controlled_root, feynman, map_distinct, not_gate

FORMAT_HEADER = "circuit v1"
# The format serialize_json writes; parse_json also reads FORMAT_HEADER.
JSON_FORMAT = "circuit v2"

# Each gate name, which is its GateKind's value, with its gate function and
# fields, in argument order. A field is the Gate attribute of its name; a
# NOT gate's line is its target.
_GATES = {
    "cnot": (feynman, ("control", "target")),
    "croot": (controlled_root, ("kappa", "direction", "control", "target")),
    "not": (not_gate, ("line",)),
}
# The text format writes a direction signed, and reads 1 as +1.
_DIRECTIONS = {"+1": 1, "1": 1, "-1": -1}


class ParseError(ValueError):
    """Malformed circuit document; carries the 1-based line number if known."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def _gate_fields(g: Gate) -> tuple[str, dict[str, int]]:
    """A gate's name and its field values by name, in the gate table's order."""
    name = g.kind.value
    return name, {f: g.target if f == "line" else getattr(g, f) for f in _GATES[name][1]}


def _gate_line(g: Gate) -> str:
    name, fields = _gate_fields(g)
    return " ".join([name, *(f"{v:+d}" if f == "direction" else str(v) for f, v in fields.items())])


def serialize(circuit: Circuit) -> str:
    """Render a circuit document; deterministic, ends with a newline."""
    lines = [FORMAT_HEADER, f"width {circuit.width}", f"controls {circuit.n_controls}"]
    if circuit.label:
        lines.append(f"label {circuit.label}")
    lines += map_distinct(_gate_line, circuit.gates)
    return "\n".join(lines) + "\n"


# An optional sign and ASCII digits: int() would also take '1_0' and '١'.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int_field(word: str, what: str, line_no: int) -> int:
    if _INTEGER.fullmatch(word) is None:
        raise ParseError(f"{what} must be an integer, got {word!r}", line_no)
    return int(word)


def _parse_gate(words: list[str], width: int, line_no: int) -> Gate:
    name, values = words[0], words[1:]
    build, fields = _GATES[name]
    if len(values) != len(fields):
        usage = " ".join("<+1|-1>" if f == "direction" else f"<{f}>" for f in fields)
        raise ParseError(f"{name} takes {usage}", line_no)
    given = dict(zip(fields, values))
    if "direction" in given and given["direction"] not in _DIRECTIONS:
        raise ParseError(f"direction must be +1 or -1, got {given['direction']!r}", line_no)
    args = [_DIRECTIONS[v] if f == "direction" else _int_field(v, f, line_no) for f, v in given.items()]
    try:
        g = build(*args)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None
    for line in g.lines:
        if not 1 <= line <= width:
            raise ParseError(f"line {line} out of range for width {width}", line_no)
    return g


def parse(text: str) -> Circuit:
    """Parse a text circuit document back into a Circuit.

    The first occurrence of each distinct gate line goes through every
    check; a repeat of it, which can only follow the width and controls
    directives, reuses the Gate parsed there.
    """
    width: int | None = None
    controls: int | None = None
    label = ""
    gates: list[Gate] = []
    parsed: dict[str, Gate] = {}
    saw_header = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("label "):
            if not saw_header:
                raise ParseError(f"expected {FORMAT_HEADER!r} before directives", line_no)
            label = raw.lstrip()[len("label "):]
            continue
        if "#" in stripped:
            stripped = stripped[: stripped.index("#")].strip()
        g = parsed.get(stripped)
        if g is not None:
            gates.append(g)
            continue
        if not stripped:
            continue
        if not saw_header:
            if stripped != FORMAT_HEADER:
                raise ParseError(f"expected header {FORMAT_HEADER!r}, got {stripped!r}", line_no)
            saw_header = True
            continue
        fields = stripped.split()
        word = fields[0]
        if word in ("width", "controls"):
            if len(fields) != 2:
                raise ParseError(f"{word} takes one integer", line_no)
            value = _int_field(fields[1], word, line_no)
            if word == "width":
                if width is not None:
                    raise ParseError("duplicate width directive", line_no)
                width = value
            else:
                if controls is not None:
                    raise ParseError("duplicate controls directive", line_no)
                controls = value
        elif word in _GATES:
            if width is None or controls is None:
                raise ParseError("gate line before width/controls directives", line_no)
            g = parsed[stripped] = _parse_gate(fields, width, line_no)
            gates.append(g)
        else:
            raise ParseError(f"unknown directive {word!r}", line_no)
    if not saw_header:
        raise ParseError("empty document: missing header")
    if width is None:
        raise ParseError("missing width directive")
    if controls is None:
        raise ParseError("missing controls directive")
    if width != controls + 1:
        raise ParseError(f"width {width} does not match controls {controls} + 1")
    try:
        return Circuit(controls, tuple(gates), label=label)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_json(circuit: Circuit) -> str:
    """The circuit as a format circuit v2 JSON document, on one line.

    Equal gates share one record: each distinct gate object is keyed by
    value once, so the per-gate work is one lookup by id.
    """
    slots: dict[Gate, str] = {}
    sequence = map_distinct(lambda g: slots.setdefault(g, str(len(slots))), circuit.gates)
    doc = json.dumps({
        "format": JSON_FORMAT,
        "width": circuit.width,
        "controls": circuit.n_controls,
        "label": circuit.label,
        "gates": [{"gate": name, **fields} for name, fields in map(_gate_fields, slots)],
        "sequence": [],
    })
    # json.dumps writes a list of ints as their decimal forms joined by ", ":
    # splice the joined index strings into the trailing '[]}'.
    return doc[:-2] + ", ".join(sequence) + "]}\n"


# Value types of a valid gate record: its gate name and integers.
_RECORD_TYPES = {str, int}


def _json_int(value: object, what: str) -> int:
    # bool is a subclass of int, and true == 1 == 1.0: only an exact int passes.
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _record_gate(entry: object) -> Gate:
    if not isinstance(entry, dict):
        raise ParseError("malformed gate entry")
    name = entry.get("gate")
    if not isinstance(name, str) or name not in _GATES:
        raise ParseError(f"unknown gate {name!r}")
    build, fields = _GATES[name]
    missing = [f for f in fields if f not in entry]
    if missing:
        raise ParseError(f"{name} takes {', '.join(fields)}; missing {', '.join(missing)}")
    args = [_json_int(entry[f], f) for f in fields]
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _record_gates(entries: list) -> list[Gate]:
    """The gate of every record, each distinct record checked and built once.

    Records are keyed by their contents only when every value in the list
    is a string or an integer, so that records comparing equal are
    identical: no true, 1.0 or "1" can stand in for a stored 1. Otherwise
    each record is checked on its own.
    """
    try:
        clean = set(map(type, chain.from_iterable(map(dict.values, entries)))) <= _RECORD_TYPES
    except TypeError:  # an entry is not a JSON object
        clean = False
    built: dict = {}
    gates: list[Gate] = []
    for index, entry in enumerate(entries):
        key = tuple(entry.items()) if clean else index
        g = built.get(key)
        if g is None:
            try:
                g = built[key] = _record_gate(entry)
            except ParseError as exc:
                raise ParseError(f"gate {index}: {exc}") from None
        gates.append(g)
    return gates


def _sequence_gates(doc: dict, table: list[Gate], width: int) -> list[Gate]:
    """The table's gate at each index of a v2 document's "sequence".

    Every record must fit the width, whether the sequence uses it or not.
    """
    for index, g in enumerate(table):
        if max(g.lines) > width:
            raise ParseError(f"gate {index}: line {max(g.lines)} out of range for width {width}")
    if "sequence" not in doc:
        raise ParseError(f"{JSON_FORMAT} takes a sequence of gate indices; missing sequence")
    sequence = doc["sequence"]
    if not isinstance(sequence, list):
        raise ParseError("sequence must be a list of gate indices")
    # true and 1.0 index a list like 1, and -1 counts from its end: only
    # exact ints from 0 to len(table) - 1 pass.
    size = len(table)
    exact = set(map(type, sequence)) <= {int}
    if not exact or sequence and not 0 <= min(sequence) <= max(sequence) < size:
        for position, value in enumerate(sequence):
            try:
                if not 0 <= _json_int(value, "index") < size:
                    raise ParseError(f"index {value} out of range for {size} gate records")
            except ParseError as exc:
                raise ParseError(f"sequence {position}: {exc}") from None
    return list(map(table.__getitem__, sequence))


def parse_json(text: str) -> Circuit:
    """Parse a JSON circuit document of format circuit v2 or circuit v1.

    Both check and build the records of "gates" alike; a v2 document then
    takes its gates from that table through "sequence".
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    version = doc.get("format") if isinstance(doc, dict) else None
    if version not in (JSON_FORMAT, FORMAT_HEADER):
        raise ParseError(f"expected a document with format {JSON_FORMAT!r} or {FORMAT_HEADER!r}")
    if "controls" not in doc or "width" not in doc:
        raise ParseError("missing width/controls")
    controls = _json_int(doc["controls"], "controls")
    width = _json_int(doc["width"], "width")
    if width != controls + 1:
        raise ParseError(f"width {width} does not match controls {controls} + 1")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise ParseError(f"label must be a string, got {json.dumps(label)}")
    entries = doc.get("gates", [])
    if not isinstance(entries, list):
        raise ParseError("gates must be a list of gate records")
    gates = _record_gates(entries)
    if version == JSON_FORMAT:
        gates = _sequence_gates(doc, gates, width)
    try:
        return Circuit(controls, tuple(gates), label=label)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load_circuit(path: str | Path) -> Circuit:
    """Read a circuit file, dispatching on the .json extension."""
    p = Path(path)
    text = p.read_text()
    if p.suffix == ".json":
        return parse_json(text)
    return parse(text)


def render_ascii(circuit: Circuit) -> str:
    """Wire diagram, one row per line and one column per gate.

    Controls draw a dot, Feynman targets an xor circle, roots a [V<kappa>]
    box (dagger for the adjoint) and inverters an [X] box; wires crossed by
    a control span show a vertical bar.
    """
    if circuit.width > 26:
        raise ValueError(f"rendering supports at most 26 lines, got {circuit.width}")
    labels = [f"c{i}" for i in range(1, circuit.n_controls + 1)] + ["t"]
    pad = max(len(s) for s in labels)
    columns: list[dict[int, str]] = []
    for g in circuit.gates:
        col: dict[int, str] = {}
        if g.kind is GateKind.FEYNMAN:
            col[g.control] = "●"
            col[g.target] = "⊕"
        elif g.kind is GateKind.ROOT:
            col[g.control] = "●"
            col[g.target] = f"[V{g.kappa}]" if g.direction == 1 else f"[V{g.kappa}†]"
        else:
            col[g.target] = "[X]"
        lo, hi = min(g.lines), max(g.lines)
        for row in range(lo + 1, hi):
            col[row] = "│"
        columns.append(col)
    widths = [max(len(cell) for cell in col.values()) for col in columns]
    rows = []
    for row in range(1, circuit.width + 1):
        parts = [f"{labels[row - 1]:>{pad}} ─"]
        for col, cw in zip(columns, widths):
            cell = col.get(row, "")
            extra = cw - len(cell)
            parts.append("─" * (extra // 2) + cell + "─" * (extra - extra // 2) + "─")
        rows.append("".join(parts))
    return "\n".join(rows)
