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
outer spaces included. A JSON mirror of the same schema is accepted on
input for files ending in .json; every number in it must be a JSON integer.

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


class ParseError(ValueError):
    """Malformed circuit document; carries the 1-based line number if known."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def _gate_line(g: Gate) -> str:
    if g.kind is GateKind.FEYNMAN:
        return f"cnot {g.control} {g.target}"
    if g.kind is GateKind.ROOT:
        sign = "+1" if g.direction == 1 else "-1"
        return f"croot {g.kappa} {sign} {g.control} {g.target}"
    return f"not {g.target}"


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


def _parse_gate(fields: list[str], width: int, line_no: int) -> Gate:
    name = fields[0]
    try:
        if name == "cnot":
            if len(fields) != 3:
                raise ParseError("cnot takes <control> <target>", line_no)
            g = feynman(
                _int_field(fields[1], "control", line_no),
                _int_field(fields[2], "target", line_no),
            )
        elif name == "croot":
            if len(fields) != 5:
                raise ParseError("croot takes <kappa> <+1|-1> <control> <target>", line_no)
            if fields[2] not in ("+1", "-1", "1"):
                raise ParseError(f"direction must be +1 or -1, got {fields[2]!r}", line_no)
            g = controlled_root(
                _int_field(fields[1], "kappa", line_no),
                1 if fields[2] in ("+1", "1") else -1,
                _int_field(fields[3], "control", line_no),
                _int_field(fields[4], "target", line_no),
            )
        else:
            if len(fields) != 2:
                raise ParseError("not takes <line>", line_no)
            g = not_gate(_int_field(fields[1], "line", line_no))
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
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
        elif word in ("cnot", "croot", "not"):
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


def _gate_record(g: Gate) -> dict[str, int | str]:
    if g.kind is GateKind.FEYNMAN:
        return {"gate": "cnot", "control": g.control, "target": g.target}
    if g.kind is GateKind.ROOT:
        return {
            "gate": "croot",
            "kappa": g.kappa,
            "direction": g.direction,
            "control": g.control,
            "target": g.target,
        }
    return {"gate": "not", "line": g.target}


def serialize_json(circuit: Circuit) -> str:
    """JSON mirror of the text schema, on one line."""
    doc = json.dumps({
        "format": FORMAT_HEADER,
        "width": circuit.width,
        "controls": circuit.n_controls,
        "label": circuit.label,
        "gates": [],
    })
    # Encode each distinct gate record once and splice the list into the
    # trailing '[]}': the same text json.dumps writes for the whole document.
    records = map_distinct(lambda g: json.dumps(_gate_record(g)), circuit.gates)
    return doc[:-2] + ", ".join(records) + "]}\n"


# Each gate name with its gate function and record fields, in argument order.
_RECORD_FIELDS = {
    "cnot": (feynman, ("control", "target")),
    "croot": (controlled_root, ("kappa", "direction", "control", "target")),
    "not": (not_gate, ("line",)),
}
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
    if not isinstance(name, str) or name not in _RECORD_FIELDS:
        raise ParseError(f"unknown gate {name!r}")
    build, fields = _RECORD_FIELDS[name]
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


def parse_json(text: str) -> Circuit:
    """Parse the JSON mirror format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_HEADER:
        raise ParseError(f"expected a document with format {FORMAT_HEADER!r}")
    if "controls" not in doc or "width" not in doc:
        raise ParseError("missing width/controls")
    controls = _json_int(doc["controls"], "controls")
    width = _json_int(doc["width"], "width")
    if width != controls + 1:
        raise ParseError(f"width {width} does not match controls {controls} + 1")
    entries = doc.get("gates", [])
    if not isinstance(entries, list):
        raise ParseError("gates must be a list of gate records")
    gates = _record_gates(entries)
    try:
        return Circuit(controls, tuple(gates), label=str(doc.get("label", "")))
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
