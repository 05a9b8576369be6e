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
digits. A `label` line is one whose first word is `label`; it holds the
label verbatim after that word and the one whitespace character following
it, a `#` and outer spaces included, and a blank one holds the empty label.
load_circuit skips a leading UTF-8 byte-order mark.

Both formats read and write a gate through one table, _GATES, of gate
names and their fields in argument order, from which each name's line
format, line pattern and record keys are derived once; the field-by-field
checks run only to name a fault. Both readers build each gate in one
helper and end in one more, which checks that width is controls + 1.

Files ending in .json hold the same schema as one JSON object, and every
number in it must be a JSON integer. The writer emits format "circuit v2":
"gates" is a table holding each distinct gate record once, in order of
first use, and "sequence" lists one index into that table per gate, in
circuit order:

    {"format": "circuit v2", "width": 3, "controls": 2, "label": "",
     "gates": [{"gate": "cnot", "control": 1, "target": 2},
               {"gate": "not", "line": 3}],
     "sequence": [0, 1, 0]}

A record may hold keys that are no gate's field, but not a field of
another gate kind. A generated circuit of about 2^(n+1) gates holds only
O(n^2) distinct ones, so the table keeps the document small. A "circuit
v1" document, one record per gate and no "sequence", is still read.

serialize_json writes a circuit's two columns (see circuit.Circuit) as
they are; serialize and render_ascii format each table entry once and
gather the gate lines, or the diagram's rows, over the codes. The text
reader (see parse) checks each distinct raw gate line once and maps a
repeat to its code by one lookup; the JSON reader checks each record once
and the sequence in numpy. Text is read in chunks by one rule, from a
string or an open file: 64 K - 1 characters and the rest of the line they
end in.
"""
from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .circuit import _FEYNMAN, _NOT, Circuit, Gate, check_lines, controlled_root, feynman, gather, not_gate

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
_FIELDS = dict.fromkeys(f for _, fields in _GATES.values() for f in fields)  # every field, in table order
# The text format writes a direction signed, and reads 1 as +1.
_DIRECTIONS = {"+1": 1, "1": 1, "-1": -1}
# An optional sign and ASCII digits: int() would also take '1_0' and '١'.
_INTEGER = re.compile(r"[+-]?[0-9]+")
# Per gate name: (field, attribute) pairs, the line's format and its words' pattern, a record's and others' keys.
_ATTRIBUTES = {name: [(f, "target" if f == "line" else f) for f in fields] for name, (_, fields) in _GATES.items()}
_LINES = {name: " ".join([name] + [f"{{{a}:+d}}" if f == "direction" else f"{{{a}}}" for f, a in pairs]) + "\n"
          for name, pairs in _ATTRIBUTES.items()}
_PATTERNS = {name: re.compile(" ".join([name] + [r"(\+?1|-1)" if f == "direction" else f"({_INTEGER.pattern})"
                                                 for f, _ in pairs])) for name, pairs in _ATTRIBUTES.items()}
_KEYS = {name: (frozenset(fields), frozenset(_FIELDS) - set(fields)) for name, (_, fields) in _GATES.items()}


class ParseError(ValueError):
    """Malformed circuit document; carries the 1-based line number if known."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def _record(g: Gate) -> dict[str, object]:
    """A gate's JSON record: its name, then its fields in the gate table's order."""
    name, values = g.kind._value_, vars(g)
    return {"gate": name, **{f: values[a] for f, a in _ATTRIBUTES[name]}}


def serialize(circuit: Circuit) -> str:
    """Render a circuit document, deterministic and ending in a newline, in one join led by the directives."""
    lines = gather([_LINES[g.kind._value_].format_map(vars(g)) for g in circuit.table], circuit.codes) or [""]
    label = f"label {circuit.label}\n" if circuit.label else ""
    lines[0] = f"{FORMAT_HEADER}\nwidth {circuit.width}\ncontrols {circuit.n_controls}\n{label}{lines[0]}"
    return "".join(lines)


def _int_field(word: str, what: str) -> int:
    if _INTEGER.fullmatch(word) is None:
        raise ParseError(f"{what} must be an integer, got {word!r}")
    try:
        return int(word)
    except ValueError:  # more digits than int() converts, 4300 by default
        raise ParseError(f"{what} has too many digits ({len(word.lstrip('+-'))})") from None


def _build_gate(name: str, args: list[int], width: int) -> Gate:
    """The gate `name` of `args`, which must fit the width; each reader adds the place to its error."""
    g = _GATES[name][0](*args)
    check_lines(g, width)
    return g


def _circuit(width: int, controls: int, table: list[Gate], codes: np.ndarray, label: str) -> Circuit:
    """The circuit of a document whose gate table and codes are read: both readers end here."""
    if width != controls + 1:
        raise ParseError(f"width {width} does not match controls {controls} + 1")
    try:
        return Circuit._of_codes(controls, table, codes, label=label)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_gate(words: list[str], width: int) -> Gate:
    name = words[0]
    try:  # the checks below run only to name a fault: no match (None has no groups), or a field past int()'s limit
        args = list(map(int, _PATTERNS[name].fullmatch(" ".join(words)).groups()))
    except (AttributeError, ValueError):
        fields = _GATES[name][1]
        if len(words) != len(fields) + 1:
            usage = " ".join("<+1|-1>" if f == "direction" else f"<{f}>" for f in fields)
            raise ParseError(f"{name} takes {usage}") from None
        args = []
        for f, word in zip(fields, words[1:]):
            if f == "direction" and word not in _DIRECTIONS:
                raise ParseError(f"direction must be +1 or -1, got {word!r}") from None
            args.append(_DIRECTIONS[word] if f == "direction" else _int_field(word, f))
    return _build_gate(name, args, width)


# The text reader takes a document in chunks: _CHUNK - 1 characters and the
# rest of the line they end in.
_CHUNK = 1 << 16


def _text_chunks(text: str) -> Iterator[str]:
    """`text` in chunks, each cut right after the first "\n" at least _CHUNK - 1 characters in, or at its end."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _file_chunks(file: TextIO) -> Iterator[str]:
    """An open text file in chunks, cut as _text_chunks cuts the text the file reads.

    Each chunk is _CHUNK - 1 characters and the rest of the line they end
    in, which readline takes whole, however long it is.
    """
    return iter(lambda: file.read(_CHUNK - 1) + file.readline(), "")


def parse(text: str) -> Circuit:
    """Parse a text circuit document back into a Circuit.

    Lines are those of text.splitlines(), numbered from 1. One pass reads
    them in order, a chunk at a time: 64 K - 1 characters and the rest of
    the line they end in. Each chunk but the last ends right after a "\n",
    so no line break, "\r\n" included, spans two chunks and the chunks'
    lines are the document's. The first occurrence of each distinct raw
    gate line goes through every check and gets a code, the index of its
    gate in the table; a repeat of it, which can only follow the directives
    that made the first one valid, costs one lookup. Every other line is
    checked where it stands, so an error names its own line.
    """
    return _parse_chunks(_text_chunks(text))


def _parse_chunks(chunks: Iterable[str]) -> Circuit:
    """parse over a document given as chunks that each end with a whole line."""
    header: dict[str, int | None] = {"width": None, "controls": None}
    label: str | None = None
    table: list[Gate] = []  # the gate of each distinct gate line
    known: dict[str, int] = {}  # each distinct raw gate line and its code
    parts: list[np.ndarray] = []  # the codes of each chunk read
    gates = 0  # gate lines in the chunks before this one
    others = 0  # lines so far that hold no gate
    saw_header = False
    for chunk in chunks:
        codes: list[int] = []  # one per gate line of this chunk so far
        for raw in chunk.splitlines():
            code = known.get(raw)
            if code is None:
                try:
                    stripped = raw.strip()
                    content = stripped.split("#", 1)[0].strip()  # the line without its comment; a label keeps '#'
                    if stripped.split(maxsplit=1)[:1] == ["label"]:  # a blank label may have lost its space to strip
                        if not saw_header:
                            raise ParseError(f"expected {FORMAT_HEADER!r} before directives")
                        if label is not None:
                            raise ParseError("duplicate label directive")
                        label = raw.lstrip()[len("label "):]
                    elif not content:
                        pass
                    elif not saw_header:
                        if content != FORMAT_HEADER:
                            raise ParseError(f"expected header {FORMAT_HEADER!r}, got {content!r}")
                        saw_header = True
                    elif content == FORMAT_HEADER:
                        raise ParseError(f"duplicate header {FORMAT_HEADER!r}")
                    else:
                        fields = content.split()
                        word = fields[0]
                        if word in header:
                            if len(fields) != 2:
                                raise ParseError(f"{word} takes one integer")
                            value = _int_field(fields[1], word)
                            if header[word] is not None:
                                raise ParseError(f"duplicate {word} directive")
                            header[word] = value
                        elif word in _GATES:
                            if None in header.values():
                                raise ParseError("gate line before width/controls directives")
                            table.append(_parse_gate(fields, header["width"]))
                            code = known[raw] = len(table) - 1
                        else:
                            raise ParseError(f"unknown directive {word!r}")
                except ValueError as exc:  # a ParseError, or a gate's own check from _build_gate
                    raise ParseError(str(exc), gates + len(codes) + others + 1) from None
                if code is None:
                    others += 1
                    continue
            codes.append(code)
        parts.append(np.array(codes, dtype=np.intp))
        gates += len(codes)
    if not saw_header:
        raise ParseError("empty document: missing header")
    for word, value in header.items():
        if value is None:
            raise ParseError(f"missing {word} directive")
    codes_read = np.concatenate(parts)  # a document with a header has a chunk
    del parts  # so that building the circuit holds one copy of the codes
    return _circuit(header["width"], header["controls"], table, codes_read, label or "")


def serialize_json(circuit: Circuit) -> str:
    """The circuit as a format circuit v2 JSON document, on one line.

    The records are the circuit's gate table and the sequence its codes.
    """
    doc = json.dumps({
        "format": JSON_FORMAT,
        "width": circuit.width,
        "controls": circuit.n_controls,
        "label": circuit.label,
        "gates": list(map(_record, circuit.table)),
        "sequence": [],
    })
    # json.dumps writes a list of ints as their decimal forms joined by ", ":
    # splice the joined index strings into the trailing '[]}'.
    indices = [str(i) for i in range(len(circuit.table))]
    return doc[:-2] + ", ".join(gather(indices, circuit.codes)) + "]}\n"


def _json_int(value: object, what: str) -> int:
    # bool is a subclass of int, and true == 1 == 1.0: only an exact int passes.
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _record_gate(entry: object, width: int) -> Gate:
    if not isinstance(entry, dict):
        raise ParseError("malformed gate entry")
    name = entry.get("gate")
    if not isinstance(name, str) or name not in _GATES:
        raise ParseError(f"unknown gate {name!r}")
    fields = _GATES[name][1]
    required, others = _KEYS[name]
    if not entry.keys() >= required:
        raise ParseError(f"{name} takes {', '.join(fields)}; missing {', '.join(f for f in fields if f not in entry)}")
    if not others.isdisjoint(entry):  # another gate kind's field
        raise ParseError(f"{name} takes no {', '.join(f for f in _FIELDS if f in others and f in entry)}")
    return _build_gate(name, [_json_int(entry[f], f) for f in fields], width)


def _sequence_codes(doc: dict, size: int) -> np.ndarray:
    """A v2 document's "sequence" as codes into its table of `size` records."""
    if "sequence" not in doc:
        raise ParseError(f"{JSON_FORMAT} takes a sequence of gate indices; missing sequence")
    sequence = doc["sequence"]
    if not isinstance(sequence, list):
        raise ParseError("sequence must be a list of gate indices")
    # true and 1.0 would pass as 1, and -1 as a valid code: only exact ints
    # from 0 to size - 1 pass. codes stays None when an index is no int or
    # beyond intp; the loop then names the first index that fails.
    codes = None
    if set(map(type, sequence)) <= {int}:
        try:
            codes = np.array(sequence, dtype=np.intp)
        except OverflowError:
            pass
    if codes is None or codes.size and not 0 <= codes.min() <= codes.max() < size:
        for position, value in enumerate(sequence):
            try:
                if not 0 <= _json_int(value, "index") < size:
                    raise ParseError(f"index {value} out of range for {size} gate records")
            except ParseError as exc:
                raise ParseError(f"sequence {position}: {exc}") from None
    return codes


def parse_json(text: str) -> Circuit:
    """Parse a JSON circuit document of format circuit v2 or circuit v1.

    Each record of "gates" is checked once, in order and against the width,
    and an error in it names its index. A v1 document's gates are those
    records; a v2 document takes its gates from them through "sequence".
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, or a number of too many digits
        raise ParseError(f"invalid JSON: {exc}") from None
    version = doc.get("format") if isinstance(doc, dict) else None
    if version not in (JSON_FORMAT, FORMAT_HEADER):
        raise ParseError(f"expected a document with format {JSON_FORMAT!r} or {FORMAT_HEADER!r}")
    if "controls" not in doc or "width" not in doc:
        raise ParseError("missing width/controls")
    controls = _json_int(doc["controls"], "controls")
    width = _json_int(doc["width"], "width")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise ParseError(f"label must be a string, got {json.dumps(label)}")
    entries = doc.get("gates", [])
    if not isinstance(entries, list):
        raise ParseError("gates must be a list of gate records")
    table = []
    for index, entry in enumerate(entries):
        try:
            table.append(_record_gate(entry, width))
        except ValueError as exc:
            raise ParseError(f"gate {index}: {exc}") from None
    if version == JSON_FORMAT:
        codes = _sequence_codes(doc, len(table))
    else:
        codes = np.arange(len(table), dtype=np.intp)
    return _circuit(width, controls, table, codes, label)


def _undecodable(data: bytes, text_file: bool) -> ParseError:
    """The error of a file's first byte that is not UTF-8, naming its line and offset; in a text file a bad line before raises."""
    try:
        data.decode()  # a byte-order mark is UTF-8 too, so start is the offset in the file
    except UnicodeDecodeError as exc:
        at, reason = exc.start, exc.reason
    text, line = (data[:at] + b"x").decode("utf-8-sig"), 0  # "x" stands for the bad byte
    for chunk in _text_chunks(text):
        lines = chunk.splitlines()
        line += len(lines)
    try:  # the lines before its line, read as load_circuit reads them
        if text_file:
            _parse_chunks(_text_chunks(text[:len(text) - len(lines[-1])]))
    except ParseError as exc:
        if exc.line_no is not None:
            raise
    return ParseError(f"can't decode byte 0x{data[at]:02x} at byte offset {at}: {reason}", line)


def load_circuit(path: str | Path) -> Circuit:
    """Read a UTF-8 circuit file, with or without a byte-order mark, dispatching on the .json extension.

    The file is read in text mode, "\r\n" and "\r" reading as "\n". A
    text file is parsed as parse does, a chunk at a time from the open file,
    cut where parse cuts the text the file reads, so its lines are numbered
    as str.splitlines numbers them; a JSON file is read whole. A byte that
    is not UTF-8 is a ParseError naming its line and its offset in the
    file, unless a line of a text file before it is bad.
    """
    p = Path(path)
    try:
        with p.open(encoding="utf-8-sig") as file:
            return parse_json(file.read()) if p.suffix == ".json" else _parse_chunks(_file_chunks(file))
    except UnicodeDecodeError:  # read the file again, as bytes, to place the byte
        raise _undecodable(p.read_bytes(), p.suffix != ".json") from None


def _column(g: Gate, width: int) -> list[str]:
    """A gate's diagram column: one cell per line, each centred on its wire to the column's width."""
    if g.kind is _NOT:
        cells = {g.target: "[X]"}
    else:
        target = "⊕" if g.kind is _FEYNMAN else f"[V{g.kappa}{'' if g.direction == 1 else '†'}]"
        cells = dict.fromkeys(range(min(g.lines) + 1, max(g.lines)), "│") | {g.control: "●", g.target: target}
    cw = max(map(len, cells.values()))
    return [f"{cells.get(row, ''):─^{cw}}─" for row in range(1, width + 1)]


def render_ascii(circuit: Circuit) -> str:
    """Wire diagram, one row per line and one column per gate.

    Controls draw a dot, Feynman targets an xor circle, roots a [V<kappa>]
    box (dagger for the adjoint) and inverters an [X] box; wires crossed by
    a control span show a vertical bar.
    """
    if circuit.width > 26:
        raise ValueError(f"rendering supports at most 26 lines, got {circuit.width}")
    if len(circuit) > 65_536:  # n = 15's 65,533 gates: 6.0M characters, about 25 MB of peak RSS; 51 MB at n = 16
        raise ValueError(f"rendering supports at most 65,536 gates, got {len(circuit)}")
    labels = [f"c{i}" for i in range(1, circuit.n_controls + 1)] + ["t"]
    pad = max(len(s) for s in labels)
    columns = [_column(g, circuit.width) for g in circuit.table]
    rows = (gather([col[row] for col in columns], circuit.codes) for row in range(circuit.width))
    return "\n".join(f"{label:>{pad}} ─" + "".join(row) for label, row in zip(labels, rows))
