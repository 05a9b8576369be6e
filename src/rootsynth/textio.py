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
number in it must be a JSON integer. Its format is "circuit v3", the only
one read: "gates" is a table holding each distinct gate record once, in
order of first use, and "sequence" is one string of hex digits holding one
index into that table per gate, in circuit order. Each index is big-endian
and takes two digits a byte of the codes' dtype (see below) for the table's
size: two digits a gate for every generated circuit, four for a table
past 256 records. The reader takes hex digits of either case.

    {"format": "circuit v3", "width": 3, "controls": 2, "label": "",
     "gates": [{"gate": "cnot", "control": 1, "target": 2},
               {"gate": "not", "line": 3}],
     "sequence": "000100"}

A record may hold keys that are no gate's field, but not a field of
another gate kind. A generated circuit of about 2^(n+1) gates holds only
O(n^2) distinct ones, so the table keeps the document small.

serialize_json writes a circuit's two columns (see circuit.Circuit) as
they are, its codes in one tobytes().hex(); serialize and render_ascii
format each table entry once and gather the gate lines, or the diagram's
rows, over the codes; the CLI writes a text document a block of gates at a
time (see _text_pieces). Both readers decode the repeats at C speed. The
text reader (see parse) maps each chunk's lines to codes through one map
over a dict of the distinct raw gate lines, whose __missing__ checks a
line it has not seen; the JSON reader checks each record once, and decodes
the sequence in one bytes.fromhex pass (see _hex_codes). Text is read in
chunks by one rule, from a string or an open file: 64 K - 1 characters and
the rest of the line they end in.

Each gate's two forms are made once per process, not once per document:
its text line and its JSON record text are formatted on first use and
kept on the interned Gate, as simulate keeps _form on a Circuit, and the
writers gather them. Two maps with weak values take each kept form back to
its gate, so a reader finds the gate of a first-seen line or record that
is a live gate's own form with one lookup and then runs only the check that
depends on the document, its lines against the width; every other line or
record, and every error, takes the full path, which then keeps the forms
of the gate it built. A generated gate stays alive between documents,
since synth keeps its gate table, so only a process's first document over
a gate pays to format or parse it.

Both readers build their codes in the dtype the circuit keeps (see
circuit.Circuit): the smallest unsigned one that holds the last index
into the gate table read so far, one byte a gate for every generated
circuit, which uses at most 231 distinct gates; wider JSON codes are read
big-endian, and the circuit casts them. The text reader sizes each
chunk's codes to the table as it stands after that chunk, so a table that
grows past 256 gates widens the chunks from there on.
"""
from __future__ import annotations

import json
import re
import weakref
from operator import length_hint
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .circuit import _FEYNMAN, _NOT, Circuit, Gate, _code_dtype, check_lines, controlled_root, feynman, gather, not_gate

FORMAT_HEADER = "circuit v1"
JSON_FORMAT = "circuit v3"  # the format serialize_json writes, and the only one parse_json reads

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
_DIRECTION = re.compile(r"\+?1|-1")
# An optional sign and ASCII digits: int() would also take '1_0' and '١'.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_NOT_HEX = re.compile("[^0-9a-fA-F]")
# Per gate name: (field, attribute) pairs, the line's format and its words' pattern, a record's and others' keys.
_ATTRIBUTES = {name: [(f, "target" if f == "line" else f) for f in fields] for name, (_, fields) in _GATES.items()}
_LINES = {name: " ".join([name] + [f"{{{a}:+d}}" if f == "direction" else f"{{{a}}}" for f, a in pairs]) + "\n"
          for name, pairs in _ATTRIBUTES.items()}
_PATTERNS = {name: re.compile(" ".join([name] + [f"({(_DIRECTION if f == 'direction' else _INTEGER).pattern})"
                                                 for f, _ in pairs])) for name, pairs in _ATTRIBUTES.items()}
_KEYS = {name: (frozenset(fields), frozenset(_FIELDS) - set(fields)) for name, (_, fields) in _GATES.items()}
# The readers' keys of each gate that _line or _record_text has formatted: its text line without the "\n", and
# the items of its JSON record. Only a live gate's own forms are keys, and no entry outlives its gate.
_LINE_GATES: weakref.WeakValueDictionary[str, Gate] = weakref.WeakValueDictionary()
_RECORD_GATES: weakref.WeakValueDictionary[tuple, Gate] = weakref.WeakValueDictionary()
# The types of the values of a record that finds its gate: true and 1.0 equal 1 and hash alike, and are refused.
_EXACT = {int, str}


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


def _line(g: Gate) -> str:
    """g's text line, ending in "\n": formatted on first use and kept on g as _line, then a key of g."""
    form = vars(g)
    line = form.get("_line")
    if line is None:
        line = form["_line"] = _LINES[g.kind._value_].format_map(form)
        _LINE_GATES[line[:-1]] = g
    return line


def _record_text(g: Gate) -> str:
    """g's JSON record as json.dumps writes it: made on first use and kept on g as _record_text, then a key of g."""
    form = vars(g)
    text = form.get("_record_text")
    if text is None:
        record = _record(g)
        text = form["_record_text"] = json.dumps(record)
        _RECORD_GATES[tuple(record.items())] = g
    return text


def _directives(circuit: Circuit) -> str:
    """A text document's lines before its gates: the header, width, controls and any label."""
    label = f"label {circuit.label}\n" if circuit.label else ""
    return f"{FORMAT_HEADER}\nwidth {circuit.width}\ncontrols {circuit.n_controls}\n{label}"


def _table_lines(circuit: Circuit) -> list[str]:
    """The gate line of each entry of the circuit's table, in table order."""
    return list(map(_line, circuit.table))


def serialize(circuit: Circuit) -> str:
    """Render a circuit document, deterministic and ending in a newline, in one join led by the directives."""
    lines = gather(_table_lines(circuit), circuit.codes) or [""]
    lines[0] = _directives(circuit) + lines[0]
    return "".join(lines)


def _text_pieces(circuit: Circuit) -> Iterator[str]:
    """serialize's document for a writer, a piece at a time: the directives, then the lines of each 4,096 gates."""
    yield _directives(circuit)
    lines, codes = _table_lines(circuit), circuit.codes
    yield from ("".join(gather(lines, codes[at:at + 4096])) for at in range(0, len(codes), 4096))


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
            if f == "direction" and _DIRECTION.fullmatch(word) is None:
                raise ParseError(f"direction must be +1 or -1, got {word!r}") from None
            args.append(_int_field(word, f))
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
    lines are the document's. A chunk's lines are mapped to codes by one
    map over a dict's lookup (see _Reader): the first occurrence of each
    distinct raw gate line gets a code, the index of its gate in the table.
    If it is a live gate's own line, as serialize writes it, read after the
    header, width and controls, it finds its gate with one lookup and is
    checked against the width; any other goes through every check. A repeat
    of it, which can only follow the directives that made the first one
    valid, costs one lookup at C speed. Every other line is checked where it
    stands, so an error names its own line, counted by the lines the map
    has taken.
    """
    return _parse_chunks(_text_chunks(text))


class _Reader(dict):
    """parse's state: each distinct raw gate line read so far and its code, which a line it lacks gets from __missing__.

    Lines are read in order through __getitem__, so the first occurrence
    of a line is checked with the directives read before it: a live gate's
    own line, once width and controls are read, against the width alone
    (see parse), and any other line by _check. A gate line is stored with
    its code, the index of its gate in table; a directive, comment or blank
    line is never stored, so a repeat of it is checked again where it
    stands. It reads as code 0, and its place in its chunk goes to skipped,
    so that the chunk's codes are packed at C speed and then drop it.
    """

    __slots__ = ("header", "label", "table", "read", "rest", "skipped", "saw_header")  # quicker for __missing__

    def __init__(self) -> None:
        super().__init__()
        self.header: dict[str, int | None] = {"width": None, "controls": None}
        self.label: str | None = None
        self.table: list[Gate] = []  # the gate of each distinct gate line
        self.read = 0  # lines read so far, before the chunk being read
        self.rest: Iterator[str] = iter(())  # the lines of the chunk being read that are not read yet
        self.skipped: list[int] = []  # the chunk's lines read so far that hold no gate, indexed from its end
        self.saw_header = False

    def __missing__(self, raw: str) -> int:
        g, header = _LINE_GATES.get(raw), self.header
        if g is not None and None not in header.values():  # a live gate's own line, once the directives are read
            check_lines(g, header["width"])
        elif (g := self._check(raw)) is None:
            self.skipped.append(~length_hint(self.rest))  # -1 - the lines after this one
            return 0
        self.table.append(g)
        code = self[raw] = len(self.table) - 1
        return code

    def _check(self, raw: str) -> Gate | None:
        """Read a line by every check, with the directives read before it: its gate, or None for a line with none."""
        stripped = raw.strip()
        content = stripped.split("#", 1)[0].strip()  # the line without its comment; a label keeps '#'
        if stripped.split(maxsplit=1)[:1] == ["label"]:  # a blank label may have lost its space to strip
            if not self.saw_header:
                raise ParseError(f"expected {FORMAT_HEADER!r} before directives")
            if self.label is not None:
                raise ParseError("duplicate label directive")
            self.label = raw.lstrip()[len("label "):]
        elif not content:
            pass
        elif not self.saw_header:
            if content != FORMAT_HEADER:
                raise ParseError(f"expected header {FORMAT_HEADER!r}, got {content!r}")
            self.saw_header = True
        elif content == FORMAT_HEADER:
            raise ParseError(f"duplicate header {FORMAT_HEADER!r}")
        else:
            fields = content.split()
            word, header = fields[0], self.header
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
                g = _parse_gate(fields, header["width"])
                _line(g)  # so that the gate's own line finds it from now on
                return g
            else:
                raise ParseError(f"unknown directive {word!r}")
        return None

    def codes(self, lines: list[str]) -> np.ndarray:
        """The codes of the gate lines among `lines`, the next lines of the document, in the table's dtype."""
        self.rest = it = iter(lines)
        try:
            codes = list(map(self.__getitem__, it))  # one per line: a code, or 0 for a line with no gate
        except ValueError as exc:  # a ParseError, or a gate's own check from _build_gate
            raise ParseError(str(exc), self.read + len(lines) - length_hint(it)) from None
        self.read += len(lines)
        size = len(self.table)  # bytes() packs codes below 256 at C speed, at a third of np.array's cost
        packed = np.frombuffer(bytes(codes), np.uint8) if size <= 256 else np.array(codes, _code_dtype(size))
        skipped, self.skipped = self.skipped, []
        return np.delete(packed, skipped) if skipped else packed


def _parse_chunks(chunks: Iterable[str]) -> Circuit:
    """parse over a document given as chunks that each end with a whole line."""
    reader = _Reader()
    # The maps drop each chunk once it is split, and its lines once they are read, before the next chunk is split.
    parts = list(map(reader.codes, map(str.splitlines, chunks)))
    if not reader.saw_header:
        raise ParseError("empty document: missing header")
    header = reader.header
    for word, value in header.items():
        if value is None:
            raise ParseError(f"missing {word} directive")
    codes = np.concatenate(parts)  # a document with a header has a chunk
    del parts  # so that building the circuit holds one copy of the codes
    return _circuit(header["width"], header["controls"], reader.table, codes, reader.label or "")


def serialize_json(circuit: Circuit) -> str:
    """The circuit as a format circuit v3 JSON document, on one line.

    The records are the circuit's gate table, each entry's kept record text
    (see _record_text) joined into the dumped header's empty "gates" list,
    and the sequence its codes as one string of hex digits, each code
    big-endian in its dtype's width. The digits need no JSON escape, so
    they are joined after the header as they are, which spares the quoted
    copy json.dumps makes.
    """
    codes = circuit.codes
    header = json.dumps({
        "format": JSON_FORMAT,
        "width": circuit.width,
        "controls": circuit.n_controls,
        "label": circuit.label,
        "gates": [],
    })
    records = ", ".join(map(_record_text, circuit.table))  # json.dumps's item separator
    sequence = codes.astype(codes.dtype.newbyteorder(">"), copy=False).tobytes().hex()
    return f'{header[:-2]}{records}], "sequence": "{sequence}"}}\n'


def _json_int(value: object, what: str) -> int:
    # bool is a subclass of int, and true == 1 == 1.0: only an exact int passes.
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _record_gate(entry: object, width: int) -> Gate:
    if not isinstance(entry, dict):
        raise ParseError("malformed gate entry")
    try:
        g = _RECORD_GATES.get(tuple(entry.items()))
    except TypeError:  # an unhashable value, which no gate's own record holds
        g = None
    if g is not None and _EXACT.issuperset(map(type, entry.values())):  # a live gate's own record
        check_lines(g, width)
        return g
    name = entry.get("gate")
    if not isinstance(name, str) or name not in _GATES:
        raise ParseError(f"unknown gate {name!r}")
    fields = _GATES[name][1]
    required, others = _KEYS[name]
    if not entry.keys() >= required:
        raise ParseError(f"{name} takes {', '.join(fields)}; missing {', '.join(f for f in fields if f not in entry)}")
    if not others.isdisjoint(entry):  # another gate kind's field
        raise ParseError(f"{name} takes no {', '.join(f for f in _FIELDS if f in others and f in entry)}")
    g = _build_gate(name, [_json_int(entry[f], f) for f in fields], width)
    _record_text(g)  # so that the gate's own record finds it from now on
    return g


def _hex_codes(sequence: object, size: int) -> np.ndarray:
    """A document's "sequence", one string of hex digits, as codes into its table of `size` records.

    Each code is big-endian in 2 digits a byte of its _code_dtype. One
    bytes.fromhex pass decodes the string, which holds nothing else:
    fromhex skips whitespace, so a string of twice the decoded length is
    all hex digits. One max finds a code out of range, and argmax names
    the first.
    """
    if not isinstance(sequence, str):
        raise ParseError("sequence must be a string of hex digits")
    dtype = _code_dtype(size)
    try:
        raw = bytes.fromhex(sequence)
    except ValueError:  # a character that is no hex digit, or an odd count of digits
        raw = b""
    if 2 * len(raw) != len(sequence) and (bad := _NOT_HEX.search(sequence)):
        raise ParseError(f"sequence: non-hex character {bad[0]!r} at digit {bad.start()}")
    if len(sequence) % (2 * dtype.itemsize):
        raise ParseError(f"sequence has {len(sequence)} hex digits, not a whole number of "
                         f"{2 * dtype.itemsize}-digit codes for {size} gate records")
    codes = np.frombuffer(raw, dtype.newbyteorder(">"))
    if codes.size and codes.max() >= size:
        position = int(np.argmax(codes >= size))
        raise ParseError(f"sequence {position}: index {codes[position]} out of range for {size} gate records")
    return codes


def parse_json(text: str) -> Circuit:
    """Parse a JSON circuit document of format circuit v3, naming the format of any other.

    Each record of "gates" is checked once, in order and against the width,
    and an error in it names its index: a live gate's own record, whose
    values are all exact ints and strings, finds its gate with one lookup
    and is checked against the width, and every other record goes through
    every check. "sequence" maps the records to the gates (see _hex_codes).
    Like json.loads, it also reads a document given as bytes in UTF-8,
    UTF-16 or UTF-32.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, or a number of too many digits
        raise ParseError(f"invalid JSON: {exc}") from None
    version = doc.get("format") if isinstance(doc, dict) else None
    if version != JSON_FORMAT:
        raise ParseError(f"expected a document with format {JSON_FORMAT!r}, got format {version!r}")
    if "controls" not in doc or "width" not in doc:
        raise ParseError("missing width/controls")
    controls, width = _json_int(doc["controls"], "controls"), _json_int(doc["width"], "width")
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
    if "sequence" not in doc:
        raise ParseError(f"{JSON_FORMAT} takes a sequence of gate indices; missing sequence")
    return _circuit(width, controls, table, _hex_codes(doc["sequence"], len(table)), label)


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
