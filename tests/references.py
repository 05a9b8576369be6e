"""Reference permutations and matrices that the tests compare circuits with.

reference_spec_output states each gate family's output bit by bit from its
definition, apart from src's verify._outputs, and oracle_permutation
tabulates it as a permutation of basis-state indices; permutation_matrix
turns a permutation into the 0/1 unitary the dense executor should produce,
and dense_matches compares the two. reference_check_equivalence is
check_equivalence's per-input loop, one reference_spec_output call per
input, as its reference. text_document and json_document write a circuit's
file formats gate by gate from its gate tuple, as the writers' reference,
and diagram draws render_ascii's wire diagram one column per gate.
reference_slots builds synth._slots's arrays one block of slots per line,
and reference_ladder the converters' Feynman ladder gate by gate.
reference_index_to_bits and reference_bits_to_index pack and unpack bits
with their own loops, apart from src's bits helpers, which the executors use;
activation_indices packs a set of control vectors as activation_set lists them.
reference_parse and reference_parse_json read the two file formats from the
rules in textio's docstring, one line or one record at a time, and name
where a bad document first goes wrong; reading is a circuit as they return it.
not_conjugated_toffoli and split_root_toffoli build Toffoli gates the
generators do not: polarity set by NOT gates, and a root split in two.
"""
import json
import re

import numpy as np

from rootsynth.bits import Bits, as_bits
from rootsynth.circuit import Circuit, GateKind, controlled_root, feynman, not_gate
from rootsynth.simulate import _check_controls, dense_unitary, exponent_simulate
from rootsynth.synth import _OR_GATE, synth_toffoli
from rootsynth.verify import EquivalenceReport, GateFamilySpec


def reference_index_to_bits(index: int, width: int) -> Bits:
    """index as `width` bits, first bit most significant, one shift per bit."""
    return tuple((index >> (width - 1 - i)) & 1 for i in range(width))


def reference_bits_to_index(bits) -> int:
    """A bit vector as an index, first bit most significant, one shift per bit."""
    index = 0
    for b in bits:
        index = (index << 1) | b
    return index


def activation_indices(vectors) -> list[int]:
    """The control vectors as activation_set returns them: ascending indices, first bit most significant."""
    return sorted(map(reference_bits_to_index, vectors))


def reference_spec_output(spec: GateFamilySpec, input_bits) -> Bits:
    """Defined output of the family on one basis input (controls then target)."""
    bits = as_bits(input_bits, length=spec.n + 1)
    c, t = bits[: spec.n], bits[spec.n]
    if spec.family == "toffoli":
        out = list(c)
    else:
        out = []
        p = 0
        for b in c:
            p ^= b
            out.append(p)
    if spec.activation is not None:  # peres, toffoli
        fire = 1 if c == spec.activation else 0
    elif spec.family == _OR_GATE:
        fire = 1 if any(c) else 0
    else:
        fire = 0 if any(c) else 1
    return tuple(out) + (t ^ fire,)


def oracle_permutation(spec: GateFamilySpec) -> tuple[int, ...]:
    """reference_spec_output as a permutation of basis-state indices."""
    w = spec.n + 1
    return tuple(
        reference_bits_to_index(reference_spec_output(spec, reference_index_to_bits(x, w))) for x in range(1 << w)
    )


def permutation_matrix(perm) -> np.ndarray:
    """0/1 matrix sending basis column x to row perm[x]."""
    dim = len(perm)
    m = np.zeros((dim, dim))
    for x, y in enumerate(perm):
        m[y, x] = 1.0
    return m


def dense_matches(circuit, perm) -> bool:
    """Whether the dense executor gives exactly the permutation matrix of perm."""
    return np.allclose(dense_unitary(circuit), permutation_matrix(perm), rtol=0, atol=1e-9)


def reference_check_equivalence(circuit, spec: GateFamilySpec) -> EquivalenceReport:
    """check_equivalence input by input: reference_index_to_bits, exponent_simulate, reference_spec_output."""
    if circuit.n_controls != spec.n:
        raise ValueError(f"control count mismatch: circuit {circuit.n_controls}, spec {spec.n}")
    _check_controls(spec.n)
    w = circuit.width
    space = 1 << w
    for x in range(space):
        bits = reference_index_to_bits(x, w)
        actual = exponent_simulate(circuit, bits)
        expected = reference_spec_output(spec, bits)
        if actual != expected:
            return EquivalenceReport(False, x + 1, bits, expected, actual)
    return EquivalenceReport(True, space)


def _record(g) -> dict:
    """A gate's JSON record: its name, then its fields in argument order."""
    if g.kind is GateKind.FEYNMAN:
        return {"gate": "cnot", "control": g.control, "target": g.target}
    if g.kind is GateKind.ROOT:
        return {"gate": "croot", "kappa": g.kappa, "direction": g.direction, "control": g.control, "target": g.target}
    return {"gate": "not", "line": g.target}


def _line(g) -> str:
    """A gate's text line: its record's values, the direction signed."""
    record = _record(g)
    return " ".join(f"{v:+d}" if f == "direction" else str(v) for f, v in record.items())


def text_document(circuit) -> str:
    """The text format, one line per gate of circuit.gates."""
    lines = ["circuit v1", f"width {circuit.width}", f"controls {circuit.n_controls}"]
    if circuit.label:
        lines.append(f"label {circuit.label}")
    lines += [_line(g) for g in circuit.gates]
    return "\n".join(lines) + "\n"


def _numbered(circuit) -> tuple[dict, list]:
    """Each distinct gate of circuit.gates numbered at its first use, and the gates' numbers in circuit order."""
    records: dict = {}
    return records, [records.setdefault(g, len(records)) for g in circuit.gates]


def code_digits(size: int) -> int:
    """Hex digits a code into a table of `size` records: two per byte of the fewest bytes that hold size - 1."""
    return 2 * next(k for k in (1, 2, 4, 8) if size <= 1 << 8 * k)


def json_document(circuit) -> str:
    """The circuit v3 JSON document, one hex code per gate, numbering each gate's record at its first use."""
    records, sequence = _numbered(circuit)
    digits = code_digits(len(records))
    return json.dumps({
        "format": "circuit v3",
        "width": circuit.width,
        "controls": circuit.n_controls,
        "label": circuit.label,
        "gates": [_record(g) for g in records],
        "sequence": "".join(format(code, f"0{digits}x") for code in sequence),
    }) + "\n"


def diagram(circuit) -> str:
    """render_ascii gate by gate: a column of cells for each gate of circuit.gates."""
    labels = [f"c{i}" for i in range(1, circuit.n_controls + 1)] + ["t"]
    pad = max(len(s) for s in labels)
    columns = []
    for g in circuit.gates:
        col = {}
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


def reference_slots(n: int, gray: bool) -> tuple[np.ndarray, np.ndarray]:
    """synth._slots block by block: the slots driven by line b, k = 2^(b-1)..2^b-1, in turn.

    A block is the first slot's Feynman gate, if it has one, then its root,
    then a (Feynman gate from line tz(k) + 1, root) pair for each later k.
    """
    size = (2 << n) - 3 if gray else (2 << n) - n - 2
    codes, alphas = np.empty(size, dtype=np.int16), np.empty(size, dtype=np.int32)
    at = 0
    for b in range(1, n + 1):
        k = np.arange(1 << (b - 1), 1 << b, dtype=np.int32)
        alpha = k ^ (k >> 1) if gray else k
        j = np.bitwise_count(k ^ (k - 1)).astype(codes.dtype)  # tz(k) + 1, which is b only at k[0]
        if gray and b > 1:  # k[0]'s Feynman gate, from line b - 1
            codes[at], alphas[at] = b * b + b - 1, 0
            at += 1
        codes[at], alphas[at] = b * (b - 1), alpha[0]
        rest = slice(at + 1, at + 2 * k.size - 1)
        codes[rest][::2], codes[rest][1::2] = b * b + j[1:], b * (b - 1)
        alphas[rest][::2], alphas[rest][1::2] = 0, alpha[1:]
        at = rest.stop
    return codes, alphas


def reference_ladder(n: int, upward: bool) -> tuple:
    """The Feynman ladder as first written: feynman(i, i + 1) for i = 1..n-1 upward, for i = n-1..1 otherwise."""
    return tuple(feynman(i, i + 1) for i in (range(1, n) if upward else range(n - 1, 0, -1)))


# Every line boundary str.splitlines honours, as the Python documentation lists them; \r\n is one.
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
_FIELDS = {"cnot": ("control", "target"), "croot": ("kappa", "direction", "control", "target"), "not": ("line",)}


def reading(circuit) -> tuple:
    """(width, controls, label, gates), each gate its name and fields in argument order, as the readers below give."""
    return circuit.width, circuit.n_controls, circuit.label, tuple(tuple(_record(g).values()) for g in circuit.gates)


def _number(word: str):
    """An optional sign and ASCII digits as an int; None for any other word, or one past int()'s digit limit."""
    digits = word[1:] if word[:1] in ("+", "-") else word
    if not digits or any(ch not in "0123456789" for ch in digits):
        return None
    try:
        return int(word)
    except ValueError:
        return None


def _gate(name: str, values: list, width: int):
    """The gate (name, *values), or None when a line leaves 1..width, two lines coincide or a root is malformed."""
    fields = dict(zip(_FIELDS[name], values))
    lines = [fields[f] for f in ("control", "target", "line") if f in fields]
    if not all(1 <= line <= width for line in lines) or len(set(lines)) < len(lines):
        return None
    if name == "croot" and (fields["kappa"] < 1 or fields["kappa"] & (fields["kappa"] - 1)
                            or fields["direction"] not in (1, -1)):
        return None
    return (name, *values)


def _document(width: int, controls: int, label: str, gates: list):
    """A read document, or None when its width is not controls + 1 or its label spans lines."""
    if controls < 1 or width != controls + 1 or _LINE_BREAK.search(label):
        return None
    return width, controls, label if label.strip() else "", tuple(gates)


def reference_parse(text: str):
    """textio.parse one line at a time: (width, controls, label, gates) as reading gives.

    A bad document gives the 1-based number of its first bad line, or None
    when no one line is bad: a missing header or directive, or a width that
    is not controls + 1.
    """
    pieces = _LINE_BREAK.split(text)
    lines = pieces[:-1] if pieces[-1] == "" else pieces  # a break that ends the text starts no line
    header, directives, label, gates = False, {}, None, []
    for number, line in enumerate(lines, 1):
        if line.split()[:1] == ["label"]:  # the label is verbatim after "label" and one more character
            if not header or label is not None:
                return number
            label = line.lstrip()[len("label") + 1:]
            continue
        content = line.split("#", 1)[0].strip()
        if not content:
            continue
        if not header:
            if content != "circuit v1":
                return number
            header = True
            continue
        if content == "circuit v1":
            return number
        word, *words = content.split()
        if word in ("width", "controls"):
            if len(words) != 1 or word in directives or _number(words[0]) is None:
                return number
            directives[word] = _number(words[0])
        elif word in _FIELDS and len(directives) == 2 and len(words) == len(_FIELDS[word]):
            values = [{"+1": 1, "1": 1, "-1": -1}.get(w) if f == "direction" else _number(w)
                      for f, w in zip(_FIELDS[word], words)]
            gate = None if None in values else _gate(word, values, directives["width"])
            if gate is None:
                return number
            gates.append(gate)
        else:
            return number
    if not header or len(directives) < 2:
        return None
    return _document(directives["width"], directives["controls"], label or "", gates)


def _json_gate(record, width: int):
    """A JSON gate record's gate, or None: it names its gate and holds that gate's fields as ints and no other's."""
    name = record.get("gate") if isinstance(record, dict) else None
    if not isinstance(name, str) or name not in _FIELDS:
        return None
    fields = _FIELDS[name]
    stray = {f for other in _FIELDS.values() for f in other} - set(fields)
    if not all(f in record and type(record[f]) is int for f in fields) or stray.intersection(record):
        return None
    return _gate(name, [record[f] for f in fields], width)


def _hex_sequence(sequence, size: int):
    """A v3 sequence's indices into `size` records, two hex digits a byte, or where it first goes wrong.

    That is ("digit", i) for its first character that is no hex digit,
    ("sequence", i) for its first index out of range, or None for a
    sequence that is not a string or whose digits make no whole codes.
    """
    if type(sequence) is not str:
        return None
    for i, ch in enumerate(sequence):
        if ch not in "0123456789abcdefABCDEF":
            return "digit", i
    digits = code_digits(size)
    if len(sequence) % digits:
        return None
    indices = [int(sequence[at:at + digits], 16) for at in range(0, len(sequence), digits)]
    for i, index in enumerate(indices):
        if index >= size:
            return "sequence", i
    return indices


def reference_parse_json(text: str):
    """textio.parse_json over json.loads: (width, controls, label, gates) as reading gives.

    A bad document gives ("gate", i) for its first bad record, ("sequence",
    i) for the first bad index of its sequence, ("digit", i) for the first
    character of its sequence that is no hex digit, or None when no one
    record, index or digit is bad, as for a format other than circuit v3.
    Records are read before the sequence, and both before the width is
    compared with the controls.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict) or doc.get("format") != "circuit v3":
        return None
    width, controls = doc.get("width"), doc.get("controls")
    label, records = doc.get("label", ""), doc.get("gates", [])
    if type(width) is not int or type(controls) is not int or type(label) is not str or type(records) is not list:
        return None
    gates = []
    for i, record in enumerate(records):
        gate = _json_gate(record, width)
        if gate is None:
            return "gate", i
        gates.append(gate)
    sequence = _hex_sequence(doc.get("sequence"), len(gates))
    if type(sequence) is not list:
        return sequence
    return _document(width, controls, label, [gates[index] for index in sequence])


def not_conjugated_toffoli(n: int, activation) -> Circuit:
    """synth_toffoli(n) between two NOT gates on each control line whose bit of the activation is 0.

    The textbook way to set a Toffoli gate's polarity, which the paper's
    circuits replace by the directions of their roots.
    """
    nots = tuple(not_gate(line) for line, bit in enumerate(activation, 1) if not bit)
    return Circuit(n, nots + synth_toffoli(n).gates + nots)


def split_root_toffoli() -> Circuit:
    """synth_toffoli(2) with its last root, an adjoint square root, split into two adjoint fourth roots."""
    gates = list(synth_toffoli(2).gates)
    assert gates[3] == controlled_root(2, -1, 2, 3)
    gates[3:4] = [controlled_root(4, -1, 2, 3)] * 2
    return Circuit(2, gates)
