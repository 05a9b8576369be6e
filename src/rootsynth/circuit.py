"""Gate and circuit values.

A circuit runs over ``n_controls + 1`` lines: control lines 1..n carry the
binary control signals, line n+1 is the single target line. Three elementary
gate kinds are supported, each with quantum cost 1:

    - Feynman (CNOT): adds the control bit mod 2 onto the target line
    - ControlledRoot: the kappa-th root of NOT (direction +1) or its
      adjoint (direction -1), applied to the target when the control is 1
    - Not: an unconditional inverter on one line

Circuits are immutable values; every operation returns a new circuit. Two
circuits are equal when they have the same width and gate sequence (the
free-text label is presentation metadata and excluded from comparison; a
label of only whitespace is stored as the empty label). A control count is
checked in one place, control_count, which Circuit, GateFamilySpec and every
generator call.

Gates are hash-consed (Filliatre and Conchon, "Type-Safe Modular
Hash-Consing", 2006), so comparing and hashing them is by identity, at C
speed. A circuit stores its gates as two columns, by dictionary encoding
as in column stores (Abadi, Madden and Ferreira, "Integrating compression
and execution in column-oriented database systems", SIGMOD 2006): table,
each distinct gate once in order of first use, and codes, one index into
table per gate in a read-only numpy array. A circuit of 2^(n+1) gates
holds only O(n^2) distinct ones, so validation, census, adjoint, the
writers and the executors work once per table entry and then in numpy over
the codes. The gate tuple is built only when asked for.

The codes take the smallest unsigned dtype that holds the last code of the
canonical table, as column stores size a dictionary's codes to it: uint8 up
to 256 distinct gates, uint16 up to 65,536. A generated circuit over n
controls uses at most n(n-1)/2 + 2n + 1 distinct gates, 231 at MAX_N, so
its codes take one byte a gate. Under numpy 2 a uint8 array plus a Python
int stays uint8 and wraps, so every operation that adds to codes first
casts them to the dtype of the table it builds (_code_dtype).
"""
from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from enum import Enum
from operator import index as _index
from typing import Iterator, Sequence, TypeVar

import numpy as np

_T = TypeVar("_T")


class GateKind(Enum):
    FEYNMAN = "cnot"
    ROOT = "croot"
    NOT = "not"


_FEYNMAN, _ROOT, _NOT = GateKind.FEYNMAN, GateKind.ROOT, GateKind.NOT  # GateKind.X is a lookup in Python


def control_count(n: object) -> int:
    """n as an int: True and numpy integers pass; 2.0, "2" and counts below 1 do not."""
    try:
        count = _index(n)
    except TypeError:
        raise ValueError(f"control count must be an integer, got {n!r}") from None
    if count < 1:
        raise ValueError(f"need n >= 1, got {count}")
    return count


def check_kappa(kappa: int) -> None:
    """Raise ValueError unless kappa, a root's order, is a power of two >= 1."""
    if kappa < 1 or kappa & (kappa - 1):
        raise ValueError(f"kappa must be a power of two >= 1, got {kappa}")


# The one live Gate of each value, under its fields; a Gate enters once its checks pass.
_interned: weakref.WeakValueDictionary[tuple, "Gate"] = weakref.WeakValueDictionary()
_intern_lock = threading.Lock()


# init=False: __new__ sets the fields, and object.__init__ ignores the arguments.
@dataclass(frozen=True, eq=False, init=False)
class Gate:
    """One elementary gate; build via feynman(), controlled_root(), not_gate().

    Each gate value has one object, so equality is identity; Gate(...),
    dataclasses.replace, copy and pickle all return that object. Its lines,
    (control, target) or (target,), are stored as `lines` when it is interned.
    """

    kind: GateKind
    target: int
    control: int | None = None
    kappa: int = 1
    direction: int = 1

    def __new__(cls, kind: GateKind, target: int, control: int | None = None,
                kappa: int = 1, direction: int = 1) -> "Gate":
        if not isinstance(kind, GateKind):
            raise ValueError(f"kind must be a GateKind, got {kind!r}")
        try:  # True and numpy integers are stored as int; 1.0 and "1" are refused
            target, kappa, direction = _index(target), _index(kappa), _index(direction)
            control = None if control is None else _index(control)
        except TypeError:
            fields = f"target {target!r}, control {control!r}, kappa {kappa!r}, direction {direction!r}"
            raise ValueError(f"gate fields must be integers, got {fields}") from None
        key = (kind._value_, target, control, kappa, direction)  # a str hashes in C, a GateKind in Python
        g = _interned.get(key)
        if g is not None:  # its checks passed when it entered
            return g
        if target < 1:
            raise ValueError(f"target line {target} must be >= 1")
        if kind is _NOT and control is not None:
            raise ValueError("a NOT gate acts on a single line")
        if kind is not _NOT and (control is None or control < 1):
            raise ValueError(f"control line {control} must be >= 1")
        if control == target:
            raise ValueError(f"control and target coincide on line {target}")
        if kind is _ROOT:
            check_kappa(kappa)
            if direction not in (1, -1):
                raise ValueError(f"direction must be +1 or -1, got {direction}")
        elif kappa != 1 or direction != 1:
            raise ValueError(f"kappa/direction only apply to {_ROOT}")
        new = object.__new__(cls)
        vars(new).update(kind=kind, target=target, control=control, kappa=kappa, direction=direction,
                         lines=(target,) if control is None else (control, target))
        with _intern_lock:
            return _interned.setdefault(key, new)

    def __reduce__(self) -> tuple:
        return Gate, (self.kind, self.target, self.control, self.kappa, self.direction)

    def adjoint(self) -> "Gate":
        """Inverse gate: roots flip direction, Feynman and NOT are involutions."""
        if self.kind is _ROOT:
            return Gate(_ROOT, self.target, self.control, self.kappa, -self.direction)
        return self


def feynman(control: int, target: int) -> Gate:
    return Gate(_FEYNMAN, target, control)


def controlled_root(kappa: int, direction: int, control: int, target: int) -> Gate:
    return Gate(_ROOT, target, control, kappa, direction)


def not_gate(line: int) -> Gate:
    return Gate(_NOT, line)


def check_lines(g: Gate, width: int) -> None:
    """Raise ValueError unless every line of g lies in 1..width."""
    for line in g.lines:
        if not 1 <= line <= width:
            raise ValueError(f"line {line} out of range for width {width}")


# Codes Circuit.census counts at a time: bincount's intp copy of a block is 256 KiB.
_CENSUS_BLOCK = 1 << 15


def _code_dtype(size: int) -> np.dtype:
    """The dtype of the codes into a table of `size` gates: the smallest unsigned one that holds size - 1."""
    return np.min_scalar_type(max(size - 1, 0))


def gather(values: Sequence[_T], codes: np.ndarray) -> list[_T]:
    """[values[k] for k in codes], in one numpy gather: values holds one entry per table entry.

    take casts narrow codes to intp in one pass, where indexing casts them
    a buffer at a time at up to three times the cost; the intp copy is
    freed before the list is built, which is as large.
    """
    return np.fromiter(values, dtype=object, count=len(values)).take(codes).tolist()


@dataclass(frozen=True)
class GateCensus:
    """Per-kind gate counts of a circuit."""

    feynman_count: int = 0
    root_count: int = 0
    adjoint_count: int = 0
    not_count: int = 0

    @property
    def controlled_count(self) -> int:
        return self.root_count + self.adjoint_count

    @property
    def total(self) -> int:
        return self.feynman_count + self.root_count + self.adjoint_count + self.not_count


# init=False: __init__ encodes the gates into columns, and __post_init__
# checks and normalises them. The gates field is the property below, which
# decodes them, so dataclasses.replace reads it and passes it back.
@dataclass(frozen=True, eq=False, init=False)
class Circuit:
    """An ordered gate sequence over n_controls + 1 lines, stored as columns.

    table holds each distinct gate once, in order of first use, and codes
    is a read-only numpy array of one index into table per gate, in the
    smallest unsigned dtype that holds len(table) - 1 (uint8 for every
    generated circuit). The form, dtype included, is canonical, so equality
    and hashing read the columns. simulate keeps a circuit's compiled
    linear form on the instance as _form, which is not a field: equality,
    hashing, repr, replace, copy and pickle ignore it.
    """

    n_controls: int
    gates: tuple[Gate, ...]
    label: str = ""

    def __init__(self, n_controls: int, gates: Sequence[Gate] = (), label: str = "") -> None:
        try:
            gates = tuple(gates)
        except TypeError:
            raise ValueError(f"gates must be a sequence of Gate, got {gates!r}") from None
        try:
            table = tuple(dict.fromkeys(gates))
            index = {g: i for i, g in enumerate(table)}
            codes = np.fromiter(map(index.__getitem__, gates), _code_dtype(len(table)), len(gates))
        except TypeError:  # an unhashable entry, which no Gate is: validation names it
            table, codes = gates, np.arange(len(gates), dtype=np.intp)
        self._set(n_controls, table, codes, label)

    @classmethod
    def _of_codes(cls, n_controls: int, table: Sequence[Gate], codes: np.ndarray, label: str = "") -> "Circuit":
        """The circuit whose gate i is table[codes[i]]; the table may repeat a gate or leave one unused."""
        circuit = object.__new__(cls)
        circuit._set(n_controls, tuple(table), codes, label)
        return circuit

    def __reduce__(self) -> tuple:
        return self._of_codes, (self.n_controls, self.table, self.codes, self.label)

    def _set(self, n_controls: int, table: tuple, codes: np.ndarray, label: str) -> None:
        for name, value in (("n_controls", n_controls), ("table", table), ("codes", codes), ("label", label)):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields and each gate used, then put the columns in canonical form.

        The table may repeat a gate or hold one that no code uses. Each used
        entry is checked once, in order of first use, so the first bad gate
        in circuit order raises; the canonical table holds each used gate
        once, in that order, and the codes take its _code_dtype.
        """
        object.__setattr__(self, "n_controls", control_count(self.n_controls))
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        if self.label and self.label.splitlines() != [self.label]:
            raise ValueError(f"label must be a single line, got {self.label!r}")
        if not self.label.strip():
            # One rule for both file formats: text has no line for a blank label.
            object.__setattr__(self, "label", "")
        table, codes, size, width = self.table, self.codes, self.codes.size, self.width
        if size and not 0 <= codes.min() <= codes.max() < len(table):
            position = int(np.flatnonzero((codes < 0) | (codes >= len(table)))[0])
            raise ValueError(f"gate {position} has code {codes[position]}, out of range for {len(table)} gates")
        first = np.full(len(table), size, dtype=np.intp)
        np.minimum.at(first, codes, np.arange(size))
        index: dict[Gate, int] = {}  # each used gate's canonical code
        lookup = [0] * len(table)  # each table entry's canonical code
        for position, i in sorted((at, i) for i, at in enumerate(first.tolist()) if at < size):
            g = table[i]
            if not isinstance(g, Gate):
                raise ValueError(f"gate {position} is {g!r}, not a Gate")
            check_lines(g, width)
            lookup[i] = index.setdefault(g, len(index))
        dtype = _code_dtype(len(index))
        codes = codes.astype(dtype) if lookup == [*range(len(table))] else np.array(lookup, dtype=dtype)[codes]
        codes.flags.writeable = False
        object.__setattr__(self, "table", tuple(index))
        object.__setattr__(self, "codes", codes)

    @property  # the gates field
    def gates(self) -> tuple[Gate, ...]:
        """The gate sequence, built from the columns on each call."""
        return tuple(gather(self.table, self.codes))

    @property
    def width(self) -> int:
        return self.n_controls + 1

    @property
    def target_line(self) -> int:
        return self.width

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Gate]:
        return iter(gather(self.table, self.codes))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n_controls, self.table) == (other.n_controls, other.table) and np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        return hash((self.n_controls, self.table, self.codes.tobytes()))

    @property
    def quantum_cost(self) -> int:
        """Total gate count; every elementary gate costs 1."""
        return len(self.codes)

    def append(self, g: Gate) -> "Circuit":
        """New circuit with g appended."""
        codes = np.empty(len(self.codes) + 1, _code_dtype(len(self.table) + 1))
        codes[:-1], codes[-1] = self.codes, len(self.table)
        return self._of_codes(self.n_controls, self.table + (g,), codes, self.label)

    def compose(self, other: "Circuit") -> "Circuit":
        """Concatenate gate sequences; widths must agree. Keeps this label."""
        if not isinstance(other, Circuit):
            raise ValueError(f"{other!r} is not a Circuit")
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        codes = np.concatenate((self.codes, other.codes), dtype=_code_dtype(len(self.table) + len(other.table)))
        codes[len(self.codes):] += len(self.table)
        return self._of_codes(self.n_controls, self.table + other.table, codes, self.label)

    def adjoint(self) -> "Circuit":
        """Inverse circuit: gates reversed, each root direction negated."""
        table = tuple(g.adjoint() for g in self.table)
        return self._of_codes(self.n_controls, table, self.codes[::-1], self.label)

    def census(self) -> GateCensus:
        """Per-kind counts, from each table entry's count of codes.

        bincount casts the codes it counts to intp, so the codes are counted
        _CENSUS_BLOCK at a time: the cast copy stays that short however long
        the circuit is.
        """
        codes = self.codes
        counts = np.bincount(codes[:_CENSUS_BLOCK], minlength=len(self.table))
        for start in range(_CENSUS_BLOCK, len(codes), _CENSUS_BLOCK):
            counts += np.bincount(codes[start:start + _CENSUS_BLOCK], minlength=len(counts))
        feyn = roots = adjs = nots = 0
        for g, count in zip(self.table, counts.tolist()):
            if g.kind is _FEYNMAN:
                feyn += count
            elif g.kind is _NOT:
                nots += count
            elif g.direction == 1:
                roots += count
            else:
                adjs += count
        return GateCensus(feyn, roots, adjs, nots)
