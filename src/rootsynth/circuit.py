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
speed. A circuit of 2^(n+1) gates holds only O(n^2) distinct ones, so
validation, census, adjoint and the writers work once per distinct gate.
"""
from __future__ import annotations

import dataclasses
import operator
import threading
import weakref
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence, TypeVar

_T = TypeVar("_T")


class GateKind(Enum):
    FEYNMAN = "cnot"
    ROOT = "croot"
    NOT = "not"


def control_count(n: object, least: int = 1) -> int:
    """n as an int: True and numpy integers pass; 2.0, "2" and counts below least do not."""
    try:
        count = operator.index(n)
    except TypeError:
        raise ValueError(f"control count must be an integer, got {n!r}") from None
    if count < least:
        raise ValueError(f"need n >= {least}, got {count}")
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
    dataclasses.replace, copy and pickle all return that object.
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
            target, kappa, direction = map(operator.index, (target, kappa, direction))
            control = None if control is None else operator.index(control)
        except TypeError:
            fields = f"target {target!r}, control {control!r}, kappa {kappa!r}, direction {direction!r}"
            raise ValueError(f"gate fields must be integers, got {fields}") from None
        if target < 1:
            raise ValueError(f"target line {target} must be >= 1")
        if kind is GateKind.NOT:
            if control is not None:
                raise ValueError("a NOT gate acts on a single line")
        else:
            if control is None or control < 1:
                raise ValueError(f"control line {control} must be >= 1")
            if control == target:
                raise ValueError(f"control and target coincide on line {target}")
        if kind is GateKind.ROOT:
            check_kappa(kappa)
            if direction not in (1, -1):
                raise ValueError(f"direction must be +1 or -1, got {direction}")
        elif kappa != 1 or direction != 1:
            raise ValueError(f"kappa/direction only apply to {GateKind.ROOT}")
        key = (kind, target, control, kappa, direction)
        g = _interned.get(key)
        if g is None:
            new = object.__new__(cls)
            vars(new).update(zip(("kind", "target", "control", "kappa", "direction"), key))
            with _intern_lock:
                g = _interned.setdefault(key, new)
        return g

    def __reduce__(self) -> tuple:
        return Gate, (self.kind, self.target, self.control, self.kappa, self.direction)

    @property
    def lines(self) -> tuple[int, ...]:
        if self.control is None:
            return (self.target,)
        return (self.control, self.target)

    def adjoint(self) -> "Gate":
        """Inverse gate: roots flip direction, Feynman and NOT are involutions."""
        if self.kind is GateKind.ROOT:
            return dataclasses.replace(self, direction=-self.direction)
        return self


def feynman(control: int, target: int) -> Gate:
    return Gate(GateKind.FEYNMAN, target=target, control=control)


def controlled_root(kappa: int, direction: int, control: int, target: int) -> Gate:
    return Gate(GateKind.ROOT, target=target, control=control, kappa=kappa, direction=direction)


def not_gate(line: int) -> Gate:
    return Gate(GateKind.NOT, target=line)


def check_lines(g: Gate, width: int) -> None:
    """Raise ValueError unless every line of g lies in 1..width."""
    for line in g.lines:
        if not 1 <= line <= width:
            raise ValueError(f"line {line} out of range for width {width}")


def map_distinct(fn: Callable[[Gate], _T], gates: Sequence[Gate]) -> list[_T]:
    """[fn(g) for g in gates], calling fn once per distinct gate."""
    table = {g: fn(g) for g in dict.fromkeys(gates)}
    return list(map(table.__getitem__, gates))


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


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence over n_controls + 1 lines."""

    n_controls: int
    gates: tuple[Gate, ...] = ()
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_controls", control_count(self.n_controls))
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        if self.label and self.label.splitlines() != [self.label]:
            raise ValueError(f"label must be a single line, got {self.label!r}")
        if not self.label.strip():
            # One rule for both file formats: text has no line for a blank label.
            object.__setattr__(self, "label", "")
        try:
            object.__setattr__(self, "gates", tuple(self.gates))
        except TypeError:
            raise ValueError(f"gates must be a sequence of Gate, got {self.gates!r}") from None
        try:
            distinct = dict.fromkeys(self.gates)
        except TypeError:  # an unhashable entry, which no Gate is: the loop names it
            distinct = self.gates
        for g in distinct:
            if not isinstance(g, Gate):
                raise ValueError(f"gate {self.gates.index(g)} is {g!r}, not a Gate")
            check_lines(g, self.width)

    @property
    def width(self) -> int:
        return self.n_controls + 1

    @property
    def target_line(self) -> int:
        return self.width

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    @property
    def quantum_cost(self) -> int:
        """Total gate count; every elementary gate costs 1."""
        return len(self.gates)

    def append(self, g: Gate) -> "Circuit":
        """New circuit with g appended."""
        return dataclasses.replace(self, gates=self.gates + (g,))

    def compose(self, other: "Circuit") -> "Circuit":
        """Concatenate gate sequences; widths must agree. Keeps this label."""
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        return dataclasses.replace(self, gates=self.gates + other.gates)

    def adjoint(self) -> "Circuit":
        """Inverse circuit: gates reversed, each root direction negated."""
        return dataclasses.replace(self, gates=tuple(map_distinct(Gate.adjoint, self.gates[::-1])))

    def census(self) -> GateCensus:
        feyn = roots = adjs = nots = 0
        for g, count in Counter(self.gates).items():
            if g.kind is GateKind.FEYNMAN:
                feyn += count
            elif g.kind is GateKind.NOT:
                nots += count
            elif g.direction == 1:
                roots += count
            else:
                adjs += count
        return GateCensus(feyn, roots, adjs, nots)
