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
label of only whitespace is stored as the empty label).

A circuit of 2^(n+1) gates holds only O(n^2) distinct ones. The generators
and parsers reuse one Gate object per distinct gate, so validation, adjoint
and the writers do their work once per distinct object (see distinct_gates).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence, TypeVar

_T = TypeVar("_T")


class GateKind(Enum):
    FEYNMAN = "cnot"
    ROOT = "croot"
    NOT = "not"


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and value & (value - 1) == 0


@dataclass(frozen=True)
class Gate:
    """One elementary gate; build via feynman(), controlled_root(), not_gate()."""

    kind: GateKind
    target: int
    control: int | None = None
    kappa: int = 1
    direction: int = 1

    def __post_init__(self) -> None:
        if self.target < 1:
            raise ValueError(f"target line {self.target} must be >= 1")
        if self.kind is GateKind.NOT:
            if self.control is not None:
                raise ValueError("a NOT gate acts on a single line")
        else:
            if self.control is None or self.control < 1:
                raise ValueError(f"control line {self.control} must be >= 1")
            if self.control == self.target:
                raise ValueError(f"control and target coincide on line {self.target}")
        if self.kind is GateKind.ROOT:
            if not _is_power_of_two(self.kappa):
                raise ValueError(f"kappa must be a power of two >= 1, got {self.kappa}")
            if self.direction not in (1, -1):
                raise ValueError(f"direction must be +1 or -1, got {self.direction}")
        elif self.kappa != 1 or self.direction != 1:
            raise ValueError(f"kappa/direction only apply to {GateKind.ROOT}")

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


def distinct_gates(gates: Sequence[Gate]) -> dict[int, Gate]:
    """Each distinct gate object of `gates` under its id(), in order of first use.

    Identity, not equality, keys the table: hashing a Gate runs the
    Python-level Enum.__hash__ for every gate, which costs more than the
    per-gate work the table saves.
    """
    return dict(zip(map(id, gates), gates))


def map_distinct(fn: Callable[[Gate], _T], gates: Sequence[Gate]) -> list[_T]:
    """[fn(g) for g in gates], calling fn once per distinct gate object."""
    ids = list(map(id, gates))
    table = {key: fn(g) for key, g in dict(zip(ids, gates)).items()}
    return list(map(table.__getitem__, ids))


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
        if self.n_controls < 1:
            raise ValueError(f"need at least one control line, got {self.n_controls}")
        if self.label and self.label.splitlines() != [self.label]:
            raise ValueError(f"label must be a single line, got {self.label!r}")
        if not self.label.strip():
            # One rule for both file formats: text has no line for a blank label.
            object.__setattr__(self, "label", "")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in distinct_gates(self.gates).values():
            self._check_gate(g)

    def _check_gate(self, g: Gate) -> None:
        for line in g.lines:
            if not 1 <= line <= self.width:
                raise ValueError(f"line {line} out of range for width {self.width}")

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
        self._check_gate(g)
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
        for g in self.gates:
            if g.kind is GateKind.FEYNMAN:
                feyn += 1
            elif g.kind is GateKind.NOT:
                nots += 1
            elif g.direction == 1:
                roots += 1
            else:
                adjs += 1
        return GateCensus(feyn, roots, adjs, nots)
