"""Functional oracles and equivalence checking for the synthesized families.

_outputs states each gate family once, from its definition and
independently of any circuit, on bits that are ints or arrays: spec_output
applies it to one input, and check_equivalence to blocks of inputs at once.
So checking a circuit is a genuine two-route comparison: exponent simulation
per input on one side, the closed form on the other. The tests and the
dense-small benchmark compare the dense executor with the same oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import or_, xor
from typing import Sequence

import numpy as np

from .bits import Bits, as_bits, index_to_bits
from .circuit import Circuit
from .simulate import NonClassical, exponent_simulate, truth_table
from .synth import _OR_GATE, _ZERO_MODES, _activation, _check_n

FAMILIES = ("peres", "toffoli") + _ZERO_MODES
_BLOCK = 4096  # inputs per block of bit columns, so n = 20 never holds 2^21 of them


@dataclass(frozen=True)
class GateFamilySpec:
    """A gate family, its control count, and (for peres/toffoli) its activation.

    The activation is stored resolved, all ones for None, by synth._activation.
    """

    family: str
    n: int
    activation: Bits | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "n", _check_n(self.n))
        if self.family not in _ZERO_MODES:
            object.__setattr__(self, "activation", _activation(self.n, self.activation))
        elif self.activation is not None:
            raise ValueError(f"{self.family} does not take an activation vector")


def _outputs(spec: GateFamilySpec, c, t) -> tuple:
    """The family's outputs from its control bits c (line 1 first) and target bit t.

    The one statement of the four families: the controls pass through
    (toffoli) or become their prefix parities c_1 xor .. xor c_i, and the
    target flips when the family fires, on the activation vector (peres,
    toffoli), on any nonzero c (or-gate) or on c = 0 (and-complemented).
    Each bit is an int, or an array holding that bit for many inputs.
    """
    out = c if spec.family == "toffoli" else accumulate(c, xor)
    if spec.activation is not None:  # peres, toffoli
        fire = reduce(or_, map(xor, c, spec.activation)) ^ 1
    else:
        fire = reduce(or_, c) ^ (spec.family != _OR_GATE)
    return (*out, t ^ fire)


def spec_output(spec: GateFamilySpec, input_bits: Sequence[int]) -> Bits:
    """Defined output of the family on one basis input (controls then target)."""
    bits = as_bits(input_bits, length=spec.n + 1)
    return _outputs(spec, bits[:-1], bits[-1])


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of a circuit-vs-oracle comparison."""

    ok: bool
    inputs_checked: int
    counterexample: Bits | None = None
    expected: Bits | None = None
    actual: Bits | NonClassical | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_equivalence(circuit: Circuit, spec: GateFamilySpec) -> EquivalenceReport:
    """Compare a layered circuit against the family oracle on every input.

    All 2^(n+1) basis inputs are checked in index order, line 1 most
    significant, in blocks of 4,096. Each block is one array per line
    holding that line's bit of every input, and _outputs maps those columns
    to the block's expected rows, tuples of ints, at once. Each input is one
    exponent_simulate call (a circuit compiles on its first simulation, and
    each call reads one output entry) and one tuple compare. The first
    failing input is reported, which makes the counterexample the
    lexicographically smallest one, with its expected row from the block. In
    a layered circuit (c, 0) and (c, 1) fail together, so the first failure
    has t = 0. GateFamilySpec refuses more than MAX_N controls, so no check
    runs above the limit.
    """
    if circuit.n_controls != spec.n:
        raise ValueError(f"control count mismatch: circuit {circuit.n_controls}, spec {spec.n}")
    w = circuit.width
    space = 1 << w
    shifts = np.arange(w - 1, -1, -1)
    for start in range(0, space, _BLOCK):
        columns = np.arange(start, min(start + _BLOCK, space)) >> shifts[:, None] & 1
        expected = zip(*np.array(_outputs(spec, columns[:-1], columns[-1])).tolist())
        for x, bits, want in zip(range(start, space), zip(*columns.tolist()), expected):
            actual = exponent_simulate(circuit, bits)
            if actual != want:
                return EquivalenceReport(False, x + 1, bits, want, actual)
    return EquivalenceReport(True, space)


def activation_set(circuit: Circuit) -> set[Bits]:
    """Control vectors on which the circuit flips its target bit.

    They are read from truth_table's entries at even indices, the images of
    (c, t = 0): entry c is -1 where c leaves the target non-classical, which
    raises ValueError naming the first such c, and otherwise its low bit is
    the target's output.
    """
    n = circuit.n_controls
    targets = truth_table(circuit)[0::2]
    bad = np.flatnonzero(targets < 0)
    if bad.size:
        raise ValueError(f"non-classical target for control vector {index_to_bits(int(bad[0]), n)}")
    return {index_to_bits(c, n) for c in np.flatnonzero(targets & 1).tolist()}
