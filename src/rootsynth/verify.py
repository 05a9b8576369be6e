"""Functional oracles and equivalence checking for the synthesized families.

spec_output states the intended input/output behavior of each gate family
directly from its definition, independently of any circuit; _oracle_outputs
tabulates the same definitions over all inputs by array. So checking a
circuit is a genuine two-route comparison: exponent simulation per input on
one side, the closed form on the other. The tests and the dense-small
benchmark compare the dense executor with the same oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bits import Bits, as_bits, bits_to_index, index_to_bits
from .circuit import Circuit
from .simulate import NonClassical, exponent_simulate, truth_table
from .synth import _OR_GATE, _ZERO_MODES, _activation, _check_n

FAMILIES = ("peres", "toffoli") + _ZERO_MODES
_BLOCK = 4096  # inputs per block of bit rows, so n = 20 never holds 2^21 of them


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


def spec_output(spec: GateFamilySpec, input_bits: Sequence[int]) -> Bits:
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


def _oracle_outputs(spec: GateFamilySpec) -> np.ndarray:
    """spec_output's definitions applied at once to every input index x = 2c + t.

    The controls' outputs and the fire bit depend on c alone, so they are
    computed over the 2^n control vectors, in place, and the two target
    values interleaved into the table at the end.
    """
    c = np.arange(1 << spec.n)  # line 1 is the most significant bit of c
    if spec.activation is not None:
        fire = c == bits_to_index(spec.activation)
    elif spec.family == _OR_GATE:
        fire = c != 0
    else:
        fire = c == 0
    out = c  # c is not read again: the outputs overwrite it
    if spec.family != "toffoli":
        # Prefix parity, line i being c_1 xor .. xor c_i: after the step of
        # shift s, each bit holds the parity of itself and the 2s - 1 above it.
        shifted = np.empty_like(out)
        for k in range((spec.n - 1).bit_length()):  # shifts 1, 2, 4, .. below n
            out ^= np.right_shift(out, 1 << k, out=shifted)
    out <<= 1
    out |= fire
    table = np.empty(2 << spec.n, dtype=out.dtype)
    table[0::2] = out  # t = 0: the target becomes fire
    out ^= 1
    table[1::2] = out
    return table


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
    significant, in blocks of 4,096. The expected outputs are tabulated by
    array (_oracle_outputs); the circuit is simulated per input, by one
    exponent_simulate call, which compiles it into its linear form once, so
    an input costs O(n). The first failing input is reported, which makes
    the counterexample the lexicographically smallest one, with its expected
    output from spec_output. GateFamilySpec refuses more than MAX_N
    controls, so no check runs above the limit.
    """
    if circuit.n_controls != spec.n:
        raise ValueError(f"control count mismatch: circuit {circuit.n_controls}, spec {spec.n}")
    w = circuit.width
    space = 1 << w
    shifts = np.arange(w - 1, -1, -1)
    oracle = _oracle_outputs(spec)
    for start in range(0, space, _BLOCK):
        block = np.arange(start, min(start + _BLOCK, space))
        rows = (block[:, None] >> shifts & 1).tolist()
        expected = map(tuple, (oracle[block, None] >> shifts & 1).tolist())
        for x, bits, want in zip(block.tolist(), rows, expected):
            actual = exponent_simulate(circuit, bits)
            if actual != want:
                return EquivalenceReport(False, x + 1, tuple(bits), spec_output(spec, bits), actual)
    return EquivalenceReport(True, space)


def activation_set(circuit: Circuit) -> set[Bits]:
    """Control vectors on which the circuit flips its target bit."""
    n = circuit.n_controls
    table = truth_table(circuit)
    if not table.is_classical:
        raise ValueError(f"non-classical target for control vector {table.non_classical[0][:n]}")
    # Output index c << 1 is the image of (c, t = 0); its low bit is the target.
    return {index_to_bits(c, n) for c in range(1 << n) if table.permutation[c << 1] & 1}
