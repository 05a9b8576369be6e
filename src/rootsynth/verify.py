"""Functional oracles and equivalence checking for the synthesized families.

spec_output states the intended input/output behavior of each gate family
directly from its definition, independently of any circuit, so checking a
circuit against it is a genuine two-route comparison: exponent simulation
(optionally cross-checked by the dense executor) on one side, the closed
form on the other.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bits import Bits, as_bits, bits_to_index, index_to_bits
from .circuit import Circuit
from .simulate import (
    NonClassical,
    classical_output,
    dense_unitary,
    exponent_simulate,
    permutation_from_unitary,
)

FAMILIES = ("peres", "toffoli", "or-gate", "and-complemented")


@dataclass(frozen=True)
class GateFamilySpec:
    """A gate family, its control count, and (for peres/toffoli) its activation."""

    family: str
    n: int
    activation: Bits | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.family in ("or-gate", "and-complemented"):
            if self.activation is not None:
                raise ValueError(f"{self.family} does not take an activation vector")
        elif self.activation is not None:
            act = as_bits(self.activation, length=self.n)
            if not any(act):
                raise ValueError("activation vector must be nonzero")
            object.__setattr__(self, "activation", act)

    @property
    def resolved_activation(self) -> Bits | None:
        if self.family in ("or-gate", "and-complemented"):
            return None
        return self.activation if self.activation is not None else (1,) * self.n


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
    if spec.family in ("peres", "toffoli"):
        fire = 1 if c == spec.resolved_activation else 0
    elif spec.family == "or-gate":
        fire = 1 if any(c) else 0
    else:
        fire = 0 if any(c) else 1
    return tuple(out) + (t ^ fire,)


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


def check_equivalence(
    circuit: Circuit,
    spec: GateFamilySpec,
    *,
    check_dense: bool = False,
) -> EquivalenceReport:
    """Compare a layered circuit against the family oracle on every input.

    All 2^(n+1) basis inputs are checked in index order, line 1 most
    significant, each by one exponent_simulate call against spec_output.
    exponent_simulate compiles the circuit into its linear form once, so an
    input costs O(n). The first failing input is reported, which makes the
    counterexample the lexicographically smallest one. With check_dense,
    the dense executor must also produce the oracle's permutation matrix,
    whose columns are compared with the oracle outputs in one array compare;
    it raises WidthLimitError, before any input is checked, for widths
    above DENSE_WIDTH_LIMIT.
    """
    if circuit.n_controls != spec.n:
        raise ValueError(f"control count mismatch: circuit {circuit.n_controls}, spec {spec.n}")
    w = circuit.width
    space = 1 << w
    unitary = dense_unitary(circuit) if check_dense else None
    wanted = np.empty(space, dtype=np.int64) if check_dense else None
    for x in range(space):
        bits = index_to_bits(x, w)
        sim = exponent_simulate(circuit, bits)
        actual = classical_output(sim, bits[-1])
        expected = spec_output(spec, bits)
        if isinstance(actual, NonClassical) or actual != expected:
            return EquivalenceReport(False, x + 1, bits, expected, actual)
        if check_dense:
            wanted[x] = bits_to_index(expected)
    if check_dense:
        perm = permutation_from_unitary(unitary)
        failing = [0] if perm is None else np.flatnonzero(np.array(perm) != wanted)
        if len(failing):
            x = int(failing[0])
            return EquivalenceReport(False, space, index_to_bits(x, w), index_to_bits(int(wanted[x]), w), None)
    return EquivalenceReport(True, space)


def activation_set(circuit: Circuit) -> set[Bits]:
    """Control vectors on which the circuit flips its target bit."""
    n = circuit.n_controls
    fires: set[Bits] = set()
    for cidx in range(1 << n):
        cbits = index_to_bits(cidx, n)
        sim = exponent_simulate(circuit, cbits + (0,))
        if not sim.is_classical:
            raise ValueError(f"non-classical target for control vector {cbits}")
        if sim.target_flips ^ (1 if sim.exponent == sim.kappa else 0):
            fires.add(cbits)
    return fires


def oracle_permutation(spec: GateFamilySpec) -> tuple[int, ...]:
    """spec_output as a permutation of basis-state indices."""
    w = spec.n + 1
    return tuple(bits_to_index(spec_output(spec, index_to_bits(x, w))) for x in range(1 << w))


def permutation_matrix(perm: Sequence[int]) -> np.ndarray:
    """0/1 matrix sending basis column x to row perm[x]."""
    dim = len(perm)
    m = np.zeros((dim, dim))
    for x, y in enumerate(perm):
        m[y, x] = 1.0
    return m
