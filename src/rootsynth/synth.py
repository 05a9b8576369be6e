"""Generators for multi-control Peres and Toffoli circuits without ancilla lines.

All constructions share one scheme. A gate with n controls uses the
kappa-th root of NOT with kappa = 2^(n-1) as its elementary controlled
operation. Every nonzero coefficient vector alpha = (alpha1..alphan) names
a driving function alpha1*c1 xor ... xor alphan*cn; the circuit prepares
each driving function on a control line with Feynman gates and lets it
condition one root (or adjoint root) on the target line. A gate is the
root when its driving function is 1 on the activation vector a, i.e. when
alpha and a share an odd number of ones, and the adjoint root otherwise.
This makes the net power of the root equal kappa exactly on a, so the
target is negated only there.

The main generator takes the driving functions in bit-reversal order: the
k-th of them, k = 1..2^n-1, has alpha_i = bit i-1 of k. This groups them
into blocks sharing a highest control line and leaves prefix parities
c1 xor ... xor ci on the control lines. The baseline generator orders them
by a binary-reflected Gray code, which restores the control lines instead.
Converter circuits of n-1 Feynman gates translate between the two output
conventions.

The mask each target-line gate reads, which the exponent simulator derives
from the Feynman gates before it, is that gate's alpha;
iterative_polarity_flip reads the alphas from there.

Activation vectors: a circuit "fires on a" when its target flips exactly
for control input a. Direct synthesis requires a nonzero a; the all-zero
case is served by synth_zero_polarity, which forces every controlled gate
to the plain root so the target output becomes t xor OR(c1..cn), plus an
optional inverter to fire on the all-zero vector only.

Every generator accepts at most MAX_N controls. A circuit over n controls
holds at most n(n-1)/2 + 2n + 1 distinct gates, so each generator builds
those once, in a table, and only looks one up per gate of the circuit.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Literal, Sequence

from .bits import Bits, as_bits, format_bits, pack_lsb
from .circuit import Circuit, Gate, controlled_root, feynman, map_distinct, not_gate
from .simulate import _walk

MAX_N = 20
"""Most controls a generator accepts; an n-control circuit has about 2^(n+1) gates."""

ActivationVector = Bits

ZeroPolarityMode = Literal["or-gate", "and-complemented"]


class ZeroActivationError(ValueError):
    """Raised when direct synthesis is asked to fire on the all-zero vector."""


def _check_n(n: int, least: int = 1) -> None:
    if n < least:
        raise ValueError(f"need n >= {least}, got {n}")
    if n > MAX_N:
        raise ValueError(
            f"n = {n} is above the limit of {MAX_N} controls "
            f"(the circuit would have about 2^{n + 1} gates)"
        )


def _resolve_activation(n: int, activation: Sequence[int] | None) -> ActivationVector:
    _check_n(n)
    if activation is None:
        return (1,) * n
    act = as_bits(activation, length=n)
    if not any(act):
        raise ZeroActivationError(
            "direct synthesis cannot fire on the all-zero vector; "
            "use synth_zero_polarity instead"
        )
    return act


def _target_gate(kappa: int, direction: int, control: int, target: int) -> Gate:
    # kappa = 1 only for n = 1, where the root of NOT is NOT itself.
    if kappa == 1:
        return feynman(control, target)
    return controlled_root(kappa, direction, control, target)


_GateTable = tuple[dict[tuple[int, int], Gate], dict[tuple[int, int], Gate]]


def _gate_table(n: int) -> _GateTable:
    """Every gate the n-control generators place, each built and validated once.

    Feynman gates between control lines are keyed by (control, target),
    target-line gates by (control line, direction).
    """
    kappa = 1 << (n - 1)
    cnots = {(c, t): feynman(c, t) for t in range(2, n + 1) for c in range(1, t)}
    roots = {(b, d): _target_gate(kappa, d, b, n + 1) for b in range(1, n + 1) for d in (1, -1)}
    return cnots, roots


def _bit_reversal_gates(n: int, act: int | None, table: _GateTable) -> list[Gate]:
    """Gate list of the bit-reversal construction over n controls.

    The k-th controlled gate (k = 1..2^n-1) sits on control line b = highest
    set bit of k and is driven by the bit-reversal coefficients of k; within
    block b, one Feynman gate per step folds the prefix parity of a lower
    line into line b, stepping the driving function through the block in
    bit-reversal order. The gate is the root (+1) when the driving function
    is 1 on the activation vector packed LSB-first into `act`, i.e. when
    k & act has odd parity, and the adjoint root otherwise; act None makes
    every controlled gate the plain root. Each gate comes from `table`.
    """
    cnots, roots = table
    gates: list[Gate] = []
    for k in range(1, 1 << n):
        b = k.bit_length()
        j = k ^ (1 << (b - 1))
        if j:
            gates.append(cnots[(j & -j).bit_length(), b])
        gates.append(roots[b, 1 if act is None or (k & act).bit_count() & 1 else -1])
    return gates


def synth_peres(n: int, activation: Sequence[int] | None = None) -> Circuit:
    """Peres circuit over n + 1 lines firing on `activation` (default all-ones).

    Control output i is the prefix parity c1 xor ... xor ci; the target
    output is t xor [c = activation]. The gates follow the bit-reversal
    construction: the k-th controlled gate is driven by the function whose
    alpha_i is bit i-1 of k, and it is the root when that function is 1 on
    the activation vector, the adjoint root otherwise. Quantum cost is
    2^(n+1) - n - 2: 2^n - 1 controlled gates, n of them driven directly,
    plus one Feynman gate for each of the other 2^n - 1 - n.
    """
    act = _resolve_activation(n, activation)
    gates = _bit_reversal_gates(n, pack_lsb(act), _gate_table(n))
    return Circuit(n, tuple(gates), label=f"peres n={n} a={format_bits(act)}")


def converter_toffoli_to_peres(n: int) -> Circuit:
    """Feynman ladder mapping raw controls (c1..cn) to prefix parities; cost n - 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gates = tuple(feynman(i, i + 1) for i in range(1, n))
    return Circuit(n, gates, label=f"toffoli-to-peres n={n}")


def converter_peres_to_toffoli(n: int) -> Circuit:
    """The reversed ladder: prefix parities back to raw controls; cost n - 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gates = tuple(feynman(i, i + 1) for i in range(n - 1, 0, -1))
    return Circuit(n, gates, label=f"peres-to-toffoli n={n}")


def synth_toffoli(n: int, activation: Sequence[int] | None = None) -> Circuit:
    """Toffoli circuit: the synth_peres gates followed by the reversed converter.

    All control outputs equal the control inputs; the target output is
    t xor [c = activation]. Quantum cost (2^(n+1) - n - 2) + (n - 1)
    = 2^(n+1) - 3.
    """
    act = _resolve_activation(n, activation)
    table = _gate_table(n)
    gates = _bit_reversal_gates(n, pack_lsb(act), table)
    gates += (table[0][i, i + 1] for i in range(n - 1, 0, -1))  # converter_peres_to_toffoli
    return Circuit(n, tuple(gates), label=f"toffoli n={n} a={format_bits(act)}")


def synth_barenco_toffoli(n: int, activation: Sequence[int] | None = None) -> Circuit:
    """Baseline Toffoli generator ordering the driving functions by Gray code.

    Nonempty control subsets are visited as g_k = k xor (k >> 1),
    k = 1..2^n-1, so consecutive driving functions differ in one variable
    (control 1 is the Gray LSB). The running subset parity is held on the
    line of the subset's largest element; each transition costs one Feynman
    gate, and each subset conditions one root gate on the target. The control
    lines end restored to c1..cn. Quantum cost 2^(n+1) - 3.
    """
    _check_n(n, least=2)
    act = _resolve_activation(n, activation)
    a = pack_lsb(act)
    cnots, roots = _gate_table(n)
    gates: list[Gate] = []
    prev = 0
    for k in range(1, 1 << n):
        g = k ^ (k >> 1)
        top = g.bit_length()
        if k > 1:
            prev_top = prev.bit_length()
            gates.append(cnots[prev_top if top > prev_top else (g ^ prev).bit_length(), top])
        gates.append(roots[top, 1 if (g & a).bit_count() & 1 else -1])
        prev = g
    return Circuit(n, tuple(gates), label=f"barenco-toffoli n={n} a={format_bits(act)}")


def synth_zero_polarity(n: int, mode: ZeroPolarityMode = "or-gate") -> Circuit:
    """Peres structure with every controlled gate forced to the plain root.

    mode "or-gate": the target output is t xor (c1 or ... or cn), i.e. the
    target flips on every nonzero control vector. mode "and-complemented"
    adds one inverter on the target line, so the circuit fires exactly on
    the all-zero control vector. Control outputs are prefix parities in
    both modes.
    """
    _check_n(n)
    if mode not in ("or-gate", "and-complemented"):
        raise ValueError(f"unknown mode {mode!r}")
    gates = _bit_reversal_gates(n, None, _gate_table(n))
    if mode == "and-complemented":
        gates.append(not_gate(n + 1))
    return Circuit(n, tuple(gates), label=f"{mode} n={n}")


def iterative_polarity_flip(circuit: Circuit, i: int) -> Circuit:
    """Complement control i of a layered circuit by swapping gate directions.

    Each gate on the target line is driven by the function its control line
    holds when the gate runs, the XOR of the inputs c_j whose alpha_j is 1.
    Every such gate whose driving function contains c_i (alpha_i = 1)
    becomes its adjoint: a root turns into the adjoint root and back. Since
    a gate is the root exactly when alpha and the activation vector share an
    odd number of ones, complementing bit i of the activation vector swaps
    the direction of exactly these gates, so the result equals synthesizing
    with that bit complemented. Flipping the same i twice restores the
    circuit. Raises UnsupportedShapeError when the circuit is not layered.
    """
    n = circuit.n_controls
    if not 1 <= i <= n:
        raise ValueError(f"control index {i} out of range 1..{n}")
    bit = 1 << (n - i)  # masks hold line 1 in their highest bit
    # One read per target-line gate, consumed only for those gates.
    reads = iter(_walk(circuit)[2])
    w = circuit.target_line
    gates = tuple(
        a if g.target == w and next(reads) & bit else g
        for g, a in zip(circuit.gates, map_distinct(Gate.adjoint, circuit.gates))
    )
    return replace(circuit, gates=gates)
