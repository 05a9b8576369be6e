"""Reference code for the driving functions of the generated circuits.

The tables below are written out from each construction. A circuit yields
each target gate's driving function itself, as the mask its control line
holds (rootsynth.simulate._walk); the tests compare that derivation, and
iterative_polarity_flip built on it, against these tables and against
table_driven_flip.
"""
import operator
from dataclasses import replace
from functools import cache

import numpy as np

from rootsynth.bits import as_bits
from rootsynth.circuit import GateKind
from rootsynth.simulate import _walk
from rootsynth.synth import synth_barenco_toffoli, synth_peres, synth_toffoli, synth_zero_polarity

FAMILIES = ("peres", "toffoli", "barenco", "or-gate", "and-complemented")
# The families that take an activation vector.
ACTIVATED = ("peres", "toffoli", "barenco")


def generate(family, n, activation):
    if family == "peres":
        return synth_peres(n, activation)
    if family == "toffoli":
        return synth_toffoli(n, activation)
    if family == "barenco":
        return synth_barenco_toffoli(n, activation)
    return synth_zero_polarity(n, family)


@cache  # the tables and the per-gate reference ask for the same vectors
def bit_reversal_alpha(k, n):
    """Coefficient vector of the k-th driving function, LSB-first: alpha_i is bit i-1 of k."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 1 <= k <= (1 << n) - 1:
        raise ValueError(f"k must be in 1..{(1 << n) - 1}, got {k}")
    return tuple((k >> i) & 1 for i in range(n))


def alpha_table(n):
    """All 2^n - 1 coefficient vectors in bit-reversal order, as synth_peres drives its gates."""
    return [bit_reversal_alpha(k, n) for k in range(1, 1 << n)]


def barenco_alpha_table(n):
    """Per-gate coefficient vectors of synth_barenco_toffoli, in circuit order."""
    return [bit_reversal_alpha(k ^ (k >> 1), n) for k in range(1, 1 << n)]


def family_alphas(family, n):
    return barenco_alpha_table(n) if family == "barenco" else alpha_table(n)


def gate_direction(alpha, activation):
    """+1 (root) when the driving function is 1 on the activation vector, else -1."""
    if len(alpha) != len(activation) or not {0, 1}.issuperset((*alpha, *activation)):
        raise ValueError(f"expected two binary vectors of one length, got {alpha} and {activation}")
    return 1 if sum(map(operator.mul, alpha, activation)) % 2 == 1 else -1


def target_gates(circuit):
    """Conditional gates driving the target line, in circuit order.

    These are the controlled-root slots of the generated circuits; for a
    single control the kappa = 1 root degenerates to a plain Feynman gate
    and still counts as one slot. Unconditional NOT gates are excluded.
    """
    t = circuit.target_line
    return tuple(g for g in circuit.gates if g.target == t and g.kind is not GateKind.NOT)


def driving_alphas(circuit):
    """The derived driving function of each target gate, as an LSB-first alpha.

    Of the masks the gates read, these are the ones read by gates on the
    target line, less the NOT gates' reads of the constant line, mask 1 << n.
    """
    n = circuit.n_controls
    on_target = np.array([g.target == circuit.target_line for g in circuit.gates], dtype=bool)
    reads = _walk(circuit)[1]
    reads = reads[on_target & (reads != 1 << n)]
    return list(map(tuple, (reads[:, None] >> np.arange(n - 1, -1, -1) & 1).tolist()))


def table_driven_flip(circuit, alphas, i):
    """The flip as it took the alpha table: adjoint every slot whose alpha has alpha_i = 1."""
    n = circuit.n_controls
    slots = target_gates(circuit)
    if len(alphas) != len(slots):
        raise ValueError(f"alpha assignment has {len(alphas)} entries for {len(slots)} target gates")
    flipped = iter(g.adjoint() if as_bits(a, length=n)[i - 1] == 1 else g for g, a in zip(slots, alphas))
    gates = tuple(
        next(flipped) if g.target == circuit.target_line and g.kind is not GateKind.NOT else g
        for g in circuit.gates
    )
    return replace(circuit, gates=gates)
