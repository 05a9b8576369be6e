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

No layered circuit does with fewer roots. Write its net root power as
F(c) = sum of f[m] * parity(m & c) over the driving functions m; firing on
a needs F(c) = kappa * [c = a] mod 2 kappa for every c. The coefficient of
prod_{i in S} c_i in F, (-2)^(|S|-1) times the sum of f[m] over m holding
S, must equal that of kappa * [c = a], 0 or +-2^(n-1), mod 2^n: the sum is
odd for S = all n lines, even for any other nonempty S. By induction down
|S| every f[m] is odd, so every one of the 2^n - 1 functions drives a root.
Without a NOT, F(0) = 0 for every layered circuit, so none fires on a = 0;
a NOT on the target adds kappa to F(c) for every c, which no nonempty S reads.

Nor with fewer Feynman gates: 2^n - 1 - n for Peres, 2^n - 2 for Toffoli.
Each control line holds a mask, the inputs whose parity it carries, and
each nonzero mask must be held when its root runs. A Feynman gate changes
one line's mask, so it brings at most one new mask, and the n unit masks
are held at the start: Peres's bound. For Toffoli let h count the masks
never held plus the lines away from their unit mask. A gate lowers h by at
most 1, and by none when it takes a line away. The masks stay independent,
so no line holds the sum of two unit masks while both their lines keep
them: at least n - 1 lines leave, and 2^n - 1 - n + n - 1 = 2^n - 2. Both
generators meet these bounds for n >= 2; at n = 1 the one root, of order
1, is feynman(1, 2).

One emitter places the gates of every generator in closed form; only the
order of the driving functions differs. Slot k = 1..2^n-1 ends in the root
driven by line b = bit_length(k); let j = tz(k) + 1. In bit-reversal order
(alpha = k, so alpha_i is bit i-1 of k) a Feynman gate from line j onto b
comes first unless k is a power of two, and the control lines end holding
prefix parities c1 xor ... xor ci. In the baseline generator's Gray order
(alpha = k xor (k >> 1)) one comes first for every k >= 2, from line j, or
from b - 1 when j = b, and the control lines end restored. A root is +1
exactly when popcount(alpha & a) is odd, a packed LSB-first, for a nonzero
a; at a = 0 and in both zero-polarity modes every root is +1. The one
Feynman ladder, _ladder, ends synth_toffoli, and it and its reverse are the
two converter circuits.

The mask each target-line gate reads, which the exponent simulator's walk
derives, is that gate's alpha with its n bits reversed (alpha_1 is the
mask's highest bit); iterative_polarity_flip reads the alphas there.

Activation vectors: a circuit "fires on a" when its target flips exactly
for control input a, any of the 2^n. At a = 0 every root is +1, so the
target output becomes t xor OR(c1..cn), and one NOT on the target, last,
makes it fire on the all-zero vector only, at one gate more than any other
a. synth_zero_polarity's two modes are that circuit without and with the
NOT. _activation states the rule for a once, for the generators and
verify.GateFamilySpec alike, and _emit alone packs a and places the NOT.

Every generator and converter accepts at most MAX_N controls. A circuit over
n controls holds at most n(n-1)/2 + 2n + 1 distinct gates, built once per n
in _gate_table, the NOT gate last at code n(n+1); one numpy pass computes
each gate's code into that table, and the circuit keeps the codes, one
byte a gate (see circuit.Circuit). The gate table alone is kept between
calls: it holds at most 231 distinct gates, about 90 KB at MAX_N, and
keeping it spares each call building and checking them again. Each
generator call builds its slot arrays in _slots, 6 bytes a slot (12 MB at
MAX_N), and drops them before the circuit is built.
"""
from __future__ import annotations

import operator
from functools import cache
from typing import Literal, Sequence, get_args

import numpy as np

from .bits import Bits, as_bits, as_index, format_bits
from .circuit import Circuit, Gate, _code_dtype, control_count, controlled_root, feynman, not_gate
from .simulate import MAX_N, _check_controls, _walk

ZeroPolarityMode = Literal["or-gate", "and-complemented"]
_OR_GATE, _AND_COMPLEMENTED = _ZERO_MODES = get_args(ZeroPolarityMode)


def _check_n(n: int) -> int:
    """n as an int, refused below 1 or above MAX_N controls."""
    n = control_count(n)
    _check_controls(n)
    return n


def _activation(n: int, activation: Sequence[int] | None) -> Bits:
    """The activation vector of a checked n: any n bits, the all-zero vector too; None means all ones."""
    return (1,) * n if activation is None else as_bits(activation, length=n)


@cache
def _gate_table(n: int) -> tuple[Gate, ...]:
    """Every gate the n-control generators and _ladder place, each built and validated once, by code.

    Line b = 1..n owns codes b(b-1)..b(b+1)-1: first the target-line gates
    driven by b, adjoint and root in turn, so a slot's root is at b(b-1) +
    popcount(alpha & act); then the Feynman gates onto b, from line c at
    b^2 + c; the NOT gate on the target line is last, at n(n+1). No other
    code depends on n; the gates do (kappa, target line).
    """
    if n == 1:  # kappa = 1: the root of NOT and its adjoint are NOT itself
        return (feynman(1, 2),) * 2 + (not_gate(2),)
    kappa, table = 1 << (n - 1), []
    for b in range(1, n + 1):
        table += [controlled_root(kappa, 1 if p % 2 else -1, b, n + 1) for p in range(b + 1)]
        table += [feynman(c, b) for c in range(1, b)]
    return (*table, not_gate(n + 1))


def _ladder(n: int) -> np.ndarray:
    """The Feynman ladder's codes into _gate_table(n): b^2 + b - 1, line b - 1 onto b, for b = n..2."""
    return np.array([b * b + b - 1 for b in range(n, 1, -1)], dtype=np.int16)


def _slots(n: int, gray: bool) -> tuple[np.ndarray, np.ndarray]:
    """Gate codes (roots at popcount 0) and alphas (0 for a Feynman gate) of slots k = 1..2^n-1.

    One pass applies the slot rule to every k: a (Feynman gate, root) pair
    per slot, interleaved, with the absent Feynman gates dropped. Each call
    builds both arrays anew and its caller owns them, so _emit offsets the
    codes in place and both die before the circuit allocates its own. The
    alphas come first, before b and j exist, and the codes are written in
    place, a column at a time, which keeps the peak memory of a build at
    n = MAX_N down.
    """
    k = np.arange(1, 1 << n, dtype=np.int32)
    kept = np.ones((k.size, 2), dtype=bool)  # columns: Feynman gate, root
    kept[:, 0] = k > 1 if gray else k & (k - 1) != 0
    alphas = np.zeros((k.size, 2), dtype=np.int32)
    alphas[:, 1] = k ^ (k >> 1) if gray else k
    alphas = alphas[kept]
    b = np.repeat(np.arange(1, n + 1, dtype=np.int16), 1 << np.arange(n))  # bit_length(k)
    j = np.bitwise_count(k ^ (k - 1))  # tz(k) + 1, which is b only where k is a power of two
    codes = np.empty((k.size, 2), dtype=np.int16)
    np.minimum(j, b - 1, out=codes[:, 0])
    codes[:, 0] += b * b
    np.multiply(b, b - 1, out=codes[:, 1])
    del k, b, j
    return codes[kept], alphas


def _emit(n: int, gray: bool, activation: Bits | None) -> np.ndarray:
    """Each slot's code into _gate_table(n) for the activation; None and the all-zero a make every root +1.

    At a = 0 the NOT gate, code n(n+1), comes last: t xor OR(c) becomes t xor [c = 0].
    """
    codes, alphas = _slots(n, gray)
    if activation is None or not any(activation):
        codes += alphas != 0
        return codes if activation is None else np.append(codes, n * (n + 1))
    alphas &= as_index(activation[::-1], n)
    codes += np.bitwise_count(alphas)
    return codes


def synth_peres(n: int, activation: Sequence[int] | None = None) -> Circuit:
    """Peres circuit over n + 1 lines firing on `activation` (default all-ones).

    Control output i is the prefix parity c1 xor ... xor ci; the target
    output is t xor [c = activation]. The gates follow the bit-reversal
    construction: the k-th controlled gate is driven by the function whose
    alpha_i is bit i-1 of k, and it is the root when that function is 1 on
    the activation vector, the adjoint root otherwise. Quantum cost is
    2^(n+1) - n - 2: 2^n - 1 controlled gates, n of them driven directly,
    plus one Feynman gate for each of the other 2^n - 1 - n, and a NOT at a = 0.
    """
    n = _check_n(n)
    act = _activation(n, activation)
    return Circuit._of_codes(n, _gate_table(n), _emit(n, gray=False, activation=act),
                             label=f"peres n={n} a={format_bits(act)}")


def converter_toffoli_to_peres(n: int) -> Circuit:
    """Feynman ladder mapping raw controls (c1..cn) to prefix parities; cost n - 1."""
    n = _check_n(n)
    return Circuit._of_codes(n, _gate_table(n), _ladder(n)[::-1], label=f"toffoli-to-peres n={n}")


def converter_peres_to_toffoli(n: int) -> Circuit:
    """The reversed ladder: prefix parities back to raw controls; cost n - 1."""
    n = _check_n(n)
    return Circuit._of_codes(n, _gate_table(n), _ladder(n), label=f"peres-to-toffoli n={n}")


def synth_toffoli(n: int, activation: Sequence[int] | None = None) -> Circuit:
    """Toffoli circuit: the synth_peres gates followed by the reversed converter.

    All control outputs equal the control inputs; the target output is
    t xor [c = activation]. Quantum cost (2^(n+1) - n - 2) + (n - 1)
    = 2^(n+1) - 3; the NOT of a = 0 makes it 2^(n+1) - 2.
    """
    n = _check_n(n)
    act = _activation(n, activation)
    codes = np.concatenate((_emit(n, gray=False, activation=act), _ladder(n)))
    return Circuit._of_codes(n, _gate_table(n), codes, label=f"toffoli n={n} a={format_bits(act)}")


def synth_barenco_toffoli(n: int, activation: Sequence[int] | None = None) -> Circuit:
    """Baseline Toffoli generator ordering the driving functions by Gray code.

    Nonempty control subsets are visited as g_k = k xor (k >> 1),
    k = 1..2^n-1, so consecutive driving functions differ in one variable
    (control 1 is the Gray LSB). The running subset parity is held on the
    line of the subset's largest element; each transition costs one Feynman
    gate, and each subset conditions one root gate on the target. The control
    lines end restored to c1..cn. Quantum cost 2^(n+1) - 3 (a = 0 adds a NOT),
    for any n >= 1: at n = 1 the one root has order 1, so it is feynman(1, 2).
    """
    n = _check_n(n)
    act = _activation(n, activation)
    return Circuit._of_codes(n, _gate_table(n), _emit(n, gray=True, activation=act),
                             label=f"barenco-toffoli n={n} a={format_bits(act)}")


def synth_zero_polarity(n: int, mode: ZeroPolarityMode = _OR_GATE) -> Circuit:
    """Peres structure with every controlled gate forced to the plain root.

    mode "or-gate": the target output is t xor (c1 or ... or cn), i.e. the
    target flips on every nonzero control vector. mode "and-complemented"
    is synth_peres at the all-zero activation, whose NOT on the target line
    makes the circuit fire exactly on the all-zero control vector. Control
    outputs are prefix parities in both modes.
    """
    n = _check_n(n)
    if mode not in _ZERO_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    act = (0,) * n if mode == _AND_COMPLEMENTED else None
    return Circuit._of_codes(n, _gate_table(n), _emit(n, gray=False, activation=act), label=f"{mode} n={n}")


def iterative_polarity_flip(circuit: Circuit, i: int) -> Circuit:
    """Complement control i of a layered circuit by swapping gate directions.

    Each gate on the target line is driven by the function its control line
    holds when the gate runs, the XOR of the inputs c_j whose alpha_j is 1,
    and each whose function holds c_i becomes its adjoint: a root turns into
    the adjoint root and back. A gate is the root exactly when alpha and the
    activation vector a share an odd number of ones, so the result equals
    synthesizing with bit i of a complemented when a and a xor e_i are both
    nonzero: synthesis at 0 adds a NOT that no flip adds or removes, and
    flipping bit 1 of synth_peres(3, (0, 0, 0)) fires on every c but 100. For
    any layered circuit C, the flip's root power on c is C's on c xor e_i
    less S, the adjointed gates' summed power. With no NOT gate on a control
    line S is C's power on e_i less that on 0, so for classical C the flip's
    target on (c, t) is C's on (c xor e_i, t) xor f, f = 1 exactly when C's
    target on (e_i, 0) and on (0, 0) differ: flipping bit 1 of
    synth_toffoli(2, (1, 0)) fires on 01, 10 and 11, not on 00. The label
    gains " flip i", naming the activation the circuit was built for and
    each flip since. Flipping the same i twice restores the gates. Raises
    UnsupportedShapeError when the circuit is not layered, and
    WidthLimitError above MAX_N controls.
    """
    n = circuit.n_controls
    try:
        i = operator.index(i)
    except TypeError:
        raise ValueError(f"control index must be an integer, got {i!r}") from None
    if not 1 <= i <= n:
        raise ValueError(f"control index {i} out of range 1..{n}")
    _check_controls(n)
    # A gate whose mask holds c_i (line 1's bit is highest) becomes its adjoint: no change for Feynman and NOT.
    table = circuit.table
    codes = circuit.codes.astype(_code_dtype(2 * len(table)))
    codes[_walk(circuit)[1] & 1 << (n - i) != 0] += len(table)
    label = f"{circuit.label} flip {i}".lstrip()
    return circuit._of_codes(n, table + tuple(g.adjoint() for g in table), codes, label)
