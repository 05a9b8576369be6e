"""Two independent circuit executors.

dense_unitary builds the full 2^width unitary and is the ground truth for
small widths, by one of two paths, each as state-vector simulators apply
gates (Smelyanskiy, Sawaya and Aspuru-Guzik, "qHiPSTER", arXiv:1601.07195).
When every root drives a line that no gate reads, as in every generated
circuit, those lines stay in NOT's eigenbasis, where each gate is a
permutation or a phase: it tracks one row and one amplitude per column, at
O(gates * 2^width + 4^width). Otherwise it views the identity as a tensor
with one axis per line and applies each gate in place to the slice it
touches, at O(gates * 4^width). It accepts any gate on any line, so it
checks the layered executor without sharing its assumptions.

exponent_simulate exploits the layered shape of all generated circuits
(stated there): control bits propagate classically through the Feynman and
NOT gates, and each gate on the target line applies a power of V, the
principal kappa-th root of NOT (eigenvalues 1 and exp(i*pi/kappa)) for the
largest root order kappa, so it suffices to track the net power mod
2*kappa. V^kappa is NOT exactly: the executors agree with no residual phase.

Each control line holds an affine GF(2) form of the control inputs: the
mask of inputs it XORs, bit n standing for a constant-1 line that a NOT
gate reads as a Feynman gate reads its control. Each gate on the target
line adds its power to the coefficient f[m] of the mask m it reads, and the
net power on control vector c, over the masks of odd parity on (1, c), is
(sum(f) - WHT(f)(1, c)) / 2 mod 2*kappa for all c at once, WHT being the
Walsh-Hadamard transform, exact for every kappa. The compiled form holds
that table and every input's output, both read-only arrays. It is built on
a circuit's first use and kept on the circuit, which is immutable, so each
circuit compiles once; exponent_simulate reads one input's output, and
truth_table returns the whole int32 output array: entry x is input x's
output index, line 1 most significant, or -1 where x leaves the target
non-classical. Both refuse more than MAX_N controls.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .bits import Bits, as_index, index_to_bits
from .circuit import _ROOT, Circuit, Gate, check_kappa, gather

# A Toffoli circuit on the monomial path takes about 0.001 s at width 9, 0.003 s
# at width 10 and 0.017 s at width 11, a 64 MiB matrix (one core of a 2-CPU
# Xeon box, best of 7). The same gates on the swap/mix path take 0.3, 2.3 and
# 30 s: twice the gates at each width, each touching 4x the memory.
DENSE_WIDTH_LIMIT = 11

MAX_N = 20
"""Most controls a generator, exponent_simulate, truth_table or check_equivalence accepts (2^n work)."""

NOT_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class UnsupportedShapeError(ValueError):
    """Circuit is not layered: exponent tracking does not apply."""


class WidthLimitError(ValueError):
    """Circuit is too wide: above DENSE_WIDTH_LIMIT lines for the dense
    executor, or above MAX_N controls for a call whose work grows as 2^n."""


def root_of_not(kappa: int) -> np.ndarray:
    """Principal kappa-th root of NOT as a 2x2 complex array.

    V = 1/2 [[1+w, 1-w], [1-w, 1+w]] with w = exp(i*pi/kappa); V has
    eigenvalues 1 and w, so V^kappa = NOT exactly. kappa = 1 gives NOT.
    """
    check_kappa(kappa)
    if kappa == 1:
        return NOT_MATRIX.copy()
    w = np.exp(1j * np.pi / kappa)
    return 0.5 * np.array([[1 + w, 1 - w], [1 - w, 1 + w]])


def _gate_halves(g: Gate, width: int) -> tuple[tuple, tuple]:
    """Indices of the target = 0 and target = 1 halves of a gate's active slice.

    They index the swap/mix path's tensor, whose axis i is line i+1; a
    control fixes its axis at 1, so both halves lie inside the control = 1
    slice.
    """
    lo: list[int | slice] = [slice(None)] * width
    if g.control is not None:
        lo[g.control - 1] = 1
    hi = list(lo)
    lo[g.target - 1], hi[g.target - 1] = 0, 1
    return tuple(lo), tuple(hi)


def _monomial_lines(table: Sequence[Gate]) -> set[int] | None:
    """The rotated lines, which some gate targets and no gate reads, if every root targets one; else None.

    In NOT's eigenbasis on those lines every gate is then monomial: a NOT or
    Feynman gate on a read line permutes basis states, and any gate on a
    rotated line is a phase. Every generated circuit qualifies.
    """
    rotated = {g.target for g in table} - {g.control for g in table}
    return rotated if all(g.target in rotated for g in table if g.kind is _ROOT) else None


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Product of the gate unitaries in circuit order.

    Basis states are indexed with line 1 as the most significant bit, so
    column as_index((c1..cn,t), width) holds the image of that input. Each
    gate is p*I + q*NOT on its target inside its control = 1 slice, with
    p + q = 1: q = 1 for NOT and Feynman gates, and a controlled root takes
    its q from root_of_not. Any gate on any line is accepted. When every
    root targets a rotated line, one that gates target and no gate reads,
    the product is built on the monomial path, at O(gates * 2^width +
    4^width); otherwise on the swap/mix path, at O(gates * 4^width). Both
    are the state-vector technique of Smelyanskiy, Sawaya and Aspuru-Guzik,
    "qHiPSTER" (arXiv:1601.07195), applied to every column at once.
    """
    width = circuit.width
    if width > DENSE_WIDTH_LIMIT:
        raise WidthLimitError(f"width {width} exceeds the dense limit of {DENSE_WIDTH_LIMIT} lines")
    table = circuit.table
    roots = {kappa: complex(root_of_not(kappa)[0, 1]) for kappa in {g.kappa for g in table if g.kind is _ROOT}}
    # V is symmetric, so its adjoint's q is the conjugate.
    qs = [1 if g.kind is not _ROOT else
          roots[g.kappa] if g.direction == 1 else roots[g.kappa].conjugate() for g in table]
    rotated = _monomial_lines(table)
    return _swap_mix_unitary(circuit, qs) if rotated is None else _monomial_unitary(circuit, qs, rotated)


def _monomial_unitary(circuit: Circuit, qs: list[complex], rotated: set[int]) -> np.ndarray:
    """dense_unitary's monomial path; qs holds each table entry's q, and every root targets a rotated line.

    The rotated lines stay in NOT's eigenbasis (V = H diag(1, w) H, w = p -
    q), where the whole product sends each column x to one row idx[x] with
    one amplitude amp[x]: a NOT or Feynman gate on a read line is the
    gather idx = perm[idx], and any gate on a rotated line is amp *=
    phase[idx], the phase w where it fires on the line's hi half. Each
    entry's perm or phase is built once per table entry. A permutation
    step targets and reads only read lines, so it commutes with the
    unnormalised butterflies B = sqrt(2)*H on the r rotated lines, and U =
    P (B diag(amp) B) / 2^r. B diag(amp) B holds at (x ^ v, x), for each v
    in the span of the rotated bits R, amp's butterflies at (x & ~R) | v:
    they run on the dim-long amp, and u is filled by 2^r scatters, so a
    circuit of NOT and Feynman gates gives an exact 0/1 matrix.
    """
    width, table = circuit.width, circuit.table
    dim = 1 << width
    x = np.arange(dim)
    target = np.array([1 << (width - g.target) for g in table], dtype=np.intp)[:, None]
    control = np.array([0 if g.control is None else 1 << (width - g.control) for g in table], dtype=np.intp)[:, None]
    flips = np.where(x & control == control, target, 0)  # the target bit each entry flips, in each row
    phases = np.where(x & flips, 1 - 2 * np.array(qs, dtype=complex)[:, None], 1)
    steps = [(True, phases[k]) if g.target in rotated else (False, x ^ flips[k]) for k, g in enumerate(table)]
    idx, amp = x, np.ones(dim, dtype=complex)
    for phase, step in gather(steps, circuit.codes):
        if phase:
            amp *= step[idx]
        else:
            idx = step[idx]
    amp *= 0.5 ** len(rotated)
    for line in rotated:
        lo, hi = amp.reshape(-1, 2, 1 << (width - line)).swapaxes(0, 1)  # (lo, hi) -> (lo + hi, lo - hi)
        lo += hi
        hi *= -2
        hi += lo
    rot = sum(1 << (width - line) for line in rotated)
    u = np.zeros((dim, dim), dtype=complex)
    for v in x[x & rot == x]:  # the span of the rotated bits
        u[idx[x ^ v], x] = amp[x & ~rot | v]
    return u


def _swap_mix_unitary(circuit: Circuit, qs: list[complex]) -> np.ndarray:
    """dense_unitary's swap/mix path; qs holds each table entry's q.

    The identity is viewed as a tensor of shape (2,)*width + (2^width,)
    whose axis i is line i+1, and each gate updates the two halves of its
    target axis in place: a swap for q = 1, or else (lo - d, hi + d) with
    d = q * (lo - hi), which needs one temporary where the 2x2 product
    needs four.
    """
    dim = 1 << circuit.width
    u = np.eye(dim, dtype=complex)
    tensor = u.reshape((2,) * circuit.width + (dim,))
    halves = [tuple(tensor[s] for s in _gate_halves(g, circuit.width)) + (q,) for g, q in zip(circuit.table, qs)]
    for lo, hi, q in gather(halves, circuit.codes):
        if q == 1:
            saved = lo.copy()
            lo[...] = hi
            hi[...] = saved
        else:
            d = lo - hi
            d *= q
            lo -= d
            hi += d
    return u


@dataclass(frozen=True)
class NonClassical:
    """Marker value: the target's operator V^exponent (see exponent_simulate) leaves it in superposition."""

    exponent: int
    kappa: int


@dataclass(frozen=True)
class _LinearForm:
    """A layered circuit compiled from its control lines' affine GF(2) forms.

    Inputs x = c << 1 | t are ints, line 1 most significant. table[c] is the
    target's power on controls c (see exponent_simulate); outputs[x] (int32)
    is x's output index, or -1 where table[x >> 1] leaves it non-classical.
    """

    table: np.ndarray
    kappa: int
    outputs: np.ndarray


def _root_power_table(f: np.ndarray, kappa: int) -> np.ndarray:
    """E(c) = sum of f[m] * <m, (1, c)> mod 2*kappa for all 2^n control vectors c, f[m] being mask m's coefficient.

    With <m, x> = (1 - (-1)^|m & x|) / 2, E = (sum(f) - WHT(f)(1, c)) / 2,
    and WHT(f)(1, c) is the n-bit WHT of lo - hi, f's halves without and
    with bit n, the constant line's. The WHT runs in constant geometry
    (Pease, "An adaptation of the fast Fourier transform for parallel
    processing", JACM 1968): each of its n levels writes the sum and the
    difference of the pair (2i, 2i + 1) to i and i + 2^(n-1) of a second
    buffer, so it combines the lowest bit and rotates it to the top, and
    after n levels every bit is combined and back in its place. E is exact
    for every kappa: up to kappa = 2^62 f is uint64, whose wrap-around is
    arithmetic mod 2^64, and the halving leaves E exact mod 2^63, which
    2*kappa divides; above that f holds Python ints.
    """
    h = np.subtract(*f.reshape(2, -1))  # lo - hi
    spare, half = np.empty_like(h), h.size // 2
    for _ in range(h.size.bit_length() - 1):
        even, odd = h.reshape(-1, 2).T
        np.add(even, odd, out=spare[:half])
        np.subtract(even, odd, out=spare[half:])
        h, spare = spare, h
    one, low_bits = np.array([1, 2 * kappa - 1], dtype=f.dtype)
    return ((f.sum() - h) >> one) & low_bits


def _step(g: Gate, n: int, kappa: int) -> tuple[int, int, int]:
    """One gate as (source line, destination line, power), 0-based.

    The destination takes the XOR of the source's mask, and the power adds to
    the coefficient of the mask read. Line n is the target and line n + 1 the
    constant 1, the source of a NOT gate. A root of order k adds its
    direction times kappa / k, and any other gate onto the target kappa.
    """
    w = n + 1
    if g.kind is _ROOT:
        if g.target != w or g.control == w:
            raise UnsupportedShapeError("controlled root must drive the target line")
        return g.control - 1, n, g.direction * (kappa // g.kappa)
    if g.control == w:
        raise UnsupportedShapeError("Feynman gate reads the target line")
    return w if g.control is None else g.control - 1, g.target - 1, kappa if g.target == w else 0


def _walk(circuit: Circuit) -> tuple[list[int], np.ndarray, np.ndarray, int]:
    """Check the layered shape and run each line's mask through the gates once.

    Returns the final control masks; the mask each gate reads, in circuit
    order, as int64, a NOT gate's being 1 << n; each gate's power mod 2*kappa,
    uint64 up to kappa = 2^62 and Python ints above; and kappa. The shape
    checks run once per table entry, in order of first use, so the first
    offending gate raises as a gate-by-gate walk would.
    """
    n, table = circuit.n_controls, circuit.table
    kappa = max((g.kappa for g in table if g.kind is _ROOT), default=1)
    steps = [_step(g, n, kappa) for g in table]
    masks = [1 << (n - 1 - i) for i in range(n)] + [0, 1 << n]

    def read_masks() -> Iterator[int]:
        for source, dest, _ in gather(steps, circuit.codes):
            mask = masks[source]
            masks[dest] ^= mask
            yield mask

    reads = np.fromiter(read_masks(), np.int64, circuit.codes.size)
    dtype = np.uint64 if kappa <= 1 << 62 else object
    powers = np.array([power % (2 * kappa) for _, _, power in steps], dtype=dtype)[circuit.codes]
    return masks[:n], reads, powers, kappa


def _linear_form(circuit: Circuit) -> _LinearForm:
    """The circuit's _LinearForm, and the one statement of the output rule.

    Outputs are GF(2)-affine in the inputs, so they double from the target
    up, starting from the constant bits of the final masks, each control bit
    XOR-ing in its column of them. A power of kappa flips the target; any
    other power but 0 leaves it non-classical.
    """
    n = circuit.n_controls
    masks, reads, powers, kappa = _walk(circuit)
    f = np.zeros(2 << n, dtype=powers.dtype)
    np.add.at(f, reads, powers)
    del reads, powers  # folded into f; the rest of the compile holds no per-gate array
    table = _root_power_table(f, kappa)
    outputs = np.empty(2 << n, dtype=np.int32)
    column = [sum(2 << (n - 1 - i) for i, m in enumerate(masks) if m >> bit & 1) for bit in range(n + 1)]
    outputs[:2] = column[n] ^ np.arange(2)
    for bit in range(n):
        np.bitwise_xor(outputs[: 2 << bit], column[bit], out=outputs[2 << bit : 4 << bit])
    outputs ^= np.repeat(table == kappa, 2)
    outputs[np.repeat((table != 0) & (table != kappa), 2)] = -1
    table.flags.writeable = outputs.flags.writeable = False  # kept on the circuit, and truth_table returns outputs
    return _LinearForm(table, kappa, outputs)


def _form_of(circuit: Circuit) -> _LinearForm:
    """The linear form of `circuit`, compiled on first use and kept on it; refuses above MAX_N controls."""
    try:
        return circuit._form
    except AttributeError:  # compile outside the handler, so a refusal carries no AttributeError context
        pass
    _check_controls(circuit.n_controls)
    form = _linear_form(circuit)
    object.__setattr__(circuit, "_form", form)
    return form


def exponent_simulate(circuit: Circuit, input_bits: Sequence[int]) -> Bits | NonClassical:
    """Output of a layered circuit on one basis input, or a NonClassical marker.

    Layered means: every controlled root drives the target line from a
    control line, and no gate reads the target line. Each control line then
    carries an affine GF(2) form of the inputs, and each active gate on the
    target adds its power to the exponent mod 2*kappa, kappa being the
    largest root order: a root of order k adds its direction times kappa /
    k, and a Feynman or NOT gate kappa, since NOT = V^kappa. The target's
    operator is V^exponent; it is classical exactly when the exponent is 0
    or kappa mod 2*kappa, flipping the target in the latter case, and
    otherwise the result is NonClassical(exponent, kappa).

    An input of ints 0 and 1 is packed in one pass, any other through
    as_bits, whose rule and messages hold (see as_index). The circuit's
    compiled form holds every input's output (see _linear_form), so every
    call after its first is one read. WidthLimitError refuses above MAX_N
    controls, before any work.
    """
    width = circuit.width
    x = as_index(input_bits, width)
    form = _form_of(circuit)
    y = form.outputs.item(x)
    if y < 0:  # the exponent is a Python int from a uint64 or an object table
        return NonClassical(form.table.item(x >> 1), form.kappa)
    return index_to_bits(y, width)


def _check_controls(n: int) -> None:
    """Refuse n above MAX_N controls, for every call whose work grows as 2^n."""
    if n > MAX_N:
        raise WidthLimitError(f"n = {n} is above the limit of {MAX_N} controls")


def truth_table(circuit: Circuit) -> np.ndarray:
    """Every basis input's output index, as the compiled form's read-only int32 array of 2^width entries.

    Entry x is input x's output index, line 1 the most significant bit and
    the target the lowest, or -1 where x leaves the target non-classical; the
    two inputs (c, 0) and (c, 1) of a control vector are both classical or
    both -1. The array is the one _linear_form keeps on the circuit, so every
    call returns the same object and exponent_simulate reads the same
    entries one at a time. Raises WidthLimitError above MAX_N controls,
    before any work, and UnsupportedShapeError at the first gate that breaks
    the layered shape (see exponent_simulate).
    """
    return _form_of(circuit).outputs
