"""Two independent circuit executors.

dense_unitary builds the full 2^width unitary and is the ground truth for
small widths. It views the identity as a tensor with one axis per line and
applies each gate in place to the slice it touches, at O(gates * 4^width),
as state-vector simulators do (Smelyanskiy, Sawaya and Aspuru-Guzik,
"qHiPSTER", arXiv:1601.07195). It accepts any gate on any line, so it
checks the layered executor without sharing its assumptions.

exponent_simulate exploits the layered shape of all generated circuits:
control bits propagate classically through the Feynman gates, and the gates
on the target line only ever apply powers of one kappa-th root of NOT, so it
suffices to track the net power mod 2*kappa. The root is the principal one
(eigenvalues 1 and exp(i*pi/kappa)), whose kappa-th power is NOT exactly, so
both executors agree with no residual phase.

In a layered circuit every control line holds a GF(2) linear form of the
control inputs (the mask of inputs it XORs), and every gate on the target
line adds its power to the coefficient f[m] of the mask m it reads. The net
power on control vector c is the sum of f[m] over the masks of odd parity
on c, which for all c at once is (sum(f) - WHT(f)(c)) / 2 mod 2*kappa, WHT
being the Walsh-Hadamard transform. exponent_simulate compiles a circuit
into that form once and answers each input by lookup.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bits import Bits, as_bits, bits_to_index, index_to_bits
from .circuit import Circuit, Gate, GateKind, distinct_gates, map_distinct

# A Toffoli circuit takes about 0.3 s at width 9 and 2.4 s at width 10 (one
# core of a 2-CPU Xeon box): twice the gates, each touching 4x the memory.
DENSE_WIDTH_LIMIT = 9

NOT_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class UnsupportedShapeError(ValueError):
    """Circuit is not layered: exponent tracking does not apply."""


class WidthLimitError(ValueError):
    """Circuit is too wide for the dense executor."""


def root_of_not(kappa: int) -> np.ndarray:
    """Principal kappa-th root of NOT as a 2x2 complex array.

    V = 1/2 [[1+w, 1-w], [1-w, 1+w]] with w = exp(i*pi/kappa); V has
    eigenvalues 1 and w, so V^kappa = NOT exactly. kappa = 1 gives NOT.
    """
    if kappa < 1 or kappa & (kappa - 1) != 0:
        raise ValueError(f"kappa must be a power of two >= 1, got {kappa}")
    if kappa == 1:
        return NOT_MATRIX.copy()
    w = np.exp(1j * np.pi / kappa)
    return 0.5 * np.array([[1 + w, 1 - w], [1 - w, 1 + w]])


def _gate_halves(g: Gate, width: int) -> tuple[tuple, tuple]:
    """Indices of the target = 0 and target = 1 halves of a gate's active slice.

    They index dense_unitary's tensor, whose axis i is line i+1; a control
    fixes its axis at 1, so both halves lie inside the control = 1 slice.
    """
    lo: list[int | slice] = [slice(None)] * width
    if g.control is not None:
        lo[g.control - 1] = 1
    hi = list(lo)
    lo[g.target - 1], hi[g.target - 1] = 0, 1
    return tuple(lo), tuple(hi)


def check_dense_width(width: int) -> None:
    """Raise WidthLimitError if dense_unitary would refuse this width."""
    if width > DENSE_WIDTH_LIMIT:
        raise WidthLimitError(f"width {width} exceeds the dense limit of {DENSE_WIDTH_LIMIT} lines")


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Product of the gate unitaries in circuit order.

    Basis states are indexed with line 1 as the most significant bit, so
    column bits_to_index((c1..cn,t)) holds the image of that input. The
    identity is viewed as a tensor of shape (2,)*width + (2^width,) whose
    axis i is line i+1, and each gate updates it in place on the slice it
    touches, at O(gates * 4^width) in all: NOT and Feynman gates swap the
    two halves of the target axis (inside the control = 1 slice), and a
    controlled root mixes them by its 2x2 matrix. This is the state-vector
    technique of Smelyanskiy, Sawaya and Aspuru-Guzik, "qHiPSTER"
    (arXiv:1601.07195), applied to every column at once. Any gate on any
    line is accepted; the circuit need not be layered.
    """
    width = circuit.width
    check_dense_width(width)
    dim = 1 << width
    u = np.eye(dim, dtype=complex)
    tensor = u.reshape((2,) * width + (dim,))
    roots: dict[tuple[int, int], complex] = {}

    def update(g: Gate) -> tuple[np.ndarray, np.ndarray, complex | None]:
        """The gate's two halves as views of the tensor, and q for a root."""
        lo, hi = _gate_halves(g, width)
        key = (g.kappa, g.direction)
        if g.kind is GateKind.ROOT and key not in roots:
            v = root_of_not(g.kappa)
            roots[key] = complex((v if g.direction == 1 else v.conj().T)[0, 1])
        return tensor[lo], tensor[hi], roots[key] if g.kind is GateKind.ROOT else None

    # A root of NOT, or its adjoint, is p*I + q*NOT with p + q = 1 (it fixes
    # |0> + |1>), so it maps the halves (lo, hi) to (lo - d, hi + d) with
    # d = q * (lo - hi), which needs one temporary where the 2x2 product
    # needs four.
    for lo, hi, q in map_distinct(update, circuit.gates):
        if q is None:
            saved = lo.copy()
            lo[...] = hi
            hi[...] = saved
        else:
            d = lo - hi
            d *= q
            lo -= d
            hi += d
    return u


# How far an entry of a unitary may be from 0 or 1 in a permutation matrix.
_PERMUTATION_TOL = 1e-9


def permutation_from_unitary(u: np.ndarray) -> tuple[int, ...] | None:
    """Extract the permutation of a 0/1 permutation matrix, or None.

    Requires every column to be elementwise within _PERMUTATION_TOL of a
    basis vector with entry exactly 1 (a global phase would fail the
    check), and the columns to reach distinct rows.
    """
    columns = np.arange(u.shape[0])
    perm = np.argmax(np.abs(u), axis=0)
    p = np.zeros(u.shape)
    p[perm, columns] = 1.0
    if np.max(np.abs(u - p)) > _PERMUTATION_TOL or not np.array_equal(np.sort(perm), columns):
        return None
    return tuple(perm.tolist())


@dataclass(frozen=True)
class SimState:
    """Classical control bits plus the net root power on the target line."""

    control_bits: Bits
    exponent: int
    target_flips: int
    kappa: int

    @property
    def is_classical(self) -> bool:
        return self.exponent % self.kappa == 0


@dataclass(frozen=True)
class NonClassical:
    """Marker value: the residual root power leaves the target in superposition."""

    exponent: int
    kappa: int


def _common_kappa(gates: Iterable[Gate]) -> int:
    kappas = {g.kappa for g in gates if g.kind is GateKind.ROOT}
    if len(kappas) > 1:
        raise UnsupportedShapeError(f"mixed root orders {sorted(kappas)} are not layered")
    return kappas.pop() if kappas else 1


@dataclass(frozen=True)
class _LinearForm:
    """A layered circuit as GF(2) linear forms of its control inputs.

    Control vectors are ints with line 1 as the most significant of n bits.
    masks[i] is the set of inputs whose XOR line i+1 ends up holding.
    coefficients maps each mask a target gate read to the root power it
    adds when that parity is 1; table, when built, holds the net power
    mod 2*kappa for every control vector.
    """

    masks: tuple[int, ...]
    coefficients: dict[int, int]
    table: np.ndarray | None
    flips: int
    kappa: int

    def exponent(self, c: int) -> int:
        if self.table is not None:
            return int(self.table[c])
        total = sum(f for m, f in self.coefficients.items() if (m & c).bit_count() & 1)
        return total % (2 * self.kappa)


def _root_power_table(coefficients: dict[int, int], n: int, kappa: int) -> np.ndarray:
    """E(c) = sum of f[m] * <m, c> mod 2*kappa for all 2^n control vectors c.

    With <m, c> = (1 - (-1)^|m & c|) / 2, E = (sum(f) - WHT(f)) / 2, where
    WHT is the Walsh-Hadamard transform (one butterfly per input bit; Fino
    and Algazi, IEEE Trans. Computers 1976). It runs in uint64, whose
    wrap-around is arithmetic mod 2^64; the halving leaves E exact mod 2^63,
    which 2*kappa divides for kappa <= 2^62.
    """
    modulus = 2 * kappa
    f = np.zeros(1 << n, dtype=np.uint64)
    f[list(coefficients)] = [v % modulus for v in coefficients.values()]
    h = f
    for bit in range(n):
        pairs = h.reshape(-1, 2, 1 << bit)
        h = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1)
    return ((f.sum() - h.reshape(-1)) >> np.uint64(1)) & np.uint64(modulus - 1)


# Above this root order the uint64 transform is no longer exact.
_MAX_TABLE_KAPPA = 1 << 62


def _step(g: Gate, n: int, kappa: int) -> tuple[int, int | None, int]:
    """One gate as (source line, destination line or None, power added), 0-based.

    A destination line takes the XOR of the source's mask; None adds the
    power to the coefficient of the source's mask. Line n is a constant-0
    line, so NOT gates add to the empty mask, which counts them.
    """
    w = n + 1
    if g.kind is GateKind.FEYNMAN:
        if g.control == w:
            raise UnsupportedShapeError("Feynman gate reads the target line")
        if g.target == w:
            return g.control - 1, None, kappa
        return g.control - 1, g.target - 1, 0
    if g.kind is GateKind.ROOT:
        if g.target != w or g.control == w:
            raise UnsupportedShapeError("controlled root must drive the target line")
        return g.control - 1, None, g.direction
    if g.target != w:
        raise UnsupportedShapeError("NOT gate off the target line")
    return n, None, 1


def _walk(circuit: Circuit) -> tuple[list[int], defaultdict[int, int], list[int], int]:
    """Check the layered shape and run each line's mask through the gates once.

    Returns the final mask of each control line, the coefficient of each
    mask a target-line gate read, the mask each target-line gate reads in
    circuit order (its driving function; 0 for a NOT gate), and kappa. The
    shape checks run once per distinct gate, in order of first use, so the
    first offending gate raises as it would in a gate-by-gate walk.
    """
    n = circuit.n_controls
    distinct = distinct_gates(circuit.gates)
    kappa = _common_kappa(distinct.values())
    steps = {key: _step(g, n, kappa) for key, g in distinct.items()}
    masks = [1 << (n - 1 - i) for i in range(n)] + [0]
    coefficients: defaultdict[int, int] = defaultdict(int)
    reads: list[int] = []
    for source, dest, power in map(steps.__getitem__, map(id, circuit.gates)):
        if dest is None:
            reads.append(masks[source])
            coefficients[masks[source]] += power
        else:
            masks[dest] ^= masks[source]
    return masks[:n], coefficients, reads, kappa


def _linear_form(circuit: Circuit) -> _LinearForm:
    """The circuit's _LinearForm.

    The root-power table is built when it has no more entries than the
    circuit has gates: it then costs less than the walk, and a wide circuit
    with few gates never allocates 2^n entries.
    """
    masks, coefficients, _, kappa = _walk(circuit)
    flips = coefficients.pop(0, 0) & 1
    n = circuit.n_controls
    table = None
    if 1 << n <= len(circuit.gates) and kappa <= _MAX_TABLE_KAPPA:
        table = _root_power_table(coefficients, n, kappa)
    return _LinearForm(tuple(masks), coefficients, table, flips, kappa)


# The last circuit exponent_simulate saw and its linear form. Holding the
# circuit keeps its id from being reused, so the `is` test cannot be fooled.
_last_form: tuple[Circuit | None, _LinearForm | None] = (None, None)


def _form_of(circuit: Circuit) -> _LinearForm:
    """The linear form of `circuit`, kept for the next call."""
    global _last_form
    last, form = _last_form
    if last is not circuit:
        form = _linear_form(circuit)
        _last_form = (circuit, form)
    return form


def exponent_simulate(circuit: Circuit, input_bits: Sequence[int]) -> SimState:
    """Run a basis input through a layered circuit.

    Layered means: Feynman gates combine control lines (or drive the target
    line, which is exact because NOT is the kappa-th power of the root), all
    controlled roots share one kappa and target the target line, and NOT
    gates act on the target line only. Each control line then carries a
    GF(2) linear form of the inputs, and each active root adds its
    direction to the exponent, accumulated mod 2*kappa. The input target bit
    does not influence the result; see classical_output.

    The circuit is compiled into its linear form: the final mask of each
    control line and, from a Walsh-Hadamard transform, the net root power
    of every control vector. The form of the last circuit object passed in
    is kept, so repeated calls on one circuit cost O(n) each after the
    first; a circuit with fewer than 2^n gates sums its coefficients on
    each call instead. A call on another circuit walks its gates once,
    as every call did before; circuits that alternate keep paying that walk.
    """
    bits = as_bits(input_bits, length=circuit.width)
    form = _form_of(circuit)
    c = bits_to_index(bits[: circuit.n_controls])
    controls = tuple((m & c).bit_count() & 1 for m in form.masks)
    return SimState(controls, form.exponent(c), form.flips, form.kappa)


def classical_output(sim: SimState, t: int) -> Bits | NonClassical:
    """Full output vector for input target bit t, or a NonClassical marker.

    The net target operator is V^exponent (times NOT per target flip); it is
    classical exactly when the exponent is 0 or kappa mod 2*kappa, flipping
    the target in the latter case.
    """
    if t not in (0, 1):
        raise ValueError(f"target bit must be 0 or 1, got {t}")
    if not sim.is_classical:
        return NonClassical(sim.exponent, sim.kappa)
    flip = sim.target_flips ^ (1 if sim.exponent == sim.kappa else 0)
    return sim.control_bits + (t ^ flip,)


@dataclass(frozen=True)
class TruthTableResult:
    """Permutation over 2^width basis inputs, or the inputs left non-classical."""

    width: int
    permutation: tuple[int, ...] | None
    non_classical: tuple[Bits, ...] = ()

    @property
    def is_classical(self) -> bool:
        return self.permutation is not None


def truth_table(circuit: Circuit) -> TruthTableResult:
    """Exponent-simulate every basis input of a layered circuit."""
    n, w = circuit.n_controls, circuit.width
    perm: list[int] = [0] * (1 << w)
    bad: list[Bits] = []
    for cidx in range(1 << n):
        cbits = index_to_bits(cidx, n)
        sim = exponent_simulate(circuit, cbits + (0,))
        for t in (0, 1):
            out = classical_output(sim, t)
            if isinstance(out, NonClassical):
                bad.append(cbits + (t,))
            else:
                perm[(cidx << 1) | t] = bits_to_index(out)
    if bad:
        return TruthTableResult(w, None, tuple(bad))
    return TruthTableResult(w, tuple(perm))
