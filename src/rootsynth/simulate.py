"""Two independent circuit executors.

dense_unitary multiplies out the full 2^width unitary and is the ground
truth for small widths. exponent_simulate exploits the layered shape of all
generated circuits: control bits propagate classically through the Feynman
gates, and the gates on the target line only ever apply powers of one
kappa-th root of NOT, so it suffices to track the net power mod 2*kappa.
The root is the principal one (eigenvalues 1 and exp(i*pi/kappa)), whose
kappa-th power is NOT exactly, so both executors agree with no residual
phase.

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
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .bits import Bits, as_bits, bits_to_index, index_to_bits, pack_lsb
from .circuit import Circuit, Gate, GateKind, distinct_gates

DENSE_WIDTH_LIMIT = 7

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


def _gate_unitary(g: Gate, width: int) -> np.ndarray:
    dim = 1 << width
    u = np.zeros((dim, dim), dtype=complex)
    tmask = 1 << (width - g.target)
    if g.kind is GateKind.NOT:
        for x in range(dim):
            u[x ^ tmask, x] = 1.0
        return u
    cmask = 1 << (width - g.control)
    if g.kind is GateKind.FEYNMAN:
        for x in range(dim):
            u[x ^ tmask if x & cmask else x, x] = 1.0
        return u
    v = root_of_not(g.kappa)
    if g.direction == -1:
        v = v.conj().T
    for x in range(dim):
        if not x & cmask:
            u[x, x] = 1.0
        else:
            bt = 1 if x & tmask else 0
            u[x & ~tmask, x] = v[0, bt]
            u[x | tmask, x] = v[1, bt]
    return u


def dense_unitary(circuit: Circuit, max_width: int = DENSE_WIDTH_LIMIT) -> np.ndarray:
    """Product of the gate unitaries in circuit order.

    Basis states are indexed with line 1 as the most significant bit, so
    column bits_to_index((c1..cn,t)) holds the image of that input.
    """
    if circuit.width > max_width:
        raise WidthLimitError(
            f"width {circuit.width} exceeds the dense limit of {max_width} lines"
        )
    u = np.eye(1 << circuit.width, dtype=complex)
    for g in circuit.gates:
        u = _gate_unitary(g, circuit.width) @ u
    return u


def permutation_from_unitary(u: np.ndarray, tol: float = 1e-9) -> tuple[int, ...] | None:
    """Extract the permutation of a 0/1 permutation matrix, or None.

    Requires every column to be elementwise within tol of a basis vector
    with entry exactly 1 (a global phase would fail the check).
    """
    dim = u.shape[0]
    perm = []
    for x in range(dim):
        col = u[:, x]
        y = int(np.argmax(np.abs(col)))
        p = np.zeros(dim, dtype=complex)
        p[y] = 1.0
        if np.max(np.abs(col - p)) > tol:
            return None
        perm.append(y)
    if len(set(perm)) != dim:
        return None
    return tuple(perm)


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
    """The circuit's _LinearForm, without the table, which _form_of adds."""
    masks, coefficients, _, kappa = _walk(circuit)
    flips = coefficients.pop(0, 0) & 1
    return _LinearForm(tuple(masks), coefficients, None, flips, kappa)


# The last circuit exponent_simulate saw and its linear form. Holding the
# circuit keeps its id from being reused, so the `is` test cannot be fooled.
_last_form: tuple[Circuit | None, _LinearForm | None] = (None, None)


def _form_of(circuit: Circuit) -> _LinearForm:
    """The linear form of `circuit`, kept for the next call.

    A first call walks the gates. The next call on the same circuit object
    adds the root-power table, when the table has no more entries than the
    circuit has gates: it then costs less than the walk, and a wide circuit
    with few gates never allocates 2^n entries.
    """
    global _last_form
    last, form = _last_form
    n = circuit.n_controls
    if last is not circuit:
        form = _linear_form(circuit)
    elif form.table is None and 1 << n <= len(circuit.gates) and form.kappa <= _MAX_TABLE_KAPPA:
        form = replace(form, table=_root_power_table(form.coefficients, n, form.kappa))
    else:
        return form
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
    first two; a circuit with fewer than 2^n gates sums its coefficients
    on each call instead. A call on another circuit walks its gates once,
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


def net_root_exponent(activation: Sequence[int], controls: Sequence[int]) -> int:
    """Signed root count over all nonzero driving functions, by enumeration.

    Sums d(alpha) * <alpha, controls> mod 2 over every nonzero coefficient
    vector alpha, where the direction d(alpha) is +1 when the driving
    function alpha is 1 on the activation vector and -1 otherwise. For
    nonzero activation a this equals 2^(n-1) when controls = a and 0
    otherwise: the cascade of active roots and adjoints cancels except on
    the activation vector, where it amounts to the kappa-th power of the
    root, i.e. NOT.
    """
    act = as_bits(activation)
    ctl = as_bits(controls, length=len(act))
    a_int, c_int = pack_lsb(act), pack_lsb(ctl)
    total = 0
    for alpha in range(1, 1 << len(act)):
        direction = 1 if (alpha & a_int).bit_count() & 1 else -1
        total += direction * ((alpha & c_int).bit_count() & 1)
    return total


def net_all_root_exponent(controls: Sequence[int]) -> int:
    """Same sum with every direction +1: 2^(n-1) on any nonzero input, else 0."""
    ctl = as_bits(controls)
    c_int = pack_lsb(ctl)
    return sum((alpha & c_int).bit_count() & 1 for alpha in range(1, 1 << len(ctl)))
