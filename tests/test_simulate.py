import copy
import dataclasses
import gc
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from references import (
    activation_indices,
    dense_matches,
    oracle_permutation,
    reference_bits_to_index,
    reference_index_to_bits,
)

from rootsynth import simulate, verify
from rootsynth.bits import as_bits, as_index, index_to_bits
from rootsynth.circuit import Circuit, GateKind, controlled_root, feynman, not_gate
from rootsynth.simulate import (
    DENSE_WIDTH_LIMIT,
    MAX_N,
    NOT_MATRIX,
    NonClassical,
    UnsupportedShapeError,
    WidthLimitError,
    dense_unitary,
    exponent_simulate,
    root_of_not,
    truth_table,
)
from rootsynth.synth import (
    converter_peres_to_toffoli,
    converter_toffoli_to_peres,
    synth_barenco_toffoli,
    synth_peres,
    synth_toffoli,
    synth_zero_polarity,
)
from rootsynth.textio import load_circuit, serialize
from rootsynth.verify import GateFamilySpec, activation_set, check_equivalence


def repeated_power(m, k):
    out = np.eye(2, dtype=complex)
    for _ in range(k):
        out = out @ m
    return out


class TestRootOfNot:
    def test_order_one_is_not_itself(self):
        assert np.array_equal(root_of_not(1), NOT_MATRIX)

    def test_square_root(self):
        want = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
        assert np.max(np.abs(root_of_not(2) - want)) < 1e-12
        assert np.max(np.abs(repeated_power(root_of_not(2), 2) - NOT_MATRIX)) < 1e-12

    @pytest.mark.parametrize("kappa", [1, 2, 4, 8, 16, 32])
    def test_kappa_th_power_is_not(self, kappa):
        v = root_of_not(kappa)
        assert np.max(np.abs(repeated_power(v, kappa) - NOT_MATRIX)) < 1e-12

    @pytest.mark.parametrize("kappa", [1, 2, 4, 8, 16, 32])
    def test_unitary(self, kappa):
        v = root_of_not(kappa)
        assert np.max(np.abs(v @ v.conj().T - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("kappa", [0, -1, 3, 6, 12])
    def test_rejects_bad_order(self, kappa):
        with pytest.raises(ValueError):
            root_of_not(kappa)


class TestDenseUnitary:
    def test_empty_is_identity(self):
        assert np.array_equal(dense_unitary(Circuit(2)), np.eye(8))

    def test_single_feynman(self):
        # |c1 c2> -> |c1, c1 xor c2>: columns 2 and 3 swap.
        u = dense_unitary(Circuit(1, (feynman(1, 2),)))
        want = np.zeros((4, 4))
        for c1 in (0, 1):
            for c2 in (0, 1):
                want[(c1 << 1) | (c1 ^ c2), (c1 << 1) | c2] = 1.0
        assert np.array_equal(u, want)

    def test_not_gate(self):
        u = dense_unitary(Circuit(1, (not_gate(2),)))
        want = np.zeros((4, 4))
        for x in range(4):
            want[x ^ 1, x] = 1.0
        assert np.array_equal(u, want)

    def test_peres_two_controls_matches_function_table(self):
        assert dense_matches(synth_peres(2), oracle_permutation(GateFamilySpec("peres", 2)))

    def test_adjoint_pair_cancels(self):
        c = synth_peres(3, (0, 1, 1))
        u = dense_unitary(c.compose(c.adjoint()))
        assert np.max(np.abs(u - np.eye(16))) < 1e-9

    def test_width_limit(self):
        with pytest.raises(WidthLimitError):
            dense_unitary(Circuit(DENSE_WIDTH_LIMIT))

    def test_width_limit_is_inclusive(self):
        assert dense_unitary(Circuit(DENSE_WIDTH_LIMIT - 1)).shape == (1 << DENSE_WIDTH_LIMIT,) * 2
        with pytest.raises(WidthLimitError, match=f"width {DENSE_WIDTH_LIMIT + 1} exceeds"):
            dense_unitary(Circuit(DENSE_WIDTH_LIMIT))


class TestExponentSimulate:
    def test_four_controls_all_active_reaches_kappa(self):
        # Exponent kappa = 8 negates the target; prefix parities on the controls.
        assert exponent_simulate(synth_peres(4), (1, 1, 1, 1, 0)) == (1, 0, 1, 0, 1)

    def test_one_inactive_control_cancels(self):
        assert exponent_simulate(synth_peres(4), (1, 1, 1, 0, 0)) == (1, 0, 1, 1, 0)

    def test_mixed_polarity_activation(self):
        c = synth_peres(2, (1, 0))
        targets = {}
        for cidx in range(4):
            cbits = index_to_bits(cidx, 2)
            targets[cbits] = exponent_simulate(c, cbits + (0,))[-1]
        assert targets == {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}

    def test_prefix_parities_on_control_lines(self):
        assert exponent_simulate(synth_peres(3), (1, 1, 1, 0)) == (1, 0, 1, 1)

    def test_not_gates_toggle_flips(self):
        # Exponent 0 leaves the target to the one NOT gate.
        c = synth_zero_polarity(2, "and-complemented")
        assert exponent_simulate(c, (0, 0, 0)) == (0, 0, 1)

    def test_input_length_checked(self):
        with pytest.raises(ValueError):
            exponent_simulate(synth_peres(2), (1, 1))

    def test_mixed_root_orders_count_in_units_of_the_finest_root(self):
        c = Circuit(2, (controlled_root(2, 1, 1, 3), controlled_root(4, 1, 2, 3)))
        assert exponent_simulate(c, (1, 0, 0)) == NonClassical(2, 4)
        assert exponent_simulate(c, (1, 1, 0)) == NonClassical(3, 4)
        assert_matches_dense(c)

    def test_rejects_root_off_target_line(self):
        c = Circuit(2, (controlled_root(2, 1, 1, 2),))
        with pytest.raises(UnsupportedShapeError):
            exponent_simulate(c, (0, 0, 0))

    def test_rejects_feynman_reading_target(self):
        c = Circuit(2, (feynman(3, 1),))
        with pytest.raises(UnsupportedShapeError):
            exponent_simulate(c, (0, 0, 0))

    def test_not_on_a_control_line_toggles_it(self):
        # The Feynman gate reads not c1 and adds kappa = 2; the root adds c2.
        c = Circuit(2, (not_gate(1), feynman(1, 3), controlled_root(2, 1, 2, 3), not_gate(1)))
        assert exponent_simulate(c, (0, 0, 0)) == (0, 0, 1)
        assert exponent_simulate(c, (1, 0, 0)) == (1, 0, 0)
        assert exponent_simulate(c, (0, 1, 0)) == NonClassical(3, 2)
        assert_matches_dense(c)

    def test_not_on_the_target_counts_in_the_non_classical_exponent(self):
        # NOT * V = V^3: the NOT adds kappa to the root's power of 1.
        c = Circuit(1, (controlled_root(2, 1, 1, 2), not_gate(2)))
        assert exponent_simulate(c, (1, 0)) == NonClassical(3, 2)
        assert exponent_simulate(c, (0, 0)) == (0, 1)
        assert_matches_dense(c)

    def test_feynman_driving_target_counts_as_full_power(self):
        # The n = 1 construction conditions NOT itself on the control.
        c = synth_peres(1)
        assert exponent_simulate(c, (1, 0)) == (1, 1)
        assert exponent_simulate(c, (0, 0)) == (0, 0)


class TestClassicalOutput:
    def test_exponent_kappa_negates_target(self):
        c = synth_peres(2)
        assert exponent_simulate(c, (1, 1, 0)) == (1, 0, 1)
        assert exponent_simulate(c, (1, 1, 1)) == (1, 0, 0)

    def test_exponent_zero_passes_target(self):
        assert exponent_simulate(synth_peres(2), (1, 0, 0)) == (1, 1, 0)

    def test_partial_power_is_non_classical(self):
        c = Circuit(1, (controlled_root(2, 1, 1, 2),))
        for t in (0, 1):
            assert exponent_simulate(c, (1, t)) == NonClassical(1, 2)

    def test_rejects_bad_target_bit(self):
        with pytest.raises(ValueError):
            exponent_simulate(synth_peres(2), (1, 1, 2))


class TestTruthTable:
    def test_peres_two_controls(self):
        perm = truth_table(synth_peres(2))
        assert perm.dtype == np.int32 and perm.shape == (8,) and (perm >= 0).all()
        assert perm[as_index((1, 1, 0), 3)] == as_index((1, 0, 1), 3)
        assert perm[as_index((1, 0, 0), 3)] == as_index((1, 1, 0), 3)
        assert perm[0] == 0

    def test_converters_permute_controls_only(self):
        for n in (2, 3, 4):
            tt = truth_table(converter_toffoli_to_peres(n))
            assert (tt >= 0).all()
            for x, y in enumerate(tt.tolist()):
                assert x & 1 == y & 1  # target untouched

    def test_round_trip_converters_compose_to_identity(self):
        for n in (2, 3, 4, 5):
            c = converter_toffoli_to_peres(n).compose(converter_peres_to_toffoli(n))
            assert np.array_equal(truth_table(c), np.arange(1 << (n + 1)))

    def test_non_classical_inputs_reported(self):
        c = Circuit(1, (controlled_root(2, 1, 1, 2),))
        tt = truth_table(c)
        assert tt.tolist() == [0, 1, -1, -1]  # both inputs of control vector 1
        assert reference_index_to_bits(int(np.flatnonzero(tt < 0)[0]), 2) == (1, 0)


class TestTruthTableIsTheKeptForm:
    def test_two_calls_return_the_same_array(self):
        c = synth_peres(4, (1, 0, 1, 1))
        assert truth_table(c) is truth_table(c)
        assert truth_table(c) is c._form.outputs

    def test_writing_into_it_is_refused_and_later_simulation_is_unchanged(self):
        c = Circuit(3, random_layered_circuit(random.Random(11), 3, 8, 40))
        tt = truth_table(c)
        for write in (lambda: tt.__setitem__(0, 5), lambda: tt.fill(-1), lambda: np.add(tt, 1, out=tt)):
            with pytest.raises(ValueError, match="read-only"):
                write()
        with pytest.raises(ValueError, match="read-only"):
            c._form.table[0] = 1
        assert_matches_reference(c, every_input(c))

    def test_a_compiled_circuit_returns_it_allocating_under_4_kib(self):
        c = synth_toffoli(16)
        exponent_simulate(c, (0,) * 17)  # compiles the form
        tracemalloc.start()
        try:
            tt = truth_table(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 10, peak
        assert tt.size == 1 << 17 and tt[-1] == (1 << 17) - 2


class TestDenseAgreesWithExponent:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: synth_peres(2, (0, 1)),
            lambda: synth_peres(3),
            lambda: synth_peres(4, (1, 0, 0, 1)),
            lambda: synth_toffoli(3, (1, 1, 0)),
            lambda: synth_barenco_toffoli(3, (0, 0, 1)),
            lambda: synth_zero_polarity(3, "or-gate"),
            lambda: synth_zero_polarity(3, "and-complemented"),
            lambda: converter_toffoli_to_peres(4),
        ],
    )
    def test_same_permutation(self, make):
        c = make()
        tt = truth_table(c)
        assert (tt >= 0).all()
        assert dense_matches(c, tt)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_adjoint_composition_is_identity(self, n):
        for c in (synth_peres(n), synth_toffoli(n), synth_barenco_toffoli(n)):
            tt = truth_table(c.compose(c.adjoint()))
            assert np.array_equal(tt, np.arange(1 << (n + 1)))


def net_root_exponent(activation, controls):
    """Signed root count over all nonzero driving functions, by enumeration.

    Sums d(alpha) * <alpha, controls> mod 2 over every nonzero coefficient
    vector alpha, where the direction d(alpha) is +1 when the driving
    function alpha is 1 on the activation vector and -1 otherwise. For
    nonzero activation a this equals 2^(n-1) when controls = a and 0
    otherwise: the cascade of active roots and adjoints cancels except on
    the activation vector, where it amounts to the kappa-th power of the
    root, i.e. NOT.
    """
    act = as_bits(activation, len(activation))
    a_int, c_int = reference_bits_to_index(act), reference_bits_to_index(as_bits(controls, length=len(act)))
    total = 0
    for alpha in range(1, 1 << len(act)):
        direction = 1 if (alpha & a_int).bit_count() & 1 else -1
        total += direction * ((alpha & c_int).bit_count() & 1)
    return total


def net_all_root_exponent(controls):
    """Same sum with every direction +1: 2^(n-1) on any nonzero input, else 0."""
    ctl = as_bits(controls, len(controls))
    c_int = reference_bits_to_index(ctl)
    return sum((alpha & c_int).bit_count() & 1 for alpha in range(1, 1 << len(ctl)))


class TestNetRootExponent:
    def test_anchor_four_controls(self):
        assert net_root_exponent((1, 1, 1, 1), (1, 1, 1, 1)) == 8

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_selects_exactly_the_activation(self, n):
        for aidx in range(1, 1 << n):
            a = index_to_bits(aidx, n)
            for cidx in range(1 << n):
                c = index_to_bits(cidx, n)
                want = (1 << (n - 1)) if c == a else 0
                assert net_root_exponent(a, c) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_all_roots_give_or_behavior(self, n):
        for cidx in range(1 << n):
            c = index_to_bits(cidx, n)
            want = (1 << (n - 1)) if any(c) else 0
            assert net_all_root_exponent(c) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_circuit_exponent(self, n):
        a = index_to_bits((1 << n) - 2, n)  # 1...10
        circuit = synth_peres(n, a)
        form = simulate._linear_form(circuit)
        for cidx in range(1 << n):
            c = index_to_bits(cidx, n)
            want = net_root_exponent(a, c) % (2 * form.kappa)
            assert int(form.table[cidx]) == want
            assert exponent_simulate(circuit, c + (0,))[-1] == want // form.kappa


def reference_walk(circuit, bits, gates):
    """The gate-by-gate walk over gates, which is circuit.gates decoded once by
    the caller: (control bits, exponent mod 2*kappa, kappa).

    kappa is the largest root order. A NOT gate toggles its control line's
    bit or adds kappa on the target, a Feynman gate onto the target adds
    kappa when its control is 1, and a root of order k adds direction *
    kappa / k.
    """
    w = circuit.target_line
    kappa = max((g.kappa for g in gates if g.kind is GateKind.ROOT), default=1)
    modulus = 2 * kappa
    controls = list(bits[: circuit.n_controls])
    exponent = 0
    for g in gates:
        if g.kind is GateKind.NOT:
            if g.target == w:
                exponent = (exponent + kappa) % modulus
            else:
                controls[g.target - 1] ^= 1
        elif g.kind is GateKind.FEYNMAN:
            if g.control == w:
                raise UnsupportedShapeError("Feynman gate reads the target line")
            if g.target == w:
                exponent = (exponent + kappa * controls[g.control - 1]) % modulus
            else:
                controls[g.target - 1] ^= controls[g.control - 1]
        elif g.kind is GateKind.ROOT:
            if g.target != w or g.control == w:
                raise UnsupportedShapeError("controlled root must drive the target line")
            exponent = (exponent + g.direction * (kappa // g.kappa) * controls[g.control - 1]) % modulus
    return tuple(controls), exponent, kappa


def reference_exponent_simulate(circuit, input_bits, gates):
    """The gate-by-gate walk exponent_simulate replaced, over gates (circuit.gates), then the target rule."""
    bits = as_bits(input_bits, length=circuit.width)
    controls, exponent, kappa = reference_walk(circuit, bits, gates)
    if exponent % kappa:
        return NonClassical(exponent, kappa)
    return controls + ((bits[-1] + exponent // kappa) % 2,)


def outcome(simulator, circuit, *args):
    try:
        return simulator(circuit, *args)
    except UnsupportedShapeError as exc:
        return type(exc), str(exc)


def assert_matches_reference(circuit, inputs):
    gates = circuit.gates
    for bits in inputs:
        want = outcome(reference_exponent_simulate, circuit, bits, gates)
        assert outcome(exponent_simulate, circuit, bits) == want, (circuit, bits)


def every_input(circuit):
    return [reference_index_to_bits(x, circuit.width) for x in range(1 << circuit.width)]


def counted_compiles(monkeypatch):
    """The circuits _linear_form compiles from here on, in call order."""
    calls = []
    original = simulate._linear_form

    def counting(circuit):
        calls.append(circuit)
        return original(circuit)

    monkeypatch.setattr(simulate, "_linear_form", counting)
    return calls


def assert_matches_dense(circuit):
    """Every input's exponent_simulate result against its column of dense_unitary; returns the results.

    A classical result is the column's basis vector. For NonClassical(e,
    kappa) the column is zero but for one pair of rows, those of some
    control output, which holds column t of V^e, V = root_of_not(kappa).
    """
    u = dense_unitary(circuit)
    results = []
    for x, bits in enumerate(every_input(circuit)):
        got = exponent_simulate(circuit, bits)
        if isinstance(got, NonClassical):
            pairs = u[:, x].reshape(-1, 2)
            rows = np.flatnonzero(np.abs(pairs).max(axis=1) > 1e-9)
            want = np.linalg.matrix_power(root_of_not(got.kappa), got.exponent)[:, bits[-1]]
            assert rows.size == 1 and np.max(np.abs(pairs[rows[0]] - want)) < 1e-9, (circuit, bits, got)
        else:
            want = np.zeros(u.shape[0])
            want[reference_bits_to_index(got)] = 1
            assert np.max(np.abs(u[:, x] - want)) < 1e-9, (circuit, bits, got)
        results.append(got)
    return results


FAMILY_BUILDERS = {
    "peres": lambda n, a: synth_peres(n, a),
    "toffoli": lambda n, a: synth_toffoli(n, a),
    "barenco": lambda n, a: synth_barenco_toffoli(n, a),
    "or-gate": lambda n, a: synth_zero_polarity(n, "or-gate"),
    "and-complemented": lambda n, a: synth_zero_polarity(n, "and-complemented"),
    "toffoli-to-peres": lambda n, a: converter_toffoli_to_peres(n),
    "peres-to-toffoli": lambda n, a: converter_peres_to_toffoli(n),
}


def random_layered_circuit(rng, n, kappa, size):
    """Gates of every layered kind: Feynman ladders, Feynman gates and roots onto the target, NOT gates on any line.

    Each root's order is kappa or one of the n + 1 powers of two below it, down to 1.
    """
    w = n + 1
    orders = [kappa >> j for j in range(min(n + 2, kappa.bit_length()))]
    gates = []
    for _ in range(size):
        kind = rng.randrange(4)
        line = rng.randrange(1, w)
        if kind == 0 and n > 1:
            gates.append(feynman(line, rng.choice([x for x in range(1, w) if x != line])))
        elif kind == 1:
            gates.append(feynman(line, w))
        elif kind == 2:
            gates.append(controlled_root(rng.choice(orders), rng.choice((1, -1)), line, w))
        else:
            gates.append(not_gate(rng.randrange(1, w + 1)))
    return gates


def random_circuits(seed):
    """Ten seeded circuits of up to 5 controls and root orders up to 2^(n+1); about 4 in 10 leave the layered shape."""
    rng = random.Random(seed)
    for _ in range(10):
        n = rng.randrange(1, 6)
        kappa = 1 << rng.randrange(0, n + 2)
        gates = random_layered_circuit(rng, n, kappa, rng.randrange(0, 4 << n))
        if rng.random() < 0.4:
            gates = break_shape(rng, n, kappa, gates)
        yield Circuit(n, gates)


def break_shape(rng, n, kappa, gates):
    """Insert one gate that leaves the layered shape."""
    w = n + 1
    line = rng.randrange(1, w)
    other = line % n + 1
    bad = rng.choice([
        feynman(w, line),  # Feynman gate reading the target
        controlled_root(kappa, 1, w, line),  # root off the target line
    ] + ([controlled_root(kappa, -1, line, other)] if n > 1 else []))  # root between controls
    gates.insert(rng.randrange(len(gates) + 1), bad)
    return gates


class TestRootPowerTable:
    @pytest.mark.parametrize("kappa", [1, 2, 4, 16, 1 << 62, 1 << 63, 1 << 70])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_its_defining_sum(self, n, kappa):
        rng = random.Random(f"root power table {n} {kappa}")
        dtype = np.uint64 if kappa <= 1 << 62 else object  # as _walk chooses
        # A uint64 coefficient may have wrapped round 2^64, which 2*kappa divides.
        f = [rng.randrange(1 << 64 if dtype is np.uint64 else 8 * kappa) for _ in range(2 << n)]
        # E(c) = sum of f[m] * <m, (1, c)> mod 2*kappa, the constant line being bit n.
        want = [sum(f[m] for m in range(2 << n) if bin(m & (1 << n | c)).count("1") % 2) % (2 * kappa)
                for c in range(1 << n)]
        table = simulate._root_power_table(np.array(f, dtype=dtype), kappa)
        assert table.dtype == dtype and list(map(int, table)) == want


class TestLinearFormMatchesReference:
    @pytest.mark.parametrize(
        "family, n",
        [(f, n) for f in FAMILY_BUILDERS for n in range(1, 9)],
    )
    def test_every_family_on_every_input(self, family, n):
        rng = random.Random(31 * n + len(family))
        activation = index_to_bits(rng.randrange(1, 1 << n), n)
        circuit = FAMILY_BUILDERS[family](n, activation)
        assert_matches_reference(circuit, every_input(circuit))

    # Any sequence of values equal to 0 or 1 gives the same output, a tuple of
    # Python ints, so a report never holds numpy scalars or bools.
    @pytest.mark.parametrize(
        "family, n",
        [(f, n) for f in FAMILY_BUILDERS for n in range(1, 7)],
    )
    def test_every_kind_of_input_gives_a_tuple_of_ints(self, family, n):
        activation = index_to_bits(random.Random(17 * n + len(family)).randrange(1, 1 << n), n)
        circuit = FAMILY_BUILDERS[family](n, activation)
        gates = circuit.gates
        for bits in every_input(circuit):
            want = reference_exponent_simulate(circuit, bits, gates)
            for given in (list(bits), bits, np.array(bits), tuple(map(bool, bits))):
                out = exponent_simulate(circuit, given)
                assert out == want, (circuit.label, given)
                assert type(out) is tuple and all(type(b) is int for b in out), (circuit.label, given)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_circuits_including_rejected_shapes(self, seed):
        for circuit in random_circuits(seed):
            assert_matches_reference(circuit, every_input(circuit))

    @pytest.mark.parametrize("kappa", [1 << 62, 1 << 63, 1 << 70])
    def test_root_orders_beyond_machine_words(self, kappa):
        rng = random.Random(kappa.bit_length())
        circuit = Circuit(3, random_layered_circuit(rng, 3, kappa, 40))
        assert_matches_reference(circuit, every_input(circuit))

    def test_compiling_peaks_within_three_and_a_half_times_the_codes(self):
        circuit = synth_toffoli(16)
        tracemalloc.start()
        try:
            simulate._linear_form(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Bounds on peaks are stated per gate in units of an 8-byte (intp) code, whatever dtype the codes take.
        assert peak <= 3.5 * 8 * len(circuit), (peak, len(circuit))

    def test_one_input_of_a_wide_circuit_is_refused_before_any_walk(self, monkeypatch):
        n = 40
        circuit = Circuit(n, random_layered_circuit(random.Random(5), n, 1 << 39, 60))

        def refuse(*args):
            raise AssertionError("work began before the width check")

        with monkeypatch.context() as m:
            for name in ("_walk", "_linear_form", "_root_power_table"):
                m.setattr(simulate, name, refuse)
            with pytest.raises(WidthLimitError, match=f"n = {n} is above the limit of {MAX_N} controls") as refusal:
                exponent_simulate(circuit, (1, 0) * 20 + (1,))
        assert refusal.value.__context__ is None and not hasattr(circuit, "_form")

    def test_every_entry_point_refuses_more_than_max_n_controls(self, tmp_path, monkeypatch):
        n = 40
        path = tmp_path / "wide.txt"
        path.write_text(serialize(Circuit(n, random_layered_circuit(random.Random(5), n, 1 << 39, 60))))
        circuit = load_circuit(str(path))

        def refuse(*args):
            raise AssertionError("work began before the width check")

        with monkeypatch.context() as m:
            for module, name in ((simulate, "_linear_form"), (simulate, "_root_power_table"),
                                 (verify, "exponent_simulate")):
                m.setattr(module, name, refuse)
            for call in (truth_table, activation_set, lambda c: check_equivalence(c, GateFamilySpec("toffoli", n)),
                         lambda c: exponent_simulate(c, (1, 0) * 20 + (1,))):
                with pytest.raises(WidthLimitError, match=f"n = {n} is above the limit of {MAX_N} controls"):
                    call(circuit)

    def test_the_control_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(simulate, "MAX_N", 3)
        assert (truth_table(synth_toffoli(3)) >= 0).all()
        assert check_equivalence(synth_toffoli(3), GateFamilySpec("toffoli", 3)).ok
        with pytest.raises(WidthLimitError, match="n = 4 is above the limit of 3 controls"):
            truth_table(synth_toffoli(4))

    def test_first_call_builds_the_table(self):
        circuit = Circuit(3, random_layered_circuit(random.Random(7), 3, 8, 40))
        assert not hasattr(circuit, "_form")
        bits = (1, 0, 1, 0)
        assert exponent_simulate(circuit, bits) == reference_exponent_simulate(circuit, bits, circuit.gates)
        assert circuit._form.table is not None

    def test_a_dropped_circuit_takes_its_compiled_form_with_it(self):
        synth_toffoli(16)  # the generators keep each n's gate table for the life of the process
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            circuit = synth_toffoli(16, (1, 0) * 8)
            assert activation_set(circuit).tolist() == activation_indices({(1, 0) * 8})
            del circuit
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert kept <= 64 << 10, kept

    def test_alternating_circuits(self):
        a, b = synth_peres(4, (1, 0, 1, 1)), synth_toffoli(4, (0, 1, 1, 0))
        a_gates, b_gates = a.gates, b.gates
        for bits in every_input(a):
            for circuit, gates in ((a, a_gates), (b, b_gates)):
                assert exponent_simulate(circuit, bits) == reference_exponent_simulate(circuit, bits, gates)

    def test_alternating_calls_compile_each_circuit_once(self, monkeypatch):
        calls = counted_compiles(monkeypatch)
        self.test_alternating_circuits()
        assert len(calls) == 2

    def test_a_simulated_circuit_is_the_same_value_as_a_fresh_one(self):
        simulated, fresh = (synth_peres(4, (1, 0, 1, 1)) for _ in range(2))
        truth_table(simulated)
        assert hasattr(simulated, "_form") and not hasattr(fresh, "_form")

        def views(c):
            copies = [dataclasses.replace(c, label="x"), copy.copy(c), pickle.loads(pickle.dumps(c))]
            return copies, [(x, hash(x), repr(x)) for x in [c, *copies]]

        (copies, seen), (_, want) = views(simulated), views(fresh)
        assert seen == want
        assert not any(hasattr(c, "_form") for c in copies)

    def test_truth_table_compiles_the_circuit_once(self, monkeypatch):
        calls = counted_compiles(monkeypatch)
        circuit = synth_toffoli(6, (1, 0, 0, 1, 1, 0))
        tt = truth_table(circuit)
        assert calls == [circuit]
        assert np.array_equal(tt, oracle_permutation(GateFamilySpec("toffoli", 6, (1, 0, 0, 1, 1, 0))))


class TestLayeredMatchesDense:
    # Root orders 1..2^(n+1) mixed in one circuit and NOT gates on every line,
    # each input checked against the dense unitary, not the reference walk.
    @pytest.mark.parametrize("seed", range(12))
    def test_random_layered_circuits(self, seed):
        rng = random.Random(seed)
        kinds, mixed, not_on_a_control = set(), 0, 0
        for n in range(1, 6):
            circuit = Circuit(n, random_layered_circuit(rng, n, 1 << rng.randrange(0, n + 2), rng.randrange(0, 4 << n)))
            kinds |= {type(got) for got in assert_matches_dense(circuit)}
            mixed += len({g.kappa for g in circuit.table if g.kind is GateKind.ROOT}) > 1
            not_on_a_control += any(g.kind is GateKind.NOT and g.target <= n for g in circuit.table)
        assert kinds == {tuple, NonClassical} and mixed and not_on_a_control, (kinds, mixed, not_on_a_control)


def reference_truth_table(circuit):
    """Every input through the gate-by-gate walk, as truth_table's reference: output indices, -1 where non-classical.

    It reads no compiled form, so truth_table is not compared with the
    outputs it shares with exponent_simulate.
    """
    w, gates = circuit.width, circuit.gates
    outputs = [reference_exponent_simulate(circuit, reference_index_to_bits(x, w), gates) for x in range(1 << w)]
    return np.array([-1 if isinstance(y, NonClassical) else reference_bits_to_index(y) for y in outputs])


def assert_table_matches_reference(circuit):
    """Every entry the same, or the same exception type and message; returns truth_table's result."""
    want = outcome(reference_truth_table, circuit)
    got = outcome(truth_table, circuit)
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and got == want, circuit
    else:
        assert got.dtype == np.int32 and not got.flags.writeable, circuit
        assert got.tolist() == want.tolist(), circuit
        assert np.array_equal(got[0::2] < 0, got[1::2] < 0), circuit  # a control vector's two inputs alike
    return got


def assert_activation_set_matches_reference(circuit):
    """The vectors that fire read from the reference walk's targets of (c, 0), or the same refusal."""
    want = outcome(reference_truth_table, circuit)
    try:
        got = activation_set(circuit)
    except ValueError as exc:
        got = type(exc), str(exc)
    if isinstance(want, tuple):
        assert got == want, circuit
    elif (want < 0).any():
        first = reference_index_to_bits(int(np.flatnonzero(want[0::2] < 0)[0]), circuit.n_controls)
        assert got == (ValueError, f"non-classical target for control vector {first}"), circuit
    else:
        assert got.dtype == np.intp and got.tolist() == np.flatnonzero(want[0::2] & 1).tolist(), circuit


class TestTruthTableMatchesReference:
    @pytest.mark.parametrize(
        "family, n",
        [(f, n) for f in FAMILY_BUILDERS for n in range(1, 9)],
    )
    def test_every_family(self, family, n):
        rng = random.Random(31 * n + len(family))
        activation = index_to_bits(rng.randrange(1, 1 << n), n)
        assert (assert_table_matches_reference(FAMILY_BUILDERS[family](n, activation)) >= 0).all()

    def test_random_circuits_including_rejected_and_non_classical(self):
        kinds = {"raises": 0, "non-classical": 0, "classical": 0}
        for seed in range(40):
            for circuit in random_circuits(seed):
                got = assert_table_matches_reference(circuit)
                assert_activation_set_matches_reference(circuit)
                if isinstance(got, tuple):
                    kinds["raises"] += 1
                else:
                    kinds["classical" if (got >= 0).all() else "non-classical"] += 1
        assert sum(kinds.values()) == 400 and min(kinds.values()) >= 50, kinds

    @pytest.mark.parametrize("kappa", [1 << 62, 1 << 63, 1 << 70])
    def test_root_orders_beyond_machine_words(self, kappa):
        rng = random.Random(kappa.bit_length())
        assert_table_matches_reference(Circuit(3, random_layered_circuit(rng, 3, kappa, 40)))

    def test_root_order_beyond_uint64_builds_a_table(self):
        circuit = Circuit(3, random_layered_circuit(random.Random(8), 3, 1 << 70, 40))
        table = simulate._linear_form(circuit).table
        assert table is not None
        gates = circuit.gates
        want = [reference_walk(circuit, index_to_bits(c, 3) + (0,), gates)[1] for c in range(8)]
        assert table.tolist() == want

    def test_fewer_gates_than_control_vectors(self):
        n = 9
        circuit = Circuit(n, random_layered_circuit(random.Random(9), n, 1 << 8, 300))
        assert_table_matches_reference(circuit)

    def test_the_first_non_classical_input_in_input_order(self):
        w = 4
        gates = [controlled_root(4, 1, 1, w), feynman(2, 3), controlled_root(4, -1, 3, w), not_gate(w)]
        circuit = Circuit(3, gates)
        got = assert_table_matches_reference(circuit)
        # E(c) = c1 - (c2 xor c3) + 4 mod 8, the NOT adding kappa, is 5 or 3 where
        # c1 = not (c2 xor c3), on c = 001, 010, 100 and 111; the first input is 001 with target 0.
        assert reference_index_to_bits(int(np.flatnonzero(got < 0)[0]), w) == (0, 0, 1, 0)

    def test_makes_no_exponent_simulate_call(self, monkeypatch):
        calls = []

        def counting(circuit, bits):
            calls.append(bits)
            return exponent_simulate(circuit, bits)

        monkeypatch.setattr(simulate, "exponent_simulate", counting)
        tt = truth_table(synth_peres(5, (1, 0, 1, 1, 0)))
        assert calls == [] and np.array_equal(tt, oracle_permutation(GateFamilySpec("peres", 5, (1, 0, 1, 1, 0))))


def reference_gate_unitary(g, width):
    """The full 2^width matrix of one gate, built entry by entry."""
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


def reference_dense_unitary(circuit):
    """The per-gate matrix product dense_unitary replaced, kept as the reference."""
    u = np.eye(1 << circuit.width, dtype=complex)
    for g in circuit.gates:
        u = reference_gate_unitary(g, circuit.width) @ u
    return u


def random_general_circuit(rng, n, size):
    """Gates of every kind on any lines, with each shape the layered executor rejects.

    Besides `size` random gates it holds a root that targets a control line
    and a Feynman gate that reads the target line, which the layered
    executor rejects, and a NOT on a control line and roots of two orders,
    which it accepts.
    """
    w = n + 1

    def root(control, target):
        return controlled_root(1 << rng.randrange(0, 5), rng.choice((1, -1)), control, target)

    gates = []
    for _ in range(size):
        kind = rng.randrange(3)
        if kind == 0:
            gates.append(feynman(*rng.sample(range(1, w + 1), 2)))
        elif kind == 1:
            gates.append(root(*rng.sample(range(1, w + 1), 2)))
        else:
            gates.append(not_gate(rng.randrange(1, w + 1)))
    line = rng.randrange(1, w)
    for g in (not_gate(line), root(w, line), feynman(w, line),
              controlled_root(2, 1, line, w), controlled_root(4, -1, line, w)):
        gates.insert(rng.randrange(len(gates) + 1), g)
    return Circuit(n, gates)


def random_rotated_circuit(rng, w):
    """A width-w circuit in which a random set of lines is never read, and that set.

    Those lines carry roots of kappa = 1..16 in both directions, Feynman
    gates and NOT gates, each driven by a line that is read. The read lines
    carry Feynman gates, roots and NOT gates among themselves; a root there
    sends the circuit down dense_unitary's swap/mix path, and with those
    roots dropped it takes the monomial path. Every line is targeted and
    every read line is read, so the unread set is exactly the one
    dense_unitary rotates on the monomial path.
    """
    lines = range(1, w + 1)
    unread = set(rng.sample(lines, rng.randrange(1, w)))
    read = [x for x in lines if x not in unread]

    def root(control, target):
        return controlled_root(1 << rng.randrange(0, 5), rng.choice((1, -1)), control, target)

    def gate(target, kind):
        others = [x for x in read if x != target]
        if kind == 0 or not others:
            return not_gate(target)
        return (feynman if kind == 1 else root)(rng.choice(others), target)

    gates = [not_gate(x) for x in unread] + [root(x, rng.choice(sorted(unread))) for x in read]
    gates += [gate(rng.choice(lines), rng.randrange(3)) for _ in range(rng.randrange(0, 8 * w))]
    rng.shuffle(gates)
    return Circuit(w - 1, gates), unread


def classical_permutation_matrix(circuit):
    """The 0/1 matrix of a circuit of Feynman and NOT gates, by running each basis input."""
    w = circuit.width
    m = np.zeros((1 << w, 1 << w))
    for x in range(1 << w):
        bits = list(index_to_bits(x, w))
        for g in circuit.gates:
            bits[g.target - 1] ^= 1 if g.kind is GateKind.NOT else bits[g.control - 1]
        m[reference_bits_to_index(bits), x] = 1.0
    return m


def assert_matches_dense_reference(circuit):
    assert np.max(np.abs(dense_unitary(circuit) - reference_dense_unitary(circuit))) < 1e-12


def takes_monomial_path(circuit):
    return simulate._monomial_lines(circuit.table) is not None


def without_roots_on_read_lines(circuit):
    """The circuit less every root whose target some gate reads: it takes the monomial path.

    Dropping gates reads no new line, so every root left still targets a
    line that no gate reads.
    """
    read = {g.control for g in circuit.table}
    return Circuit(circuit.n_controls, [g for g in circuit.gates if g.kind is not GateKind.ROOT or g.target not in read])


def assert_both_paths_match_the_reference(circuit):
    """circuit matches reference_dense_unitary, and so does its monomial part; returns whether circuit is monomial."""
    part = without_roots_on_read_lines(circuit)
    assert takes_monomial_path(part)
    assert_matches_dense_reference(circuit)
    assert_matches_dense_reference(part)
    return takes_monomial_path(circuit)


class TestDenseMatchesReference:
    @pytest.mark.parametrize(
        "family, n",
        [(f, n) for f in FAMILY_BUILDERS for n in range(1, 5)],
    )
    def test_every_family_and_activation(self, family, n):
        activations = [index_to_bits(a, n) for a in range(1, 1 << n)]
        if family not in ("peres", "toffoli", "barenco"):
            activations = activations[:1]
        for a in activations:
            assert_matches_dense_reference(FAMILY_BUILDERS[family](n, a))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_circuits_off_the_layered_shape(self, seed):
        rng = random.Random(seed)
        for n in range(1, 6):
            circuit = random_general_circuit(rng, n, rng.randrange(0, 6 * n))
            with pytest.raises(UnsupportedShapeError):
                exponent_simulate(circuit, (0,) * circuit.width)
            assert not assert_both_paths_match_the_reference(circuit)

    @pytest.mark.parametrize("seed", range(12))
    def test_lines_no_gate_reads_beside_lines_that_are_read(self, seed):
        rng = random.Random(seed)
        for w in range(2, 7):
            circuit, unread = random_rotated_circuit(rng, w)
            gates = circuit.gates
            assert {g.target for g in gates} - {g.control for g in gates} == unread
            assert_both_paths_match_the_reference(circuit)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_layered_and_broken_circuits_on_both_paths(self, seed):
        for circuit in random_circuits(seed):
            assert_both_paths_match_the_reference(circuit)

    def test_the_random_circuits_take_both_paths(self):
        assert {takes_monomial_path(c) for seed in range(8) for c in random_circuits(seed)} == {True, False}

    # The first dense checks above n = 8: the width-11 matrix is 64 MiB, so
    # the oracle's ones are subtracted in place.
    @pytest.mark.parametrize("n", range(DENSE_WIDTH_LIMIT - 3, DENSE_WIDTH_LIMIT))
    @pytest.mark.parametrize("family", ["peres", "toffoli"])
    def test_the_widest_peres_and_toffoli_give_the_oracle_permutation(self, family, n):
        u = dense_unitary(FAMILY_BUILDERS[family](n, (1,) * n))
        u[oracle_permutation(GateFamilySpec(family, n)), np.arange(1 << (n + 1))] -= 1
        assert np.max(np.abs(u)) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_feynman_and_not_circuits_give_an_exact_permutation_matrix(self, seed):
        rng = random.Random(seed)
        for n in range(1, 6):
            w = n + 1
            gates = [
                not_gate(rng.randrange(1, w + 1)) if rng.random() < 0.3
                else feynman(*rng.sample(range(1, w + 1), 2))
                for _ in range(rng.randrange(0, 8 * w))
            ]
            circuit = Circuit(n, gates)
            assert takes_monomial_path(circuit)
            assert np.array_equal(dense_unitary(circuit), classical_permutation_matrix(circuit))


class TestDensePath:
    @pytest.mark.parametrize("family", FAMILY_BUILDERS)
    def test_every_generated_family_takes_the_monomial_path(self, family):
        for n in range(1, 11):
            for a in {(1,) * n, index_to_bits(0x2AA >> (10 - n), n)}:
                assert takes_monomial_path(FAMILY_BUILDERS[family](n, a)), (n, a)

    def test_a_root_on_a_read_line_beside_a_rotated_line_takes_the_swap_mix_path(self):
        # Line 4 is never read and carries a root and a NOT; line 3 is read and carries a root.
        circuit = Circuit(3, (controlled_root(4, 1, 1, 4), feynman(1, 2), controlled_root(2, -1, 2, 3),
                              not_gate(4), controlled_root(4, -1, 3, 4), feynman(3, 1)))
        assert not takes_monomial_path(circuit)
        assert takes_monomial_path(without_roots_on_read_lines(circuit))
        assert_matches_dense_reference(circuit)
