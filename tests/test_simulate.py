import random

import numpy as np
import pytest
from references import oracle_permutation

from rootsynth import simulate
from rootsynth.bits import as_bits, bits_to_index, index_to_bits
from rootsynth.circuit import Circuit, GateKind, controlled_root, feynman, not_gate
from rootsynth.simulate import (
    DENSE_WIDTH_LIMIT,
    NOT_MATRIX,
    NonClassical,
    SimState,
    UnsupportedShapeError,
    WidthLimitError,
    check_dense_width,
    classical_output,
    dense_unitary,
    exponent_simulate,
    permutation_from_unitary,
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
from rootsynth.verify import GateFamilySpec


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
        u = dense_unitary(synth_peres(2))
        perm = permutation_from_unitary(u)
        assert perm == oracle_permutation(GateFamilySpec("peres", 2))

    def test_adjoint_pair_cancels(self):
        c = synth_peres(3, (0, 1, 1))
        u = dense_unitary(c.compose(c.adjoint()))
        assert np.max(np.abs(u - np.eye(16))) < 1e-9

    def test_width_limit(self):
        with pytest.raises(WidthLimitError):
            dense_unitary(Circuit(9))

    def test_width_limit_is_inclusive(self):
        check_dense_width(DENSE_WIDTH_LIMIT)
        with pytest.raises(WidthLimitError, match=f"width {DENSE_WIDTH_LIMIT + 1} exceeds"):
            check_dense_width(DENSE_WIDTH_LIMIT + 1)


class TestPermutationFromUnitary:
    def test_identity(self):
        assert permutation_from_unitary(np.eye(4)) == (0, 1, 2, 3)

    def test_rejects_superposition(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert permutation_from_unitary(h) is None

    def test_rejects_phase(self):
        assert permutation_from_unitary(-np.eye(2)) is None

    def test_rejects_two_columns_on_one_row(self):
        assert permutation_from_unitary(np.array([[1.0, 1.0], [0.0, 0.0]])) is None


class TestExponentSimulate:
    def test_four_controls_all_active_reaches_kappa(self):
        c = synth_peres(4)
        sim = exponent_simulate(c, (1, 1, 1, 1, 0))
        assert sim.kappa == 8
        assert sim.exponent == 8

    def test_one_inactive_control_cancels(self):
        sim = exponent_simulate(synth_peres(4), (1, 1, 1, 0, 0))
        assert sim.exponent == 0

    def test_mixed_polarity_activation(self):
        c = synth_peres(2, (1, 0))
        exponents = {}
        for cidx in range(4):
            cbits = index_to_bits(cidx, 2)
            exponents[cbits] = exponent_simulate(c, cbits + (0,)).exponent
        assert exponents == {(0, 0): 0, (0, 1): 0, (1, 0): 2, (1, 1): 0}

    def test_prefix_parities_on_control_lines(self):
        sim = exponent_simulate(synth_peres(3), (1, 1, 1, 0))
        assert sim.control_bits == (1, 0, 1)

    def test_not_gates_toggle_flips(self):
        c = synth_zero_polarity(2, "and-complemented")
        sim = exponent_simulate(c, (0, 0, 0))
        assert sim.target_flips == 1
        assert sim.exponent == 0

    def test_input_length_checked(self):
        with pytest.raises(ValueError):
            exponent_simulate(synth_peres(2), (1, 1))

    def test_rejects_mixed_root_orders(self):
        c = Circuit(2, (controlled_root(2, 1, 1, 3), controlled_root(4, 1, 2, 3)))
        with pytest.raises(UnsupportedShapeError):
            exponent_simulate(c, (0, 0, 0))

    def test_rejects_root_off_target_line(self):
        c = Circuit(2, (controlled_root(2, 1, 1, 2),))
        with pytest.raises(UnsupportedShapeError):
            exponent_simulate(c, (0, 0, 0))

    def test_rejects_feynman_reading_target(self):
        c = Circuit(2, (feynman(3, 1),))
        with pytest.raises(UnsupportedShapeError):
            exponent_simulate(c, (0, 0, 0))

    def test_rejects_not_on_control_line(self):
        c = Circuit(2, (not_gate(1),))
        with pytest.raises(UnsupportedShapeError):
            exponent_simulate(c, (0, 0, 0))

    def test_feynman_driving_target_counts_as_full_power(self):
        # The n = 1 construction conditions NOT itself on the control.
        c = synth_peres(1)
        assert exponent_simulate(c, (1, 0)).exponent == 1
        assert exponent_simulate(c, (0, 0)).exponent == 0


class TestClassicalOutput:
    def test_exponent_kappa_negates_target(self):
        sim = exponent_simulate(synth_peres(2), (1, 1, 0))
        assert classical_output(sim, 0) == (1, 0, 1)
        assert classical_output(sim, 1) == (1, 0, 0)

    def test_exponent_zero_passes_target(self):
        sim = exponent_simulate(synth_peres(2), (1, 0, 0))
        assert classical_output(sim, 0) == (1, 1, 0)

    def test_partial_power_is_non_classical(self):
        c = Circuit(1, (controlled_root(2, 1, 1, 2),))
        out = classical_output(exponent_simulate(c, (1, 0)), 0)
        assert isinstance(out, NonClassical)
        assert out.exponent == 1

    def test_rejects_bad_target_bit(self):
        sim = exponent_simulate(synth_peres(2), (1, 1, 0))
        with pytest.raises(ValueError):
            classical_output(sim, 2)


class TestTruthTable:
    def test_peres_two_controls(self):
        tt = truth_table(synth_peres(2))
        assert tt.is_classical
        perm = tt.permutation
        assert perm[bits_to_index((1, 1, 0))] == bits_to_index((1, 0, 1))
        assert perm[bits_to_index((1, 0, 0))] == bits_to_index((1, 1, 0))
        assert perm[0] == 0

    def test_converters_permute_controls_only(self):
        for n in (2, 3, 4):
            tt = truth_table(converter_toffoli_to_peres(n))
            assert tt.is_classical
            for x, y in enumerate(tt.permutation):
                assert x & 1 == y & 1  # target untouched

    def test_round_trip_converters_compose_to_identity(self):
        for n in (2, 3, 4, 5):
            c = converter_toffoli_to_peres(n).compose(converter_peres_to_toffoli(n))
            assert truth_table(c).permutation == tuple(range(1 << (n + 1)))

    def test_non_classical_inputs_reported(self):
        c = Circuit(1, (controlled_root(2, 1, 1, 2),))
        tt = truth_table(c)
        assert not tt.is_classical
        assert tt.permutation is None
        assert tt.non_classical == ((1, 0), (1, 1))


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
        assert tt.is_classical
        assert permutation_from_unitary(dense_unitary(c)) == tt.permutation

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_adjoint_composition_is_identity(self, n):
        for c in (synth_peres(n), synth_toffoli(n), synth_barenco_toffoli(n)):
            tt = truth_table(c.compose(c.adjoint()))
            assert tt.permutation == tuple(range(1 << (n + 1)))


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
    act = as_bits(activation)
    a_int, c_int = bits_to_index(act), bits_to_index(as_bits(controls, length=len(act)))
    total = 0
    for alpha in range(1, 1 << len(act)):
        direction = 1 if (alpha & a_int).bit_count() & 1 else -1
        total += direction * ((alpha & c_int).bit_count() & 1)
    return total


def net_all_root_exponent(controls):
    """Same sum with every direction +1: 2^(n-1) on any nonzero input, else 0."""
    ctl = as_bits(controls)
    c_int = bits_to_index(ctl)
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
        for cidx in range(1 << n):
            c = index_to_bits(cidx, n)
            sim = exponent_simulate(circuit, c + (0,))
            assert sim.exponent == net_root_exponent(a, c) % (2 * sim.kappa)


def reference_exponent_simulate(circuit, input_bits):
    """The gate-by-gate walk exponent_simulate replaced, kept as the reference."""
    bits = as_bits(input_bits, length=circuit.width)
    w = circuit.target_line
    kappas = {g.kappa for g in circuit.gates if g.kind is GateKind.ROOT}
    if len(kappas) > 1:
        raise UnsupportedShapeError(f"mixed root orders {sorted(kappas)} are not layered")
    kappa = kappas.pop() if kappas else 1
    modulus = 2 * kappa
    controls = list(bits[: circuit.n_controls])
    exponent = 0
    flips = 0
    for g in circuit.gates:
        if g.kind is GateKind.FEYNMAN:
            if g.control == w:
                raise UnsupportedShapeError("Feynman gate reads the target line")
            if g.target == w:
                exponent = (exponent + kappa * controls[g.control - 1]) % modulus
            else:
                controls[g.target - 1] ^= controls[g.control - 1]
        elif g.kind is GateKind.ROOT:
            if g.target != w or g.control == w:
                raise UnsupportedShapeError("controlled root must drive the target line")
            exponent = (exponent + g.direction * controls[g.control - 1]) % modulus
        else:
            if g.target != w:
                raise UnsupportedShapeError("NOT gate off the target line")
            flips ^= 1
    return SimState(tuple(controls), exponent, flips, kappa)


def outcome(simulator, circuit, bits):
    try:
        return simulator(circuit, bits)
    except UnsupportedShapeError as exc:
        return type(exc), str(exc)


def assert_matches_reference(circuit, inputs):
    for bits in inputs:
        want = outcome(reference_exponent_simulate, circuit, bits)
        assert outcome(exponent_simulate, circuit, bits) == want, (circuit, bits)


def every_input(circuit):
    return [index_to_bits(x, circuit.width) for x in range(1 << circuit.width)]


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
    """Gates of every layered kind: Feynman ladders, Feynman and roots on the target, NOT."""
    w = n + 1
    gates = []
    for _ in range(size):
        kind = rng.randrange(4)
        line = rng.randrange(1, w)
        if kind == 0 and n > 1:
            gates.append(feynman(line, rng.choice([x for x in range(1, w) if x != line])))
        elif kind == 1:
            gates.append(feynman(line, w))
        elif kind == 2:
            gates.append(controlled_root(kappa, rng.choice((1, -1)), line, w))
        else:
            gates.append(not_gate(w))
    return gates


def break_shape(rng, n, kappa, gates):
    """Insert one gate that leaves the layered shape."""
    w = n + 1
    line = rng.randrange(1, w)
    other = line % n + 1
    bad = rng.choice([
        controlled_root(kappa * 2, 1, line, w),  # mixed root orders
        feynman(w, line),  # Feynman gate reading the target
        controlled_root(kappa, 1, w, line),  # root off the target line
        not_gate(line),  # NOT off the target line
    ] + ([controlled_root(kappa, -1, line, other)] if n > 1 else []))  # root between controls
    gates.insert(rng.randrange(len(gates) + 1), bad)
    return gates


class TestLinearFormMatchesReference:
    @pytest.mark.parametrize(
        "family, n",
        [(f, n) for f in FAMILY_BUILDERS for n in range(1, 9) if (f, n) != ("barenco", 1)],
    )
    def test_every_family_on_every_input(self, family, n):
        rng = random.Random(31 * n + len(family))
        activation = index_to_bits(rng.randrange(1, 1 << n), n)
        circuit = FAMILY_BUILDERS[family](n, activation)
        assert_matches_reference(circuit, every_input(circuit))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_circuits_including_rejected_shapes(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            n = rng.randrange(1, 6)
            kappa = 1 << rng.randrange(0, n + 1)
            gates = random_layered_circuit(rng, n, kappa, rng.randrange(0, 4 << n))
            if rng.random() < 0.4:
                gates = break_shape(rng, n, kappa, gates)
            circuit = Circuit(n, gates)
            assert_matches_reference(circuit, every_input(circuit))

    @pytest.mark.parametrize("kappa", [1 << 62, 1 << 63, 1 << 70])
    def test_root_orders_beyond_machine_words(self, kappa):
        rng = random.Random(kappa.bit_length())
        circuit = Circuit(3, random_layered_circuit(rng, 3, kappa, 40))
        assert_matches_reference(circuit, every_input(circuit))

    def test_wide_circuit_with_few_gates_builds_no_table(self):
        n = 40
        circuit = Circuit(n, random_layered_circuit(random.Random(5), n, 1 << 39, 60))
        rng = random.Random(6)
        inputs = [tuple(rng.randrange(2) for _ in range(n + 1)) for _ in range(20)]
        assert_matches_reference(circuit, inputs)
        assert simulate._last_form[0] is circuit and simulate._last_form[1].table is None

    def test_first_call_builds_the_table(self, monkeypatch):
        monkeypatch.setattr(simulate, "_last_form", (None, None))
        circuit = Circuit(3, random_layered_circuit(random.Random(7), 3, 8, 40))
        bits = (1, 0, 1, 0)
        assert exponent_simulate(circuit, bits) == reference_exponent_simulate(circuit, bits)
        assert simulate._last_form[0] is circuit and simulate._last_form[1].table is not None

    def test_alternating_circuits(self):
        a, b = synth_peres(4, (1, 0, 1, 1)), synth_toffoli(4, (0, 1, 1, 0))
        for bits in every_input(a):
            for circuit in (a, b):
                assert exponent_simulate(circuit, bits) == reference_exponent_simulate(circuit, bits)

    def test_truth_table_compiles_the_circuit_once(self, monkeypatch):
        calls = []
        original = simulate._linear_form

        def counting(circuit):
            calls.append(circuit)
            return original(circuit)

        monkeypatch.setattr(simulate, "_linear_form", counting)
        circuit = synth_toffoli(6, (1, 0, 0, 1, 1, 0))
        tt = truth_table(circuit)
        assert calls == [circuit]
        assert tt.permutation == oracle_permutation(GateFamilySpec("toffoli", 6, (1, 0, 0, 1, 1, 0)))


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

    Besides `size` random gates it holds a NOT on a control line, a root
    that targets a control line, a Feynman gate that reads the target line
    and roots of two orders.
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


def classical_permutation_matrix(circuit):
    """The 0/1 matrix of a circuit of Feynman and NOT gates, by running each basis input."""
    w = circuit.width
    m = np.zeros((1 << w, 1 << w))
    for x in range(1 << w):
        bits = list(index_to_bits(x, w))
        for g in circuit.gates:
            bits[g.target - 1] ^= 1 if g.kind is GateKind.NOT else bits[g.control - 1]
        m[bits_to_index(bits), x] = 1.0
    return m


def assert_matches_dense_reference(circuit):
    assert np.max(np.abs(dense_unitary(circuit) - reference_dense_unitary(circuit))) < 1e-12


class TestDenseMatchesReference:
    @pytest.mark.parametrize(
        "family, n",
        [(f, n) for f in FAMILY_BUILDERS for n in range(1, 5) if (f, n) != ("barenco", 1)],
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
            assert_matches_dense_reference(circuit)

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
            assert np.array_equal(dense_unitary(circuit), classical_permutation_matrix(circuit))
