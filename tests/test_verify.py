import dataclasses
import random
import tracemalloc

import alpha_tables
import numpy as np
import pytest
import references
from references import (
    dense_matches,
    not_conjugated_toffoli,
    oracle_permutation,
    permutation_matrix,
    reference_check_equivalence,
    reference_spec_output,
    split_root_toffoli,
)

from rootsynth import verify
from rootsynth.bits import index_to_bits, parse_bitstring
from rootsynth.circuit import Circuit, GateKind, controlled_root, feynman
from rootsynth.simulate import (
    DENSE_WIDTH_LIMIT,
    MAX_N,
    NonClassical,
    WidthLimitError,
    dense_unitary,
    exponent_simulate,
    truth_table,
)
from rootsynth.synth import (
    converter_peres_to_toffoli,
    iterative_polarity_flip,
    synth_barenco_toffoli,
    synth_peres,
    synth_toffoli,
    synth_zero_polarity,
)
from rootsynth.verify import (
    FAMILIES,
    EquivalenceReport,
    GateFamilySpec,
    activation_set,
    check_equivalence,
    spec_output,
)


def nonzero_activations(n):
    return [index_to_bits(i, n) for i in range(1, 1 << n)]


def every_activation(n):
    return [index_to_bits(i, n) for i in range(1 << n)]


def family_specs(n):
    """Every family at n: peres and toffoli with all ones and three seeded activations."""
    rng = random.Random(f"specs{n}")
    activations = [(1,) * n] + [index_to_bits(rng.randrange(1, 1 << n), n) for _ in range(3)]
    for family in FAMILIES:
        if family in ("peres", "toffoli"):
            yield from (GateFamilySpec(family, n, a) for a in activations)
        else:
            yield GateFamilySpec(family, n)


def family_circuits(n):
    """Each generator's circuit at n, for all ones and one seeded activation."""
    activations = [(1,) * n, index_to_bits(random.Random(f"circuits{n}").randrange(1, 1 << n), n)]
    for a in activations:
        yield synth_peres(n, a)
        yield synth_toffoli(n, a)
        yield synth_barenco_toffoli(n, a)
    yield synth_zero_polarity(n, "or-gate")
    yield synth_zero_polarity(n, "and-complemented")


BAD_ACTIVATIONS = [(1, 1), (1, 1, 1, 1), (1, 2, 1), (1, "1", 1)]


class TestGateFamilySpec:
    def test_default_activation_all_ones(self):
        assert GateFamilySpec("peres", 3).activation == (1, 1, 1)

    def test_default_activation_is_stored_resolved(self):
        assert GateFamilySpec("toffoli", 3) == GateFamilySpec("toffoli", 3, (1, 1, 1))

    @pytest.mark.parametrize("activation", BAD_ACTIVATIONS, ids=repr)
    def test_generators_and_specs_refuse_an_activation_alike(self, activation):
        makers = [
            synth_peres,
            synth_toffoli,
            synth_barenco_toffoli,
            lambda n, a: GateFamilySpec("peres", n, a),
            lambda n, a: GateFamilySpec("toffoli", n, a),
        ]
        raised = set()
        for make in makers:
            with pytest.raises(ValueError) as info:
                make(3, activation)
            raised.add((type(info.value), str(info.value)))
        assert len(raised) == 1, raised

    def test_zero_polarity_families_take_no_activation(self):
        assert GateFamilySpec("or-gate", 2).activation is None
        with pytest.raises(ValueError):
            GateFamilySpec("or-gate", 2, (1, 0))

    def test_accepts_zero_activation(self):
        assert GateFamilySpec("peres", 2, (0, 0)).activation == (0, 0)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            GateFamilySpec("fredkin", 2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            GateFamilySpec("toffoli", 2, (1, 1, 1))

    def test_rejects_zero_controls(self):
        with pytest.raises(ValueError, match="need n >= 1, got 0"):
            GateFamilySpec("toffoli", 0)

    def test_rejects_more_than_max_n_controls_as_the_generators_do(self):
        with pytest.raises(WidthLimitError, match=f"n = {MAX_N + 1} is above the limit of {MAX_N} controls"):
            GateFamilySpec("toffoli", MAX_N + 1)


class TestSpecOutput:
    def test_peres_function_table_entry(self):
        s = GateFamilySpec("peres", 2, (1, 1))
        assert spec_output(s, (1, 1, 0)) == (1, 0, 1)

    def test_peres_mixed_polarity(self):
        s = GateFamilySpec("peres", 3, (1, 1, 0))
        assert spec_output(s, (1, 1, 0, 0)) == (1, 0, 0, 1)

    def test_toffoli_passes_inactive_inputs_through(self):
        s = GateFamilySpec("toffoli", 3, (1, 1, 1))
        assert spec_output(s, (1, 1, 0, 1)) == (1, 1, 0, 1)

    def test_toffoli_fires_on_activation(self):
        s = GateFamilySpec("toffoli", 3, (1, 0, 1))
        assert spec_output(s, (1, 0, 1, 0)) == (1, 0, 1, 1)

    def test_or_gate(self):
        s = GateFamilySpec("or-gate", 2)
        assert spec_output(s, (0, 0, 1)) == (0, 0, 1)
        assert spec_output(s, (1, 0, 0)) == (1, 1, 1)

    def test_and_complemented(self):
        s = GateFamilySpec("and-complemented", 2)
        assert spec_output(s, (0, 0, 0)) == (0, 0, 1)
        assert spec_output(s, (1, 0, 0)) == (1, 1, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spec_output(GateFamilySpec("peres", 2), (1, 1))

    @pytest.mark.parametrize("family", ["peres", "toffoli", "or-gate", "and-complemented"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_is_a_permutation(self, family, n):
        activation = (1,) * n if family in ("peres", "toffoli") else None
        perm = oracle_permutation(GateFamilySpec(family, n, activation))
        assert sorted(perm) == list(range(1 << (n + 1)))


EACH_GENERATOR = pytest.mark.parametrize(
    "generator,family",
    [(synth_peres, "peres"), (synth_toffoli, "toffoli"), (synth_barenco_toffoli, "toffoli")],
    ids=["peres", "toffoli", "barenco"],
)


@pytest.mark.parametrize("n", range(1, 9))
@EACH_GENERATOR
def test_every_activation_matches_the_oracle(generator, family, n):
    for a in every_activation(n):
        assert np.array_equal(truth_table(generator(n, a)), oracle_permutation(GateFamilySpec(family, n, a))), a


# g = k ^ (k >> 1) for k = 1..255 visits every nonzero activation once, one bit apart, and never 0,
# which no flip reaches or leaves. Bit p of g is control n - p, as index_to_bits reads it.
@EACH_GENERATOR
def test_a_gray_code_walk_flips_through_every_nonzero_activation_at_n8(generator, family):
    n = 8
    circuit = generator(n, index_to_bits(1, n))
    for k in range(2, 1 << n):
        g, changed = k ^ (k >> 1), k ^ (k >> 1) ^ (k - 1) ^ ((k - 1) >> 1)
        circuit = iterative_polarity_flip(circuit, n + 1 - changed.bit_length())
        a = index_to_bits(g, n)
        fresh = generator(n, a)
        assert circuit == fresh and circuit.table == fresh.table, a
        assert circuit.codes.dtype == fresh.codes.dtype and np.array_equal(circuit.codes, fresh.codes), a
        assert check_equivalence(circuit, GateFamilySpec(family, n, a)).ok, a


@pytest.mark.parametrize("n", range(1, 11))
def test_peres_at_the_zero_activation_is_the_and_complemented_circuit(n):
    assert synth_peres(n, (0,) * n) == synth_zero_polarity(n, "and-complemented")


@pytest.mark.parametrize("n", range(1, 11))
@EACH_GENERATOR
def test_the_zero_activation_costs_one_not_more_and_passes_the_check(generator, family, n):
    zero = (0,) * n
    circuit = generator(n, zero)
    assert circuit.census().not_count == 1
    assert circuit.quantum_cost == generator(n).quantum_cost + 1
    assert check_equivalence(circuit, GateFamilySpec(family, n, zero)).ok
    if n <= 8:
        assert dense_matches(circuit, truth_table(circuit))


def packed_oracle(spec):
    """The family's permutation from verify._outputs on uint8 bit columns, one per line, over all 2^(n+1) inputs."""
    w = spec.n + 1
    x = np.arange(1 << w, dtype=np.uint32)
    columns = [(x >> (w - 1 - i) & 1).astype(np.uint8) for i in range(w)]
    rows = verify._outputs(spec, columns[:-1], columns[-1])
    return sum(bit.astype(np.int64) << (w - 1 - i) for i, bit in enumerate(rows))


# The compiled form against the closed form above n = 12, where the per-input
# oracle would take too long: the oracle never reads the circuit.
@pytest.mark.parametrize(
    "family, n", [(family, n) for n in range(13, 17) for family in alpha_tables.FAMILIES] + [("peres", 20), ("toffoli", 20)]
)
def test_generated_circuits_match_the_oracle_above_n12(family, n):
    activation = None
    if family in ("peres", "toffoli", "barenco"):
        activation = index_to_bits(random.Random(f"oracle{family}{n}").randrange(1, 1 << n), n)
    spec = GateFamilySpec("toffoli" if family == "barenco" else family, n, activation)
    np.testing.assert_array_equal(truth_table(alpha_tables.generate(family, n, activation)), packed_oracle(spec))


class TestCheckEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_peres_passes_all_activations(self, n):
        for a in nonzero_activations(n):
            report = check_equivalence(synth_peres(n, a), GateFamilySpec("peres", n, a))
            assert report.ok, (n, a, report)
            assert report.inputs_checked == 1 << (n + 1)

    def test_barenco_realizes_toffoli(self):
        report = check_equivalence(synth_barenco_toffoli(3), GateFamilySpec("toffoli", 3))
        assert report.ok

    def test_composed_converter_realizes_toffoli(self):
        c = synth_peres(3).compose(converter_peres_to_toffoli(3))
        assert check_equivalence(c, GateFamilySpec("toffoli", 3)).ok

    def test_wrong_activation_yields_counterexample(self):
        report = check_equivalence(synth_peres(2, (1, 1)), GateFamilySpec("peres", 2, (1, 0)))
        assert not report.ok
        assert bool(report) is False
        assert report.counterexample == (1, 0, 0)
        assert report.expected == (1, 1, 1)
        assert report.actual == (1, 1, 0)

    def test_counterexample_is_lexicographically_smallest(self):
        report = check_equivalence(synth_peres(2), GateFamilySpec("toffoli", 2))
        # Parity output c1 xor c2 first differs from raw c2 at input (1, 0, 0).
        assert report.counterexample == (1, 0, 0)

    def test_non_classical_reported(self):
        c = Circuit(1, (controlled_root(2, 1, 1, 2),))
        report = check_equivalence(c, GateFamilySpec("peres", 1, (1,)))
        assert report == EquivalenceReport(False, 3, (1, 0), (1, 1), NonClassical(1, 2))

    def test_control_count_mismatch(self):
        with pytest.raises(ValueError):
            check_equivalence(synth_peres(3), GateFamilySpec("peres", 2))

    def test_dense_cross_check(self):
        c, spec = synth_peres(3, (0, 1, 1)), GateFamilySpec("peres", 3, (0, 1, 1))
        assert check_equivalence(c, spec).ok
        assert dense_matches(c, oracle_permutation(spec))

    def test_repeated_check_gives_the_same_report(self):
        c = synth_peres(6)
        spec = GateFamilySpec("toffoli", 6)
        first = check_equivalence(c, spec)
        second = check_equivalence(c, spec)
        assert not first.ok
        assert first == second

    def test_small_space_stays_exhaustive_beyond_n5(self):
        report = check_equivalence(synth_peres(6), GateFamilySpec("peres", 6))
        assert report.ok
        assert report.inputs_checked == 1 << 7

    def test_wrong_activation_at_n10_is_caught(self):
        # A sampled check of 1000 inputs passed this circuit.
        activation = (1,) * 9 + (0,)
        report = check_equivalence(synth_toffoli(10), GateFamilySpec("toffoli", 10, activation))
        assert report == EquivalenceReport(
            False, 2 * int("1111111110", 2) + 1, activation + (0,), activation + (1,), activation + (0,)
        )

    def test_the_first_failure_against_all_ones_is_the_activation_with_target_0(self):
        spec = GateFamilySpec("toffoli", 8)
        for a in range(255):
            bits = index_to_bits(a, 8)
            report = check_equivalence(synth_toffoli(8, bits), spec)
            assert report == EquivalenceReport(False, 2 * a + 1, bits + (0,), bits + (0,), bits + (1,)), a

    def test_every_input_is_checked_at_n10(self):
        report = check_equivalence(synth_peres(10, (0, 1) * 5), GateFamilySpec("peres", 10, (0, 1) * 5))
        assert report.ok
        assert report.inputs_checked == 1 << 11

    @pytest.mark.parametrize("unitary", ["superposition", "phase", "swapped"])
    def test_dense_check_rejects_a_wrong_unitary(self, monkeypatch, unitary):
        spec = GateFamilySpec("peres", 3, (0, 1, 1))
        want = oracle_permutation(spec)
        perm = list(want)
        perm[5], perm[11] = perm[11], perm[5]
        fake = {
            "superposition": np.full((16, 16), 0.25),
            "phase": -permutation_matrix(want),
            "swapped": permutation_matrix(perm),
        }[unitary]
        monkeypatch.setattr(references, "dense_unitary", lambda circuit: fake)
        assert not dense_matches(synth_peres(3, (0, 1, 1)), want)

    def test_dense_cross_check_runs_up_to_the_dense_limit(self):
        n = DENSE_WIDTH_LIMIT - 1
        activation = (1, 0) * (n // 2) + (1,) * (n % 2)
        c, spec = synth_toffoli(n, activation), GateFamilySpec("toffoli", n, activation)
        report = check_equivalence(c, spec)
        assert report.ok
        assert report.inputs_checked == 1 << DENSE_WIDTH_LIMIT
        assert dense_matches(c, oracle_permutation(spec))


@pytest.mark.parametrize("n", range(1, 9))
def test_spec_output_equals_the_reference_on_every_input(n):
    inputs = [index_to_bits(x, n + 1) for x in range(1 << (n + 1))]
    for spec in family_specs(n):
        assert [spec_output(spec, b) for b in inputs] == [reference_spec_output(spec, b) for b in inputs], spec


def assert_rows_of_ints(report):
    """A failing report's input and expected rows are tuples of Python ints, not numpy scalars."""
    for row in (report.counterexample, report.expected):
        assert type(row) is tuple and all(type(b) is int for b in row), report


class TestSameReportsAsThePerInputLoop:
    """check_equivalence gives the report of tests/references.py's per-input loop."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_family_against_every_spec(self, n):
        verdicts = set()
        for circuit in family_circuits(n):
            for spec in family_specs(n):
                report = check_equivalence(circuit, spec)
                assert report == reference_check_equivalence(circuit, spec), (circuit.label, spec)
                verdicts.add(report.ok)
        assert verdicts == {True, False}

    def test_wrong_activation_pairs_at_n10(self):
        rng = random.Random(58)
        for _ in range(58):
            built, checked = rng.sample(range(1, 1 << 10), 2)
            circuit = synth_toffoli(10, index_to_bits(built, 10))
            spec = GateFamilySpec("toffoli", 10, index_to_bits(checked, 10))
            report = check_equivalence(circuit, spec)
            # The first failing input is the smaller activation with target 0.
            assert report.inputs_checked == 2 * min(built, checked) + 1
            assert report == reference_check_equivalence(circuit, spec)

    def test_non_classical_mutant(self):
        circuit, spec = synth_toffoli(4), GateFamilySpec("toffoli", 4)
        i = next(i for i, g in enumerate(circuit.gates) if g.kind is GateKind.ROOT)
        mutant = Circuit(4, circuit.gates[:i] + circuit.gates[i + 1 :])
        report = check_equivalence(mutant, spec)
        assert isinstance(report.actual, NonClassical)
        assert report == reference_check_equivalence(mutant, spec)
        assert_rows_of_ints(report)

    def test_every_input_is_simulated_once_in_index_order(self, monkeypatch):
        seen = []

        def simulate(circuit, bits):
            seen.append(tuple(bits))
            return exponent_simulate(circuit, bits)

        monkeypatch.setattr(verify, "exponent_simulate", simulate)
        assert check_equivalence(synth_toffoli(12), GateFamilySpec("toffoli", 12)).ok
        assert seen == [index_to_bits(x, 13) for x in range(1 << 13)]

    # Inputs go in blocks of 4,096: counterexamples at the end of the first
    # block, at the start of the second and near the end of the last.
    @pytest.mark.parametrize(
        "checked, inputs_checked",
        [("011111111111", 4095), ("100000000000", 4097), ("111111111110", 8189), ("111111111111", 8192)],
    )
    def test_blocks_at_n12(self, checked, inputs_checked):
        circuit, spec = synth_toffoli(12), GateFamilySpec("toffoli", 12, parse_bitstring(checked))
        report = check_equivalence(circuit, spec)
        assert report.inputs_checked == inputs_checked
        assert report == reference_check_equivalence(circuit, spec)
        if not report.ok:
            assert_rows_of_ints(report)

    # The other families at n = 12, each passing and failing first in the
    # second block. A Peres built for activation 100..01 fails on it, input
    # 4098. A zero-polarity circuit followed by a Toffoli on its prefix
    # parities fails where the parities equal the Toffoli's activation
    # 100..0: at c = 110..0, input 6144.
    @pytest.mark.parametrize("family", ["peres", "or-gate", "and-complemented"])
    @pytest.mark.parametrize("wrong", [False, True], ids=["pass", "fail"])
    def test_blocks_at_n12_for_the_other_families(self, family, wrong):
        spec = GateFamilySpec(family, 12)
        if family == "peres":
            circuit = synth_peres(12, parse_bitstring("100000000001") if wrong else None)
        else:
            circuit = synth_zero_polarity(12, family)
            if wrong:
                circuit = circuit.compose(synth_toffoli(12, parse_bitstring("100000000000")))
        report = check_equivalence(circuit, spec)
        assert report.ok != wrong
        assert report.inputs_checked == (4099 if family == "peres" else 6145) if wrong else 8192
        assert report == reference_check_equivalence(circuit, spec)
        if wrong:
            assert_rows_of_ints(report)


class TestToffoliGatesTheGeneratorsDoNotBuild:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_not_conjugation_sets_the_polarity_of_every_activation(self, n):
        for a in nonzero_activations(n):
            c = not_conjugated_toffoli(n, a)
            spec = GateFamilySpec("toffoli", n, a)
            assert check_equivalence(c, spec).ok and dense_matches(c, oracle_permutation(spec)), a
            assert check_equivalence(c, GateFamilySpec("toffoli", n)).ok == (a == (1,) * n), a

    @pytest.mark.parametrize("n", range(5, 9))
    def test_not_conjugation_sets_one_seeded_polarity(self, n):
        a = index_to_bits(random.Random(f"conjugated{n}").randrange(1, (1 << n) - 1), n)
        c = not_conjugated_toffoli(n, a)
        report = check_equivalence(c, GateFamilySpec("toffoli", n, a))
        assert report.ok and report.inputs_checked == 2 << n
        assert not check_equivalence(c, GateFamilySpec("toffoli", n))

    def test_a_root_split_into_two_roots_of_twice_the_order(self):
        c = split_root_toffoli()
        assert check_equivalence(c, GateFamilySpec("toffoli", 2)).ok
        assert np.max(np.abs(dense_unitary(c) - dense_unitary(synth_toffoli(2)))) < 1e-12


class TestActivationSet:
    def test_peres_fires_only_on_its_activation(self):
        assert activation_set(synth_peres(3, (1, 0, 1))) == {(1, 0, 1)}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_peres_and_toffoli_all_activations(self, n):
        for a in nonzero_activations(n):
            assert activation_set(synth_peres(n, a)) == {a}
            assert activation_set(synth_toffoli(n, a)) == {a}

    def test_or_gate_fires_on_every_nonzero_vector(self):
        assert activation_set(synth_zero_polarity(2, "or-gate")) == {(0, 1), (1, 0), (1, 1)}

    def test_and_complemented_fires_on_zero(self):
        assert activation_set(synth_zero_polarity(2, "and-complemented")) == {(0, 0)}

    def test_non_classical_circuit_rejected(self):
        c = Circuit(1, (controlled_root(2, 1, 1, 2),))
        with pytest.raises(ValueError):
            activation_set(c)

    def test_non_classical_names_the_first_control_vector(self):
        c = Circuit(2, (controlled_root(2, 1, 2, 3), controlled_root(2, 1, 1, 3)))
        with pytest.raises(ValueError, match=r"non-classical target for control vector \(0, 1\)"):
            activation_set(c)

    def test_feynman_ladder_never_fires(self):
        from rootsynth.synth import converter_toffoli_to_peres

        assert activation_set(converter_toffoli_to_peres(3)) == set()

    def test_reading_the_compiled_outputs_peaks_within_twice_their_size(self):
        # Compiled first, so the peak is activation_set's own: a permutation
        # tuple of every input's output would hold 2^(n+1) Python ints.
        circuit = synth_toffoli(16, (1, 0) * 8)
        outputs = truth_table(circuit)
        tracemalloc.start()
        try:
            assert activation_set(circuit) == {(1, 0) * 8}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * outputs.nbytes, (peak, outputs.nbytes)


class TestPermutationHelpers:
    def test_matrix_of_identity(self):
        assert np.array_equal(permutation_matrix((0, 1, 2)), np.eye(3))

    def test_matrix_columns(self):
        m = permutation_matrix((1, 0))
        assert np.array_equal(m, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_oracle_permutation_matches_spec_output(self):
        s = GateFamilySpec("peres", 2)
        perm = oracle_permutation(s)
        assert perm[6] == 5  # (1,1,0) -> (1,0,1)


def single_gate_mutations(circuit):
    """Each (position, replacement gates): drop a gate, flip a root's direction, or move a control to another control line."""
    n, mutations = circuit.n_controls, []
    for i, g in enumerate(circuit.gates):
        replacements = [()]
        if g.kind is GateKind.ROOT:
            replacements.append((g.adjoint(),))
        if g.control is not None:
            replacements += [
                (dataclasses.replace(g, control=line),)
                for line in range(1, n + 1)
                if line not in (g.control, g.target)
            ]
        mutations += [(i, new) for new in replacements]
    return mutations


def mutant(n, gates, i, new):
    """The circuit of n controls and gates with gate i replaced by the gates of new."""
    return Circuit(n, gates[:i] + new + gates[i + 1 :])


def single_gate_mutants(circuit):
    """Each single-gate mutant of circuit, in the order of single_gate_mutations."""
    gates = circuit.gates
    for i, new in single_gate_mutations(circuit):
        yield mutant(circuit.n_controls, gates, i, new)


EVERY_SMALL_ACTIVATION = [(n, a) for n in range(1, 5) for a in nonzero_activations(n)]
MUTATED = EVERY_SMALL_ACTIVATION + [(5, (1, 0, 1, 1, 0)), (6, (0, 1, 1, 0, 0, 1))]
ACTIVATED_GENERATORS = [("peres", synth_peres), ("toffoli", synth_toffoli), ("toffoli", synth_barenco_toffoli)]


@pytest.mark.parametrize("family, make", ACTIVATED_GENERATORS)
@pytest.mark.parametrize("n, activation", MUTATED, ids=["".join(map(str, a)) for _, a in MUTATED])
def test_every_single_gate_mutant_fails(family, make, n, activation):
    spec = GateFamilySpec(family, n, activation)
    circuit = make(n, activation)
    assert check_equivalence(circuit, spec).ok
    mutants = list(single_gate_mutants(circuit))
    assert len(mutants) >= len(circuit)
    reports = [check_equivalence(m, spec) for m in mutants]
    survivors = [m for m, report in zip(mutants, reports) if report.ok]
    assert survivors == []
    assert reports == [reference_check_equivalence(m, spec) for m in mutants]


def commute(n, a, b):
    """Whether gates a and b on n controls commute: the dense unitaries of [a, b] and [b, a] agree."""
    return np.allclose(dense_unitary(Circuit(n, (a, b))), dense_unitary(Circuit(n, (b, a))))


@pytest.mark.parametrize("family, make", ACTIVATED_GENERATORS)
@pytest.mark.parametrize(
    "n, activation", EVERY_SMALL_ACTIVATION, ids=["".join(map(str, a)) for _, a in EVERY_SMALL_ACTIVATION]
)
def test_swapping_adjacent_gates_passes_exactly_when_they_commute(family, make, n, activation):
    spec = GateFamilySpec(family, n, activation)
    gates = make(n, activation).gates
    swaps = [i for i in range(len(gates) - 1) if gates[i] is not gates[i + 1]]
    assert swaps or len(gates) == 1
    for i in swaps:
        a, b = gates[i : i + 2]
        swapped = Circuit(n, gates[:i] + (b, a) + gates[i + 2 :])
        report = check_equivalence(swapped, spec)
        assert report.ok == commute(n, a, b), (i, a, b)
        assert report == reference_check_equivalence(swapped, spec)


@pytest.mark.parametrize("family, make", [("peres", synth_peres), ("toffoli", synth_toffoli)])
@pytest.mark.parametrize("n, count", [(7, 12), (8, 3)])
def test_dense_route_rejects_sampled_mutants(family, make, n, count):
    rng = random.Random(f"{family}{n}")
    activation = index_to_bits(rng.randrange(1, 1 << n), n)
    circuit = make(n, activation)
    want = oracle_permutation(GateFamilySpec(family, n, activation))
    assert dense_matches(circuit, want)
    gates = circuit.gates
    for i, new in rng.sample(single_gate_mutations(circuit), count):  # builds only the mutants it picks
        assert not dense_matches(mutant(n, gates, i, new), want)
