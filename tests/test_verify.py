import dataclasses
import random

import numpy as np
import pytest
from references import oracle_permutation, permutation_matrix

from rootsynth import verify
from rootsynth.bits import index_to_bits
from rootsynth.circuit import Circuit, GateKind, controlled_root, feynman
from rootsynth.simulate import (
    DENSE_WIDTH_LIMIT,
    NonClassical,
    WidthLimitError,
    dense_unitary,
    permutation_from_unitary,
)
from rootsynth.synth import (
    converter_peres_to_toffoli,
    synth_barenco_toffoli,
    synth_peres,
    synth_toffoli,
    synth_zero_polarity,
)
from rootsynth.verify import (
    EquivalenceReport,
    GateFamilySpec,
    activation_set,
    check_equivalence,
    spec_output,
)


def nonzero_activations(n):
    return [index_to_bits(i, n) for i in range(1, 1 << n)]


class TestGateFamilySpec:
    def test_default_activation_all_ones(self):
        assert GateFamilySpec("peres", 3).resolved_activation == (1, 1, 1)

    def test_zero_polarity_families_take_no_activation(self):
        assert GateFamilySpec("or-gate", 2).resolved_activation is None
        with pytest.raises(ValueError):
            GateFamilySpec("or-gate", 2, (1, 0))

    def test_rejects_zero_activation(self):
        with pytest.raises(ValueError):
            GateFamilySpec("peres", 2, (0, 0))

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            GateFamilySpec("fredkin", 2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            GateFamilySpec("toffoli", 2, (1, 1, 1))


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
        assert not report.ok
        assert report.counterexample == (1, 0)
        assert isinstance(report.actual, NonClassical)

    def test_control_count_mismatch(self):
        with pytest.raises(ValueError):
            check_equivalence(synth_peres(3), GateFamilySpec("peres", 2))

    def test_dense_cross_check(self):
        report = check_equivalence(
            synth_peres(3, (0, 1, 1)),
            GateFamilySpec("peres", 3, (0, 1, 1)),
            check_dense=True,
        )
        assert report.ok

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
        assert not report.ok
        assert report.counterexample == activation + (0,)
        assert report.inputs_checked == 2 * int("1111111110", 2) + 1

    def test_every_input_is_checked_at_n10(self):
        report = check_equivalence(synth_peres(10, (0, 1) * 5), GateFamilySpec("peres", 10, (0, 1) * 5))
        assert report.ok
        assert report.inputs_checked == 1 << 11

    @pytest.mark.parametrize(
        "unitary, counterexample, expected",
        [
            ("superposition", (0, 0, 0, 0), (0, 0, 0, 0)),
            ("swapped", (0, 1, 0, 1), (0, 1, 1, 1)),
            ("phase", (0, 0, 0, 0), (0, 0, 0, 0)),
        ],
    )
    def test_dense_disagreement_reports_the_smallest_input(self, monkeypatch, unitary, counterexample, expected):
        spec = GateFamilySpec("peres", 3, (0, 1, 1))
        perm = list(oracle_permutation(spec))
        perm[5], perm[11] = perm[11], perm[5]
        fake = {
            "superposition": np.full((16, 16), 0.25),
            "swapped": permutation_matrix(perm),
            "phase": -permutation_matrix(oracle_permutation(spec)),
        }[unitary]
        monkeypatch.setattr(verify, "dense_unitary", lambda circuit: fake)
        report = check_equivalence(synth_peres(3, (0, 1, 1)), spec, check_dense=True)
        assert report == EquivalenceReport(False, 16, counterexample, expected, None)

    def test_dense_cross_check_runs_up_to_the_dense_limit(self):
        n = DENSE_WIDTH_LIMIT - 1
        activation = (1, 0) * (n // 2) + (1,) * (n % 2)
        report = check_equivalence(
            synth_toffoli(n, activation), GateFamilySpec("toffoli", n, activation), check_dense=True
        )
        assert report.ok
        assert report.inputs_checked == 1 << DENSE_WIDTH_LIMIT

    def test_dense_cross_check_beyond_the_dense_limit_raises(self, monkeypatch):
        n = DENSE_WIDTH_LIMIT
        c, spec = synth_peres(n), GateFamilySpec("peres", n)
        assert check_equivalence(c, spec).ok

        def refuse(*args):
            raise AssertionError("an input was checked")

        monkeypatch.setattr(verify, "exponent_simulate", refuse)
        with pytest.raises(WidthLimitError):
            check_equivalence(c, spec, check_dense=True)

    @pytest.mark.parametrize("activation,calls", [((1, 1, 1, 1, 1, 1, 1, 0), 0), ((1,) * 8, 1)])
    def test_dense_unitary_is_built_only_after_the_exponent_pass(self, monkeypatch, activation, calls):
        built = []

        def counting(circuit):
            built.append(circuit)
            return dense_unitary(circuit)

        monkeypatch.setattr(verify, "dense_unitary", counting)
        spec = GateFamilySpec("toffoli", 8, activation)
        report = check_equivalence(synth_toffoli(8), spec, check_dense=True)
        assert report == check_equivalence(synth_toffoli(8), spec)
        assert len(built) == calls


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


def single_gate_mutants(circuit):
    """Drop a gate, flip a root's direction, or move a control to another control line."""
    n, gates = circuit.n_controls, circuit.gates
    for i, g in enumerate(gates):
        replacements = [()]
        if g.kind is GateKind.ROOT:
            replacements.append((g.adjoint(),))
        if g.control is not None:
            replacements += [
                (dataclasses.replace(g, control=line),)
                for line in range(1, n + 1)
                if line not in (g.control, g.target)
            ]
        for new in replacements:
            yield Circuit(n, gates[:i] + new + gates[i + 1 :])


MUTATED = [(n, a) for n in range(1, 5) for a in nonzero_activations(n)] + [
    (5, (1, 0, 1, 1, 0)),
    (6, (0, 1, 1, 0, 0, 1)),
]


@pytest.mark.parametrize("family, make", [("peres", synth_peres), ("toffoli", synth_toffoli)])
@pytest.mark.parametrize("n, activation", MUTATED, ids=["".join(map(str, a)) for _, a in MUTATED])
def test_every_single_gate_mutant_fails(family, make, n, activation):
    spec = GateFamilySpec(family, n, activation)
    circuit = make(n, activation)
    assert check_equivalence(circuit, spec).ok
    mutants = list(single_gate_mutants(circuit))
    assert len(mutants) >= len(circuit)
    survivors = [m for m in mutants if check_equivalence(m, spec).ok]
    assert survivors == []


@pytest.mark.parametrize("family, make", [("peres", synth_peres), ("toffoli", synth_toffoli)])
@pytest.mark.parametrize("n, count", [(7, 12), (8, 3)])
def test_dense_route_rejects_sampled_mutants(family, make, n, count):
    rng = random.Random(f"{family}{n}")
    activation = index_to_bits(rng.randrange(1, 1 << n), n)
    circuit = make(n, activation)
    want = oracle_permutation(GateFamilySpec(family, n, activation))
    assert permutation_from_unitary(dense_unitary(circuit)) == want
    for mutant in rng.sample(list(single_gate_mutants(circuit)), count):
        assert permutation_from_unitary(dense_unitary(mutant)) != want
