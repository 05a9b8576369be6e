import dataclasses
import random

import pytest
from alpha_tables import (
    ACTIVATED,
    FAMILIES,
    alpha_table,
    bit_reversal_alpha,
    driving_alphas,
    family_alphas,
    gate_direction,
    generate,
    table_driven_flip,
    target_gates,
)

from rootsynth import synth
from rootsynth.bits import index_to_bits
from rootsynth.circuit import Circuit, GateKind, controlled_root, distinct_gates, feynman, not_gate
from rootsynth.simulate import UnsupportedShapeError
from rootsynth.synth import (
    MAX_N,
    ZeroActivationError,
    converter_peres_to_toffoli,
    converter_toffoli_to_peres,
    iterative_polarity_flip,
    synth_barenco_toffoli,
    synth_peres,
    synth_toffoli,
    synth_zero_polarity,
)


def nonzero_activations(n):
    return [index_to_bits(i, n)[::-1] for i in range(1, 1 << n)]


class TestBitReversalAlpha:
    def test_first_naturals_over_two_positions(self):
        assert bit_reversal_alpha(1, 2) == (1, 0)
        assert bit_reversal_alpha(2, 2) == (0, 1)
        assert bit_reversal_alpha(3, 2) == (1, 1)

    def test_top_of_range_is_all_ones(self):
        for n in range(1, 7):
            assert bit_reversal_alpha((1 << n) - 1, n) == (1,) * n

    def test_lsb_first_reading(self):
        assert bit_reversal_alpha(4, 3) == (0, 0, 1)

    @pytest.mark.parametrize("k", [0, -1, 4])
    def test_out_of_range(self, k):
        with pytest.raises(ValueError):
            bit_reversal_alpha(k, 2)


class TestDrivingFunctions:
    """The driving function of each target gate, derived from the circuit."""

    def test_two_controls(self):
        assert driving_alphas(synth_peres(2)) == [(1, 0), (0, 1), (1, 1)]

    def test_three_controls(self):
        assert driving_alphas(synth_peres(3)) == [
            (1, 0, 0),
            (0, 1, 0),
            (1, 1, 0),
            (0, 0, 1),
            (1, 0, 1),
            (0, 1, 1),
            (1, 1, 1),
        ]

    def test_last_row_marks_second_half(self):
        table = driving_alphas(synth_peres(4))
        for k, alpha in enumerate(table, start=1):
            assert alpha[3] == (1 if k >= 8 else 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_blocks_repeat_earlier_patterns(self, n):
        # Entry k + 2^(b-1) restates entry k on the first b-1 coordinates.
        table = driving_alphas(synth_peres(n))
        for b in range(2, n + 1):
            half = 1 << (b - 1)
            for k in range(1, half):
                assert table[k + half - 1][: b - 1] == table[k - 1][: b - 1]


class TestGateDirection:
    def test_odd_weight_gives_root_on_standard_vector(self):
        assert gate_direction((1, 0), (1, 1)) == 1

    def test_even_weight_gives_adjoint_on_standard_vector(self):
        assert gate_direction((1, 1), (1, 1)) == -1

    def test_mixed_polarity(self):
        assert gate_direction((1, 1), (1, 0)) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hamming_weight_rule(self, n):
        ones = (1,) * n
        for alpha in alpha_table(n):
            want = 1 if sum(alpha) % 2 == 1 else -1
            assert gate_direction(alpha, ones) == want

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gate_direction((1, 0), (1, 0, 1))


class TestSynthPeres:
    def test_two_controls_standard_structure(self):
        c = synth_peres(2, (1, 1))
        assert c.gates == (
            controlled_root(2, 1, 1, 3),
            controlled_root(2, 1, 2, 3),
            feynman(1, 2),
            controlled_root(2, -1, 2, 3),
        )
        assert c.quantum_cost == 4

    def test_three_controls_counts(self):
        c = synth_peres(3, (1, 0, 1))
        assert c.quantum_cost == 11
        census = c.census()
        assert census.controlled_count == 7
        assert census.feynman_count == 4
        assert all(g.kappa == 4 for g in target_gates(c))

    def test_single_control_degenerates_to_feynman(self):
        c = synth_peres(1, (1,))
        assert c.gates == (feynman(1, 2),)
        assert c.quantum_cost == 1

    def test_default_activation_is_all_ones(self):
        assert synth_peres(3) == synth_peres(3, (1, 1, 1))

    def test_rejects_zero_activation(self):
        with pytest.raises(ZeroActivationError):
            synth_peres(2, (0, 0))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            synth_peres(2, (1, 1, 1))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            synth_peres(0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_cost_formula(self, n):
        rng = random.Random(77 + n)
        activations = nonzero_activations(n) if n <= 5 else [
            index_to_bits(rng.randrange(1, 1 << n), n)[::-1] for _ in range(5)
        ]
        for a in activations:
            c = synth_peres(n, a)
            assert c.quantum_cost == 2 ** (n + 1) - n - 2
            assert len(target_gates(c)) == 2**n - 1
            drivers = [
                g for g in c.gates
                if g.kind is GateKind.FEYNMAN and g.target != c.target_line
            ]
            assert len(drivers) == 2**n - 1 - n

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_widening_preserves_existing_blocks(self, n):
        # Dropping the gates of the newest control line and halving kappa
        # leaves exactly the construction for one fewer control.
        a = tuple(1 if i % 2 == 0 else 0 for i in range(n))
        wide = synth_peres(n, a)
        kept = []
        for g in wide.gates:
            if n in g.lines:
                continue
            if g.kind is GateKind.ROOT:
                halved = g.kappa // 2
                if halved == 1:
                    kept.append(feynman(g.control, n))
                else:
                    kept.append(controlled_root(halved, g.direction, g.control, n))
            else:
                kept.append(g)
        narrow = synth_peres(n - 1, a[: n - 1])
        assert Circuit(n - 1, tuple(kept)) == narrow


class TestConverters:
    def test_ladder_three_controls(self):
        assert converter_toffoli_to_peres(3).gates == (feynman(1, 2), feynman(2, 3))

    def test_ladder_two_controls(self):
        c = converter_toffoli_to_peres(2)
        assert c.gates == (feynman(1, 2),)
        assert c.quantum_cost == 1

    def test_reversed_ladder(self):
        assert converter_peres_to_toffoli(3).gates == (feynman(2, 3), feynman(1, 2))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cost(self, n):
        assert converter_toffoli_to_peres(n).quantum_cost == n - 1
        assert converter_peres_to_toffoli(n).quantum_cost == n - 1

    def test_prefix_parity_mapping(self):
        from rootsynth.simulate import exponent_simulate

        sim = exponent_simulate(converter_toffoli_to_peres(3), (1, 1, 1, 0))
        assert sim.control_bits == (1, 0, 1)

    def test_mutual_inverse_structure(self):
        n = 4
        composed = converter_toffoli_to_peres(n).compose(converter_peres_to_toffoli(n))
        assert composed.adjoint() == composed

    def test_rejects_zero_controls(self):
        with pytest.raises(ValueError):
            converter_toffoli_to_peres(0)


class TestSynthToffoli:
    def test_three_controls_cost(self):
        assert synth_toffoli(3).quantum_cost == 13

    def test_two_controls_cost(self):
        assert synth_toffoli(2).quantum_cost == 5

    def test_four_controls_cost(self):
        assert synth_toffoli(4).quantum_cost == 29

    def test_is_peres_plus_reversed_converter(self):
        a = (1, 0, 1)
        assert synth_toffoli(3, a) == synth_peres(3, a).compose(converter_peres_to_toffoli(3))

    def test_rejects_zero_activation(self):
        with pytest.raises(ZeroActivationError):
            synth_toffoli(3, (0, 0, 0))


class TestBarenco:
    def test_two_controls_gate_list(self):
        c = synth_barenco_toffoli(2, (1, 1))
        assert c.gates == (
            controlled_root(2, 1, 1, 3),
            feynman(1, 2),
            controlled_root(2, -1, 2, 3),
            feynman(1, 2),
            controlled_root(2, 1, 2, 3),
        )

    def test_three_controls_counts(self):
        c = synth_barenco_toffoli(3)
        assert c.quantum_cost == 13
        census = c.census()
        assert census.controlled_count == 7
        assert census.feynman_count == 6

    @pytest.mark.parametrize("n", range(2, 11))
    def test_cost_formula(self, n):
        assert synth_barenco_toffoli(n).quantum_cost == 2 ** (n + 1) - 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_alpha_sequence_is_a_gray_code(self, n):
        table = driving_alphas(synth_barenco_toffoli(n))
        assert len(table) == 2**n - 1
        assert sorted(table) == sorted(driving_alphas(synth_peres(n)))
        assert sum(table[0]) == 1
        for prev, cur in zip(table, table[1:]):
            assert sum(p ^ c for p, c in zip(prev, cur)) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_controls_restored(self, n):
        from rootsynth.simulate import exponent_simulate

        c = synth_barenco_toffoli(n)
        for cidx in range(1 << n):
            cbits = index_to_bits(cidx, n)
            assert exponent_simulate(c, cbits + (0,)).control_bits == cbits

    def test_rejects_single_control(self):
        with pytest.raises(ValueError):
            synth_barenco_toffoli(1)


class TestZeroPolarity:
    def test_every_controlled_gate_is_the_plain_root(self):
        c = synth_zero_polarity(3, "or-gate")
        assert all(g.direction == 1 for g in target_gates(c))
        assert c.quantum_cost == 11

    def test_or_gate_behavior(self):
        from rootsynth.simulate import classical_output, exponent_simulate

        c = synth_zero_polarity(2, "or-gate")
        for t in (0, 1):
            assert classical_output(exponent_simulate(c, (0, 0, t)), t)[-1] == t
        assert classical_output(exponent_simulate(c, (1, 0, 0)), 0)[-1] == 1

    def test_and_complemented_behavior(self):
        from rootsynth.simulate import classical_output, exponent_simulate

        c = synth_zero_polarity(2, "and-complemented")
        assert c.census().not_count == 1
        assert classical_output(exponent_simulate(c, (0, 0, 0)), 0)[-1] == 1
        assert classical_output(exponent_simulate(c, (1, 0, 0)), 0)[-1] == 0

    def test_single_control(self):
        assert synth_zero_polarity(1, "or-gate").gates == (feynman(1, 2),)
        assert synth_zero_polarity(1, "and-complemented").gates == (feynman(1, 2), not_gate(2))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            synth_zero_polarity(2, "nor-gate")


class TestIterativePolarityFlip:
    def test_flip_last_control(self):
        n = 3
        flipped = iterative_polarity_flip(synth_peres(n), n)
        assert flipped == synth_peres(n, (1, 1, 0))

    def test_double_flip_restores(self):
        n = 4
        c = synth_peres(n)
        assert iterative_polarity_flip(iterative_polarity_flip(c, 2), 2) == c

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reaches_every_activation(self, n):
        for a in nonzero_activations(n):
            c = synth_peres(n)
            for i in range(1, n + 1):
                if a[i - 1] == 0:
                    c = iterative_polarity_flip(c, i)
            assert c == synth_peres(n, a)

    def test_applies_to_barenco(self):
        n = 3
        flipped = iterative_polarity_flip(synth_barenco_toffoli(n), 1)
        assert flipped == synth_barenco_toffoli(n, (0, 1, 1))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            iterative_polarity_flip(synth_peres(2), 3)

    def test_rejects_a_circuit_that_is_not_layered(self):
        c = Circuit(2, (controlled_root(2, 1, 1, 3), feynman(3, 2)))
        with pytest.raises(UnsupportedShapeError, match="Feynman gate reads the target line"):
            iterative_polarity_flip(c, 1)

    def test_preserves_wiring(self):
        n = 4
        flipped = iterative_polarity_flip(synth_peres(n), 3)
        original = synth_peres(n)
        assert [g.lines for g in flipped.gates] == [g.lines for g in original.gates]

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("family", ACTIVATED)
    def test_equals_resynthesis_with_the_bit_complemented(self, family, n):
        if family == "barenco" and n == 1:
            return
        for a in nonzero_activations(n):
            c = generate(family, n, a)
            for i in range(1, n + 1):
                b = a[: i - 1] + (1 - a[i - 1],) + a[i:]
                if any(b):
                    assert iterative_polarity_flip(c, i) == generate(family, n, b)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_equals_the_table_driven_flip(self, family, n):
        if family == "barenco" and n == 1:
            return
        alphas = family_alphas(family, n)
        for a in nonzero_activations(n) if family in ACTIVATED else [None]:
            c = generate(family, n, a)
            for i in range(1, n + 1):
                assert iterative_polarity_flip(c, i) == table_driven_flip(c, alphas, i)


def test_generated_labels_name_the_construction():
    assert synth_peres(2).label == "peres n=2 a=11"
    assert synth_toffoli(2, (0, 1)).label == "toffoli n=2 a=01"
    assert synth_zero_polarity(2, "or-gate").label == "or-gate n=2"


def test_compose_keeps_left_label():
    c = synth_peres(3)
    relabeled = dataclasses.replace(c, label="x")
    assert relabeled.compose(Circuit(3)).label == "x"


def reference_gates(family, n, activation):
    """The generators written as one loop step per gate, as first specified.

    Each direction comes from gate_direction on the gate's coefficient
    vector; activation None stands for the zero-polarity families, whose
    controlled gates are all plain roots.
    """
    kappa = 1 << (n - 1)

    def target_gate(alpha, control):
        if kappa == 1:
            return feynman(control, n + 1)
        direction = 1 if activation is None else gate_direction(alpha, activation)
        return controlled_root(kappa, direction, control, n + 1)

    gates = []
    if family == "barenco":
        prev = 0
        for k in range(1, 1 << n):
            g = k ^ (k >> 1)
            if k > 1:
                top, prev_top = g.bit_length(), prev.bit_length()
                changed = prev_top if top > prev_top else (g ^ prev).bit_length()
                gates.append(feynman(changed, top))
            gates.append(target_gate(bit_reversal_alpha(g, n), g.bit_length()))
            prev = g
        return gates
    for k in range(1, 1 << n):
        b = k.bit_length()
        j = k - (1 << (b - 1))
        if j > 0:
            lowest = 0
            while not (j >> lowest) & 1:
                lowest += 1
            gates.append(feynman(lowest + 1, b))
        gates.append(target_gate(bit_reversal_alpha(k, n), b))
    if family == "toffoli":
        gates += [feynman(i, i + 1) for i in range(n - 1, 0, -1)]
    if family == "and-complemented":
        gates.append(not_gate(n + 1))
    return gates


def reference_activations(family, n):
    if family in ("or-gate", "and-complemented"):
        return [None]
    if n <= 4:
        return nonzero_activations(n)
    rng = random.Random(1000 + n)
    return [(1,) * n] + [index_to_bits(rng.randrange(1, 1 << n), n) for _ in range(4)]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("family", FAMILIES)
def test_generators_match_the_per_gate_reference(family, n):
    if family == "barenco" and n == 1:
        return
    alphas = family_alphas(family, n)
    for act in reference_activations(family, n):
        c = generate(family, n, act)
        assert c.gates == tuple(reference_gates(family, n, act))
        assert driving_alphas(c) == alphas
        slots = target_gates(c)
        assert len(slots) == len(alphas)
        for g, alpha in zip(slots, alphas):
            if g.kind is GateKind.ROOT:
                assert g.direction == (1 if act is None else gate_direction(alpha, act))
        assert len(distinct_gates(c.gates)) <= n * (n - 1) // 2 + 2 * n + 1


class Built(Exception):
    pass


def refuse_to_build(n):
    raise Built(n)


@pytest.mark.parametrize("family", FAMILIES)
class TestMaxN:
    def test_above_the_limit_is_rejected_before_any_gate_is_built(self, monkeypatch, family):
        monkeypatch.setattr(synth, "_gate_table", refuse_to_build)
        for n in (MAX_N + 1, 40, 1000):
            with pytest.raises(ValueError, match=f"n = {n} is above the limit of {MAX_N} controls"):
                generate(family, n, None)

    def test_the_limit_itself_is_accepted(self, monkeypatch, family):
        monkeypatch.setattr(synth, "_gate_table", refuse_to_build)
        with pytest.raises(Built):
            generate(family, MAX_N, None)
