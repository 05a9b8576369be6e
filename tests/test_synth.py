import dataclasses
import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
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
from references import not_conjugated_toffoli, reference_ladder, reference_slots
from test_simulate import random_circuits

import rootsynth
from rootsynth import simulate, synth
from rootsynth.bits import index_to_bits
from rootsynth.circuit import Circuit, GateKind, controlled_root, feynman, not_gate
from rootsynth.simulate import UnsupportedShapeError, WidthLimitError, _walk, truth_table
from rootsynth.synth import (
    MAX_N,
    converter_peres_to_toffoli,
    converter_toffoli_to_peres,
    iterative_polarity_flip,
    synth_barenco_toffoli,
    synth_peres,
    synth_toffoli,
    synth_zero_polarity,
)
from rootsynth.verify import activation_set

SRC = str(Path(rootsynth.__file__).resolve().parents[1])


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

    def test_zero_activation_makes_every_root_plus_one_and_ends_in_a_not(self):
        c = synth_peres(2, (0, 0))
        assert c.gates == (controlled_root(2, 1, 1, 3), controlled_root(2, 1, 2, 3), feynman(1, 2),
                           controlled_root(2, 1, 2, 3), not_gate(3))

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

        assert exponent_simulate(converter_toffoli_to_peres(3), (1, 1, 1, 0)) == (1, 0, 1, 0)

    def test_mutual_inverse_structure(self):
        n = 4
        composed = converter_toffoli_to_peres(n).compose(converter_peres_to_toffoli(n))
        assert composed.adjoint() == composed

    def test_rejects_zero_controls(self):
        with pytest.raises(ValueError):
            converter_toffoli_to_peres(0)

    @pytest.mark.parametrize("n", range(1, MAX_N + 1))
    def test_converters_are_the_per_gate_ladder(self, n):
        up, down = converter_toffoli_to_peres(n), converter_peres_to_toffoli(n)
        assert (up.gates, up.label) == (reference_ladder(n, upward=True), f"toffoli-to-peres n={n}")
        assert (down.gates, down.label) == (reference_ladder(n, upward=False), f"peres-to-toffoli n={n}")

    @pytest.mark.parametrize("converter", [converter_toffoli_to_peres, converter_peres_to_toffoli])
    @pytest.mark.parametrize(
        "n, message",
        [(0, "need n >= 1, got 0"), (MAX_N + 1, f"n = {MAX_N + 1} is above the limit of {MAX_N} controls")],
    )
    def test_n_is_bounded_as_for_the_generators(self, converter, n, message):
        with pytest.raises(ValueError, match=message):
            converter(n)


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

    def test_zero_activation_is_peres_plus_reversed_converter(self):
        a = (0, 0, 0)
        assert synth_toffoli(3, a) == synth_peres(3, a).compose(converter_peres_to_toffoli(3))
        assert synth_toffoli(3, a).quantum_cost == 14


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
            assert exponent_simulate(c, cbits + (0,))[:n] == cbits

    def test_single_control_is_one_feynman_gate(self):
        c = synth_barenco_toffoli(1)
        assert c == synth_toffoli(1) and c.gates == (feynman(1, 2),)
        assert c.label == "barenco-toffoli n=1 a=1"


class TestZeroPolarity:
    def test_every_controlled_gate_is_the_plain_root(self):
        c = synth_zero_polarity(3, "or-gate")
        assert all(g.direction == 1 for g in target_gates(c))
        assert c.quantum_cost == 11

    def test_or_gate_behavior(self):
        from rootsynth.simulate import exponent_simulate

        c = synth_zero_polarity(2, "or-gate")
        for t in (0, 1):
            assert exponent_simulate(c, (0, 0, t))[-1] == t
        assert exponent_simulate(c, (1, 0, 0))[-1] == 1

    def test_and_complemented_behavior(self):
        from rootsynth.simulate import exponent_simulate

        c = synth_zero_polarity(2, "and-complemented")
        assert c.census().not_count == 1
        assert exponent_simulate(c, (0, 0, 0))[-1] == 1
        assert exponent_simulate(c, (1, 0, 0))[-1] == 0

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

    @pytest.mark.parametrize("i", [1.0, "1"], ids=repr)
    def test_rejects_a_non_integer_index(self, i):
        with pytest.raises(ValueError, match=f"control index must be an integer, got {i!r}"):
            iterative_polarity_flip(synth_peres(3), i)

    @pytest.mark.parametrize("i", [True, np.int64(1)], ids=repr)
    def test_accepts_an_integer_index(self, i):
        assert iterative_polarity_flip(synth_peres(3), i) == synth_peres(3, (0, 1, 1))

    def test_rejects_a_circuit_that_is_not_layered(self):
        c = Circuit(2, (controlled_root(2, 1, 1, 3), feynman(3, 2)))
        with pytest.raises(UnsupportedShapeError, match="Feynman gate reads the target line"):
            iterative_polarity_flip(c, 1)

    # Above MAX_N the walk is refused before it starts; at 64 controls line 1's
    # mask would not fit the walk's int64 masks.
    @pytest.mark.parametrize("n", [MAX_N + 1, 64])
    def test_refuses_more_than_max_n_controls(self, n):
        c = Circuit(n, (controlled_root(2, 1, 1, n + 1),))
        with pytest.raises(WidthLimitError, match=f"^n = {n} is above the limit of {MAX_N} controls$"):
            iterative_polarity_flip(c, 1)

    def test_preserves_wiring(self):
        n = 4
        flipped = iterative_polarity_flip(synth_peres(n), 3)
        original = synth_peres(n)
        assert [g.lines for g in flipped.gates] == [g.lines for g in original.gates]

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("family", ACTIVATED)
    def test_equals_resynthesis_with_the_bit_complemented(self, family, n):
        for a in nonzero_activations(n):
            c = generate(family, n, a)
            for i in range(1, n + 1):
                b = a[: i - 1] + (1 - a[i - 1],) + a[i:]
                if any(b):
                    assert iterative_polarity_flip(c, i) == generate(family, n, b)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_equals_the_table_driven_flip(self, family, n):
        alphas = family_alphas(family, n)
        for a in nonzero_activations(n) if family in ACTIVATED else [None]:
            c = generate(family, n, a)
            for i in range(1, n + 1):
                assert iterative_polarity_flip(c, i) == table_driven_flip(c, alphas, i)

    @staticmethod
    def flip_identity_holds(c, i):
        """The flip's target on x is C's on x xor (e_i, 0), xor whether C's differs on (e_i, 0) and (0, 0)."""
        flipped = truth_table(iterative_polarity_flip(c, i))
        assert (flipped >= 0).all()
        before, after = (t & 1 for t in (truth_table(c), flipped))
        e = 2 << (c.n_controls - i)  # the input index of (e_i, 0)
        return np.array_equal(after, before[np.arange(before.size) ^ e] ^ before[e] ^ before[0])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_target_of_every_generated_flip_is_shifted_and_maybe_complemented(self, family):
        for n in range(1, 6):
            for a in nonzero_activations(n) if family in ACTIVATED else [None]:
                c = generate(family, n, a)
                assert all(self.flip_identity_holds(c, i) for i in range(1, n + 1)), (n, a)

    def test_target_of_every_classical_layered_flip_is_shifted_and_maybe_complemented(self):
        checked = 0
        for seed in range(40):
            for c in random_circuits(seed):
                # The rule's f holds with no NOT gate on a control line.
                c = Circuit(c.n_controls, [g for g in c.gates if g.kind is not GateKind.NOT or g.target == c.target_line])
                try:
                    if (truth_table(c) < 0).any():
                        continue
                except UnsupportedShapeError:
                    continue
                assert all(self.flip_identity_holds(c, i) for i in range(1, c.n_controls + 1)), (seed, c)
                checked += 1
        assert checked >= 100

    @staticmethod
    def flip_shifts_the_power(c, i):
        """The flip's power on c is C's on c xor e_i less one S for every c."""
        before, after = (simulate._linear_form(x) for x in (c, iterative_polarity_flip(c, i)))
        e = 1 << (c.n_controls - i)  # the control vector e_i
        shift = (before.table[np.arange(before.table.size) ^ e] - after.table) % (2 * before.kappa)
        return after.kappa == before.kappa and len(set(shift.tolist())) == 1

    def test_the_power_of_every_layered_flip_is_shifted(self):
        checked = 0
        for seed in range(40):
            for c in random_circuits(seed):
                try:
                    simulate._walk(c)
                except UnsupportedShapeError:
                    continue
                assert all(self.flip_shifts_the_power(c, i) for i in range(1, c.n_controls + 1)), (seed, c)
                checked += 1
        assert checked >= 200

    def test_a_not_gate_on_a_control_line_can_leave_a_classical_flip_non_classical(self):
        # Powers in units of the fourth root: 5 on c1, 1 on not c1, 7 on c2 and 7 on not c2 sum to 4 * c1.
        w = 3
        c = Circuit(2, [controlled_root(1, 1, 1, w), controlled_root(4, 1, 1, w),
                        not_gate(1), controlled_root(4, 1, 1, w), not_gate(1),
                        controlled_root(4, -1, 2, w), not_gate(2), controlled_root(4, -1, 2, w), not_gate(2)])
        assert activation_set(c) == {(1, 0), (1, 1)}
        assert (truth_table(iterative_polarity_flip(c, 1)) < 0).any()
        assert self.flip_shifts_the_power(c, 1)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_a_not_conjugated_toffoli_flips_onto_a_xor_e_i(self, n):
        for a in nonzero_activations(n):
            c = not_conjugated_toffoli(n, a)
            for i in range(1, n + 1):
                b = a[: i - 1] + (1 - a[i - 1],) + a[i:]
                assert activation_set(iterative_polarity_flip(c, i)) == {b}, (a, i)
                assert self.flip_shifts_the_power(c, i), (a, i)

    def test_a_flip_onto_the_zero_vector_fires_on_every_other_and_names_the_flip_in_its_label(self):
        flipped = iterative_polarity_flip(synth_toffoli(2, (1, 0)), 1)
        assert activation_set(flipped) == {(0, 1), (1, 0), (1, 1)}
        assert flipped.label == "toffoli n=2 a=10 flip 1"

    def test_no_flip_adds_or_removes_the_not_of_the_zero_activation(self):
        flipped = iterative_polarity_flip(synth_peres(3, (0, 0, 0)), 1)
        assert flipped.census().not_count == 1
        assert activation_set(flipped) == {index_to_bits(c, 3) for c in range(8)} - {(1, 0, 0)}

    def test_the_label_names_each_flip_after_the_activation_it_was_built_for(self):
        flipped = iterative_polarity_flip(synth_peres(3), 3)
        assert activation_set(flipped) == {(1, 1, 0)}
        assert flipped.label == "peres n=3 a=111 flip 3"
        assert iterative_polarity_flip(flipped, 3).label == "peres n=3 a=111 flip 3 flip 3"
        assert iterative_polarity_flip(Circuit(3, flipped.gates), True).label == "flip 1"


@pytest.mark.parametrize("n, count", [(1, 1), (2, 2), (3, 32)])
def test_every_root_coefficient_vector_that_fires_on_a_is_odd(n, count):
    """Every f in Z_2kappa^(2^n - 1) with sum_m f[m] parity(m & c) + kappa N = kappa [c = a] mod 2 kappa.

    N counts the NOT gates on the target: a = 0 needs one, since without it
    the sum is 0 at c = 0, and no other a takes one. uint8 arithmetic wraps
    mod 256, which 2 kappa divides. The count of solutions is the same for
    every a, every entry is odd (the parity induction in synth's docstring),
    and each generator's coefficients, as the walk derives them, are one of
    them, with its NOT's kappa on the constant mask 1 << n.
    """
    kappa, masks, vectors = 1 << (n - 1), np.arange(1, 1 << n), np.arange(1 << n)  # the masks m, the vectors c
    every = np.arange((2 * kappa) ** masks.size, dtype=np.uint32)
    f = np.empty((every.size, masks.size), dtype=np.uint8)
    for m in range(masks.size):  # f[:, m] is digit m of the index in base 2 kappa
        f[:, m] = every >> (n * m) & (2 * kappa - 1)
    parity = (np.bitwise_count(masks[:, None] & vectors) & 1).astype(np.uint8)
    powers = f @ parity & (2 * kappa - 1)
    for a in vectors:
        fires, nots = kappa * (vectors == a), int(a == 0)
        if nots:
            assert not (powers == fires).all(axis=1).any()
        solutions = f[(powers + nots * kappa & (2 * kappa - 1) == fires).all(axis=1)]
        assert len(solutions) == count and (solutions & 1).all()
        for family in ACTIVATED:
            _, reads, gate_powers, _ = _walk(generate(family, n, index_to_bits(int(a), n)))
            coefficients = np.zeros(2 << n, dtype=np.uint64)
            np.add.at(coefficients, reads, gate_powers)
            coefficients %= 2 * kappa
            assert coefficients[1 << n] == nots * kappa and not coefficients[(1 << n) + 1 :].any(), (family, a)
            assert (coefficients[1 : 1 << n] == solutions).all(axis=1).any(), (family, a)


def fewest_feynman_gates(n, final):
    """Breadth-first search over (line masks, masks held so far) for a layered circuit's Feynman gates.

    Control line i starts holding mask 1 << (i - 1). A Feynman gate from
    line j onto line b sets b's mask to the xor of both. The goal is every
    nonzero mask held at some point, so that each can drive its root, with
    the lines ending on `final`.
    """
    start = tuple(1 << i for i in range(n))
    every = (1 << (1 << n)) - 2  # bit m set for each nonzero mask m
    frontier = [(start, sum(1 << m for m in start))]
    reached, depth = set(frontier), 0
    while not any(masks == final and held == every for masks, held in frontier):
        step = []
        for masks, held in frontier:
            for b in range(n):
                for j in set(range(n)) - {b}:
                    mask = masks[b] ^ masks[j]
                    state = (masks[:b] + (mask,) + masks[b + 1 :], held | 1 << mask)
                    if state not in reached:
                        reached.add(state)
                        step.append(state)
        frontier, depth = step, depth + 1
    return depth


@pytest.mark.parametrize("n", [2, 3])  # at n = 1 the one Feynman gate is the order-1 root on the target
def test_feynman_counts_are_the_fewest_a_layered_circuit_can_have(n):
    """The Feynman bounds of synth's docstring: 2^n - 1 - n for Peres, 2^n - 2 for Toffoli, met by both."""
    prefixes, units = tuple((2 << i) - 1 for i in range(n)), tuple(1 << i for i in range(n))
    assert fewest_feynman_gates(n, prefixes) == synth_peres(n).census().feynman_count == 2**n - 1 - n
    assert fewest_feynman_gates(n, units) == synth_toffoli(n).census().feynman_count == 2**n - 2


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
    # Gates are interned: building each value once yields the same objects, sooner.
    cnot, root = functools.cache(feynman), functools.cache(controlled_root)

    def target_gate(alpha, control):
        if kappa == 1:
            return cnot(control, n + 1)
        direction = 1 if activation is None else gate_direction(alpha, activation)
        return root(kappa, direction, control, n + 1)

    gates = []
    if family == "barenco":
        prev = 0
        for k in range(1, 1 << n):
            g = k ^ (k >> 1)
            if k > 1:
                top, prev_top = g.bit_length(), prev.bit_length()
                changed = prev_top if top > prev_top else (g ^ prev).bit_length()
                gates.append(cnot(changed, top))
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
            gates.append(cnot(lowest + 1, b))
        gates.append(target_gate(bit_reversal_alpha(k, n), b))
    if family == "toffoli":
        gates += reference_ladder(n, upward=False)
    if family == "and-complemented":
        gates.append(not_gate(n + 1))
    return gates


def reference_activations(family, n):
    if family in ("or-gate", "and-complemented"):
        return [None]
    if n <= 4:
        return nonzero_activations(n)
    rng = random.Random(1000 + n)
    return [(1,) * n] + [index_to_bits(rng.randrange(1, 1 << n), n) for _ in range(4 if n <= 10 else 1)]


@pytest.mark.parametrize("n", range(1, 15))
@pytest.mark.parametrize("family", FAMILIES)
def test_generators_match_the_per_gate_reference(family, n):
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
        assert len(set(map(id, c.gates))) <= n * (n - 1) // 2 + 2 * n + 1


@pytest.mark.parametrize("gray", [False, True])
def test_slots_match_the_per_block_reference(gray):
    for n in range(1 + gray, MAX_N + 1):
        for got, want in zip(synth._slots(n, gray), reference_slots(n, gray)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def run_fresh(script):
    """The JSON that `script` prints, run in a fresh interpreter, so no earlier call has built anything."""
    shown = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": SRC}).stdout
    return json.loads(shown)


def test_a_dropped_circuit_leaves_no_slot_arrays_behind():
    kept = run_fresh(
        "import gc, json, tracemalloc\n"
        "from rootsynth.synth import _gate_table, synth_barenco_toffoli, synth_peres\n"
        "_gate_table(16)\n"  # kept between calls by design, about 60 KB
        "tracemalloc.start()\n"
        "start = tracemalloc.get_traced_memory()[0]\n"
        "synth_peres(16)\n"
        "synth_barenco_toffoli(16)\n"
        "gc.collect()\n"
        "print(json.dumps(tracemalloc.get_traced_memory()[0] - start))\n"
    )
    assert kept <= 64 << 10, kept


def test_generating_peaks_within_twice_the_codes():
    ratios = run_fresh(
        "import json, tracemalloc\n"
        "from rootsynth.synth import synth_barenco_toffoli, synth_peres, synth_toffoli\n"
        "tracemalloc.start()\n"
        "ratios = {}\n"
        "for generate in (synth_peres, synth_toffoli, synth_barenco_toffoli):\n"
        "    tracemalloc.reset_peak()\n"
        "    start = tracemalloc.get_traced_memory()[0]\n"
        "    gates = len(generate(16))\n"
        # Bounds on peaks are stated per gate in units of an 8-byte (intp) code, whatever dtype the codes take.
        "    ratios[generate.__name__] = (tracemalloc.get_traced_memory()[1] - start) / (8 * gates)\n"
        "print(json.dumps(ratios))\n"
    )
    assert max(ratios.values()) <= 2, ratios


class Built(Exception):
    pass


def refuse_to_build(*args):
    raise Built(args)


def refuse_to_build_any_gate(monkeypatch):
    monkeypatch.setattr(synth, "_gate_table", refuse_to_build)
    monkeypatch.setattr(synth, "_slots", refuse_to_build)


@pytest.mark.parametrize("family", FAMILIES)
class TestMaxN:
    def test_above_the_limit_is_rejected_before_any_gate_is_built(self, monkeypatch, family):
        refuse_to_build_any_gate(monkeypatch)
        for n in (MAX_N + 1, 40, 1000):
            with pytest.raises(ValueError, match=f"n = {n} is above the limit of {MAX_N} controls"):
                generate(family, n, None)

    def test_the_limit_itself_is_accepted(self, monkeypatch, family):
        refuse_to_build_any_gate(monkeypatch)
        with pytest.raises(Built):
            generate(family, MAX_N, None)
