import copy
import dataclasses
import gc
import pickle
import random
import re
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from alpha_tables import ACTIVATED, FAMILIES, generate, target_gates
from test_simulate import random_layered_circuit

from rootsynth import circuit
from rootsynth.bits import index_to_bits
from rootsynth.circuit import (
    Circuit,
    Gate,
    GateCensus,
    GateKind,
    controlled_root,
    feynman,
    not_gate,
)
from rootsynth.synth import (
    converter_peres_to_toffoli,
    converter_toffoli_to_peres,
    iterative_polarity_flip,
    synth_barenco_toffoli,
    synth_peres,
    synth_toffoli,
    synth_zero_polarity,
)
from rootsynth.textio import ParseError, parse_json, serialize_json
from rootsynth.verify import GateFamilySpec


class TestConstruction:
    def test_empty_circuit(self):
        c = Circuit(2)
        assert c.width == 3
        assert c.n_controls == 2
        assert c.target_line == 3
        assert len(c) == 0
        assert c.quantum_cost == 0

    @pytest.mark.parametrize("n,width", [(1, 2), (2, 3), (4, 5)])
    def test_width(self, n, width):
        assert Circuit(n).width == width

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_bad_control_count(self, n):
        with pytest.raises(ValueError):
            Circuit(n)

    def test_gates_normalized_to_tuple(self):
        c = Circuit(2, [feynman(1, 2)])
        assert isinstance(c.gates, tuple)
        assert c == Circuit(2, (feynman(1, 2),))

    @pytest.mark.parametrize(
        "build,position",
        [
            (lambda: Circuit(2, (1, 2)), 0),
            (lambda: Circuit(2, (feynman(1, 2), "cnot 1 2")), 1),
            (lambda: Circuit(2, ([1],)), 0),
            (lambda: Circuit(2).append([1]), 0),
            (lambda: Circuit(2, (feynman(1, 2), {1: 2})), 1),
        ],
        ids=["int", "str", "unhashable", "unhashable-appended", "unhashable-after-a-gate"],
    )
    def test_rejects_an_entry_that_is_no_gate(self, build, position):
        with pytest.raises(ValueError, match=f"gate {position} is .*, not a Gate"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Circuit(2, 5),
            lambda: GateFamilySpec("peres", 2, 5),
            lambda: synth_peres(3, 5),
        ],
        ids=["Circuit-gates", "GateFamilySpec-activation", "synth_peres-activation"],
    )
    def test_rejects_an_argument_that_is_not_iterable(self, build):
        with pytest.raises(ValueError, match="got 5$"):
            build()

    @pytest.mark.parametrize("label", [5, None, b"peres", ["peres"]], ids=repr)
    def test_rejects_a_label_that_is_no_string(self, label):
        with pytest.raises(ValueError, match=re.escape(f"label must be a string, got {label!r}")):
            Circuit(2, label=label)


# Every entry point that takes a control count, mapped to the count it stores.
COUNT_ENTRY_POINTS = {
    "Circuit": lambda n: Circuit(n).n_controls,
    "GateFamilySpec": lambda n: GateFamilySpec("toffoli", n).n,
    "synth_peres": lambda n: synth_peres(n).n_controls,
    "synth_toffoli": lambda n: synth_toffoli(n).n_controls,
    "synth_barenco_toffoli": lambda n: synth_barenco_toffoli(n).n_controls,
    "synth_zero_polarity": lambda n: synth_zero_polarity(n).n_controls,
    "converter_toffoli_to_peres": lambda n: converter_toffoli_to_peres(n).n_controls,
    "converter_peres_to_toffoli": lambda n: converter_peres_to_toffoli(n).n_controls,
}


class TestControlCount:
    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("n", [2.5, 2.0, "2", None], ids=repr)
    def test_every_entry_point_rejects_a_non_integer(self, entry, n):
        with pytest.raises(ValueError, match=re.escape(f"control count must be an integer, got {n!r}")):
            COUNT_ENTRY_POINTS[entry](n)

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("n,count", [(True, 1), (np.int64(3), 3)], ids=repr)
    def test_every_entry_point_stores_an_integer_count_as_int(self, entry, n, count):
        stored = COUNT_ENTRY_POINTS[entry](n)
        assert type(stored) is int and stored == count


class TestGateValidation:
    def test_control_equals_target(self):
        with pytest.raises(ValueError):
            feynman(2, 2)

    @pytest.mark.parametrize("kappa", [0, 3, 6, -2])
    def test_root_kappa_power_of_two(self, kappa):
        with pytest.raises(ValueError):
            controlled_root(kappa, 1, 1, 2)

    @pytest.mark.parametrize("direction", [0, 2, -2])
    def test_root_direction(self, direction):
        with pytest.raises(ValueError):
            controlled_root(2, direction, 1, 2)

    @pytest.mark.parametrize("args", [
        (GateKind.FEYNMAN, 2.0, 1.0),
        ("cnot", 2, 1),
        (GateKind.FEYNMAN, 2, "1"),
        (GateKind.ROOT, 3, 1, 2.0, 1),
        (GateKind.ROOT, 3, 1, 2, "+1"),
        (GateKind.NOT, 3.0),
    ], ids=repr)
    def test_rejects_a_kind_or_number_of_another_type(self, args):
        with pytest.raises(ValueError, match="must be a GateKind|must be integers"):
            Gate(*args)

    @pytest.mark.parametrize("one", [True, np.int64(1)], ids=repr)
    def test_stores_integer_likes_as_int(self, one):
        g = controlled_root(2, one, one, 3)
        assert type(g.control) is int and type(g.direction) is int
        assert g is controlled_root(2, 1, 1, 3)

    def test_gates_are_frozen(self):
        g = feynman(1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.target = 3

    def test_feynman_takes_no_kappa(self):
        with pytest.raises(ValueError, match="kappa/direction only apply to"):
            Gate(GateKind.FEYNMAN, 2, 1, kappa=2)

    def test_not_gate_single_line(self):
        g = not_gate(3)
        assert g.lines == (3,)
        assert g.adjoint() == g


class TestAppend:
    def test_append_feynman(self):
        c = Circuit(2).append(feynman(1, 2))
        assert len(c) == 1

    def test_append_root(self):
        c = Circuit(2).append(controlled_root(2, 1, 2, 3))
        assert c.gates[0].kappa == 2

    def test_append_is_persistent(self):
        base = Circuit(2)
        base.append(feynman(1, 2))
        assert len(base) == 0

    def test_append_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(2).append(feynman(1, 4))

    def test_append_rejects_an_entry_that_is_no_gate(self):
        with pytest.raises(ValueError, match="^gate 0 is 1, not a Gate$"):
            Circuit(2).append(1)

    def test_construct_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(2, (feynman(1, 4),))


class TestQuantumCost:
    def test_peres_two_controls_costs_four(self):
        assert synth_peres(2).quantum_cost == 4

    def test_empty_costs_zero(self):
        assert Circuit(3).quantum_cost == 0

    def test_barenco_three_controls_costs_thirteen(self):
        assert synth_barenco_toffoli(3).quantum_cost == 13

    def test_cost_counts_every_gate_once(self):
        c = Circuit(2, (feynman(1, 2), not_gate(3), controlled_root(2, -1, 1, 3)))
        assert c.quantum_cost == 3


class TestAdjoint:
    def test_single_root(self):
        c = Circuit(2, (controlled_root(2, 1, 1, 3),))
        assert c.adjoint().gates == (controlled_root(2, -1, 1, 3),)

    def test_reverses_order(self):
        c = Circuit(2, (feynman(1, 2), controlled_root(2, 1, 2, 3)))
        assert c.adjoint().gates == (controlled_root(2, -1, 2, 3), feynman(1, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_involution(self, n):
        c = synth_peres(n)
        assert c.adjoint().adjoint() == c

    def test_cost_invariant(self):
        c = synth_toffoli(3)
        assert c.adjoint().quantum_cost == c.quantum_cost


class TestCompose:
    def test_empty_is_identity_element(self):
        c = synth_peres(2)
        assert c.compose(Circuit(2)) == c

    def test_cost_additive(self):
        c1, c2 = synth_peres(3), synth_peres(3, (1, 0, 1))
        assert c1.compose(c2).quantum_cost == c1.quantum_cost + c2.quantum_cost

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            synth_peres(2).compose(synth_peres(3))

    def test_only_a_circuit_composes_as_only_a_gate_appends(self):
        c = synth_peres(3)
        with pytest.raises(ValueError, match="^3 is not a Circuit$"):
            c.compose(3)
        with pytest.raises(ValueError, match="is 3, not a Gate$"):
            c.append(3)

    def test_toffoli_cost_via_composition(self):
        from rootsynth.synth import converter_peres_to_toffoli

        c = synth_peres(3).compose(converter_peres_to_toffoli(3))
        assert c.quantum_cost == 13


class TestCensus:
    def test_empty(self):
        assert Circuit(2).census() == GateCensus()

    def test_peres_two_controls(self):
        census = synth_peres(2).census()
        assert census.controlled_count == 3
        assert census.feynman_count == 1
        assert census.not_count == 0

    def test_peres_three_controls(self):
        census = synth_peres(3).census()
        assert census.root_count + census.adjoint_count == 7
        assert census.feynman_count == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_counts_sum_to_cost(self, n):
        for c in (synth_peres(n), synth_toffoli(n), synth_barenco_toffoli(n)):
            assert c.census().total == c.quantum_cost

    @staticmethod
    def gate_by_gate(c):
        kinds = Counter((g.kind, g.direction if g.kind is GateKind.ROOT else 0) for g in c.gates)
        return GateCensus(kinds[GateKind.FEYNMAN, 0], kinds[GateKind.ROOT, 1], kinds[GateKind.ROOT, -1],
                          kinds[GateKind.NOT, 0])

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_of_any_size_count_as_gate_by_gate(self, monkeypatch, block):
        monkeypatch.setattr(circuit, "_CENSUS_BLOCK", block)
        for c in (synth_toffoli(6), synth_peres(5).adjoint(), Circuit(2)):
            assert c.census() == self.gate_by_gate(c)

    def test_a_16_control_census_peaks_within_three_bytes_a_gate(self):
        c = synth_toffoli(16)
        gc.collect()
        tracemalloc.start()
        try:
            census = c.census()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert census == self.gate_by_gate(c) and census.total == len(c) > 2 * circuit._CENSUS_BLOCK
        # A census that cast every code to intp at once would peak at 8 bytes a gate.
        assert peak <= 3 * len(c), (peak / len(c))

    def test_target_gates_are_the_controlled_slots(self):
        c = synth_peres(3)
        slots = target_gates(c)
        assert len(slots) == 7
        assert all(g.kind is GateKind.ROOT for g in slots)

    def test_target_gates_degenerate_single_control(self):
        # At n = 1 the kappa = 1 root is a plain Feynman but still one slot.
        slots = target_gates(synth_peres(1))
        assert len(slots) == 1
        assert slots[0].kind is GateKind.FEYNMAN


def test_circuits_are_frozen():
    c = synth_peres(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.n_controls = 3


def test_label_excluded_from_equality():
    a = Circuit(2, (feynman(1, 2),), label="x")
    b = Circuit(2, (feynman(1, 2),), label="y")
    assert a == b


@pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\r\nb", "trailing\n", "a\u2028b"], ids=repr)
def test_label_must_be_one_line(label):
    with pytest.raises(ValueError, match="label must be a single line"):
        Circuit(2, label=label)
    with pytest.raises(ValueError, match="label must be a single line"):
        dataclasses.replace(synth_peres(2), label=label)


class TestDistinctGateObjects:
    def test_a_repeated_object_is_checked(self):
        bad = feynman(1, 4)
        with pytest.raises(ValueError, match="line 4 out of range for width 3"):
            Circuit(2, (feynman(1, 2),) * 100 + (bad,) * 100)

    def test_the_first_bad_gate_in_order_is_reported(self):
        first, second = not_gate(5), feynman(1, 4)
        with pytest.raises(ValueError, match="line 5 out of range"):
            Circuit(2, (feynman(1, 2), first, second, first))

    def test_census_counts_shared_and_equal_copies(self):
        root = controlled_root(2, -1, 1, 3)
        c = Circuit(2, (root,) * 5 + (controlled_root(2, -1, 1, 3), not_gate(3), not_gate(3)))
        assert c.census() == GateCensus(adjoint_count=6, not_count=2)

    def test_adjoint_keeps_one_object_per_distinct_gate(self):
        c = synth_toffoli(6)
        adj = c.adjoint()
        assert len(set(map(id, adj.gates))) == len(set(map(id, c.gates)))
        assert adj.gates == tuple(g.adjoint() for g in reversed(c.gates))


# One gate of each kind, by its gate function and arguments; the arguments
# hold a 1 where True can stand for it.
GATE_CALLS = [(feynman, (1, 2)), (controlled_root, (8, 1, 1, 3)), (controlled_root, (8, -1, 2, 3)), (not_gate, (1,))]


def call_id(value):
    """A test id part that is the same in every process: a gate function's name, or an argument's repr."""
    return value.__name__ if callable(value) else repr(value)


# A gate call with a float or string field, and the fields its refusal names.
FIELD_TYPE_CALLS = [
    (feynman, (1.0, 2), "target 2, control 1.0, kappa 1, direction 1"),
    (feynman, ("1", 2), "target 2, control '1', kappa 1, direction 1"),
    (feynman, (1, 2.0), "target 2.0, control 1, kappa 1, direction 1"),
    (not_gate, (1.0,), "target 1.0, control None, kappa 1, direction 1"),
    (not_gate, ("1",), "target '1', control None, kappa 1, direction 1"),
    (controlled_root, (2, 1.0, 1, 3), "target 3, control 1, kappa 2, direction 1.0"),
    (controlled_root, (2, "1", 1, 3), "target 3, control 1, kappa 2, direction '1'"),
    (controlled_root, (2.0, 1, 1, 3), "target 3, control 1, kappa 2.0, direction 1"),
    (controlled_root, (np.int64(2), 1, "1", 3), "target 3, control '1', kappa 2, direction 1"),
]


class TestGateContract:
    """What a Gate promises, whichever path builds it."""

    @pytest.mark.parametrize("make,args", GATE_CALLS, ids=call_id)
    def test_true_and_numpy_integers_intern_to_the_gate_of_ints(self, make, args):
        g = make(*args)
        for convert in (np.int8, np.int64, np.intp, lambda a: True if a == 1 else a):
            assert make(*map(convert, args)) is g

    @pytest.mark.parametrize("make,args,message", FIELD_TYPE_CALLS,
                             ids=[f"{make.__name__}{args!r}" for make, args, _ in FIELD_TYPE_CALLS])
    def test_a_float_or_string_field_is_refused_naming_every_field(self, make, args, message):
        with pytest.raises(ValueError) as info:
            make(*args)
        assert str(info.value) == f"gate fields must be integers, got {message}"

    @pytest.mark.parametrize("make,args", GATE_CALLS, ids=call_id)
    def test_copy_pickle_and_replace_keep_the_object(self, make, args):
        g = make(*args)
        assert copy.copy(g) is g and copy.deepcopy(g) is g and dataclasses.replace(g) is g
        assert all(pickle.loads(pickle.dumps(g, protocol)) is g for protocol in range(pickle.HIGHEST_PROTOCOL + 1))
        assert dataclasses.replace(g, target=g.target + 5) is make(*args[:-1], args[-1] + 5)

    @pytest.mark.parametrize("make,args", GATE_CALLS, ids=call_id)
    def test_lines_are_the_control_then_the_target(self, make, args):
        g = make(*args)
        assert type(g.lines) is tuple
        assert g.lines == (args if make is not_gate else args[-2:])
        # lines is stored, not a field: it takes no part in repr, fields or replace.
        assert "lines" not in repr(g) and [f.name for f in dataclasses.fields(g)] == [
            "kind", "target", "control", "kappa", "direction"]

    def test_gate_kind_keeps_its_members_values_and_hash(self):
        assert [(m.name, m.value) for m in GateKind] == [("FEYNMAN", "cnot"), ("ROOT", "croot"), ("NOT", "not")]
        assert GateKind("croot") is GateKind.ROOT and GateKind.ROOT == GateKind.ROOT != GateKind.NOT
        assert hash(GateKind.ROOT) == hash("ROOT") and GateKind.ROOT != "croot"

    def test_building_a_gate_hashes_no_gate_kind(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"hashed {self}")

        monkeypatch.setattr(GateKind, "__hash__", refuse)
        with pytest.raises(AssertionError):
            hash(GateKind.ROOT)
        assert feynman(1, 2) is feynman(1, 2)  # a gate already interned
        new = controlled_root(1 << 40, -1, 977, 978)  # a gate no other test builds
        assert controlled_root(1 << 40, -1, 977, 978) is new and new.adjoint().adjoint() is new


class TestInterning:
    """Each gate value has one live object."""

    def test_equal_gates_are_one_object(self):
        assert feynman(1, 2) is feynman(1, 2)
        assert controlled_root(4, -1, 2, 3).adjoint() is controlled_root(4, 1, 2, 3)
        assert feynman(1, 2) is not feynman(2, 1)

    def test_replace_copy_and_pickle_return_the_same_object(self):
        g = controlled_root(8, -1, 2, 4)
        assert dataclasses.replace(g) is g
        assert dataclasses.replace(g, direction=1) is g.adjoint()
        assert copy.copy(g) is g and copy.deepcopy(g) is g
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(g, protocol)) is g

    @pytest.mark.parametrize("args", [
        (GateKind.FEYNMAN, 2, 2),
        (GateKind.ROOT, 2, 1, 3, 1),
        (GateKind.NOT, 0),
        (GateKind.NOT, 2, 1),
        (GateKind.FEYNMAN, 2.0, 1),
    ], ids=repr)
    def test_a_construction_that_raises_leaves_nothing_in_the_table(self, args):
        before = dict(circuit._interned)  # strong references: nothing drops out meanwhile
        with pytest.raises(ValueError):
            Gate(*args)
        assert dict(circuit._interned) == before

    def test_threads_building_the_same_gates_get_one_object_per_gate(self):
        # Lines far above any other test's, so every gate is new to the table.
        pairs = [(c, t) for t in range(900, 960) for c in range(900, t)]
        start = threading.Barrier(4, timeout=10)
        built = [[] for _ in range(4)]

        def build(out):
            start.wait()
            out.extend(feynman(c, t) for c, t in pairs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(out,)) for out in built]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(out) == len(pairs) for out in built)
        for gates in zip(*built):
            assert len(set(map(id, gates))) == 1

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_a_circuit_of_replaced_gates_equals_the_original(self, family, n):
        c = generate(family, n, None)
        copies = Circuit(c.n_controls, tuple(dataclasses.replace(g) for g in c.gates))
        assert copies == c and copies.census() == c.census()
        assert all(a is b for a, b in zip(copies.gates, c.gates))


def _column_cases():
    """Every family at n <= 10, all ones, and one seeded random activation each."""
    rng = random.Random(17)
    cases = []
    for family in FAMILIES:
        for n in range(1, 11):
            cases.append((family, n, None))
            if family in ACTIVATED:
                cases.append((family, n, index_to_bits(rng.randrange(1, 1 << n), n)))
    return cases


COLUMN_CASES = _column_cases()


def flip_gate_by_gate(c, i):
    """iterative_polarity_flip on the gate tuple: each line's mask run through the gates in order.

    A NOT gate adds the constant 1, which leaves its line's bits of the inputs as they are.
    """
    w = c.target_line
    masks = {line: 1 << (line - 1) for line in range(1, w)}  # alpha_line is bit line - 1
    gates = []
    for g in c.gates:
        if g.target == w:
            gates.append(g.adjoint() if masks.get(g.control, 0) >> (i - 1) & 1 else g)
        else:
            masks[g.target] ^= masks.get(g.control, 0)
            gates.append(g)
    return tuple(gates)


class TestColumns:
    """A circuit is a table of distinct gates plus one code per gate."""

    @pytest.mark.parametrize("family,n,act", COLUMN_CASES)
    def test_the_columns_decode_to_the_gates(self, family, n, act):
        c = generate(family, n, act)
        gates = c.gates
        assert isinstance(gates, tuple) and tuple(c) == gates and len(c) == len(gates)
        assert c.table == tuple(dict.fromkeys(gates))
        assert c.codes.dtype == np.min_scalar_type(len(c.table) - 1) == np.uint8 and not c.codes.flags.writeable
        rebuilt = Circuit(n, gates)
        assert rebuilt == c and hash(rebuilt) == hash(c)

    @pytest.mark.parametrize("family,n,act", COLUMN_CASES)
    def test_operations_equal_the_same_on_the_gate_tuple(self, family, n, act):
        c = generate(family, n, act)
        gates, other = c.gates, synth_peres(n)
        expected = {
            "append": (c.append(not_gate(n + 1)), gates + (not_gate(n + 1),)),
            "compose": (c.compose(other), gates + other.gates),
            "adjoint": (c.adjoint(), tuple(g.adjoint() for g in reversed(gates))),
            "replace": (dataclasses.replace(c, gates=gates[::-1]), gates[::-1]),
        }
        for i in sorted({1, (n + 1) // 2, n}):
            expected[f"flip {i}"] = (iterative_polarity_flip(c, i), flip_gate_by_gate(c, i))
        for name, (result, want) in expected.items():
            assert result.gates == want, name
            assert result == Circuit(n, want) and hash(result) == hash(Circuit(n, want)), name
            assert result.label == (f"{c.label} {name}" if name.startswith("flip") else c.label), name

    @pytest.mark.parametrize("seed", range(20))
    def test_flip_of_random_layered_circuits_equals_the_gate_by_gate_flip(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 7)
        c = Circuit(n, random_layered_circuit(rng, n, 1 << rng.randrange(0, n + 1), 8 << n))
        fixed = [g.kind is not GateKind.ROOT for g in c.gates]  # Feynman gates, onto the target too, and NOTs
        kinds = {(g.kind, g.target == c.target_line) for g in c.table}
        assert kinds >= {(GateKind.FEYNMAN, True), (GateKind.ROOT, True), (GateKind.NOT, True)}
        for i in range(1, n + 1):
            flipped = iterative_polarity_flip(c, i)
            assert flipped.gates == flip_gate_by_gate(c, i), i
            assert all(a is b for a, b, same in zip(flipped.gates, c.gates, fixed) if same), i
            assert iterative_polarity_flip(flipped, i) == c, i

    @pytest.mark.parametrize("family,n,act", [("toffoli", 5, (1, 0, 1, 1, 0)), ("barenco", 4, None)])
    def test_pickle_copy_and_deepcopy_keep_the_circuit(self, family, n, act):
        c = generate(family, n, act)
        copies = [copy.copy(c), copy.deepcopy(c)]
        copies += [pickle.loads(pickle.dumps(c, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in copies:
            assert back == c and hash(back) == hash(c) and back.gates == c.gates
            assert back.label == c.label != ""
            assert not back.codes.flags.writeable

    def test_a_circuit_equals_no_other_type(self):
        c = synth_peres(2)
        assert (c == 3) is False and (c != 3) is True
        assert c.__eq__(3) is NotImplemented

    def test_equal_circuits_from_any_table_order(self):
        a, b = feynman(1, 2), not_gate(3)
        c = Circuit._of_codes(2, (b, a, b, feynman(2, 3)), np.array([1, 2, 0, 1]))
        assert c.table == (a, b) and c.codes.tolist() == [0, 1, 1, 0]
        assert c == Circuit(2, (a, b, b, a)) and hash(c) == hash(Circuit(2, (a, b, b, a)))

    def test_a_non_gate_table_entry_names_its_first_position(self):
        with pytest.raises(ValueError, match=r"^gate 2 is 'x', not a Gate$"):
            Circuit(2, (feynman(1, 2), not_gate(3), "x", feynman(1, 2), "x"))
        with pytest.raises(ValueError, match=r"^gate 3 is 'x', not a Gate$"):
            Circuit._of_codes(2, (feynman(1, 2), "x"), np.array([0, 0, 0, 1, 1]))

    @pytest.mark.parametrize("codes,position", [
        ([0, 2, 1], 1),
        ([0, 1, -1, 5], 2),
        (np.array([0, 1, -1], np.int16), 2),  # synth's dtype: signed codes are still checked for a negative one
        (np.array([-3, 0], np.intp), 0),
    ])
    def test_an_out_of_range_code_is_refused(self, codes, position):
        table = (feynman(1, 2), not_gate(3))
        code = codes[position]
        with pytest.raises(ValueError, match=f"^gate {position} has code {code}, out of range for 2 gates$"):
            Circuit._of_codes(2, table, np.array(codes))
        hex_codes = bytes(c % 256 for c in codes).hex()  # -1 as a one-byte code reads 255
        v3 = serialize_json(Circuit(2, table))
        message = f"^sequence {position}: index {code % 256} out of range for 2 gate records$"
        with pytest.raises(ParseError, match=message):
            parse_json(v3.replace('"sequence": "0001"', f'"sequence": "{hex_codes}"'))


def layered_gates(n):
    """Every distinct gate of a layered circuit over n controls with roots of order 2..2^(n-1), in a seeded order.

    There are n(n-1) Feynman gates between control lines, n onto the target,
    2n(n-1) roots and n + 1 NOT gates: 421 at n = 12.
    """
    w = n + 1
    gates = [feynman(c, t) for t in range(1, w + 1) for c in range(1, w) if c != t]
    gates += [controlled_root(1 << k, d, c, w) for k in range(1, n) for d in (1, -1) for c in range(1, w)]
    gates += [not_gate(line) for line in range(1, w + 1)]
    random.Random(n).shuffle(gates)
    return gates


WIDE_N = 12
POOL = layered_gates(WIDE_N)


def wide_circuit(table, size, seed=0):
    """A circuit of `size` >= len(table) gates over WIDE_N controls, using each gate of `table`, in a seeded order."""
    rng = random.Random(seed)
    gates = list(table) + rng.choices(table, k=size - len(table)) if table else []
    rng.shuffle(gates)
    return Circuit(WIDE_N, gates, label=f"wide {len(table)}")


class TestWideTables:
    """Past 256 distinct gates the codes take uint16, and every operation that adds to them widens them first."""

    @pytest.mark.parametrize("distinct,dtype", [(0, np.uint8), (1, np.uint8), (256, np.uint8), (257, np.uint16),
                                                (421, np.uint16)])
    def test_the_codes_take_the_smallest_unsigned_dtype_of_the_table(self, distinct, dtype):
        c = wide_circuit(POOL[:distinct], 3 * distinct)
        assert len(c.table) == distinct and c.codes.dtype == dtype
        # The dtype is the canonical table's: unused and repeated entries past 256 leave it as it is.
        for table in (c.table, c.table + tuple(POOL[distinct:]) + c.table):
            for codes in (c.codes.astype(np.int64), c.codes.astype(np.uint32)):
                rebuilt = Circuit._of_codes(WIDE_N, table, codes)
                assert rebuilt == c and hash(rebuilt) == hash(c) and rebuilt.codes.dtype == dtype

    @pytest.mark.parametrize("left,right", [(200, 200), (100, 321), (256, 1), (1, 256), (421, 0)])
    def test_compose_past_256_gates(self, left, right):
        a = wide_circuit(POOL[:left], 3 * left, seed=1)
        b = wide_circuit(POOL[-right:] if right else [], 3 * right, seed=2)
        composed = a.compose(b)
        want = Circuit(WIDE_N, a.gates + b.gates)
        assert composed.gates == a.gates + b.gates
        assert composed == want and hash(composed) == hash(want) and composed.codes.dtype == want.codes.dtype
        assert composed.label == a.label

    @pytest.mark.parametrize("distinct", [255, 256, 300])
    def test_append_past_256_gates(self, distinct):
        c = wide_circuit(POOL[:distinct], 2 * distinct)
        for g in (POOL[distinct], POOL[0]):  # a new gate, then one the table holds
            appended = c.append(g)
            want = Circuit(WIDE_N, c.gates + (g,))
            assert appended.gates == c.gates + (g,)
            assert appended == want and hash(appended) == hash(want) and appended.codes.dtype == want.codes.dtype

    def test_adjoint_past_256_gates(self):
        c = wide_circuit(POOL, 1500)
        adjoint = c.adjoint()
        assert adjoint.gates == tuple(g.adjoint() for g in reversed(c.gates))
        assert adjoint.codes.dtype == np.uint16 and adjoint.adjoint() == c

    @pytest.mark.parametrize("distinct", [129, 200, 256, 421])
    def test_flip_past_256_gates(self, distinct):
        # The flip's table is the circuit's and its adjoints: past 256 entries from 129 on.
        c = wide_circuit(POOL[:distinct], 3 * distinct)
        for i in (1, 7, WIDE_N):
            flipped = iterative_polarity_flip(c, i)
            assert flipped != c and flipped.gates == flip_gate_by_gate(c, i), i
            assert iterative_polarity_flip(flipped, i) == c, i
