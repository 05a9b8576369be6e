"""as_bits accepts values equal to 0 or 1 and rejects everything else, exponent_simulate by the
same rule; the packers round-trip."""
import random
from fractions import Fraction

import numpy as np
import pytest
from references import reference_bits_to_index, reference_index_to_bits

from rootsynth.bits import as_bits, as_index, index_to_bits, parse_bitstring
from rootsynth.circuit import Circuit
from rootsynth.simulate import exponent_simulate
from rootsynth.synth import synth_peres, synth_toffoli
from rootsynth.verify import GateFamilySpec, spec_output


class EqualsOneIndexZero:
    """Equal to 1 and hashed as 1, so as_bits reads 1, though bytes() reads 0."""

    def __eq__(self, other):
        return other == 1

    def __hash__(self):
        return 1

    def __index__(self):
        return 0


ACCEPTED = [
    ((True, False), (1, 0)),
    ((1.0, 0.0), (1, 0)),
    ((np.int64(0), np.int64(1)), (0, 1)),
    (np.array([1, 0, 1]), (1, 0, 1)),
    ((np.bool_(True), np.bool_(False)), (1, 0)),
    ((Fraction(1), Fraction(0)), (1, 0)),
    ((EqualsOneIndexZero(), 0), (1, 0)),
]


class IndexOne:
    """bytes() reads it as 1, but it neither equals nor hashes as 1."""

    def __index__(self):
        return 1


# [1], {} and both arrays are unhashable, so they cannot be looked up as a bit.
# bytes() reads the last two as 1; np.array(1) even equals 1.
REJECTED = [0.5, 1.9, "1", 2, -1, [1], {}, np.array([1]), IndexOne(), np.array(1)]


@pytest.mark.parametrize("values, bits", ACCEPTED)
def test_values_equal_to_a_bit_pass(values, bits):
    out = as_bits(values, len(bits))
    assert out == bits
    assert all(type(b) is int for b in out)


@pytest.mark.parametrize("value", REJECTED)
def test_other_values_are_rejected_not_truncated(value):
    with pytest.raises(ValueError, match="expected a binary vector"):
        as_bits((1, value, 0), 3)


@pytest.mark.parametrize("value", REJECTED)
def test_callers_reject_a_non_bit(value):
    with pytest.raises(ValueError, match="expected a binary vector"):
        synth_peres(3, (value, 1, 1))
    with pytest.raises(ValueError, match="expected a binary vector"):
        GateFamilySpec("peres", 2, (value, 0))
    with pytest.raises(ValueError, match="expected a binary vector"):
        exponent_simulate(Circuit(2), (1, value, 0))
    with pytest.raises(ValueError, match="expected a binary vector"):
        spec_output(GateFamilySpec("peres", 2), (1, value, 0))


@pytest.mark.parametrize("values, bits", ACCEPTED)
def test_exponent_simulate_reads_an_accepted_vector_as_its_ints(values, bits):
    circuit = synth_toffoli(len(bits) - 1)
    assert exponent_simulate(circuit, values) == exponent_simulate(circuit, bits)


def messages():
    """Each message, byte for byte: a vector names the tuple read from it, a generator's too.

    A fresh list on each call, so each test reads its own generator.
    """
    return [
        ((b for b in (1, 2, 0)), 3, "expected a binary vector, got (1, 2, 0)"),
        ([1, 0.5], 2, "expected a binary vector, got (1, 0.5)"),
        ((1, "1"), 2, "expected a binary vector, got (1, '1')"),
        ((1, [1]), 2, "expected a binary vector, got (1, [1])"),
        (5, 1, "expected a binary vector, got 5"),
        (None, 1, "expected a binary vector, got None"),
        ((1, 2), 3, "expected a binary vector, got (1, 2)"),
        ((1, 0), 3, "expected 3 bits, got 2"),
    ]


@pytest.mark.parametrize("values, length, message", messages())
def test_messages_name_the_values_read(values, length, message):
    with pytest.raises(ValueError) as excinfo:
        as_bits(values, length)
    assert str(excinfo.value) == message


# A vector that cannot be iterated is refused before its length is read, so
# the length-1 entries run on the narrowest circuit, of width 2.
@pytest.mark.parametrize("values, length, message", messages())
def test_exponent_simulate_words_each_message_as_as_bits_does(values, length, message):
    with pytest.raises(ValueError) as excinfo:
        exponent_simulate(Circuit(max(length - 1, 1)), values)
    assert str(excinfo.value) == message


def test_empty_bitstring_is_rejected():
    with pytest.raises(ValueError, match="expected a nonempty string of 0/1, got ''"):
        parse_bitstring("")


def test_a_bitstring_that_is_not_a_string_is_a_value_error():
    with pytest.raises(ValueError, match="expected a nonempty string of 0/1, got 101$"):
        parse_bitstring(101)


def test_index_past_the_width_is_rejected():
    assert index_to_bits(7, 3) == (1, 1, 1)
    with pytest.raises(ValueError, match="index 8 out of range for width 3"):
        index_to_bits(8, 3)


@pytest.mark.parametrize("index, width", [(-1, 3), (1, 0), (1 << 21, 21)])
def test_every_out_of_range_message_is_unchanged(index, width):
    with pytest.raises(ValueError) as excinfo:
        index_to_bits(index, width)
    assert str(excinfo.value) == f"index {index} out of range for width {width}"


@pytest.mark.parametrize("width", range(22))
def test_packers_round_trip_at_every_width(width):
    top = (1 << width) - 1
    rng = random.Random(width)
    indices = range(top + 1) if width <= 10 else [0, top] + [rng.randrange(top + 1) for _ in range(500)]
    for x in indices:
        bits = index_to_bits(x, width)
        assert bits == reference_index_to_bits(x, width)
        assert all(type(b) is int for b in bits)
        assert reference_bits_to_index(bits) == x
        assert as_index(bits, width) == as_index(list(bits), width) == x


def test_the_empty_vector_packs_as_zero():
    assert as_index((), 0) == 0
    assert index_to_bits(0, 0) == ()


def test_a_bool_or_numpy_one_packs_as_one():
    assert as_index((True,), 1) == as_index((np.int64(1),), 1) == 1
    assert as_index((True, False, np.int64(1)), 3) == 5


# as_index reads every accepted vector as as_bits does: 1.0 as 1, and EqualsOneIndexZero() as 1, though bytes() reads 0.
@pytest.mark.parametrize("values, bits", ACCEPTED)
def test_an_accepted_vector_packs_to_its_ints_index(values, bits):
    assert as_index(values, len(bits)) == reference_bits_to_index(bits)


# 48 and 49 are the bytes of the digits "0" and "1"; 256 and -1 are no byte at all. bytes() reads
# np.array(1) and IndexOne() as 1, so each is refused as as_bits refuses it.
@pytest.mark.parametrize("entry", [2, 3, 48, 49, 255, 256, -1, np.array(1), IndexOne()])
def test_an_entry_other_than_a_bit_is_not_mixed_in(entry):
    with pytest.raises(ValueError, match="expected a binary vector"):
        as_index((1, entry, 0), 3)


# tuple() reads the entries: an ndarray packs its values, not its buffer, and an int is no vector.
@pytest.mark.parametrize("bits, index", [(np.array([1, 0]), 2), (np.array([1, 0, 1], dtype=np.uint8), 5)])
def test_an_array_packs_its_entries(bits, index):
    assert as_index(bits, len(bits)) == index


@pytest.mark.parametrize("bits, message", [
    (5, "expected a binary vector, got 5"),
    (("1",), "expected a binary vector, got ('1',)"),
    ((None,), "expected a binary vector, got (None,)"),
    ((1, 2, 0), "expected a binary vector, got (1, 2, 0)"),
])
def test_a_non_vector_or_non_int_entry_raises_value_error(bits, message):
    with pytest.raises(ValueError) as excinfo:
        as_index(bits, 3)
    assert str(excinfo.value) == message
