"""as_bits accepts values equal to 0 or 1 and rejects everything else."""
from fractions import Fraction

import numpy as np
import pytest

from rootsynth.bits import as_bits, index_to_bits, parse_bitstring
from rootsynth.circuit import Circuit
from rootsynth.simulate import exponent_simulate
from rootsynth.synth import synth_peres
from rootsynth.verify import GateFamilySpec, spec_output

ACCEPTED = [
    ((True, False), (1, 0)),
    ((1.0, 0.0), (1, 0)),
    ((np.int64(0), np.int64(1)), (0, 1)),
    (np.array([1, 0, 1]), (1, 0, 1)),
    ((np.bool_(True), np.bool_(False)), (1, 0)),
    ((Fraction(1), Fraction(0)), (1, 0)),
]

# The last three are unhashable, so they cannot be looked up as a bit.
REJECTED = [0.5, 1.9, "1", 2, -1, [1], {}, np.array([1])]


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


# Each message, byte for byte: a vector names the tuple read from it, a generator's too.
MESSAGES = [
    ((b for b in (1, 2, 0)), 3, "expected a binary vector, got (1, 2, 0)"),
    ([1, 0.5], 2, "expected a binary vector, got (1, 0.5)"),
    ((1, "1"), 2, "expected a binary vector, got (1, '1')"),
    ((1, [1]), 2, "expected a binary vector, got (1, [1])"),
    (5, 1, "expected a binary vector, got 5"),
    (None, 1, "expected a binary vector, got None"),
    ((1, 2), 3, "expected a binary vector, got (1, 2)"),
    ((1, 0), 3, "expected 3 bits, got 2"),
]


@pytest.mark.parametrize("values, length, message", MESSAGES)
def test_messages_name_the_values_read(values, length, message):
    with pytest.raises(ValueError) as excinfo:
        as_bits(values, length)
    assert str(excinfo.value) == message


def test_empty_bitstring_is_rejected():
    with pytest.raises(ValueError, match="expected a nonempty string of 0/1, got ''"):
        parse_bitstring("")


def test_index_past_the_width_is_rejected():
    assert index_to_bits(7, 3) == (1, 1, 1)
    with pytest.raises(ValueError, match="index 8 out of range for width 3"):
        index_to_bits(8, 3)
