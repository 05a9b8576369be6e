"""Property tests: text and JSON round trips of arbitrary circuits, and
polarity flips and adjoints of generated ones.

Circuits draw their gates from a small pool of distinct gates, with repeats
of one object and equal copies mixed, so that the per-distinct-gate tables
of the readers and writers meet both.
"""
import dataclasses

import numpy as np
from alpha_tables import ACTIVATED, FAMILIES, family_alphas, generate, table_driven_flip
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rootsynth.circuit import Circuit, controlled_root, feynman, not_gate
from rootsynth.simulate import truth_table
from rootsynth.synth import iterative_polarity_flip
from rootsynth.textio import parse, parse_json, serialize, serialize_json

# Characters that str.splitlines() breaks on may not appear in a label.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
labels = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=LINE_BREAKS), max_size=20)


@st.composite
def gates_over(draw, width):
    kind = draw(st.sampled_from(["cnot", "croot", "not"]))
    target = draw(st.integers(1, width))
    if kind == "not":
        return not_gate(target)
    control = draw(st.integers(1, width).filter(lambda c: c != target))
    if kind == "cnot":
        return feynman(control, target)
    kappa = 1 << draw(st.integers(0, 12))
    return controlled_root(kappa, draw(st.sampled_from([1, -1])), control, target)


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(gates_over(n + 1), min_size=1, max_size=8))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()), max_size=60))
    # A pick either reuses the pool's object or makes an equal copy of it.
    gates = [pool[i] if shared else dataclasses.replace(pool[i]) for i, shared in picks]
    return Circuit(n, gates, label=draw(labels))


@settings(deadline=None)
@given(circuits())
def test_text_round_trip(c):
    back = parse(serialize(c))
    assert back == c
    assert back.label == (c.label if c.label.strip() else "")


@settings(deadline=None)
@given(circuits())
def test_json_round_trip(c):
    back = parse_json(serialize_json(c))
    assert back == c
    assert back.label == c.label


@st.composite
def generated(draw, families=FAMILIES):
    """(family, n, activation, circuit, i): a generated circuit and a control index."""
    family = draw(st.sampled_from(families))
    n = draw(st.integers(1, 8))
    activation = None
    if family in ACTIVATED:
        activation = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any)))
    i = draw(st.integers(1, n))
    return family, n, activation, generate(family, n, activation), i


@settings(deadline=None)
@given(generated())
def test_flipping_twice_restores_the_circuit(case):
    _, _, _, c, i = case
    assert iterative_polarity_flip(iterative_polarity_flip(c, i), i) == c


@settings(deadline=None)
@given(generated(ACTIVATED))
def test_flip_equals_resynthesis_with_the_bit_complemented(case):
    family, n, a, c, i = case
    b = a[: i - 1] + (1 - a[i - 1],) + a[i:]
    assume(any(b))
    assert iterative_polarity_flip(c, i) == generate(family, n, b)


@settings(deadline=None)
@given(generated())
def test_flip_equals_the_table_driven_flip(case):
    family, n, _, c, i = case
    assert iterative_polarity_flip(c, i) == table_driven_flip(c, family_alphas(family, n), i)


@settings(deadline=None)
@given(generated())
def test_circuit_then_its_adjoint_is_the_identity(case):
    c = case[3]
    assert np.array_equal(truth_table(c.compose(c.adjoint())), np.arange(1 << c.width))
