"""Property tests: text and JSON round trips of arbitrary circuits.

Circuits draw their gates from a small pool of distinct gates, with repeats
of one object and equal copies mixed, so that the per-distinct-gate tables
of the readers and writers meet both.
"""
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from rootsynth.circuit import Circuit, controlled_root, feynman, not_gate
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
    assert back.label == c.label.strip()


@settings(deadline=None)
@given(circuits())
def test_json_round_trip(c):
    back = parse_json(serialize_json(c))
    assert back == c
    assert back.label == c.label
