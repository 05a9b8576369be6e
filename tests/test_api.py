"""The public names of the rootsynth package, whose count the roadmap tracks."""
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import rootsynth

SRC = str(Path(rootsynth.__file__).resolve().parents[1])

PUBLIC_NAMES = [
    "Circuit",
    "DENSE_WIDTH_LIMIT",
    "EquivalenceReport",
    "Gate",
    "GateCensus",
    "GateFamilySpec",
    "GateKind",
    "NonClassical",
    "ParseError",
    "UnsupportedShapeError",
    "WidthLimitError",
    "activation_set",
    "as_bits",
    "bits",
    "check_equivalence",
    "circuit",
    "controlled_root",
    "converter_peres_to_toffoli",
    "converter_toffoli_to_peres",
    "dense_unitary",
    "exponent_simulate",
    "feynman",
    "format_bits",
    "iterative_polarity_flip",
    "load_circuit",
    "not_gate",
    "parse",
    "parse_bitstring",
    "parse_json",
    "render_ascii",
    "serialize",
    "serialize_json",
    "simulate",
    "spec_output",
    "synth",
    "synth_barenco_toffoli",
    "synth_peres",
    "synth_toffoli",
    "synth_zero_polarity",
    "textio",
    "truth_table",
    "verify",
]


def test_public_names():
    # A fresh interpreter: importing a submodule such as rootsynth.cli
    # elsewhere in the test run binds it as one more package attribute.
    names = subprocess.run(
        [sys.executable, "-c",
         "import json, rootsynth; print(json.dumps(sorted(k for k in vars(rootsynth) if not k.startswith('_'))))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": SRC},
    ).stdout
    assert len(PUBLIC_NAMES) == 42
    assert json.loads(names) == PUBLIC_NAMES


# Each public function with its parameters that have defaults; a new knob
# shows up here as a diff.
FUNCTION_OPTIONS = {
    "activation_set": (),
    "as_bits": (),
    "check_equivalence": (),
    "controlled_root": (),
    "converter_peres_to_toffoli": (),
    "converter_toffoli_to_peres": (),
    "dense_unitary": (),
    "exponent_simulate": (),
    "feynman": (),
    "format_bits": (),
    "iterative_polarity_flip": (),
    "load_circuit": (),
    "not_gate": (),
    "parse": (),
    "parse_bitstring": (),
    "parse_json": (),
    "render_ascii": (),
    "serialize": (),
    "serialize_json": (),
    "spec_output": (),
    "synth_barenco_toffoli": ("activation",),
    "synth_peres": ("activation",),
    "synth_toffoli": ("activation",),
    "synth_zero_polarity": ("mode",),
    "truth_table": (),
}


def test_public_function_options():
    functions = {name: getattr(rootsynth, name) for name in PUBLIC_NAMES}
    options = {
        name: tuple(p.name for p in inspect.signature(f).parameters.values() if p.default is not p.empty)
        for name, f in functions.items()
        if inspect.isfunction(f)
    }
    assert options == FUNCTION_OPTIONS
