"""The public names of the rootsynth package, whose count the roadmap tracks."""
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
    "SimState",
    "UnsupportedShapeError",
    "WidthLimitError",
    "ZeroActivationError",
    "activation_set",
    "as_bits",
    "bits",
    "bits_to_index",
    "check_equivalence",
    "circuit",
    "classical_output",
    "controlled_root",
    "converter_peres_to_toffoli",
    "converter_toffoli_to_peres",
    "dense_unitary",
    "exponent_simulate",
    "feynman",
    "format_bits",
    "index_to_bits",
    "iterative_polarity_flip",
    "load_circuit",
    "not_gate",
    "parse",
    "parse_bitstring",
    "parse_json",
    "permutation_from_unitary",
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
    assert len(PUBLIC_NAMES) == 48
    assert json.loads(names) == PUBLIC_NAMES
