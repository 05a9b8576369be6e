"""Ancilla-free multi-control Peres and Toffoli gate synthesis and verification.

Generates circuits of Feynman gates and controlled kappa-th roots of NOT for
any number of binary controls and any mixed-polarity activation vector,
accounts their quantum cost, and verifies every construction against an
independent functional oracle by exact simulation.
"""
from .bits import as_bits, format_bits, parse_bitstring
from .circuit import (
    Circuit,
    Gate,
    GateCensus,
    GateKind,
    controlled_root,
    feynman,
    not_gate,
)
from .simulate import (
    DENSE_WIDTH_LIMIT,
    NonClassical,
    UnsupportedShapeError,
    WidthLimitError,
    dense_unitary,
    exponent_simulate,
    truth_table,
)
from .synth import (
    converter_peres_to_toffoli,
    converter_toffoli_to_peres,
    iterative_polarity_flip,
    synth_barenco_toffoli,
    synth_peres,
    synth_toffoli,
    synth_zero_polarity,
)
from .textio import (
    ParseError,
    load_circuit,
    parse,
    parse_json,
    render_ascii,
    serialize,
    serialize_json,
)
from .verify import (
    EquivalenceReport,
    GateFamilySpec,
    activation_set,
    check_equivalence,
    spec_output,
)

__version__ = "0.1.0"
