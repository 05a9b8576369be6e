"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Iterable

from .bits import format_bits, parse_bitstring
from .simulate import NonClassical, exponent_simulate
from .synth import (
    MAX_N,
    _check_n,
    synth_barenco_toffoli,
    synth_peres,
    synth_toffoli,
    synth_zero_polarity,
)
from .textio import _text_pieces, load_circuit, render_ascii, serialize_json
from .verify import GateFamilySpec, check_equivalence

# CLI family: (the GateFamilySpec family it builds, its generator); barenco builds a toffoli.
_FAMILIES = {
    "peres": ("peres", synth_peres),
    "toffoli": ("toffoli", synth_toffoli),
    "barenco": ("toffoli", synth_barenco_toffoli),
    "orgate": ("or-gate", synth_zero_polarity),
    "andzero": ("and-complemented", synth_zero_polarity),
}


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootsynth",
        description="Synthesize and verify multi-control Peres/Toffoli circuits "
        "over Feynman gates and controlled roots of NOT.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a circuit and write its document")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument(
        "--n", type=int, required=True, help=f"number of control lines, at most {MAX_N}"
    )
    p.add_argument("--activation", help="activation bitstring a1..an (default all ones)")
    p.add_argument("--out", help="output path, JSON if it ends in .json (default: text to stdout)")

    p = sub.add_parser("verify", help="check a circuit file against a family oracle")
    p.add_argument("--circuit", required=True)
    p.add_argument("--family", required=True, choices=[f for f in _FAMILIES if f != "barenco"])
    p.add_argument("--n", type=int, required=True, help=f"number of control lines, at most {MAX_N}")
    p.add_argument("--activation")

    p = sub.add_parser("cost", help="print quantum cost and gate census")
    p.add_argument("--circuit", required=True)

    p = sub.add_parser("draw", help="print the ASCII diagram")
    p.add_argument("--circuit", required=True)

    p = sub.add_parser("simulate", help="run one basis input through a circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", required=True, help="input bitstring c1..cn t")

    about = "print the gate census of the generated Peres and Toffoli circuits for each control count"
    p = sub.add_parser("table", help=about, description=about)
    p.add_argument("--max-n", type=int, required=True)
    return parser


def _spec(args: argparse.Namespace) -> GateFamilySpec:
    activation = None if args.activation is None else parse_bitstring(args.activation)
    return GateFamilySpec(_FAMILIES[args.family][0], args.n, activation)


def _write_utf8(pieces: Iterable[str]) -> None:
    """Write each piece to stdout as UTF-8, which an ASCII locale cannot encode; a StringIO takes them as they are."""
    stream = sys.stdout
    if hasattr(stream, "buffer"):
        stream.flush()
        stream, pieces = stream.buffer, map(str.encode, pieces)  # one piece at a time, in UTF-8
    stream.writelines(pieces)
    stream.flush()


def _cmd_synth(args: argparse.Namespace) -> int:
    spec, generate = _spec(args), _FAMILIES[args.family][1]
    # A zero-polarity generator takes its family as its mode.
    circuit = generate(spec.n, spec.family if spec.activation is None else spec.activation)
    if args.out:  # the writer follows the suffix, as load_circuit's reader does; text goes a piece at a time
        out = Path(args.out)
        with out.open("w", encoding="utf-8") as file:
            file.writelines([serialize_json(circuit)] if out.suffix == ".json" else _text_pieces(circuit))
    else:
        _write_utf8(_text_pieces(circuit))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = _spec(args)
    report = check_equivalence(load_circuit(args.circuit), spec)
    if report.ok:
        print(f"pass ({report.inputs_checked} inputs checked)")
        return 0
    actual = report.actual
    shown = "non-classical" if isinstance(actual, NonClassical) else format_bits(actual)
    print(
        f"counterexample: input {format_bits(report.counterexample)} "
        f"expected {format_bits(report.expected)} got {shown}"
    )
    return 1


def _cmd_cost(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit)
    census = circuit.census()
    print(f"quantum cost: {circuit.quantum_cost}")
    print(
        f"feynman: {census.feynman_count}  root: {census.root_count}  "
        f"adjoint: {census.adjoint_count}  not: {census.not_count}"
    )
    return 0


def _cmd_draw(args: argparse.Namespace) -> int:
    _write_utf8([render_ascii(load_circuit(args.circuit)), "\n"])
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit)
    out = exponent_simulate(circuit, parse_bitstring(args.input))
    if isinstance(out, NonClassical):
        print(f"non-classical (root exponent {out.exponent} mod {2 * out.kappa})")
    else:
        print(format_bits(out))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    max_n = _check_n(args.max_n)
    print(f"{'n':>3} {'peres':>10} {'toffoli':>10} {'controlled':>11} {'feynman':>10}")
    for n in range(1, max_n + 1):  # each circuit is dropped once its census is read
        peres, toffoli = synth_peres(n).census(), synth_toffoli(n).census()
        print(f"{n:>3} {peres.total:>10} {toffoli.total:>10} {peres.controlled_count:>11} {peres.feynman_count:>10}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "verify": _cmd_verify,
    "cost": _cmd_cost,
    "draw": _cmd_draw,
    "simulate": _cmd_simulate,
    "table": _cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
