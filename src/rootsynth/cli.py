"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bits import format_bits, parse_bitstring
from .simulate import NonClassical, classical_output, exponent_simulate
from .synth import (
    MAX_N,
    synth_barenco_toffoli,
    synth_peres,
    synth_toffoli,
    synth_zero_polarity,
)
from .textio import load_circuit, render_ascii, serialize, serialize_json
from .verify import GateFamilySpec, check_equivalence

_SYNTH_FAMILIES = ("peres", "toffoli", "barenco", "orgate", "andzero")
_VERIFY_FAMILIES = ("peres", "toffoli", "orgate", "andzero")
_FAMILY_ALIASES = {"orgate": "or-gate", "andzero": "and-complemented"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootsynth",
        description="Synthesize and verify multi-control Peres/Toffoli circuits "
        "over Feynman gates and controlled roots of NOT.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a circuit and write its document")
    p.add_argument("family", choices=_SYNTH_FAMILIES)
    p.add_argument(
        "--n", type=int, required=True, help=f"number of control lines, at most {MAX_N}"
    )
    p.add_argument("--activation", help="activation bitstring a1..an (default all ones)")
    p.add_argument("--out", help="output path, JSON if it ends in .json (default: text to stdout)")

    p = sub.add_parser("verify", help="check a circuit file against a family oracle")
    p.add_argument("--circuit", required=True)
    p.add_argument("--family", required=True, choices=_VERIFY_FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--activation")

    p = sub.add_parser("cost", help="print quantum cost and gate census")
    p.add_argument("--circuit", required=True)

    p = sub.add_parser("draw", help="print the ASCII diagram")
    p.add_argument("--circuit", required=True)

    p = sub.add_parser("simulate", help="run one basis input through a circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", required=True, help="input bitstring c1..cn t")

    p = sub.add_parser("table", help="print cost formulas per control count")
    p.add_argument("--max-n", type=int, required=True)
    return parser


def _synthesize(args: argparse.Namespace):
    activation = parse_bitstring(args.activation) if args.activation else None
    if args.family in ("orgate", "andzero"):
        if activation is not None:
            raise ValueError(f"{args.family} does not take an activation vector")
        return synth_zero_polarity(args.n, _FAMILY_ALIASES[args.family])
    if args.family == "peres":
        return synth_peres(args.n, activation)
    if args.family == "toffoli":
        return synth_toffoli(args.n, activation)
    return synth_barenco_toffoli(args.n, activation)


def _cmd_synth(args: argparse.Namespace) -> int:
    circuit = _synthesize(args)
    if args.out:
        # The writer follows the suffix, as load_circuit's reader does.
        out = Path(args.out)
        out.write_text(serialize_json(circuit) if out.suffix == ".json" else serialize(circuit))
    else:
        sys.stdout.write(serialize(circuit))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit)
    activation = parse_bitstring(args.activation) if args.activation else None
    spec = GateFamilySpec(_FAMILY_ALIASES.get(args.family, args.family), args.n, activation)
    report = check_equivalence(circuit, spec)
    if report.ok:
        print(f"pass ({report.inputs_checked} inputs checked)")
        return 0
    actual = report.actual
    shown = "non-classical" if isinstance(actual, NonClassical) else format_bits(actual or ())
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
    print(render_ascii(load_circuit(args.circuit)))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit)
    bits = parse_bitstring(args.input)
    out = classical_output(exponent_simulate(circuit, bits), bits[-1])
    if isinstance(out, NonClassical):
        print(f"non-classical (root exponent {out.exponent} mod {2 * out.kappa})")
    else:
        print(format_bits(out))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
    print(f"{'n':>3} {'peres':>10} {'toffoli':>10} {'controlled':>11} {'feynman':>10}")
    for n in range(1, args.max_n + 1):
        peres = 2 ** (n + 1) - n - 2
        toffoli = 2 ** (n + 1) - 3
        controlled = 2**n - 1
        feyn = 2**n - 1 - n
        print(f"{n:>3} {peres:>10} {toffoli:>10} {controlled:>11} {feyn:>10}")
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
