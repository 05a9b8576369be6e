"""Timing shims around the public entry points of each rootsynth layer.

The benchmark installs these from its own files; nothing under src/ knows
about them. Each shim is a span at a layer boundary: it times the call,
charges its duration to the enclosing span as child time, and aggregates
calls, inclusive time and self time per function and per layer. Counts
(gates generated, bytes written or read, verdicts) are taken from the
arguments and results at the same boundaries.

Targets are looked up with a default: an entry point that a later version of
the package removes or renames reads as 0 calls instead of failing the run.
"""
from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _size(circuit) -> int:
    return getattr(circuit, "quantum_cost", 0) or 0


def _count_synth(counts, args, result, outer):
    if outer:
        counts["synth.gates"] += _size(result)


def _count_written(counts, args, result, outer):
    counts["textio.bytes"] += len(result)


def _count_read(counts, args, result, outer):
    counts["textio.bytes"] += len(args[0]) if args else 0


def _count_parsed(counts, args, result, outer):
    _count_read(counts, args, result, outer)
    counts["textio.parse_gates"] += _size(result)


def _count_verdict(counts, args, result, outer):
    counts["verify.inputs_reported"] += getattr(result, "inputs_checked", 0)
    counts["verify.pass_verdicts" if getattr(result, "ok", False) else "verify.fail_verdicts"] += 1


def _count_exit(counts, args, result, outer):
    if result == 2:
        counts["cli.exit_2"] += 1


# (layer, module, owner class or None, attribute, counter)
TARGETS = (
    ("synth", "rootsynth.synth", None, "synth_peres", _count_synth),
    ("synth", "rootsynth.synth", None, "synth_toffoli", _count_synth),
    ("synth", "rootsynth.synth", None, "synth_barenco_toffoli", _count_synth),
    ("synth", "rootsynth.synth", None, "synth_zero_polarity", _count_synth),
    ("circuit", "rootsynth.circuit", "Circuit", "census", None),
    ("circuit", "rootsynth.circuit", "Circuit", "__eq__", None),
    ("circuit", "rootsynth.circuit", "Circuit", "compose", None),
    ("validate", "rootsynth.circuit", "Circuit", "__post_init__", None),
    ("textio", "rootsynth.textio", None, "serialize", _count_written),
    ("textio", "rootsynth.textio", None, "parse", _count_parsed),
    ("textio", "rootsynth.textio", None, "serialize_json", _count_written),
    ("textio", "rootsynth.textio", None, "parse_json", _count_read),
    ("textio", "rootsynth.textio", None, "load_circuit", None),
    ("simulate", "rootsynth.simulate", None, "exponent_simulate", None),
    ("simulate", "rootsynth.simulate", None, "dense_unitary", None),
    ("verify", "rootsynth.verify", None, "check_equivalence", _count_verdict),
    ("verify", "rootsynth.verify", None, "spec_output", None),
    ("cli", "rootsynth.cli", None, "main", _count_exit),
)


def _lookup(module: str, owner: str | None, name: str):
    try:
        holder = importlib.import_module(module)
    except ImportError:
        return None, None
    if owner is not None:
        holder = getattr(holder, owner, None)
        return holder, None if holder is None else vars(holder).get(name)
    return holder, getattr(holder, name, None)


class Tracer:
    """Installs the shims, aggregates their spans, and restores the originals."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.depth: Counter = Counter()
        self.fn = defaultdict(lambda: [0, 0.0])  # name -> [calls, inclusive s]
        self.layer = defaultdict(lambda: [0, 0.0, 0.0])  # layer -> [entries, inclusive s, self s]
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _shim(self, layer: str, name: str, original, counter):
        stack, depth, fn, layers, counts = self.stack, self.depth, self.fn, self.layer, self.counts

        def shim(*args, **kwargs):
            outer = depth[layer] == 0
            depth[layer] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][0] += elapsed
                f = fn[name]
                f[0] += 1
                f[1] += elapsed
                agg = layers[layer]
                agg[2] += elapsed - frame[0]
                if outer:
                    agg[0] += 1
                    agg[1] += elapsed
            if counter is not None:
                counter(counts, args, result, outer)
            return result

        shim.__wrapped__ = original
        return shim

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "rootsynth" or k.startswith("rootsynth.")]
        for layer, module, owner, name, counter in TARGETS:
            holder, original = _lookup(module, owner, name)
            if original is None:
                continue
            shim = self._shim(layer, name, original, counter)
            if owner is not None:
                self._patch(holder, name, shim)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, shim)

    def _patch(self, holder, attr: str, shim) -> None:
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, shim)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer figures; times in seconds unless the name says otherwise."""
        fn, layer, counts = self.fn, self.layer, self.counts
        synth_s, gates = layer["synth"][1], counts["synth.gates"]
        parse_s, parse_gates = fn["parse"][1], counts["textio.parse_gates"]
        return {
            "synth.calls": layer["synth"][0],
            "synth.s": synth_s,
            "synth.gates": gates,
            "synth.us_per_gate": synth_s / gates * 1e6 if gates else 0.0,
            "circuit.calls": layer["circuit"][0],
            "circuit.s": layer["circuit"][1],
            "circuit.validate_calls": layer["validate"][0],
            "circuit.validate_s": layer["validate"][1],
            "textio.serialize_s": fn["serialize"][1],
            "textio.parse_s": parse_s,
            "textio.serialize_json_s": fn["serialize_json"][1],
            "textio.parse_json_s": fn["parse_json"][1],
            "textio.load_s": fn["load_circuit"][1],
            "textio.bytes": counts["textio.bytes"],
            "textio.parse_us_per_gate": parse_s / parse_gates * 1e6 if parse_gates else 0.0,
            "simulate.exponent_calls": fn["exponent_simulate"][0],
            "simulate.exponent_s": fn["exponent_simulate"][1],
            "simulate.dense_calls": fn["dense_unitary"][0],
            "simulate.dense_s": fn["dense_unitary"][1],
            "verify.checks": fn["check_equivalence"][0],
            "verify.s": layer["verify"][1],
            "verify.self_s": layer["verify"][2],
            "verify.inputs_reported": counts["verify.inputs_reported"],
            "verify.spec_output_calls": fn["spec_output"][0],
            "verify.pass_verdicts": counts["verify.pass_verdicts"],
            "verify.fail_verdicts": counts["verify.fail_verdicts"],
            "cli.calls": fn["main"][0],
            "cli.self_s": layer["cli"][2],
            "cli.exit_2": counts["cli.exit_2"],
        }
