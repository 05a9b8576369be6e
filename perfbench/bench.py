"""Workloads, correctness checks and the timed loop of the rootsynth benchmark.

run.py starts this file in a fresh process for every set-up and every
measured run, so that set-up time covers interpreter start and the import of
rootsynth:

    python3 perfbench/bench.py <workload> <seed> <seconds> <trace 0|1> <setup|run> <t0> <stop> <workdir>

It prints one JSON object. Every op is checked against a reference that
does not come from the code under test: the closed-form gate census of the
paper, the family behaviour written out in numpy, or the known verdict of a
deliberately correct or wrong circuit file.

Calls into rootsynth go through the package and module attributes at call
time, so the shims of shims.py see them.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import monotonic, perf_counter
from typing import Callable

import numpy as np

FAMILIES = ("peres", "toffoli", "barenco", "or-gate", "and-complemented")
ACTIVATED = ("peres", "toffoli", "barenco")
CLI_SYNTH_NAME = {"or-gate": "orgate", "and-complemented": "andzero"}
SPEC_FAMILY = {"barenco": "toffoli"}
CLI_VERIFY_NAME = {"barenco": "toffoli", "or-gate": "orgate", "and-complemented": "andzero"}

# A false pass from a verify that reports fewer inputs than 2^(n+1) is the
# known sampled-verify defect (ROADMAP open item 1). It counts as a failed op
# but leaves the run correct; every other failure marks the run incorrect.
KNOWN_DEFECTS = frozenset({"sampled_false_pass"})


class OpFailure(Exception):
    """An op's output disagreed with the reference; `kind` names the check."""

    def __init__(self, kind: str, detail: str = "", cost: int = 0):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind
        self.cost = cost


# ---------------------------------------------------------------- references


def expected_census(family: str, n: int) -> tuple[int, int, int, int]:
    """(Feynman, root, adjoint, NOT) counts of a generated circuit, by closed form.

    Every construction drives one controlled gate per nonzero coefficient
    vector, 2^n - 1 of them. For a nonzero activation vector half of the
    2^n vectors have odd inner product with it, so 2^(n-1) gates are roots
    and 2^(n-1) - 1 adjoints; the zero-polarity forms use roots only. Peres
    adds 2^n - 1 - n Feynman gates, Toffoli and the Gray-code baseline
    2^n - 2 (total cost 2^(n+1) - 3).
    """
    controlled = (1 << n) - 1
    if family in ("or-gate", "and-complemented"):
        return (controlled - n, controlled, 0, int(family == "and-complemented"))
    half = 1 << (n - 1)
    feynman = controlled - n if family == "peres" else controlled - 1
    return (feynman, half, half - 1, 0)


def reference_permutation(family: str, n: int, activation: tuple[int, ...] | None) -> np.ndarray:
    """Image of every basis input, line 1 most significant, written from the definitions."""
    x = np.arange(1 << (n + 1))
    c, t = x >> 1, x & 1
    if family in ("toffoli", "barenco"):
        out = c
    else:
        out = np.zeros_like(c)
        parity = np.zeros_like(c)
        for shift in range(n - 1, -1, -1):
            parity ^= (c >> shift) & 1
            out |= parity << shift
    if family in ACTIVATED:
        fire = c == int("".join(map(str, activation)), 2)
    elif family == "or-gate":
        fire = c != 0
    else:
        fire = c == 0
    return (out << 1) | (t ^ fire)


# ---------------------------------------------------------------- op specs


@dataclass(frozen=True)
class CircuitSpec:
    family: str
    n: int
    activation: tuple[int, ...] | None


@dataclass(frozen=True)
class VerifySpec:
    family: str
    n: int
    activation: tuple[int, ...] | None
    kind: str  # correct | wrong | flipped
    path: str
    cost: int  # gate lines in the file, its quantum cost

    @property
    def expect_exit(self) -> int:
        return 0 if self.kind == "correct" else 1


def _random_activation(rng: random.Random, n: int) -> tuple[int, ...]:
    value = rng.randrange(1, 1 << n)
    return tuple((value >> (n - 1 - i)) & 1 for i in range(n))


class Cycler:
    """Seeded orders that repeat: the same key walks its own shuffled order.

    Families differ in cost (the zero-polarity forms skip the per-gate
    direction rule), so each n meets every family equally often over a few
    rounds instead of by chance.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.orders: dict = {}

    def pick(self, key, items, index: int):
        if key not in self.orders:
            self.orders[key] = self.rng.sample(list(items), len(items))
        order = self.orders[key]
        return order[index % len(order)]

    def spec(self, n: int, index: int, families=FAMILIES) -> CircuitSpec:
        family = self.pick((n, families), families, index)
        return CircuitSpec(family, n, _random_activation(self.rng, n) if family in ACTIVATED else None)


def _bitstring(bits) -> str:
    return "".join(map(str, bits))


def synthesize(api, spec: CircuitSpec):
    if spec.family == "peres":
        return api.synth_peres(spec.n, spec.activation)
    if spec.family == "toffoli":
        return api.synth_toffoli(spec.n, spec.activation)
    if spec.family == "barenco":
        return api.synth_barenco_toffoli(spec.n, spec.activation)
    return api.synth_zero_polarity(spec.n, spec.family)


# ---------------------------------------------------------------- ops


def synth_io_op(api, spec: CircuitSpec) -> int:
    """Generate, round-trip through text and JSON, and check the census."""
    circuit = synthesize(api, spec)
    text_copy = api.parse(api.serialize(circuit))
    if text_copy != circuit:
        raise OpFailure("text_round_trip", f"{spec}")
    json_copy = api.parse_json(api.serialize_json(text_copy))
    if json_copy != circuit:
        raise OpFailure("json_round_trip", f"{spec}")
    census = json_copy.census()
    got = (census.feynman_count, census.root_count, census.adjoint_count, census.not_count)
    want = expected_census(spec.family, spec.n)
    if got != want or json_copy.quantum_cost != sum(want):
        raise OpFailure("census", f"{spec}: got {got} cost {json_copy.quantum_cost}, want {want}")
    return json_copy.quantum_cost


_PASS_LINE = re.compile(r"pass \((\d+) inputs checked\)")


def verify_cli_op(api, spec: VerifySpec) -> int:
    """One in-process `rootsynth verify`; the exit code is the verdict."""
    argv = ["verify", "--circuit", spec.path, "--family", CLI_VERIFY_NAME.get(spec.family, spec.family),
            "--n", str(spec.n)]
    if spec.activation is not None:
        argv += ["--activation", _bitstring(spec.activation)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main(argv)
    if code == spec.expect_exit:
        return spec.cost
    if code == 0 and spec.expect_exit == 1:
        checked = _PASS_LINE.search(out.getvalue())
        sampled = checked is not None and int(checked.group(1)) < 1 << (spec.n + 1)
        kind = "sampled_false_pass" if sampled else "false_pass"
    else:
        kind = {1: "false_fail", 2: "exit_2"}.get(code, f"exit_{code}")
    detail = f"{spec.kind} n={spec.n} {Path(spec.path).name}: {(out.getvalue() + err.getvalue()).strip()}"
    raise OpFailure(kind, detail, spec.cost)


def dense_small_op(api, spec: CircuitSpec) -> int:
    """Dense unitary against the oracle permutation, then the default check."""
    circuit = synthesize(api, spec)
    width = spec.n + 1
    oracle = api.GateFamilySpec(SPEC_FAMILY.get(spec.family, spec.family), spec.n, spec.activation)
    spec_perm = np.empty(1 << width, dtype=np.int64)
    for x in range(1 << width):
        bits = tuple((x >> (width - 1 - i)) & 1 for i in range(width))
        spec_perm[x] = int(_bitstring(api.spec_output(oracle, bits)), 2)
    reference = reference_permutation(spec.family, spec.n, spec.activation)
    if not np.array_equal(spec_perm, reference):
        raise OpFailure("oracle", f"{spec}")
    u = api.dense_unitary(circuit)
    want = np.zeros((1 << width, 1 << width))
    want[spec_perm, np.arange(1 << width)] = 1.0
    if u.shape != want.shape or not np.allclose(u, want, rtol=0.0, atol=1e-9):
        raise OpFailure("unitary", f"{spec}")
    if not api.check_equivalence(circuit, oracle).ok:
        raise OpFailure("verdict", f"{spec}")
    return circuit.quantum_cost


# ---------------------------------------------------------------- inputs

Op = tuple[Callable, object]


def _build_rounds(seed: int, op, ns: tuple[int, ...], count: int) -> list[list[Op]]:
    """`count` rounds of one op per entry of `ns`, in seeded order."""
    rng = random.Random(seed)
    cycle = Cycler(rng)
    rounds = []
    for r in range(count):
        ops = [(op, cycle.spec(n, ns.count(n) * r + j))
               for n in sorted(set(ns)) for j in range(ns.count(n))]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# The n of each round's ops. Every five rounds each n meets every family
# equally often, so a run of whole five-round cycles holds the same
# (family, n) mix whatever the seed. Three of synth-io's seven ops have
# n = 12, so its median op lies in the middle of their cluster rather than
# near an edge where the cheaper families give way to the dearer ones.
SYNTH_NS = (10, 11, 12, 12, 12, 13, 14)
DENSE_NS = (3, 4, 5, 5, 6, 6, 6)


def build_synth_io(seed: int, workdir: Path, api, count: int) -> list[list[Op]]:
    return _build_rounds(seed, synth_io_op, SYNTH_NS, count)


def build_dense_small(seed: int, workdir: Path, api, count: int) -> list[list[Op]]:
    return _build_rounds(seed, dense_small_op, DENSE_NS, count)


def flip_root_sign(text: str, rng: random.Random) -> str:
    """Flip the direction of one seeded `croot` line in a circuit document."""
    lines = text.splitlines()
    roots = [i for i, line in enumerate(lines) if line.startswith("croot ")]
    i = rng.choice(roots)
    fields = lines[i].split()
    fields[2] = "-1" if fields[2] == "+1" else "+1"
    lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def gate_lines(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.split(" ", 1)[0] in ("cnot", "croot", "not"))


def write_circuit(api, spec: CircuitSpec, path: Path) -> str:
    """Write a circuit file through `rootsynth synth` and return its text."""
    argv = ["synth", CLI_SYNTH_NAME.get(spec.family, spec.family), "--n", str(spec.n), "--out", str(path)]
    if spec.activation is not None:
        argv += ["--activation", _bitstring(spec.activation)]
    code = api.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up: rootsynth {' '.join(argv)} exited with {code}")
    return path.read_text()


# Wrong-activation pairs come from the last 1/LATE_SHARE of the input order.
LATE_SHARE = 32


def _late_wrong_pair(rng: random.Random, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two distinct nonzero activation vectors from the end of the input order.

    A verify of a circuit built for one against the spec of the other meets
    its first counterexample at the smaller one. With both late, a wrong
    check runs nearly all the way, as a check of a correct circuit does, so
    its cost does not hang on where the seed happened to put the vectors.
    Whether a sampled verify meets either vector does not depend on where
    they lie, so the known false passes stay.
    """
    top = (1 << n) - 1
    low = rng.randrange(top - max(top // LATE_SHARE, 1), top)
    pair = [low, rng.randrange(low + 1, top + 1)]
    rng.shuffle(pair)
    return tuple(tuple((v >> (n - 1 - i)) & 1 for i in range(n)) for v in pair)


# Ops per round for each kind at n = 6..10. The median op lies in the middle
# of the n = 7 checks; five correct and three wrong circuits a round make
# the two rounds of the op set meet every family equally often there, so
# its latency does not hang on the seed's family order. Three n = 10
# wrong-activation circuits a round meet the sampled verify's false passes,
# about one in six of them at n = 10.
VERIFY_MIX = {"correct": (1, 5, 1, 1, 1), "wrong": (1, 3, 1, 1, 3), "flipped": (1, 1, 1, 1, 1)}


def build_verify_cli(seed: int, workdir: Path, api, count: int) -> list[list[Op]]:
    """Correct, wrong-activation and sign-flipped files for n in 6..10, mixed by VERIFY_MIX."""
    rng = random.Random(seed)
    cycle = Cycler(rng)
    rounds = []
    for r in range(count):
        ops = []
        for kind, counts in VERIFY_MIX.items():
            for n, count in zip(range(6, 11), counts):
                for j in range(count):
                    index = count * r + j
                    spec = cycle.spec(n, index, ACTIVATED if kind == "wrong" else FAMILIES)
                    built_for = spec.activation
                    if kind == "wrong":
                        activation, built_for = _late_wrong_pair(rng, n)
                        spec = replace(spec, activation=activation)
                    path = workdir / f"r{r}-n{n}-{kind}{j}.txt"
                    text = write_circuit(api, replace(spec, activation=built_for), path)
                    if kind == "flipped":
                        text = flip_root_sign(text, rng)
                        path.write_text(text)
                    ops.append((verify_cli_op, VerifySpec(spec.family, n, spec.activation, kind,
                                                          str(path), gate_lines(text))))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


@dataclass(frozen=True)
class Workload:
    build: Callable
    rounds: int  # rounds in the op set; whole five-round cycles where families cycle
    pass_s: float  # seconds one pass over the op set takes on a shared 2-CPU Linux box

    def passes(self, seconds: float) -> int:
        """Timed passes over the op set that take about `seconds`; at least one."""
        return max(1, round(seconds / self.pass_s))


WORKLOADS = {
    "synth-io": Workload(build_synth_io, 5, 9.0),
    "verify-cli": Workload(build_verify_cli, 2, 12.5),
    "dense-small": Workload(build_dense_small, 25, 6.0),
}
TAIL_BEYOND = 10  # ops above the tail percentile


# ---------------------------------------------------------------- machine speed

# The probe's time on an undisturbed core of the box the benchmark was
# written on, a shared 2-CPU Linux host with Python 3.11. Times are
# reported at this speed.
PROBE_NOMINAL_S = 1.5e-3
SETUP_PROBES = 40


def speed_probe() -> float:
    """Seconds that one fixed piece of pure-Python work takes now.

    The work is the interpreter's everyday mix, as in the program: small
    tuples, dict lookups, string formatting and parsing. It runs with the
    garbage collector off, so that its time does not hang on how many
    objects the program under test keeps alive.
    """
    gc.disable()
    try:
        start = perf_counter()
        rows, index = [], {}
        for i in range(1500):
            key = (i & 7, i >> 3, i % 5)
            index[key] = i
            rows.append("g %d %d %d" % key)
        total = 0
        for row in rows:
            _, a, b, c = row.split()
            total += index[(int(a), int(b), int(c))]
        return perf_counter() - start
    finally:
        gc.enable()


def speed_scale(probes: list[float]) -> float:
    """Factor that takes a time measured while `probes` ran to the nominal speed."""
    return PROBE_NOMINAL_S / statistics.mean(probes) if probes else 1.0


# ---------------------------------------------------------------- timed loop


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)  # seconds, one per op run
    probes: list[float] = field(default_factory=list)  # one speed probe before every op run
    failures: Counter = field(default_factory=Counter)
    messages: list[str] = field(default_factory=list)
    cost: int = 0  # quantum cost of the op set, counted in the first pass
    passes: int = 0
    wall_s: float = 0.0
    cut: bool = False

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return set(self.failures) <= KNOWN_DEFECTS


def _run_op(api, fn: Callable, spec, tally: Tally, tracer=None) -> None:
    """Run one op into `tally`, under the shims when a tracer is given; a failing op is counted."""
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        tally.probes.append(speed_probe())
        t0 = perf_counter()
        try:
            cost = fn(api, spec)
        except OpFailure as exc:
            cost, kind, message = exc.cost, exc.kind, str(exc)
        except Exception as exc:  # any crash of the program under test is a failed op
            cost, kind, message = 0, "raised", f"{type(exc).__name__}: {exc}"
        else:
            kind = None
        end = perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    tally.latencies.append(end - t0)
    tally.wall_s += end - start
    if kind is not None:
        tally.failures[kind] += 1
        if len(tally.messages) < 5:
            tally.messages.append(message)
    if tally.passes == 0:
        tally.cost += cost


def run_rounds(api, rounds: list[list[Op]], passes: int, tracer=None,
               stop_at: float = float("inf")) -> tuple[Tally, Tally]:
    """Closed loop, one client: `passes` passes over every round, in order.

    The work is fixed, so two runs with one seed attempt and fail the same
    ops. No round starts after `stop_at` (a perf_counter time), so that a
    run on a far slower machine still ends in time; the tally is then
    marked cut. With a tracer, each op runs a second time under the shims
    right beside its untraced run, so that both see the same CPU speed;
    those runs go to the second tally. The two runs take turns going first,
    so that what a first run warms up favours neither.
    """
    tally, traced = Tally(), Tally()
    for _ in range(passes):
        for ops in rounds:
            if perf_counter() > stop_at:
                tally.cut = True
                return tally, traced
            for fn, spec in ops:
                if tracer is None:
                    _run_op(api, fn, spec, tally)
                    continue
                runs = [(tally, None), (traced, tracer)]
                if len(tally.latencies) % 2:
                    runs.reverse()
                for target, shims in runs:
                    _run_op(api, fn, spec, target, shims)
        tally.passes += 1
        traced.passes += 1
    return tally, traced


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def summarize(tally: Tally) -> dict:
    """Latency figures over every op run, at the nominal machine speed."""
    scale = speed_scale(tally.probes)
    raw = sorted(tally.latencies)
    latencies = [value * scale for value in raw]
    rank = max(len(latencies) - TAIL_BEYOND, 1)  # the tail op, counted from 1
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_tail_ms": latencies[rank - 1] * 1e3,
        "op_tail_percentile": 100 * rank / len(latencies),
        "ops_beyond_tail": len(latencies) - rank,
        "speed_scale": scale,
        "raw_op_p50_ms": percentile(raw, 50) * 1e3,
        "wall_ops_per_s": tally.attempted / tally.wall_s if tally.wall_s else 0.0,
        "quantum_cost_total": tally.cost,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.correct,
        "cut": tally.cut,
        "failures": dict(tally.failures),
        "messages": tally.messages,
        "passes": tally.passes,
        "wall_s": tally.wall_s,
    }


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, mode, t0, stop, workdir = argv
    import rootsynth
    import rootsynth.cli  # noqa: F401  (bound as rootsynth.cli for the ops)

    spec = WORKLOADS[workload]
    rounds = spec.build(int(seed), Path(workdir), rootsynth, spec.rounds)
    setup_s = monotonic() - float(t0)
    record = {
        "setup_s": setup_s * speed_scale([speed_probe() for _ in range(SETUP_PROBES)]),
        "raw_setup_s": setup_s,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if mode == "run":
        tracer = None
        if trace == "1":
            from shims import Tracer

            tracer = Tracer()
        # A traced run makes one pass untraced and one traced; the shims'
        # counts then cover the op set once.
        passes = 1 if tracer is not None else spec.passes(float(seconds))
        stop_at = perf_counter() + float(stop) - monotonic()
        tally, traced = run_rounds(rootsynth, rounds, passes, tracer, stop_at)
        record.update(summarize(tally))
        record["rounds"] = spec.rounds
        if tracer is not None:
            layers = tracer.metrics()
            layers["trace.wall_s"] = traced.wall_s
            layers["trace.overhead_s"] = traced.wall_s - tally.wall_s
            record["per_layer"] = layers
            record["correct"] = record["correct"] and traced.correct
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
