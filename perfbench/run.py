"""Run one rootsynth benchmark workload and print its metrics.

    python3 perfbench/run.py --workload synth-io --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds src/rootsynth. Every set-up and
the measured run happen in fresh processes started with one BLAS thread,
PYTHONPATH=src and nothing else shared. The work of a run is fixed by its
workload, seed and --seconds, sized to take about --seconds. The last line
of standard output is one JSON object: with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics, from a run in
which every op runs once untraced and once under the timing shims of
shims.py. The lines before it repeat every figure with its unit, the
environment, and the error rate. See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
WORKLOADS = ("synth-io", "verify-cli", "dense-small")
SETUPS = 3  # set-up-only processes before the measured run, and again after it
BUDGET_S = 170.0
STOP_MARGIN_S = 15.0  # no round starts later than this before the budget ends
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
    ("quantum_cost_total", "gates"),
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("us_per_gate"):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    return "bytes" if name.endswith("bytes") else "count"


def commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args, mode: str, index: int, deadline: float) -> dict:
    workdir = Path(".perfbench_work") / f"{args.workload}-s{args.seed}-p{os.getpid()}-{index}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), mode, repr(t0), repr(deadline - STOP_MARGIN_S),
             str(workdir)],
            env=child_env(), capture_output=True, text=True, timeout=max(deadline - t0, 1.0),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    package = Path("src") / "rootsynth"
    if not (package / "__init__.py").is_file():
        print("error: run from the root of a checkout holding src/rootsynth", file=sys.stderr)
        return 2
    deadline = monotonic() + BUDGET_S

    before = [run_child(args, "setup", i, deadline) for i in range(SETUPS)]
    record = run_child(args, "run", SETUPS, deadline)
    after = [run_child(args, "setup", SETUPS + 1 + i, deadline) for i in range(SETUPS)]
    setups = [*before, record, *after]
    error_rate = record["failed"] / record["attempted"]
    figures = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": record["ops_per_s"],
        "op_p50_ms": record["op_p50_ms"],
        "op_tail_ms": record["op_tail_ms"],
        "peak_rss_mb": record["peak_rss_mb"],
        "ok_rate": 1.0 - error_rate,
        "quantum_cost_total": record["quantum_cost_total"],
    }
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": record["python"], "numpy": record["numpy"], "blas_threads": record["blas_threads"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "commit": commit(Path(".")), "src_sha256": source_digest(package),
    }
    print("env " + json.dumps(env))
    for name, unit in END_TO_END:
        print(f"{name:<20} {figures[name]:>14.6g} {unit}")
    print(f"{'error_rate':<20} {error_rate:>14.6g} ratio  ({record['failed']} failed of "
          f"{record['attempted']} attempted: {record['passes']} passes over {record['rounds']} rounds, "
          f"{record['wall_s']:.3f} s, {record['wall_ops_per_s']:.4g} ops per wall second)")
    print(f"op_tail_ms is p{record['op_tail_percentile']:.4g} of {record['attempted']} ops, "
          f"{record['ops_beyond_tail']} beyond it; setup_s is the median of {len(setups)} set-ups")
    print(f"times are at nominal speed: measured x {record['speed_scale']:.4f}; as measured, "
          f"op_p50_ms {record['raw_op_p50_ms']:.6g} and setup_s "
          f"{statistics.median(s['raw_setup_s'] for s in setups):.6g}")
    if record["cut"]:
        print("the run was cut short to end within the time budget: fewer ops than its fixed work")
    if record["failures"]:
        print("failures " + json.dumps(record["failures"]))
        for message in record["messages"]:
            print("  " + message)
    if args.trace:
        layers = record["per_layer"]
        for name, value in layers.items():
            print(f"{name:<26} {value:>14.6g} {unit_of(name)}")
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
