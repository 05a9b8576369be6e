"""Self-tests of the benchmark's checks and shims.

Every kind of wrong output must count as a failed op without stopping the
run, and only the known sampled-verify false pass may leave a run correct.
"""
import dataclasses
import types

import pytest

import bench
import rootsynth
import rootsynth.cli
import shims


def api_with(**overrides):
    return types.SimpleNamespace(**{**vars(rootsynth), **overrides})


def run_one_round(ops):
    return bench.run_rounds(rootsynth, [ops], passes=1)[0]


def against(api, fn):
    """An op that runs `fn` on a replaced API, whatever API the loop passes."""
    return lambda _api, spec: fn(api, spec)


def cli_answering(code, stdout=""):
    def main(argv):
        print(stdout, end="")
        return code

    return api_with(cli=types.SimpleNamespace(main=main))


SMALL = bench.CircuitSpec("toffoli", 4, (1, 0, 1, 1))


@pytest.mark.parametrize("family", bench.FAMILIES)
def test_real_ops_pass(family):
    spec = bench.CircuitSpec(family, 4, (0, 1, 1, 0) if family in bench.ACTIVATED else None)
    assert bench.synth_io_op(rootsynth, spec) == sum(bench.expected_census(family, 4))
    assert bench.dense_small_op(rootsynth, spec) == sum(bench.expected_census(family, 4))


def test_verify_cli_round_has_the_known_answers(tmp_path):
    rounds = bench.build_verify_cli(7, tmp_path, rootsynth, 1)
    small = [(fn, spec) for fn, spec in rounds[0] if spec.n <= 7]
    assert {spec.kind for _, spec in small} == {"correct", "wrong", "flipped"}
    tally = run_one_round(small)
    assert (tally.attempted, tally.failed) == (len(small), 0)


@pytest.mark.parametrize("n", [2, 6, 10])
def test_wrong_pairs_are_distinct_and_late(n):
    rng = bench.random.Random(n)
    for _ in range(50):
        a, b = (int(bench._bitstring(v), 2) for v in bench._late_wrong_pair(rng, n))
        top = (1 << n) - 1
        assert a != b and min(a, b) >= top - max(top // bench.LATE_SHARE, 1)


def test_flipped_root_sign_changes_exactly_one_line():
    text = rootsynth.serialize(rootsynth.synth_peres(3))
    flipped = bench.flip_root_sign(text, bench.random.Random(1))
    changed = [(a, b) for a, b in zip(text.splitlines(), flipped.splitlines()) if a != b]
    assert len(changed) == 1 and changed[0][0].startswith("croot ")
    assert bench.gate_lines(flipped) == bench.gate_lines(text) == 2 ** 4 - 3 - 2


def test_every_failure_is_counted_and_the_run_continues(tmp_path):
    def drop_last_gate(text):
        parsed = rootsynth.parse(text)
        return dataclasses.replace(parsed, gates=parsed.gates[:-1])

    def crash(n, activation):
        raise RuntimeError("synth crashed")

    def extra_not(n, activation):
        return rootsynth.synth_toffoli(n, activation).append(rootsynth.not_gate(n + 1))

    path = tmp_path / "c.txt"
    wrong = bench.VerifySpec("toffoli", 4, (1, 1, 1, 1), "wrong", str(path), 29)
    correct = dataclasses.replace(wrong, kind="correct")
    ok = (bench.synth_io_op, SMALL)
    ops = [
        ok,
        (against(api_with(synth_toffoli=crash), bench.synth_io_op), SMALL),
        (against(api_with(parse=drop_last_gate), bench.synth_io_op), SMALL),
        (against(api_with(synth_toffoli=extra_not), bench.synth_io_op), SMALL),
        (against(cli_answering(2), bench.verify_cli_op), wrong),
        (against(cli_answering(0, "pass (32 inputs checked)\n"), bench.verify_cli_op), wrong),
        (against(cli_answering(1, "counterexample\n"), bench.verify_cli_op), correct),
        ok,
    ]
    tally = run_one_round(ops)
    assert tally.attempted == len(ops)
    assert tally.failures == {
        "raised": 1, "text_round_trip": 1, "census": 1,
        "exit_2": 1, "false_pass": 1, "false_fail": 1,
    }
    assert not tally.correct


def test_json_round_trip_mismatch_is_a_failure():
    def relabel_gates(text):
        parsed = rootsynth.parse_json(text)
        return dataclasses.replace(parsed, gates=parsed.gates[::-1])

    tally = run_one_round([(against(api_with(parse_json=relabel_gates), bench.synth_io_op), SMALL)])
    assert tally.failures == {"json_round_trip": 1}


def test_sampled_false_pass_is_failed_but_known():
    wrong = bench.VerifySpec("toffoli", 10, (1,) * 10, "wrong", "c.txt", 2045)
    sampled = against(cli_answering(0, "pass (1000 inputs checked)\n"), bench.verify_cli_op)
    tally = run_one_round([(sampled, wrong), (bench.synth_io_op, SMALL)])
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)
    assert tally.failures == {"sampled_false_pass": 1}
    assert tally.cost == 2045 + sum(bench.expected_census("toffoli", 4))


def test_work_is_fixed_and_every_op_run_counts():
    ops = [(bench.synth_io_op, SMALL), (bench.synth_io_op, dataclasses.replace(SMALL, n=5, activation=(1, 0, 1, 1, 0)))]
    passing = [(bench.synth_io_op, SMALL)]
    failing = [(against(api_with(synth_toffoli=None), bench.synth_io_op), SMALL)]
    tally = bench.run_rounds(rootsynth, [ops, passing, failing], passes=3)[0]
    assert (tally.attempted, tally.failed, tally.passes) == (12, 3, 3)
    assert tally.failures == {"raised": 3} and not tally.correct
    assert tally.cost == 2 * sum(bench.expected_census("toffoli", 4)) + sum(bench.expected_census("toffoli", 5))
    assert len(tally.probes) == 12
    summary = bench.summarize(tally)
    scale = bench.PROBE_NOMINAL_S / bench.statistics.mean(tally.probes)
    latencies = sorted(value * scale for value in tally.latencies)
    assert summary["speed_scale"] == scale and summary["ops_beyond_tail"] == 10
    assert summary["ops_per_s"] == pytest.approx(12 / sum(latencies))
    assert summary["op_p50_ms"] == pytest.approx(latencies[5] * 1e3)


def test_tail_leaves_ten_ops_beyond_it():
    tally = bench.Tally([float(v) for v in range(40, 0, -1)])
    summary = bench.summarize(tally)
    assert (summary["op_tail_ms"], summary["ops_beyond_tail"], summary["op_tail_percentile"]) == (30e3, 10, 75.0)
    assert summary["op_p50_ms"] == 20e3


def test_times_are_scaled_to_the_nominal_probe_speed():
    assert bench.speed_probe() > 0
    tally = bench.Tally([0.01, 0.03], probes=[2 * bench.PROBE_NOMINAL_S] * 2)
    summary = bench.summarize(tally)
    assert summary["speed_scale"] == pytest.approx(0.5) and summary["raw_op_p50_ms"] == pytest.approx(10.0)
    assert summary["op_p50_ms"] == pytest.approx(5.0) and summary["ops_per_s"] == pytest.approx(2 / 0.02)


def test_a_run_past_its_stop_time_is_cut_between_rounds():
    tally = bench.run_rounds(rootsynth, [[(bench.synth_io_op, SMALL)]] * 2, passes=2, stop_at=0.0)[0]
    assert tally.cut and tally.attempted == 0
    assert not bench.run_rounds(rootsynth, [[(bench.synth_io_op, SMALL)]], passes=1)[0].cut


def test_op_sets_hold_whole_cycles_and_passes_follow_the_seconds():
    for name, workload in bench.WORKLOADS.items():
        assert name == "verify-cli" or workload.rounds % 5 == 0
        assert workload.passes(1) == 1 and workload.passes(60) > workload.passes(20) > 1


def test_percentile_is_nearest_rank():
    ordered = [float(v) for v in range(1, 101)]
    assert [bench.percentile(ordered, p) for p in (50, 75, 95)] == [50.0, 75.0, 95.0]


def test_shims_count_layers_and_restore_the_package(tmp_path):
    path = tmp_path / "c.txt"
    bench.write_circuit(rootsynth, SMALL, path)
    spec = bench.VerifySpec("toffoli", 4, SMALL.activation, "correct", str(path), 29)
    original = rootsynth.synth_toffoli
    tracer = shims.Tracer()
    tracer.install()
    try:
        bench.synth_io_op(rootsynth, SMALL)
        bench.verify_cli_op(rootsynth, spec)
    finally:
        tracer.uninstall()
    assert rootsynth.synth_toffoli is original and rootsynth.cli.main.__name__ == "main"
    m = tracer.metrics()
    assert (m["synth.calls"], m["synth.gates"]) == (1, 29)
    assert (m["cli.calls"], m["verify.checks"], m["verify.pass_verdicts"]) == (1, 1, 1)
    assert m["verify.inputs_reported"] == m["simulate.exponent_calls"] == 32
    assert m["textio.bytes"] > 0 and m["circuit.calls"] >= 2
    assert m["cli.self_s"] > 0 and m["verify.s"] > m["verify.self_s"] > 0


def test_missing_shim_target_reads_as_zero(monkeypatch):
    monkeypatch.setattr(shims, "TARGETS", shims.TARGETS + (("verify", "rootsynth.verify", None, "gone", None),
                                                           ("verify", "rootsynth.gone", None, "x", None)))
    tracer = shims.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.metrics()["verify.checks"] == 0


def test_traced_run_pairs_each_round_with_an_untraced_one():
    tracer = shims.Tracer()
    plain, traced = bench.run_rounds(rootsynth, [[(bench.synth_io_op, SMALL)]], passes=1, tracer=tracer)
    assert plain.attempted == traced.attempted == 1 and (plain.failed, traced.failed) == (0, 0)
    assert tracer.metrics()["synth.calls"] == 1
    assert rootsynth.synth_toffoli.__name__ == "synth_toffoli"
