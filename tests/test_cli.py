"""Exit codes of every command: 0 success, 1 verification failure, 2 usage or input error.

Only verify can fail a check, so only verify has a case for exit code 1.
"""
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from references import split_root_toffoli

import rootsynth
from rootsynth import cli, simulate, synth
from rootsynth.synth import MAX_N, synth_peres, synth_toffoli
from rootsynth.textio import load_circuit, parse_json, render_ascii, serialize, serialize_json

SRC = str(Path(rootsynth.__file__).resolve().parents[1])


@pytest.fixture
def files(tmp_path):
    paths = {
        "toffoli": tmp_path / "toffoli.txt",
        "wrong": tmp_path / "wrong.txt",
        "json": tmp_path / "peres.json",
        "broken": tmp_path / "broken.txt",
        "deep": tmp_path / "deep.json",
        "halfroot": tmp_path / "halfroot.txt",
        "long": tmp_path / "long.txt",
        "splitroot": tmp_path / "splitroot.txt",
        "notroot": tmp_path / "notroot.txt",
    }
    paths["toffoli"].write_text(serialize(synth_toffoli(3, (1, 0, 1))))
    paths["wrong"].write_text(serialize(synth_toffoli(3, (1, 1, 1))))
    paths["json"].write_text(serialize_json(synth_peres(2)))
    paths["broken"].write_text("circuit v1\nwidth 4\ncontrols 3\ncnot 1 9\n")
    paths["deep"].write_text("[" * 100_000)
    paths["halfroot"].write_text("circuit v1\nwidth 2\ncontrols 1\ncroot 2 +1 1 2\n")
    paths["long"].write_text("circuit v1\nwidth 2\ncontrols 1\n" + "cnot 1 2\n" * 65_537)
    paths["splitroot"].write_text(serialize(split_root_toffoli()))
    paths["notroot"].write_text("circuit v1\nwidth 2\ncontrols 1\ncroot 2 +1 1 2\nnot 2\n")
    paths["missing"] = tmp_path / "missing.txt"
    return {name: str(path) for name, path in paths.items()}


CASES = [
    # (argv with {file} placeholders, exit code, text expected on stdout or stderr)
    (["synth", "toffoli", "--n", "3", "--activation", "101"], 0, "croot 4"),
    (["synth", "orgate", "--n", "2", "--out", "{missing}"], 0, ""),
    (["synth", "barenco", "--n", "1"], 0, "cnot 1 2"),
    (["synth", "peres", "--n", "2", "--activation", "00"], 0, "not 3"),
    (["synth", "andzero", "--n", "2", "--activation", "11"], 2, "does not take an activation"),
    (["synth", "toffoli"], 2, "--n"),
    (["verify", "--circuit", "{toffoli}", "--family", "toffoli", "--n", "3", "--activation", "101"], 0, "pass (16 inputs checked)"),
    (["verify", "--circuit", "{json}", "--family", "peres", "--n", "2"], 0, "pass (8 inputs checked)"),
    (["verify", "--circuit", "{wrong}", "--family", "toffoli", "--n", "3", "--activation", "101"], 1, "counterexample: input 1010"),
    (["verify", "--circuit", "{toffoli}", "--family", "toffoli", "--n", "4"], 2, "control count mismatch"),
    (["verify", "--circuit", "{broken}", "--family", "toffoli", "--n", "3"], 2, "line 4: line 9 out of range"),
    (["verify", "--circuit", "{deep}", "--family", "toffoli", "--n", "3"], 2, "invalid JSON"),
    (["verify", "--circuit", "{missing}", "--family", "toffoli", "--n", str(MAX_N + 1)], 2, f"above the limit of {MAX_N} controls"),
    (["cost", "--circuit", "{toffoli}"], 0, "quantum cost: 13"),
    (["cost", "--circuit", "{missing}"], 2, "No such file"),
    (["draw", "--circuit", "{json}"], 0, "[V2]"),
    (["draw", "--circuit", "{broken}"], 2, "out of range"),
    (["simulate", "--circuit", "{toffoli}", "--input", "1010"], 0, "1011"),
    (["simulate", "--circuit", "{toffoli}", "--input", "101"], 2, "expected 4 bits"),
    (["table", "--max-n", "3"], 0, "  3         11         13           7          4"),
    (["table", "--max-n", "0"], 2, "need n >= 1"),
    (["table", "--max-n", str(MAX_N + 1)], 2, f"above the limit of {MAX_N} controls"),
    (["frobnicate"], 2, "invalid choice"),
    (["simulate", "--circuit", "{halfroot}", "--input", "10"], 0, "non-classical (root exponent 1 mod 4)"),
    (["simulate", "--circuit", "{notroot}", "--input", "10"], 0, "non-classical (root exponent 3 mod 4)"),
    (["verify", "--circuit", "{splitroot}", "--family", "toffoli", "--n", "2"], 0, "pass (8 inputs checked)"),
    (["draw", "--circuit", "{long}"], 2, "at most 65,536 gates, got 65537"),
    (["synth", "peres", "--n", "3", "--activation", ""], 2, "expected a nonempty string of 0/1, got ''"),
    (["verify", "--circuit", "{toffoli}", "--family", "toffoli", "--n", "3", "--activation", ""], 2,
     "expected a nonempty string of 0/1, got ''"),
]


@pytest.mark.parametrize("argv,code,shown", CASES, ids=[f"{a[0]}-{c}-{i}" for i, (a, c, _) in enumerate(CASES)])
def test_exit_code(files, capsys, argv, code, shown):
    assert cli.main([word.format(**files) for word in argv]) == code
    out, err = capsys.readouterr()
    assert shown in (out if code != 2 else err)


def test_every_command_has_a_success_and_an_error_case():
    commands = {argv[0]: set() for argv, _, _ in CASES}
    for argv, code, _ in CASES:
        commands[argv[0]].add(code)
    assert set(cli._COMMANDS) <= set(commands)
    for name in cli._COMMANDS:
        assert commands[name] >= ({0, 1, 2} if name == "verify" else {0, 2})


def test_synth_writes_a_file_that_verifies(files, capsys):
    out = files["missing"]
    assert cli.main(["synth", "peres", "--n", "4", "--activation", "0110", "--out", out]) == 0
    argv = ["verify", "--circuit", out, "--family", "peres", "--n", "4", "--activation", "0110"]
    assert cli.main(argv) == 0
    assert "pass (32 inputs checked)" in capsys.readouterr().out


def test_synth_to_a_json_path_writes_json(tmp_path, capsys):
    out = str(tmp_path / "c.json")
    assert cli.main(["synth", "peres", "--n", "2", "--out", out]) == 0
    assert parse_json(Path(out).read_text()) == synth_peres(2)
    assert cli.main(["verify", "--circuit", out, "--family", "peres", "--n", "2"]) == 0
    assert cli.main(["cost", "--circuit", out]) == 0
    shown = capsys.readouterr().out
    assert "pass (8 inputs checked)" in shown and "quantum cost: 4" in shown


def test_verify_checks_every_input_at_n10(tmp_path, capsys):
    path = tmp_path / "toffoli10.txt"
    assert cli.main(["synth", "toffoli", "--n", "10", "--out", str(path)]) == 0
    argv = ["verify", "--circuit", str(path), "--family", "toffoli", "--n", "10"]
    assert cli.main(argv) == 0
    assert "pass (2048 inputs checked)" in capsys.readouterr().out
    # Built for 1111111111, checked as 1111111110: a sampled check passed it.
    assert cli.main(argv + ["--activation", "1111111110"]) == 1
    assert "counterexample: input 11111111100 expected 11111111101" in capsys.readouterr().out


@pytest.mark.parametrize("suffix", [".txt", ".json"])
def test_verify_reads_a_file_with_a_byte_order_mark(tmp_path, capsys, suffix):
    c = synth_toffoli(3)
    path = tmp_path / f"bom{suffix}"
    path.write_bytes(b"\xef\xbb\xbf" + (serialize_json(c) if suffix == ".json" else serialize(c)).encode())
    assert cli.main(["verify", "--circuit", str(path), "--family", "toffoli", "--n", "3"]) == 0
    assert "pass (16 inputs checked)" in capsys.readouterr().out


def test_a_byte_that_is_not_utf8_past_the_first_chunk_exits_2(tmp_path, capsys):
    data = serialize(synth_toffoli(13)).encode()
    at = data.index(b"\n", 3 << 16) + 1  # past the reader's first chunk of 64 K characters
    path = tmp_path / "bad.txt"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    assert cli.main(["cost", "--circuit", str(path)]) == 2
    out, err = capsys.readouterr()
    line = data[:at].count(b"\n") + 1
    assert not out and err == f"error: line {line}: can't decode byte 0xff at byte offset {at}: invalid start byte\n"


def test_a_byte_that_is_not_utf8_in_a_json_file_exits_2(tmp_path, capsys):
    data = b"\xef\xbb\xbf" + serialize_json(synth_toffoli(3)).encode()
    path = tmp_path / "bad.json"
    path.write_bytes(data[:43] + b"\xff" + data[43:])
    assert cli.main(["cost", "--circuit", str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and err == "error: line 1: can't decode byte 0xff at byte offset 43: invalid start byte\n"


@pytest.mark.parametrize("family", ["peres", "toffoli", "barenco", "orgate", "andzero"])
@pytest.mark.parametrize("n", [MAX_N + 1, 40])
def test_n_above_the_limit_exits_2_before_building(monkeypatch, capsys, family, n):
    def refuse(*args):
        raise AssertionError("the gates were built")

    monkeypatch.setattr(synth, "_gate_table", refuse)
    monkeypatch.setattr(synth, "_slots", refuse)
    assert cli.main(["synth", family, "--n", str(n)]) == 2
    assert f"above the limit of {MAX_N} controls" in capsys.readouterr().err


def test_simulate_above_the_limit_exits_2_before_any_walk(tmp_path, monkeypatch, capsys):
    n = MAX_N + 1
    path = tmp_path / "wide.txt"
    path.write_text(f"circuit v1\nwidth {n + 1}\ncontrols {n}\ncnot 1 {n + 1}\n")

    def refuse(*args):
        raise AssertionError("the circuit was walked")

    monkeypatch.setattr(simulate, "_walk", refuse)
    assert cli.main(["simulate", "--circuit", str(path), "--input", "1" * (n + 1)]) == 2
    assert f"n = {n} is above the limit of {MAX_N} controls" in capsys.readouterr().err


def test_help_names_the_limit(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["synth", "--help"])
    assert f"at most {MAX_N}" in capsys.readouterr().out


def test_the_parser_is_built_once_and_outlives_errors(files, capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["verify"]) == 2
    with pytest.raises(SystemExit) as exit_:
        cli.build_parser().parse_args(["verify", "--help"])
    assert exit_.value.code == 0
    assert cli.main(["verify", "--help"]) == 0
    capsys.readouterr()
    argv = ["verify", "--circuit", files["toffoli"], "--family", "toffoli", "--n", "3", "--activation", "101"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "pass (16 inputs checked)"


def test_table_rows_are_the_paper_formulas(capsys):
    assert cli.main(["table", "--max-n", str(MAX_N)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    # At n = 1 the one root has order 1, so it is a Feynman gate, as cost counts it.
    assert [list(map(int, row.split())) for row in rows] == [[1, 1, 1, 0, 1]] + [
        [n, 2 ** (n + 1) - n - 2, 2 ** (n + 1) - 3, 2**n - 1, 2**n - 1 - n] for n in range(2, MAX_N + 1)
    ]


def test_table_rows_are_the_census_that_cost_prints(tmp_path, capsys):
    assert cli.main(["table", "--max-n", "6"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 6
    for n, row in enumerate(rows, start=1):
        shown = []
        for family in ("peres", "toffoli"):
            path = str(tmp_path / f"{family}-{n}.txt")
            assert cli.main(["synth", family, "--n", str(n), "--out", path]) == 0
            assert cli.main(["cost", "--circuit", path]) == 0
            quantum, census = capsys.readouterr().out.splitlines()
            shown.append((int(quantum.split()[-1]), *map(int, census.split()[1::2])))  # cost, feynman, root, adjoint, not
        (peres, feynman, root, adjoint, _), toffoli = shown[0], shown[1][0]
        assert list(map(int, row.split())) == [n, peres, toffoli, root + adjoint, feynman]


def test_draw_and_synth_print_what_the_writers_give(files, capsys):
    assert cli.main(["draw", "--circuit", files["toffoli"]]) == 0
    assert capsys.readouterr().out == render_ascii(load_circuit(files["toffoli"])) + "\n"
    assert cli.main(["synth", "toffoli", "--n", "3", "--activation", "101"]) == 0
    assert capsys.readouterr().out == serialize(synth_toffoli(3, (1, 0, 1)))
    with contextlib.redirect_stdout(io.StringIO()) as out:  # a stream with no byte buffer
        assert cli.main(["draw", "--circuit", files["json"]]) == 0
    assert out.getvalue() == render_ascii(synth_peres(2)) + "\n"


# Each CLI family's circuit at n = 12, of 8,178 to 8,189 gates: the text writer's directives and three pieces.
SYNTH_12 = {
    "peres": lambda: synth_peres(12),
    "toffoli": lambda: synth_toffoli(12),
    "barenco": lambda: synth.synth_barenco_toffoli(12),
    "orgate": lambda: synth.synth_zero_polarity(12, "or-gate"),
    "andzero": lambda: synth.synth_zero_polarity(12, "and-complemented"),
}


@pytest.mark.parametrize("family", SYNTH_12)
def test_synth_writes_what_the_writers_give_across_pieces(tmp_path, capsys, family):
    c = SYNTH_12[family]()
    assert cli.main(["synth", family, "--n", "12"]) == 0
    assert capsys.readouterr().out == serialize(c)
    for suffix, write in ((".txt", serialize), (".json", serialize_json)):
        path = tmp_path / f"{family}-12{suffix}"
        assert cli.main(["synth", family, "--n", "12", "--out", str(path)]) == 0
        assert path.read_bytes() == write(c).encode("utf-8")


@pytest.mark.parametrize("argv", [["draw", "--circuit", "{json}"], ["synth", "peres", "--n", "2"]])
def test_stdout_is_utf8_under_an_ascii_locale(files, argv):
    env = {**os.environ, "PYTHONPATH": SRC, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    env.pop("PYTHONIOENCODING", None)
    shown = subprocess.run([sys.executable, "-m", "rootsynth.cli", *(word.format(**files) for word in argv)],
                           capture_output=True, env=env)
    assert (shown.returncode, shown.stderr) == (0, b"")
    want = render_ascii(synth_peres(2)) + "\n" if argv[0] == "draw" else serialize(synth_peres(2))
    assert shown.stdout == want.encode("utf-8")
