"""Exit codes of every command: 0 success, 1 verification failure, 2 usage or input error.

Only verify can fail a check, so only verify has a case for exit code 1.
"""
from pathlib import Path

import pytest

from rootsynth import cli, synth
from rootsynth.synth import MAX_N, synth_peres, synth_toffoli
from rootsynth.textio import parse_json, serialize, serialize_json


@pytest.fixture
def files(tmp_path):
    paths = {
        "toffoli": tmp_path / "toffoli.txt",
        "wrong": tmp_path / "wrong.txt",
        "json": tmp_path / "peres.json",
        "broken": tmp_path / "broken.txt",
    }
    paths["toffoli"].write_text(serialize(synth_toffoli(3, (1, 0, 1))))
    paths["wrong"].write_text(serialize(synth_toffoli(3, (1, 1, 1))))
    paths["json"].write_text(serialize_json(synth_peres(2)))
    paths["broken"].write_text("circuit v1\nwidth 4\ncontrols 3\ncnot 1 9\n")
    paths["missing"] = tmp_path / "missing.txt"
    return {name: str(path) for name, path in paths.items()}


CASES = [
    # (argv with {file} placeholders, exit code, text expected on stdout or stderr)
    (["synth", "toffoli", "--n", "3", "--activation", "101"], 0, "croot 4"),
    (["synth", "orgate", "--n", "2", "--out", "{missing}"], 0, ""),
    (["synth", "barenco", "--n", "1"], 2, "need n >= 2"),
    (["synth", "peres", "--n", "2", "--activation", "00"], 2, "all-zero vector"),
    (["synth", "andzero", "--n", "2", "--activation", "11"], 2, "does not take an activation"),
    (["synth", "toffoli"], 2, "--n"),
    (["verify", "--circuit", "{toffoli}", "--family", "toffoli", "--n", "3", "--activation", "101"], 0, "pass (16 inputs checked)"),
    (["verify", "--circuit", "{json}", "--family", "peres", "--n", "2"], 0, "pass (8 inputs checked)"),
    (["verify", "--circuit", "{wrong}", "--family", "toffoli", "--n", "3", "--activation", "101"], 1, "counterexample: input 1010"),
    (["verify", "--circuit", "{toffoli}", "--family", "toffoli", "--n", "4"], 2, "control count mismatch"),
    (["verify", "--circuit", "{broken}", "--family", "toffoli", "--n", "3"], 2, "line 4: line 9 out of range"),
    (["cost", "--circuit", "{toffoli}"], 0, "quantum cost: 13"),
    (["cost", "--circuit", "{missing}"], 2, "No such file"),
    (["draw", "--circuit", "{json}"], 0, "[V2]"),
    (["draw", "--circuit", "{broken}"], 2, "out of range"),
    (["simulate", "--circuit", "{toffoli}", "--input", "1010"], 0, "1011"),
    (["simulate", "--circuit", "{toffoli}", "--input", "101"], 2, "expected 4 bits"),
    (["table", "--max-n", "3"], 0, "  3         11         13           7          4"),
    (["table", "--max-n", "0"], 2, "--max-n must be >= 1"),
    (["frobnicate"], 2, "invalid choice"),
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


@pytest.mark.parametrize("family", ["peres", "toffoli", "barenco", "orgate", "andzero"])
@pytest.mark.parametrize("n", [MAX_N + 1, 40])
def test_n_above_the_limit_exits_2_before_building(monkeypatch, capsys, family, n):
    def refuse(n):
        raise AssertionError("the gate table was built")

    monkeypatch.setattr(synth, "_gate_table", refuse)
    assert cli.main(["synth", family, "--n", str(n)]) == 2
    assert f"above the limit of {MAX_N} controls" in capsys.readouterr().err


def test_help_names_the_limit(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["synth", "--help"])
    assert f"at most {MAX_N}" in capsys.readouterr().out
