"""CLI subcommands and the exit-code contract."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fsmguard import SourceText, cli_dispatch, emit_verilog, parse_source, read_corpus

from conftest import DESIGNS, FIXTURES, broken_emit, widened_vending


def run(*argv):
    return cli_dispatch([str(a) for a in argv])


def python(*argv) -> subprocess.CompletedProcess:
    """Run the interpreter with this checkout's src first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=60)


def test_module_entry_point_runs_without_warnings():
    done = python("-W", "error", "-m", "fsmguard.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_package_runs_as_a_module(capsys):
    design = DESIGNS / "aes_ctrl.v"
    done = python("-m", "fsmguard", "check", design)
    assert done.returncode == run("check", design) == 1, done.stderr
    assert done.stdout == capsys.readouterr().out


def test_check_clean_design_exits_zero(capsys):
    assert run("check", DESIGNS / "vending.v") == 0


def test_check_aes_reports_and_exits_one(capsys):
    code = run("check", "--protected", "WAIT_KEY", DESIGNS / "aes_ctrl.v")
    out = capsys.readouterr().out
    assert code == 1
    assert "MISSING_DEFAULT: violated" in out
    assert out.count("HD_NOT_ONE: violated") == 3


def test_check_counts_unused_codes_past_the_listed_ones(tmp_path, capsys):
    """A 32-bit register has 2^32 - 4 unused codes; the finding lists 256
    of them, and the summary says how many there are in all."""
    design = tmp_path / "wide.v"
    design.write_text(widened_vending(32, default_arm=False).content)
    assert run("check", design) == 1
    line = next(x for x in capsys.readouterr().out.splitlines() if "MISSING_DEFAULT" in x)
    assert len(line[line.index("{") + 1:line.index("}")].split(", ")) == 256
    assert f"}} ({2 ** 32 - 4} in all) are not handled by a default" in line


def test_check_json_output(capsys):
    code = run("check", "--json", "--protected", "WAIT_KEY", DESIGNS / "aes_ctrl.v")
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert len(data["violations"]) == 4


def test_check_dump_stg(capsys):
    run("check", "--dump-stg", DESIGNS / "vending.v")
    out = capsys.readouterr().out
    assert "IDLE -> PRODUCT_SELECTED [productSelected]" in out


def test_check_dump_stg_without_an_stg_exits_two(capsys):
    code = run("check", "--dump-stg", "--protected", "NOPE", DESIGNS / "vending.v")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: protected state NOPE is not declared\n"


def test_check_unreadable_file_exits_two(capsys):
    assert run("check", "/nonexistent/file.v") == 2


def test_unknown_flag_exits_two(capsys):
    assert run("check", "--bogus-flag", DESIGNS / "vending.v") == 2


def test_inject_writes_design_and_plan(tmp_path, capsys):
    out_v = tmp_path / "out.v"
    out_plan = tmp_path / "plan.json"
    code = run("inject", "--class", "static_deadlock", "--seed", "7",
               "--out-design", out_v, "--out-plan", out_plan,
               DESIGNS / "vending.v")
    assert code == 0
    assert out_v.exists() and out_plan.exists()
    plan = json.loads(out_plan.read_text())
    assert plan["vuln"] == "STATIC_DEADLOCK"
    assert run("check", out_v) == 1


def test_inject_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.v"
    b = tmp_path / "b.v"
    for out in (a, b):
        run("inject", "--class", "cwe835_trap", "--seed", "5",
            "--out-design", out, "--out-plan", tmp_path / "p.json",
            DESIGNS / "vending.v")
    assert a.read_bytes() == b.read_bytes()


def test_inject_unknown_class_exits_two(tmp_path, capsys):
    assert run("inject", "--class", "nonsense", DESIGNS / "vending.v") == 2


def test_mitigate_roundtrip(tmp_path, capsys):
    out_v = tmp_path / "fixed.v"
    out_r = tmp_path / "fixed.json"
    code = run("mitigate", "--protected", "WAIT_KEY",
               "--out-design", out_v, "--out-report", out_r,
               DESIGNS / "aes_ctrl.v")
    assert code == 0
    assert run("check", "--protected", "WAIT_KEY", out_v) == 0
    data = json.loads(out_r.read_text())
    assert data["stg_preserved"] is True
    assert sorted(data["fixed"]) == ["HD_NOT_ONE", "MISSING_DEFAULT"]


def test_mitigate_whose_repair_does_not_check_exits_two(tmp_path, capsys, monkeypatch):
    broken_emit(monkeypatch)
    out_v = tmp_path / "fixed.v"
    code = run("mitigate", "--protected", "WAIT_KEY", "--out-design", out_v,
               "--out-report", tmp_path / "fixed.json", DESIGNS / "aes_ctrl.v")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: the repaired design does not check: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out_v.exists()


def test_mitigate_mutually_referencing_unreachable_states(tmp_path, capsys):
    out_v = tmp_path / "fixed.v"
    code = run("mitigate", "--out-design", out_v, "--out-report", tmp_path / "fixed.json",
               FIXTURES / "mutual_unreachable.v")
    assert code == 0
    assert run("check", out_v) == 0


def test_mitigate_keeps_a_protected_unreachable_state(tmp_path, capsys):
    out_v = tmp_path / "fixed.v"
    out_r = tmp_path / "fixed.json"
    code = run("mitigate", "--protected", "s3", "--out-design", out_v, "--out-report", out_r,
               DESIGNS / "fsm_review.v")
    assert code == 0
    assert "parameter s3 = " in out_v.read_text()
    residual = json.loads(out_r.read_text())["residual"]
    assert {"rule": "UNREACHABLE_STATE", "states": ["s3"]}.items() <= residual[-1].items()


def test_stg_error_exits_two(tmp_path, capsys):
    code = run("inject", "--class", "static_deadlock", "--protected", "NOPE",
               "--out-design", tmp_path / "x.v", "--out-plan", tmp_path / "x.json",
               DESIGNS / "vending.v")
    assert code == 2
    assert "protected state NOPE is not declared" in capsys.readouterr().err


def test_gen_corpus_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    args = ["gen-corpus", "--mix", "static_deadlock=3,duplicate_encoding=2",
            "--seed", "11", DESIGNS / "vending.v", DESIGNS / "aes_ctrl_default.v",
            DESIGNS / "rsa_ctrl.v"]
    assert run(*args, "--out", out_a) == 0
    assert run(*args, "--out", out_b) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    records = read_corpus(out_a)
    assert len(records) == 10  # 5 buggy + 5 clean at the default 1:1 ratio


def test_gen_corpus_clean_ratio_flag_beats_the_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"corpus": {"clean_ratio": 0.0}}')
    out = tmp_path / "c.jsonl"
    args = ["gen-corpus", "--mix", "static_deadlock=2", "--seed", "9", "--config", config,
            "--out", out, DESIGNS / "vending.v"]
    assert run(*args) == 0
    assert len(read_corpus(out)) == 2
    assert run(*args, "--clean-ratio", "1.0") == 0
    assert len(read_corpus(out)) == 4


@pytest.mark.parametrize("command, config, problem", [
    ("gen-corpus", {"corpus": {"clean_ratio": [1]}}, "corpus.clean_ratio is not a number"),
    ("gen-corpus", {"corpus": {"clean_ratio": "0.5"}}, "corpus.clean_ratio is not a number"),
    ("gen-corpus", {"corpus": []}, "section 'corpus' is not a JSON object"),
    ("mitigate", {"mitigation": []}, "unknown key(s) mitigation"),
    ("run-pipeline", {"provider": 5}, "section 'provider' is not a JSON object"),
    ("check", [1, 2], "is not a JSON object"),
    ("check", {"rules": []}, "section 'rules' is not a JSON object"),
    # every rule always runs: a key for one of them is refused, never ignored
    ("check", {"rules": {"hd": False}}, "unknown key(s) rules.hd"),
    ("gen-corpus", {"rules": {"unreachable": False, "trap_loop": False}},
     "unknown key(s) rules.trap_loop, rules.unreachable"),
    ("mitigate", {"mitigation": {}}, "unknown key(s) mitigation"),
    ("check", {"rules": {"fif": "no"}}, "rules.fif is not a bool"),
    ("check", {"rules": {"include_self_edges": 0}}, "rules.include_self_edges is not a bool"),
    ("check", {"corpus": {"clean_ratio": 1, "size": 3}}, "unknown key(s) corpus.size"),
    ("run-pipeline", {"provider": {"model": "m"}}, "provider lacks endpoint"),
    ("run-pipeline", {"provider": {"endpoint": "e", "model": "m", "char_budget": [1]}},
     "provider.char_budget is not an integer of at least 1"),
    ("run-pipeline", {"provider": {"endpoint": "e", "model": "m", "timeout": []}},
     "provider.timeout is not a positive number"),
    ("run-pipeline", {"provider": {"endpoint": "e", "model": "m", "timeout": float("nan")}},
     "provider.timeout is not a positive number"),
])
def test_config_of_the_wrong_shape_exits_two(tmp_path, capsys, command, config, problem):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    design = DESIGNS / "vending.v"
    argv = {"gen-corpus": ["--mix", "static_deadlock=1", "--seed", "1", "--out", tmp_path / "c.jsonl", design],
            "mitigate": ["--out-design", tmp_path / "x.v", "--out-report", tmp_path / "x.json",
                         design],
            "run-pipeline": ["--pipeline", "fif", "--protected", "IDLE", "--design", design,
                             "--out", tmp_path / "t.jsonl"],
            "check": [design]}[command]
    assert run(command, "--config", path, *argv) == 2
    message = f"config {path} {problem}" if problem.startswith("is") else f"config {path}: {problem}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "c.jsonl").exists() and not (tmp_path / "x.v").exists()


def test_the_readme_config_example_is_accepted(tmp_path, capsys):
    """The JSON of README's config paragraph is read without error, so the
    README never names a key the config reader refuses."""
    readme = (DESIGNS.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"configured with `--config config\.json`:\n\n```json\n(.*?)```",
                      readme, re.S)
    path = tmp_path / "config.json"
    path.write_text(block[1])
    assert cli_dispatch(["check", "--config", str(path), str(DESIGNS / "vending.v")]) != 2
    assert capsys.readouterr().err == ""


def test_run_pipeline_with_mock(tmp_path, capsys):
    out = tmp_path / "transcripts.jsonl"
    code = run("run-pipeline", "--pipeline", "fif", "--protected", "RESULT",
               "--design", DESIGNS / "rsa_ctrl.v",
               "--mock-script", FIXTURES / "rsa_fif_replay.txt",
               "--out", out)
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines() if l]
    assert len(lines) == 1
    assert lines[0]["final"]["kind"] == "fif"
    assert all(r["overall"] == 0 for r in lines[0]["final"]["results"])


def test_sweep_default_grid(tmp_path, capsys):
    out = tmp_path / "sweep.jsonl"
    code = run("sweep", "--pipeline", "policy-check",
               "--policy", "Each state must be encoded uniquely.",
               "--design", DESIGNS / "vending.v",
               "--mock-script", FIXTURES / "policy_clean.txt",
               "--out", out)
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines() if l]
    assert len(lines) == 11
    assert sorted({l["temperature"] for l in lines}) == [round(i / 10, 1)
                                                         for i in range(11)]


def test_score_detection_transcripts(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    transcripts = tmp_path / "transcripts.jsonl"
    report_path = tmp_path / "report.json"
    assert run("gen-corpus", "--mix", "static_deadlock=2", "--seed", "9",
               "--out", corpus, DESIGNS / "vending.v") == 0
    # mock always answers "violated": correct on the 2 buggy, wrong on the 2 clean
    assert run("run-pipeline", "--pipeline", "policy-check",
               "--policy", "A state with a static deadlock scenario must not exist.",
               "--corpus", corpus,
               "--mock-script", FIXTURES / "policy_violated.txt",
               "--out", transcripts) == 0
    assert run("score", "--transcripts", transcripts, "--corpus", corpus,
               "--rule", "static_deadlock", "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    (row,) = report["rows"]
    assert row["inputs"] == 4
    assert row["successes"] == 2
    assert row["rate"] == 50.0


def test_score_reports_reproducible(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    transcripts = tmp_path / "t.jsonl"
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run("gen-corpus", "--mix", "duplicate_encoding=2", "--seed", "4",
        "--out", corpus, DESIGNS / "vending.v")
    run("run-pipeline", "--pipeline", "policy-check",
        "--policy", "Each state must be encoded uniquely.",
        "--corpus", corpus, "--mock-script", FIXTURES / "policy_violated.txt",
        "--out", transcripts)
    run("score", "--transcripts", transcripts, "--corpus", corpus,
        "--rule", "duplicate_encoding", "--out", r1)
    run("score", "--transcripts", transcripts, "--corpus", corpus,
        "--rule", "duplicate_encoding", "--out", r2)
    assert r1.read_bytes() == r2.read_bytes()


def test_sanitize_cli(tmp_path, capsys):
    design = tmp_path / "trojan.v"
    design.write_text(Path(FIXTURES / "trojan_unit.v").read_text())
    out_v = tmp_path / "clean.v"
    out_map = tmp_path / "map.json"
    code = run("sanitize", "--out-design", out_v, "--out-map", out_map, design)
    assert code == 0
    text = out_v.read_text().lower()
    for word in ("trojan", "trigger", "malicious", "backdoor"):
        assert word not in text
    mapping = json.loads(out_map.read_text())["rename_map"]
    assert mapping["trojan_trigger_unit"] == "u0"


def test_sanitize_cli_drops_empty_keywords(tmp_path):
    """An empty entry in --keywords would match every name and comment word."""
    out_v = tmp_path / "clean.v"
    out_map = tmp_path / "map.json"
    code = run("sanitize", "--keywords", "trojan,", "--out-design", out_v,
               "--out-map", out_map, DESIGNS / "vending.v")
    assert code == 0
    assert json.loads(out_map.read_text())["rename_map"] == {}
    original = parse_source(SourceText.from_file(DESIGNS / "vending.v")).expect_ast()
    assert out_v.read_text() == emit_verilog(original).content


def test_sanitize_cli_strips_keywords(tmp_path):
    """A space after a comma in --keywords belongs to no keyword."""
    out_v = tmp_path / "clean.v"
    out_map = tmp_path / "map.json"
    code = run("sanitize", "--keywords", "malicious, trigger", "--out-design", out_v,
               "--out-map", out_map, FIXTURES / "trojan_unit.v")
    assert code == 0
    assert "trigger" not in out_v.read_text().lower()
    mapping = json.loads(out_map.read_text())["rename_map"]
    assert {"trojan_trigger_unit", "trigger_arm"} <= set(mapping)


def test_check_warning_only_design_exits_zero(tmp_path, capsys):
    text = (DESIGNS / "vending.v").read_text().replace(
        "parameter IDLE", "localparam IDLE")
    design = tmp_path / "warned.v"
    design.write_text(text)
    assert run("check", design) == 0
    assert "W_LOCALPARAM" in capsys.readouterr().out


def test_check_reports_a_state_literal_too_wide_to_encode(tmp_path, capsys):
    text = (DESIGNS / "vending.v").read_text().replace(
        "3'b000", "99999999999999999999'b000", 1)
    design = tmp_path / "wide.v"
    design.write_text(text)
    assert run("check", design) == 1   # a parse failure, reported; no traceback
    out = capsys.readouterr().out
    assert "error[E_ENCODING]" in out and "is wider than 65536 bits" in out
    assert "result: parse failed" in out


_POLICY = ("--pipeline", "policy-check", "--policy", "Each state must be encoded uniquely.")
_MOCK = ("--mock-script", FIXTURES / "policy_clean.txt")
_VENDING = ("--design", DESIGNS / "vending.v")
_GEN = ("gen-corpus", "--mix", "static_deadlock=1", "--seed", "1", "--out", "<tmp>/c.jsonl",
        DESIGNS / "vending.v")


@pytest.mark.parametrize("argv", [
    pytest.param(("check", "<tmp>/empty.v"), id="empty-design"),
    pytest.param(("run-pipeline", *_POLICY, *_VENDING, *_MOCK, "--temperature", "2",
                  "--out", "<tmp>/t.jsonl"), id="temperature-out-of-range"),
    pytest.param(("sweep", *_POLICY, *_VENDING, *_MOCK, "--grid", "1.5",
                  "--out", "<tmp>/t.jsonl"), id="grid-out-of-range"),
    pytest.param(("run-pipeline", *_POLICY, *_MOCK, "--corpus", "<tmp>/missing.jsonl",
                  "--out", "<tmp>/t.jsonl"), id="missing-corpus"),
    pytest.param(("score", "--transcripts", "<tmp>/missing.jsonl", "--corpus",
                  "<tmp>/empty.jsonl", "--rule", "static_deadlock", "--out", "<tmp>/r.json"),
                 id="missing-transcripts"),
    pytest.param(("run-pipeline", *_POLICY, *_VENDING, "--mock-script", "<tmp>/missing.txt",
                  "--out", "<tmp>/t.jsonl"), id="missing-mock-script"),
    pytest.param(("run-pipeline", *_POLICY, *_MOCK, "--corpus", "<tmp>/bad.jsonl",
                  "--out", "<tmp>/t.jsonl"), id="malformed-corpus"),
    pytest.param(("score", "--transcripts", "<tmp>/bad.jsonl", "--corpus",
                  "<tmp>/empty.jsonl", "--rule", "static_deadlock", "--out", "<tmp>/r.json"),
                 id="malformed-transcripts"),
    pytest.param(("gen-corpus", "--mix", "static_deadlock=1", "--seed", "1",
                  "--out", "<tmp>/no/such/dir/c.jsonl", DESIGNS / "vending.v"),
                 id="missing-out-directory"),
    pytest.param(("sanitize", "--keywords", ",", "--out-design", "<tmp>/s.v",
                  "--out-map", "<tmp>/m.json", DESIGNS / "vending.v"), id="no-keywords"),
    pytest.param((*_GEN, "--clean-ratio", "nan"), id="clean-ratio-nan"),
    pytest.param((*_GEN, "--clean-ratio", "inf"), id="clean-ratio-inf"),
    pytest.param((*_GEN, "--clean-ratio", "-1"), id="clean-ratio-negative"),
    pytest.param((*_GEN, "--config", "<tmp>/ratio.json"), id="clean-ratio-negative-config"),
])
def test_io_and_value_errors_exit_two(tmp_path, capsys, argv):
    (tmp_path / "empty.v").write_text("")
    (tmp_path / "empty.jsonl").write_text("")
    (tmp_path / "bad.jsonl").write_text("{not json\n")
    (tmp_path / "ratio.json").write_text('{"corpus": {"clean_ratio": -1}}')
    code = run(*(str(a).replace("<tmp>", str(tmp_path)) for a in argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["sweep", "run-pipeline"])
@pytest.mark.parametrize("in_flight", [[], "2", True, 2.5, 0],
                         ids=["list", "string", "bool", "float", "zero"])
def test_in_flight_other_than_a_positive_integer_exits_two(tmp_path, capsys, command, in_flight):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"in_flight": in_flight}))
    out = tmp_path / "t.jsonl"
    assert run(command, *_POLICY, *_VENDING, *_MOCK, "--config", path, "--out", out) == 2
    message = f"config {path}: in_flight is not an integer of at least 1"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_in_flight_of_one_is_accepted(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"in_flight": 1}))
    out = tmp_path / "t.jsonl"
    assert run("sweep", *_POLICY, *_VENDING, *_MOCK, "--config", path, "--grid", "0.1,0.2",
               "--out", out) == 0
    assert len(out.read_text().splitlines()) == 2


_SCORE = ("score", "--rule", "MISSING_DEFAULT", "--out", "<tmp>/r.json")


@pytest.mark.parametrize("argv, missing", [
    pytest.param((*_SCORE, "--corpus", "<tmp>/partial.jsonl", "--transcripts",
                  "<tmp>/empty.jsonl"), "'base_id'", id="score-corpus"),
    pytest.param((*_SCORE, "--corpus", "<tmp>/empty.jsonl", "--transcripts",
                  "<tmp>/partial.jsonl"), "'design_id'", id="score-transcripts"),
    pytest.param(("run-pipeline", *_POLICY, *_MOCK, "--corpus", "<tmp>/partial.jsonl",
                  "--out", "<tmp>/t.jsonl"), "'base_id'", id="run-pipeline-corpus"),
])
@pytest.mark.parametrize("record", ['{"id": "x"}', '["x"]'], ids=["no-field", "not-an-object"])
def test_malformed_jsonl_record_exits_two(tmp_path, capsys, argv, missing, record):
    (tmp_path / "empty.jsonl").write_text("")
    (tmp_path / "partial.jsonl").write_text(f"\n{record}\n")
    code = run(*(str(a).replace("<tmp>", str(tmp_path)) for a in argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    reason = f"missing field {missing}" if record.startswith("{") else "malformed record"
    assert f"partial.jsonl line 2: {reason}" in err
