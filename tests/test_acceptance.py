"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import itertools
import json
import random

import pytest

from fsmguard import (
    RULE_FOR_CLASS,
    Rule,
    SourceText,
    VulnClass,
    cli_dispatch,
    detect_static_deadlock,
    detect_trap_loops,
    emit_verilog,
    extract_stg,
    fif_metric,
    generate_corpus,
    mitigate,
    parse_source,
    plan_injection,
    read_corpus,
    reencode_states,
    run_all_checks,
    verify_insertion,
    verify_mitigation,
    write_corpus,
)
from fsmguard.lint import LATCH_INFERENCE
from fsmguard.llm import MockProvider, load_mock_script, temperature_grid
from fsmguard.llm.pipeline import fif_pipeline, run_pipeline
from fsmguard.report import OutcomeRecord, compute_metrics, percent

from conftest import (FIXTURES, design_ast, design_source, design_stg, fif_results, residual_count,
                      score_assignment)
from test_rules import _oracle_deadlocks, _oracle_fif, _oracle_traps, _random_stg
from test_mitigate import brute_force_min_residual


def _announce(criterion: str, ok: bool) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_c01_fif_exactness():
    r1 = fif_metric("010", "011", "000")
    r2 = fif_metric("1000", "1100", "1110")
    ok = ([v for _, v in r1.per_bit] == [0, 0, 1] and r1.overall == 0
          and [v for _, v in r2.per_bit] == [1, 1, 0, 0] and r2.overall == 0)
    _announce("criterion 1 (FIF exactness)", ok)


def test_c02_fif_oracle_equivalence():
    codes = [format(i, "03b") for i in range(8)]
    ok = all(
        fif_metric(bx, by, bp).overall
        == _oracle_fif(bx, by, bp)
        for bx, by, bp in itertools.product(codes, repeat=3)
    )
    _announce("criterion 2 (FIF oracle equivalence, 512 triples)", ok)


def test_c03_hd_golden_case():
    report = run_all_checks(design_source("aes_ctrl"), {"WAIT_KEY"})
    hd = {(v.states[0], v.states[1]): v.evidence["hamming_distance"]
          for v in report.violations_of(Rule.HD_NOT_ONE)}
    missing = report.violations_of(Rule.MISSING_DEFAULT)
    ok = (
        {v.rule for v in report.violations} == {Rule.HD_NOT_ONE, Rule.MISSING_DEFAULT}
        and len(report.violations) == 4
        and hd == {("WAIT_DATA", "INITIAL_ROUND"): 2,
                   ("DO_ROUND", "FINAL_ROUND"): 3,
                   ("FINAL_ROUND", "WAIT_DATA"): 2}
        and len(missing) == 1
        and missing[0].evidence["unused_encodings"] == ["101", "110", "111"]
    )
    _announce("criterion 3 (HD + default golden case)", ok)


def test_c04_deadlock_and_unreachable_goldens():
    dead_report = run_all_checks(design_source("vending_deadlock"))
    review_report = run_all_checks(design_source("fsm_review"))
    latch = [d for d in review_report.lint
             if d.code == LATCH_INFERENCE and "sbit" in d.message]
    ok = (
        [v.rule for v in dead_report.violations] == [Rule.STATIC_DEADLOCK]
        and dead_report.violations[0].states == ("DEADLOCK_STATE",)
        and [v.rule for v in review_report.violations] == [Rule.UNREACHABLE_STATE]
        and review_report.violations[0].states == ("s3",)
        and len(latch) == 1
    )
    _announce("criterion 4 (deadlock/unreachable goldens)", ok)


def test_c05_injector_round_trip():
    bases = [(name, design_source(name), design_ast(name))
             for name in ("vending", "aes_ctrl_default", "rsa_ctrl")]
    total = 0
    good = 0
    for vuln in VulnClass:
        for _, src, ast in bases:
            for seed in range(50):
                total += 1
                injected, _ = plan_injection(vuln, ast, seed)
                text = emit_verilog(injected)
                report = run_all_checks(text)
                flagged = {v.rule for v in report.violations}
                verdict = verify_insertion(src, text, vuln)
                if flagged == {RULE_FOR_CLASS[vuln]} and verdict.overall:
                    good += 1
    ok = total == 5 * 3 * 50 and good == total
    _announce(f"criterion 5 (injector round trip, {good}/{total})", ok)


def test_c06_graph_rule_oracles():
    rng = random.Random(606)
    agree = 0
    for _ in range(200):
        stg = _random_stg(rng)
        dead = {v.states[0] for v in detect_static_deadlock(stg)}
        traps = {frozenset(v.states) for v in detect_trap_loops(stg)}
        if dead == _oracle_deadlocks(stg) and traps == _oracle_traps(stg):
            agree += 1
    _announce(f"criterion 6 (graph-rule oracles, {agree}/200)", agree == 200)


def test_c07_mitigation():
    bases = [design_source(n) for n in ("vending", "aes_ctrl_default", "rsa_ctrl")]
    cleared = 0
    total = 0
    for vuln in (VulnClass.DUPLICATE_ENCODING, VulnClass.UNREACHABLE_STATE,
                 VulnClass.STATIC_DEADLOCK):
        records = generate_corpus(bases, {vuln: 9}, 707, clean_ratio=0.0)
        for record in records:
            total += 1
            src = SourceText(record.source, origin=record.id)
            outcome = mitigate(src, run_all_checks(src))
            verdict = verify_mitigation(src, outcome.design,
                                        [Rule(l) for l in record.labels])
            if verdict.overall:
                cleared += 1
    rate_ok = cleared == total  # 100% required; beats the 91.30/96.43/96.43 bars

    stg7 = design_stg("aes_ctrl", {"WAIT_KEY"})
    assignment = reencode_states(stg7)
    brute_min = brute_force_min_residual(stg7)
    stg8 = design_stg("aes_ctrl_default", {"WAIT_KEY"})
    listing8_score = score_assignment(
        stg8, {s.name: s.code for s in stg8.states})
    ok = (rate_ok
          and residual_count(assignment) == 0
          and brute_min == 0
          and listing8_score == [("FINAL_ROUND", "WAIT_DATA")])
    _announce(f"criterion 7 (mitigation {cleared}/{total}; re-encoding optimal)", ok)


def test_c08_pipeline_replay():
    design = design_source("rsa_ctrl")
    script = load_mock_script(FIXTURES / "rsa_fif_replay.txt")
    transcript = run_pipeline(fif_pipeline("RESULT"), design, MockProvider(script))
    captured = {(r["source"], r["target"]): r["overall"]
                for r in transcript.final["results"]}
    static = {(r.source, r.target): r.overall
              for r in fif_results(design_stg("rsa_ctrl", {"RESULT"}))}
    ok = (not transcript.failed
          and len(captured) == 7
          and all(v == 0 for v in captured.values())
          and captured == static)
    _announce("criterion 8 (FIF pipeline replay vs static checker)", ok)


def test_c09_report_schema_fidelity():
    ok = percent(143, 152) == 94.08 and percent(216, 273) == 79.12
    grid = temperature_grid()
    records = [OutcomeRecord(task="detection", label="duplicate",
                             success=True, temperature=p.temperature)
               for p in grid]
    report = compute_metrics(records)
    ok = (ok and len(grid) == 11 and report.sweep is not None
          and [p.temperature for p in report.sweep]
          == [round(i / 10, 1) for i in range(11)])
    _announce("criterion 9 (report schema fidelity)", ok)


def test_c10_determinism(tmp_path):
    designs = "designs"
    bases = [design_source(n) for n in ("vending", "aes_ctrl_default", "rsa_ctrl")]
    mix = {VulnClass.STATIC_DEADLOCK: 4, VulnClass.CWE835_TRAP: 3}

    corpus_a = tmp_path / "a.jsonl"
    corpus_b = tmp_path / "b.jsonl"
    write_corpus(generate_corpus(bases, mix, 1010, workers=1), corpus_a)
    write_corpus(generate_corpus(bases, mix, 1010, workers=4), corpus_b)
    corpus_same = corpus_a.read_bytes() == corpus_b.read_bytes()

    ast = design_ast("vending")
    inj_same = (emit_verilog(plan_injection(VulnClass.STATIC_DEADLOCK, ast, 55)[0]).content
                == emit_verilog(plan_injection(VulnClass.STATIC_DEADLOCK, ast, 55)[0]).content)

    src = design_source("aes_ctrl")
    rep = run_all_checks(src, {"WAIT_KEY"})
    mit_same = (mitigate(src, rep).design.content == mitigate(src, rep).design.content)

    records = [OutcomeRecord(task="detection", label="x", success=i % 2 == 0)
               for i in range(10)]
    rep_same = (compute_metrics(records).to_json_text()
                == compute_metrics(records).to_json_text())

    ok = corpus_same and inj_same and mit_same and rep_same
    _announce("criterion 10 (determinism incl. parallel corpus)", ok)
