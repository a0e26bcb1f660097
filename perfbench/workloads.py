"""The benchmark's three workloads, each a list of seeded ops.

An op is one closed-loop call into fsmguard's public API together with its
known answer.  Ops reach fsmguard through module attributes at call time,
so the traced run sees every call through its wrappers.

* ``check_scale``: ``run_all_checks`` with FIF on and a seeded protected
  state, over a ladder of ring FSMs (8 to 1024 states, several rings at
  each rung from 128 up) and the seven shipped designs.  The frontend,
  ``stg`` and ``rules`` do nearly all the work; ``inject``, ``mitigate``
  and ``llm`` do none.
* ``corpus_experiment``: the paper's two experiments, one buggy record at
  a time: ``generate_corpus`` (one buggy and one clean record), a JSONL
  round trip, a policy-check sweep over the 11-point temperature grid
  against scripted mock providers, ``compute_metrics``, then ``mitigate``
  and ``verify_mitigation`` with no protected set.  Injection, its gate
  and the mitigation rounds dominate, on designs of 40-70 lines.
* ``protected_repair``: ``mitigate`` with FIF on and a protected state,
  plus ``verify_mitigation``, on small FSMs whose codes break HD=1 and on
  two shipped designs.  The re-encoding search dominates.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from gen import (LADDER, Fsm, expected_ring_verdict, fsm_shape, hd_violations, ring_fsm,
                 small_fsm)

HERE = Path(__file__).resolve().parent
DESIGNS = HERE.parent / "designs"
EXPECTED_PATH = HERE / "expected.json"

DEFAULT_SEED = 1
SHIPPED = ("aes_ctrl.v", "aes_ctrl_default.v", "fsm_review.v", "moore_conflict.v",
           "rsa_ctrl.v", "vending.v", "vending_deadlock.v")
CORPUS_BASES = ("vending.v", "aes_ctrl_default.v", "rsa_ctrl.v")
CORPUS_OPS = 35  # 7 records per class
# Rings per ladder rung.  Several rings at the large rungs put op_p90_ms
# inside a group of like-sized rings (the 512-state ones) and let
# ops_per_s rest on more than one 1024-state op.  Three protected states
# per shipped design keep op_p50_ms inside the group of small checks.
RINGS_PER_RUNG = {8: 1, 16: 1, 32: 1, 64: 1, 128: 2, 256: 3, 512: 3, 1024: 2}
SHIPPED_CHECKS = 3
# Ops of a few milliseconds run several times back to back in each pass
# (Op.reps), so they get enough samples to reach their floor while the
# slow ops set the length of a pass.  Repeat counts and periods follow
# input size, never measured time, so two commits are measured alike.
CHECK_REPS = 4
# The re-encoding search dominates protected_repair, and its cost depends
# only on the graph and the protected state, never on the codes.  Between
# random graphs it spans 0-70 ms at width 3 and from under 1 ms to more
# than 8 s at width 4 (6-7 states), so seeding the graphs of the larger
# classes would let a few draws decide every figure and the run length.
# Those classes take the first REPAIR_PER_CLASS graphs of a fixed stream,
# whatever they cost, and the seed draws only their codes; the small
# classes are seeded whole.  At the time of writing the first three
# 7-state width-4 graphs cost about 50 ms, 3 ms and 4-8 s on a shared
# 2-core machine: the heavy tail that ROADMAP item 5 targets is in every
# run.
REPAIR_SEEDED = ((4, 3), (5, 3), (4, 4))  # (states, width)
REPAIR_FIXED = ((6, 3), (7, 3), (5, 4), (6, 4), (7, 4))
REPAIR_PER_CLASS = 3
REPAIR_REPS = 2
# The 7-state width-4 class, whose search can run for seconds, runs once in
# one pass of every REPAIR_SLOW_PERIOD; without that a pass would last
# several seconds and the other ops would be sampled in only a few.
REPAIR_SLOW_CLASS = (7, 4)
REPAIR_SLOW_PERIOD = 3
REPAIR_SHIPPED = (("aes_ctrl.v", "WAIT_KEY"), ("rsa_ctrl.v", "RESULT"))

_STATE_RE = re.compile(r"([A-Za-z_]\w*)\s*=\s*\d+'b([01]+)")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def state_codes(verilog: str) -> dict[str, str]:
    """State name to code bits, read from the parameter declarations."""
    return dict(_STATE_RE.findall(verilog))


def verdict(report) -> Any:
    """What a check concluded: the parse failure, or the sorted findings."""
    if not report.parse_ok:
        return "parse_failure"
    return sorted([v.rule.value, list(v.states)] for v in report.violations)


@dataclass
class Op:
    """One timed call.  ``run`` is the whole op; ``canon`` gives the text
    that must repeat byte for byte across passes and between the traced and
    untraced runs; ``check`` returns "" when the output matches the known
    answer, else the reason; ``digests`` names the hashes committed for the
    default seed."""

    name: str
    key: str
    run: Callable[[], Any]
    canon: Callable[[Any], str]
    check: Callable[[Any], str]
    digests: Callable[[Any], dict] = lambda out: {}
    states: int = 0
    reps: int = 1  # runs back to back in each pass it runs in
    period: int = 1  # runs in one pass of every ``period``


# -- check_scale ----------------------------------------------------------------

def check_scale_ops(fg, seed: int, expected: dict) -> list[Op]:
    rng = random.Random(f"check_scale:{seed}")
    cfg = fg.RuleConfig(fif=True)

    def op(name, src, protected, want, states=0, reps=CHECK_REPS) -> Op:
        return Op(
            name=name,
            key=f"{protected}\n{src.content}",
            run=lambda: fg.run_all_checks(src, frozenset({protected}), cfg),
            canon=lambda rep: rep.to_json_text(),
            check=lambda rep: "" if verdict(rep) == want else
            f"verdict differs from the known answer for protected {protected}",
            states=states,
            reps=reps,
        )

    ops = []
    for n in LADDER:
        for j in range(RINGS_PER_RUNG[n]):
            fsm = ring_fsm(rng, n)
            want = [[rule, list(states)] for rule, states in expected_ring_verdict(fsm)]
            ops.append(op(f"{fsm.name}-{j}", fg.SourceText(fsm.verilog(), origin=f"{fsm.name}.v"),
                          fsm.protected, want, states=n, reps=max(1, 64 // n)))
    for name in SHIPPED:
        text = (DESIGNS / name).read_text(encoding="utf-8")
        answers = expected["shipped_verdicts"][name]
        for protected in rng.sample(sorted(state_codes(text)), SHIPPED_CHECKS):
            want = answers if answers == "parse_failure" else answers[protected]
            ops.append(op(f"{name}:{protected}", fg.SourceText(text, origin=f"designs/{name}"),
                          protected, want))
    return ops


# -- corpus_experiment ----------------------------------------------------------

POLICIES = {
    "CWE835_TRAP": "No set of states may form a loop the machine can never leave.",
    "DUPLICATE_ENCODING": "No two states may share an encoding.",
    "MISSING_DEFAULT": "Every unused encoding must be handled by a default arm.",
    "STATIC_DEADLOCK": "A state with a static deadlock scenario must not exist.",
    "UNREACHABLE_STATE": "Every state must be reachable from reset.",
}
POLICY_RULES = ("TRAP_LOOP_CWE835", "DUPLICATE_ENCODING", "MISSING_DEFAULT",
                "STATIC_DEADLOCK", "UNREACHABLE_STATE")


class ScriptedProvider:
    """Routes each request to the ``MockProvider`` scripted for its
    (design, temperature) job.  Scripts are fixed before the sweep starts,
    so the replies do not depend on thread scheduling."""

    provider_id = "mock"

    def __init__(self, scripts: dict[tuple[str, float], Any]):
        self._mocks = scripts

    def send(self, messages, params):
        prompt = messages[0]["content"]
        for (content, temperature), mock in self._mocks.items():
            if temperature == params.temperature and content in prompt:
                return mock.send(messages, params)
        raise LookupError("no scripted job for this request")


def _policy_reply(violated: list[bool]) -> str:
    lines = []
    for i, bad in enumerate(violated, 1):
        if bad:
            lines.append(f"Policy {i}: Violated, explanation: rule broken, line no: 1")
        else:
            lines.append(f"Policy {i}: Not violated, explanation: none")
    return "\n".join(lines)


def _percent(successes: int, inputs: int) -> float:
    """100 * successes / inputs rounded half-up to 2 decimals, in integers."""
    return ((20000 * successes + inputs) // (2 * inputs)) / 100


def corpus_ops(fg, seed: int, out_dir: Path) -> list[Op]:
    from fsmguard import llm

    rng = random.Random(f"corpus_experiment:{seed}")
    bases = [fg.SourceText((DESIGNS / b).read_text(encoding="utf-8"), origin=f"designs/{b}")
             for b in CORPUS_BASES]
    classes = sorted(fg.VulnClass, key=lambda v: v.value)
    grid = llm.temperature_grid()
    spec = llm.policy_check_pipeline([POLICIES[c.value] for c in classes])
    in_flight = min(2, nproc())
    path = out_dir / "corpus.jsonl"

    def make(k: int) -> Op:
        vuln = classes[k % len(classes)]
        rot = (k // len(classes)) % len(bases)
        op_bases = bases[rot:] + bases[:rot]
        master = rng.getrandbits(32)
        script_seed = rng.getrandbits(32)
        rule = fg.RULE_FOR_CLASS[vuln].value

        def scripts(designs, truth):
            """Per job: the honest answer with each policy flipped with
            probability 0.3 * temperature, after 0-2 rate limits."""
            srng = random.Random(script_seed)
            table, plan = {}, {}
            for d in designs:
                for gi, point in enumerate(grid):
                    flips = [srng.random() < 0.3 * point.temperature for _ in POLICY_RULES]
                    limits = srng.choices((0, 1, 2), weights=(15, 4, 1))[0]
                    answer = [(r in truth[d.origin]) != f for r, f in zip(POLICY_RULES, flips)]
                    reply = [llm.ProviderRateLimited("HTTP 429")] * limits + [_policy_reply(answer)]
                    table[(d.content, point.temperature)] = llm.MockProvider(reply)
                    plan[(d.origin, gi)] = (not any(flips), limits + 1)
            return table, plan

        def run():
            records = fg.generate_corpus(op_bases, {vuln: 1}, master, clean_ratio=1.0, workers=1)
            fg.write_corpus(records, path)
            blob = path.read_text(encoding="utf-8")
            back = fg.read_corpus(path)
            designs = [fg.SourceText(r.source, origin=r.id) for r in back]
            truth = {r.id: set(r.labels) for r in back}
            table, plan = scripts(designs, truth)
            provider = ScriptedProvider(table)
            backoff: list[float] = []
            retry = llm.RetryPolicy(sleep_fn=backoff.append, rng=random.Random(0))
            results = llm.sweep_params(replace(spec, retry=retry), designs, grid,
                                       lambda: provider, in_flight=in_flight)
            outcomes = []
            for (origin, gi), t in results.items():
                predicted = set()
                if t.final is not None:
                    predicted = {POLICY_RULES[v["policy"] - 1]
                                 for v in t.final["verdicts"] if v["violated"]}
                outcomes.append(fg.OutcomeRecord(
                    task="detection", label=next(iter(truth[origin]), "clean"),
                    success=not t.failed and predicted == truth[origin],
                    temperature=grid[gi].temperature))
            report = fg.compute_metrics(outcomes, fg.Provenance(seeds=(master,), provider="mock"))
            buggy = next(r for r in back if r.vuln is not None)
            src = fg.SourceText(buggy.source, origin=buggy.id)
            outcome = fg.mitigate(src, fg.run_all_checks(src))
            fidelity = fg.verify_mitigation(src, outcome.design, [fg.Rule(x) for x in buggy.labels])
            return dict(records=records, blob=blob, back=back, results=results, plan=plan,
                        report=report, outcome=outcome, fidelity=fidelity, backoff=backoff)

        def canon(out) -> str:
            transcripts = []
            for key, t in out["results"].items():
                data = t.to_json()
                for step in data["steps"]:
                    step.pop("elapsed")  # wall-clock, the one field allowed to differ
                transcripts.append([list(key), data])
            return json.dumps({
                "corpus": out["blob"],
                "transcripts": transcripts,
                "report": out["report"].to_json(),
                "mitigation": out["outcome"].to_json(),
                "fidelity": out["fidelity"].to_json(),
            }, sort_keys=True)

        def check(out) -> str:
            records, back = out["records"], out["back"]
            if [r.vuln for r in records] != [vuln, None]:
                return "corpus is not one buggy record then one clean record"
            if records[0].labels != (rule,):
                return f"buggy record labels {records[0].labels} are not exactly {rule}"
            if records[1].source != op_bases[0].content:
                return "clean record is not the first base design"
            if [r.to_json() for r in back] != [r.to_json() for r in records]:
                return "JSONL round trip changed the records"
            results, plan = out["results"], out["plan"]
            if sorted(results) != sorted(plan):
                return "sweep did not return one transcript per (record, grid point)"
            for key, t in results.items():
                if t.failed or [s.attempts for s in t.steps] != [plan[key][1]]:
                    return f"transcript {key} failed or retried other than scripted"
            if len(out["backoff"]) != sum(attempts - 1 for _, attempts in plan.values()):
                return "rate-limited attempts did not each back off once"
            rows: dict[str, list[int]] = {}
            points: dict[float, list[int]] = {}
            for (origin, gi), (ok, _) in plan.items():
                label = next((r.labels[0] for r in back if r.id == origin and r.labels), "clean")
                for acc in (rows.setdefault(label, [0, 0]),
                            points.setdefault(grid[gi].temperature, [0, 0])):
                    acc[0] += 1
                    acc[1] += ok
            report = out["report"].to_json()
            want_rows = [{"label": k, "inputs": n, "successes": s, "rate": _percent(s, n)}
                         for k, (n, s) in sorted(rows.items())]
            want_sweep = [{"temperature": k, "inputs": n, "successes": s, "rate": _percent(s, n)}
                          for k, (n, s) in sorted(points.items())]
            if report["rows"] != want_rows or report["sweep"] != want_sweep:
                return "compute_metrics disagrees with the scripted outcomes"
            outcome, fidelity = out["outcome"], out["fidelity"]
            if not fidelity.overall or outcome.residual:
                return "mitigation left violations or failed verification"
            if [r.value for r in outcome.fixed] != [rule]:
                return f"mitigation fixed {[r.value for r in outcome.fixed]}, not {rule}"
            return ""

        def digests(out) -> dict:
            return {"corpus_jsonl": sha256(out["blob"]),
                    "mitigated_design": sha256(out["outcome"].design.content)}

        return Op(name=f"{vuln.value.lower()}-{k:02d}",
                  key=f"{vuln.value} {master} {script_seed} {[b.origin for b in op_bases]}",
                  run=run, canon=canon, check=check, digests=digests)

    return [make(k) for k in range(CORPUS_OPS)]


# -- protected_repair -----------------------------------------------------------

def repair_inputs(seed: int) -> list[tuple[str, str, str, Fsm | None]]:
    """(name, verilog, protected state, generator FSM or None) per op."""
    rng = random.Random(f"protected_repair:{seed}")
    out = []
    for n, width in REPAIR_SEEDED:
        for k in range(REPAIR_PER_CLASS):
            fsm = small_fsm(fsm_shape(rng, n), rng, n, width)
            out.append((f"{fsm.name}-{k}", fsm.verilog(), fsm.protected, fsm))
    for n, width in REPAIR_FIXED:
        stream = random.Random(f"protected_repair-shapes:{n}x{width}")
        for k in range(REPAIR_PER_CLASS):
            fsm = small_fsm(fsm_shape(stream, n), rng, n, width)
            out.append((f"{fsm.name}-{k}", fsm.verilog(), fsm.protected, fsm))
    for name, protected in REPAIR_SHIPPED:
        out.append((name, (DESIGNS / name).read_text(encoding="utf-8"), protected, None))
    return out


def repair_ops(fg, seed: int) -> list[Op]:
    cfg = fg.RuleConfig(fif=True)

    def make(name: str, text: str, protected: str, fsm: Fsm | None) -> Op:
        src = fg.SourceText(text, origin=name)
        prot = frozenset({protected})

        def run():
            report = fg.run_all_checks(src, prot, cfg)
            outcome = fg.mitigate(src, report, rule_config=cfg)
            fidelity = fg.verify_mitigation(src, outcome.design, outcome.fixed, prot, cfg)
            return report, outcome, fidelity

        def canon(out) -> str:
            report, outcome, fidelity = out
            return json.dumps({"report": report.to_json(), "mitigation": outcome.to_json(),
                               "fidelity": fidelity.to_json()}, sort_keys=True)

        def check(out) -> str:
            """The repair only re-encodes (and may add a default arm), so the
            graph and interface survive and the claimed fixes verify.  HD
            re-encoding ignores FIF, so a new FIF finding is allowed, but
            verify_mitigation must report exactly the residual findings of
            rules the input did not break."""
            report, outcome, fidelity = out
            if not (fidelity.syntax_ok and fidelity.interface_ok and fidelity.stg_ok
                    and outcome.stg_preserved and fidelity.intended_present):
                return "repair changed the graph or interface, or a claimed fix did not verify"
            new = [v for v in outcome.residual if v.rule not in report.violated_rules]
            if list(fidelity.unintended) != new:
                return "verify_mitigation's collateral findings differ from the repair's residual"
            before, after = state_codes(text), state_codes(outcome.design.content)
            widths = {len(b) for b in before.values()} | {len(b) for b in after.values()}
            if sorted(after) != sorted(before) or len(set(after.values())) != len(after) \
                    or len(widths) != 1:
                return "re-encoding is not an injective map of the same states and width"
            if fsm is None:
                return ""
            residual = sorted(tuple(v.states) for v in outcome.residual if v.rule.value == "HD_NOT_ONE")
            initial = sorted(tuple(v.states) for v in report.violations if v.rule.value == "HD_NOT_ONE")
            if initial != hd_violations(fsm, {k: int(b, 2) for k, b in before.items()}):
                return "input HD violations differ from the generator's popcount"
            if residual != hd_violations(fsm, {k: int(b, 2) for k, b in after.items()}):
                return "residual HD violations differ from the popcount of the new codes"
            if len(residual) > len(initial):
                return "re-encoding made HD worse"
            return ""

        def digests(out) -> dict:
            design = out[1].design.content
            return {"design": sha256(design),
                    "assignment": sha256(json.dumps(state_codes(design), sort_keys=True))}

        if fsm is not None and (len(fsm.codes), fsm.width) == REPAIR_SLOW_CLASS:
            reps, period = 1, REPAIR_SLOW_PERIOD
        else:
            reps, period = REPAIR_REPS, 1
        return Op(name=name, key=f"{protected}\n{text}", run=run, canon=canon,
                  check=check, digests=digests, reps=reps, period=period)

    return [make(*inp) for inp in repair_inputs(seed)]


def build_ops(workload: str, fg, seed: int, expected: dict, out_dir: Path) -> list[Op]:
    if workload == "check_scale":
        return check_scale_ops(fg, seed, expected)
    if workload == "corpus_experiment":
        return corpus_ops(fg, seed, out_dir)
    if workload == "protected_repair":
        return repair_ops(fg, seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("check_scale", "corpus_experiment", "protected_repair")
# Passes each op's best time is taken over (see run.Phase.sampled): about
# as many as a run of 34 s makes at the time of writing.
SAMPLED_PASSES = {"check_scale": 8, "corpus_experiment": 12, "protected_repair": 12}
