"""Labeled corpus generation and oracle-based fidelity checking.

Corpus files are JSONL: one record per line, design text embedded as an
escaped string, every object schema-versioned.  Record seeds derive from the
master seed and record index, so generation order (and worker count) never
changes the output.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .batch import run_jobs
from .inject import RULE_FOR_CLASS, InjectError, InjectionPlan, VulnClass, plan_injection
from .rules import CheckReport, Rule, RuleConfig, RuleViolation, run_all_checks
from .source import SourceText, Span
from .stg import stg_isomorphic_modulo_encoding

SCHEMA_VERSION = 1
T = TypeVar("T")


class CorpusError(ValueError):
    pass


def derive_seed(master_seed: int, index: int, tag: str = "") -> int:
    digest = hashlib.sha256(f"{master_seed}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class CorpusRecord:
    id: str
    base_id: str
    source: str
    vuln: Optional[VulnClass]
    plan: Optional[InjectionPlan]
    protected: tuple[str, ...]
    seed: int
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        clean = self.vuln is None
        if clean != (self.plan is None) or clean != (not self.labels):
            raise CorpusError("vuln, plan, and labels must be all set or all empty")

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "id": self.id,
            "base_id": self.base_id,
            "source": self.source,
            "vuln": self.vuln.value if self.vuln else None,
            "plan": self.plan.to_json() if self.plan else None,
            "protected": sorted(self.protected),
            "seed": self.seed,
            "labels": list(self.labels),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CorpusRecord":
        plan = None
        if data.get("plan"):
            p = data["plan"]
            plan = InjectionPlan(
                vuln=VulnClass(p["vuln"]),
                seed=p["seed"],
                target_state=p["target_state"],
                added_states=tuple(p["added_states"]),
                modified_spans=tuple(Span(a, b) for a, b in p["modified_spans"]),
                notes=p.get("notes", ""),
            )
        return cls(
            id=data["id"],
            base_id=data["base_id"],
            source=data["source"],
            vuln=VulnClass(data["vuln"]) if data.get("vuln") else None,
            plan=plan,
            protected=tuple(data.get("protected", ())),
            seed=data["seed"],
            labels=tuple(data.get("labels", ())),
        )


@dataclass(frozen=True)
class FidelityVerdict:
    """Oracle judgment of one produced design against its intent."""

    syntax_ok: bool
    intended_present: bool
    unintended: tuple[RuleViolation, ...]
    interface_ok: bool
    stg_ok: Optional[bool] = None
    notes: str = ""

    @property
    def overall(self) -> bool:
        return (self.syntax_ok and self.intended_present
                and not self.unintended and self.interface_ok)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "syntax_ok": self.syntax_ok,
            "intended_present": self.intended_present,
            "unintended": [v.to_json() for v in self.unintended],
            "interface_ok": self.interface_ok,
            "stg_ok": self.stg_ok,
            "overall": self.overall,
            "notes": self.notes,
        }


def verify_insertion(original: SourceText, modified: SourceText,
                     intended: VulnClass,
                     protected: frozenset[str] = frozenset(),
                     config: RuleConfig = RuleConfig()) -> FidelityVerdict:
    """Does the modified design contain exactly the intended defect?

    syntax via the frontend; the intended class via its matching rule;
    unintended findings are violations of other rules absent from the
    original; the interface must be byte-compatible (ports, module name,
    clock and reset).
    """
    orig_report = run_all_checks(original, protected, config)
    orig_report.expect_ast()
    return _insertion_verdict(orig_report, modified, intended, protected)


def _insertion_verdict(orig_report: CheckReport, modified: SourceText,
                       intended: VulnClass, protected: frozenset[str]) -> FidelityVerdict:
    """``verify_insertion`` against the report of an original that parsed."""
    mod_report = run_all_checks(modified, protected, orig_report.config)
    if mod_report.ast is None:
        return FidelityVerdict(False, False, (), False,
                               notes="modified design does not parse")
    target_rule = RULE_FOR_CLASS[intended]
    intended_present = target_rule in mod_report.violated_rules
    pre_existing = orig_report.violated_rules
    unintended = tuple(v for v in mod_report.violations
                       if v.rule != target_rule and v.rule not in pre_existing)
    return FidelityVerdict(
        syntax_ok=True,
        intended_present=intended_present,
        unintended=unintended,
        interface_ok=orig_report.ast.interface_key() == mod_report.ast.interface_key(),
    )


def _carried_or_fresh(rep: Optional[CheckReport], src: SourceText,
                      protected: frozenset[str], config: RuleConfig) -> CheckReport:
    """rep when a fresh check of src would equal it (same source, config and
    merged protected set), else that fresh check."""
    if (rep is not None and rep.ast is not None and rep.source == src
            and rep.config == config
            and set(rep.protected) == set(protected) | rep.ast.protected_annotations):
        return rep
    return run_all_checks(src, protected, config)


def verify_mitigation(original: SourceText, mitigated: SourceText,
                      target_rules: Iterable[Rule],
                      protected: frozenset[str] = frozenset(),
                      config: RuleConfig = RuleConfig()) -> FidelityVerdict:
    """Did mitigation clear every target rule without collateral damage?

    stg_ok reports whether the transition structure survived (it is
    meaningful for encoding-only fixes; default arms are outside the
    comparison).  The two checks are ``mitigated.derived_from`` and
    ``mitigated.checked`` where a fresh one would equal them.
    """
    orig_report = _carried_or_fresh(mitigated.derived_from, original, protected, config)
    orig_ast = orig_report.expect_ast()
    targets = set(target_rules)
    missing = targets - orig_report.violated_rules
    if missing:
        raise CorpusError(
            "target rules not violated by the original: "
            + ", ".join(r.value for r in sorted(missing, key=lambda r: r.value)))
    mit_report = _carried_or_fresh(mitigated.checked, mitigated, protected, config)
    if mit_report.ast is None:
        return FidelityVerdict(False, False, (), False,
                               notes="mitigated design does not parse")
    cleared = not (targets & mit_report.violated_rules)
    new_rules = mit_report.violated_rules - orig_report.violated_rules
    unintended = tuple(v for v in mit_report.violations if v.rule in new_rules)
    # A report with no STG (E_STG) gives False.
    stg_ok = (orig_report.stg is not None and mit_report.stg is not None
              and stg_isomorphic_modulo_encoding(orig_report.stg, mit_report.stg))
    return FidelityVerdict(
        syntax_ok=True,
        intended_present=cleared,
        unintended=unintended,
        interface_ok=orig_ast.interface_key() == mit_report.ast.interface_key(),
        stg_ok=stg_ok,
    )


# -- generation ----------------------------------------------------------------

def _make_record(vuln: VulnClass, index: int, bases: Sequence[CheckReport], master_seed: int,
                 protected: frozenset[str]) -> CorpusRecord:
    seed = derive_seed(master_seed, index, vuln.value)
    errors = []
    for offset in range(len(bases)):
        base = bases[(index + offset) % len(bases)]
        try:
            _, plan = plan_injection(vuln, base.ast, seed, protected)
        except InjectError as exc:
            errors.append(f"{base.design_id}: {exc}")
            continue
        verdict = _insertion_verdict(base, plan.text, vuln, protected)
        if not verdict.overall:
            errors.append(f"{base.design_id}: fidelity gate failed")
            continue
        # The base is clean, so a passing verdict means the intended rule is
        # the only one the injected design violates.
        return CorpusRecord(
            id=f"{vuln.value.lower()}-{index:05d}",
            base_id=base.design_id,
            source=plan.text.content,
            vuln=vuln,
            plan=plan,
            protected=tuple(sorted(protected)),
            seed=seed,
            labels=(RULE_FOR_CLASS[vuln].value,),
        )
    raise CorpusError(
        f"mix unsatisfiable for class {vuln.value}: " + "; ".join(errors))


def generate_corpus(bases: Sequence[SourceText], mix: dict[VulnClass, int],
                    master_seed: int, protected: frozenset[str] = frozenset(),
                    clean_ratio: float = 1.0,
                    config: RuleConfig = RuleConfig(),
                    workers: int = 1) -> list[CorpusRecord]:
    """Deterministic labeled corpus: seeded injections gated by the fidelity
    oracle, interleaved with clean records at the configured ratio.  At most
    ``max(1, workers)`` injections run at once, the calling thread counting
    as one worker; the corpus does not depend on ``workers``.  A job that
    raises, such as a ``CorpusError`` for a class no base can take, stops the
    run: the exception of the lowest-index job (classes by name, then index)
    that raised is re-raised."""
    if not (math.isfinite(clean_ratio) and clean_ratio >= 0):
        raise CorpusError(f"clean ratio {clean_ratio} is not a finite number >= 0")
    if not bases:
        raise CorpusError("no base designs")
    reports: list[CheckReport] = []
    for src in bases:
        base = run_all_checks(src, protected, config)
        base.expect_ast()
        if not base.parse_ok:  # the parse held, so the STG could not be extracted
            raise CorpusError(f"base design {src.origin} has no STG: "
                              + "; ".join(str(d) for d in base.errors))
        if base.violations:
            raise CorpusError(
                f"base design {src.origin} is not clean: "
                + ", ".join(v.rule.value for v in base.violations))
        reports.append(base)

    jobs = [(vuln, i) for vuln in sorted(mix, key=lambda v: v.value)
            for i in range(mix[vuln])]

    def work(job: tuple[VulnClass, int]) -> CorpusRecord:
        vuln, i = job
        return _make_record(vuln, i, reports, master_seed, protected)

    buggy = run_jobs(work, jobs, workers)

    records: list[CorpusRecord] = []
    clean_due = 0.0
    clean_index = 0
    for record in buggy:
        records.append(record)
        clean_due += clean_ratio
        while clean_due >= 1.0:
            base_src = reports[clean_index % len(reports)].source
            records.append(CorpusRecord(
                id=f"clean-{clean_index:05d}",
                base_id=base_src.origin,
                source=base_src.content,
                vuln=None,
                plan=None,
                protected=tuple(sorted(protected)),
                seed=derive_seed(master_seed, clean_index, "clean"),
                labels=(),
            ))
            clean_index += 1
            clean_due -= 1.0
    return records


def write_corpus(records: Iterable[CorpusRecord], path: str | Path) -> None:
    """Atomic JSONL write (temp file, then rename)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json(), sort_keys=False) + "\n")
    tmp.replace(path)


def read_jsonl(path: str | Path, build: Callable[[dict], T]) -> list[T]:
    """build of each record of a JSON-lines file; a record that lacks a field
    or holds a value of the wrong type is a CorpusError naming its line."""
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                out.append(build(json.loads(line)))
            except KeyError as exc:
                raise CorpusError(f"{path} line {n}: missing field {exc}") from None
            except (AttributeError, TypeError) as exc:
                raise CorpusError(f"{path} line {n}: malformed record: {exc}") from None
    return out


def read_corpus(path: str | Path) -> list[CorpusRecord]:
    return read_jsonl(path, CorpusRecord.from_json)
