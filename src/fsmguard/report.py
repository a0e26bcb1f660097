"""Experiment aggregation: per-class success tables and temperature sweeps.

Rates are percentages rounded half-up to two decimals.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from typing import Iterable, Optional

from .jsontext import dumps_indented

SCHEMA_VERSION = 1

TASKS = ("insertion", "detection", "mitigation")


class ReportError(ValueError):
    pass


def percent(successes: int, inputs: int) -> float:
    """100 * successes / inputs, rounded half-up to 2 decimals."""
    if inputs <= 0:
        raise ReportError("empty experiment")
    value = Decimal(100 * successes) / Decimal(inputs)
    return float(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class OutcomeRecord:
    """One scored item: a class label, whether it succeeded, and optionally
    the temperature it ran at."""

    task: str
    label: str
    success: bool
    temperature: Optional[float] = None

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ReportError(f"unknown task {self.task!r}")


@dataclass(frozen=True)
class ClassRow:
    label: str
    inputs: int
    successes: int
    rate: float

    def to_json(self) -> dict:
        return {"label": self.label, "inputs": self.inputs,
                "successes": self.successes, "rate": self.rate}


@dataclass(frozen=True)
class SweepPoint:
    temperature: float
    inputs: int
    successes: int
    rate: float

    def to_json(self) -> dict:
        return {"temperature": self.temperature, "inputs": self.inputs,
                "successes": self.successes, "rate": self.rate}


@dataclass(frozen=True)
class Provenance:
    config_hash: str = ""
    seeds: tuple[int, ...] = ()
    provider: str = "static-oracle"

    def to_json(self) -> dict:
        return {"config_hash": self.config_hash, "seeds": list(self.seeds),
                "provider": self.provider}


@dataclass(frozen=True)
class ExperimentReport:
    task: str
    rows: tuple[ClassRow, ...]
    sweep: Optional[tuple[SweepPoint, ...]] = None
    provenance: Provenance = field(default_factory=Provenance)

    def row(self, label: str) -> ClassRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "task": self.task,
            "rows": [r.to_json() for r in self.rows],
            "sweep": [p.to_json() for p in self.sweep] if self.sweep else None,
            "provenance": self.provenance.to_json(),
        }

    def to_json_text(self) -> str:
        return dumps_indented(self.to_json()) + "\n"


def config_hash(config_json: dict) -> str:
    return hashlib.sha256(
        json.dumps(config_json, sort_keys=True).encode()).hexdigest()[:16]


def compute_metrics(records: Iterable[OutcomeRecord],
                    provenance: Provenance = Provenance()) -> ExperimentReport:
    """Aggregate homogeneous-task outcomes per class, plus a per-temperature
    series when temperatures are present."""
    records = list(records)
    if not records:
        raise ReportError("empty experiment")
    tasks = {r.task for r in records}
    if len(tasks) != 1:
        raise ReportError(f"mixed tasks in one experiment: {sorted(tasks)}")
    task = tasks.pop()

    by_label: dict[str, list[OutcomeRecord]] = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r)
    rows = tuple(
        ClassRow(label=label, inputs=len(group),
                 successes=sum(r.success for r in group),
                 rate=percent(sum(r.success for r in group), len(group)))
        for label, group in sorted(by_label.items())
    )

    sweep = None
    tempered = [r for r in records if r.temperature is not None]
    if tempered:
        by_temp: dict[float, list[OutcomeRecord]] = {}
        for r in tempered:
            by_temp.setdefault(round(r.temperature, 10), []).append(r)
        sweep = tuple(
            SweepPoint(temperature=t, inputs=len(group),
                       successes=sum(r.success for r in group),
                       rate=percent(sum(r.success for r in group), len(group)))
            for t, group in sorted(by_temp.items())
        )

    return ExperimentReport(task=task, rows=rows, sweep=sweep, provenance=provenance)
