"""Multi-step prompt pipelines: declarative specs, execution, transcripts,
and parameter sweeps."""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..batch import run_jobs
from ..source import SourceText
from .params import GenerationParams
from .parsing import (
    ResponseParseError,
    parse_delimited_code,
    parse_fif_results,
    parse_policy_verdicts,
)
from .providers import ChatProvider, CompletionResult, ProviderError, RetryPolicy, chat_complete
from .templates import (
    CaptureRule,
    DEADLOCK_EXAMPLE,
    PromptTemplate,
    SELF_REVIEW,
    TEMPLATES,
    TemplateError,
    render_prompt,
)


class PipelineError(ValueError):
    pass


class PayloadTooLarge(PipelineError):
    """Raised before sending when a rendered prompt exceeds the character
    budget; callers should provide a module-level region instead.  It
    carries the transcript, failed at the oversized step."""

    def __init__(self, message: str, transcript: Transcript) -> None:
        super().__init__(message)
        self.transcript = transcript


@dataclass(frozen=True)
class PipelineStep:
    name: str
    template: PromptTemplate
    bindings: dict[str, str] = field(default_factory=dict)
    captures: tuple[CaptureRule, ...] = ()
    policy_count: int = 0


@dataclass(frozen=True)
class PipelineSpec:
    name: str
    steps: tuple[PipelineStep, ...]
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    self_scrutiny: bool = False
    char_budget: int = 24000

    def __post_init__(self) -> None:
        known: set[str] = set()
        for step in self.steps:
            for ph in step.template.placeholders():
                if ph.startswith("capture:"):
                    ref = ph.split(":", 1)[1]
                    if ref not in known:
                        raise PipelineError(
                            f"step {step.name} references unknown capture {ref}")
            known.update(f"{step.name}.{c.name}" for c in step.captures)


@dataclass
class StepRecord:
    name: str
    rendered_prompt: str
    raw_response: str
    captures: dict[str, str]
    attempts: int
    elapsed: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "rendered_prompt": self.rendered_prompt,
            "raw_response": self.raw_response,
            "captures": self.captures,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
        }


@dataclass
class Transcript:
    pipeline: str
    design_id: str
    provider_id: str
    steps: list[StepRecord] = field(default_factory=list)
    final: Optional[dict] = None
    failed: bool = False
    failed_step: Optional[str] = None
    failure_reason: str = ""

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "pipeline": self.pipeline,
            "design_id": self.design_id,
            "provider_id": self.provider_id,
            "steps": [s.to_json() for s in self.steps],
            "final": self.final,
            "failed": self.failed,
            "failed_step": self.failed_step,
            "failure_reason": self.failure_reason,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=False)


def _fail(transcript: Transcript, step: str, reason: str) -> Transcript:
    transcript.failed = True
    transcript.failed_step = step
    transcript.failure_reason = reason
    return transcript


def _final_artifact(step: PipelineStep, response: str) -> dict:
    kind = step.template.expected_output
    if kind == "code":
        inner = parse_delimited_code(response).content
        if inner.startswith("<") and inner.endswith(">"):
            inner = inner[1:-1].strip()
        return {"kind": "code", "text": inner}
    if kind == "policy_verdicts":
        verdicts = parse_policy_verdicts(response, step.policy_count)
        return {"kind": "verdicts", "verdicts": [v.to_json() for v in verdicts]}
    if kind == "table":
        results = parse_fif_results(response)
        return {"kind": "fif",
                "results": [{"source": r.source, "target": r.target,
                             "overall": r.overall} for r in results]}
    return {"kind": "text", "text": response}


def run_pipeline(spec: PipelineSpec, design: SourceText, provider: ChatProvider,
                 params: GenerationParams = GenerationParams()) -> Transcript:
    """Execute steps in order, each sent with params; each step's captures
    become bindings for the later ones.  Malformed captures retry the step up
    to the policy limit, then fail the transcript at that step."""
    transcript = Transcript(pipeline=spec.name, design_id=design.origin,
                            provider_id=getattr(provider, "provider_id", "unknown"))
    captured: dict[str, str] = {}
    steps = list(spec.steps)
    if spec.self_scrutiny:
        steps.append(PipelineStep(name="self_review", template=SELF_REVIEW))

    for step in steps:
        bindings = {"design": design.content, **captured}
        bindings.update((f"literal:{key}", value) for key, value in step.bindings.items())
        try:
            prompt = render_prompt(step.template, bindings)
        except TemplateError as exc:
            return _fail(transcript, step.name, str(exc))
        if len(prompt) > spec.char_budget:
            reason = (f"rendered prompt for step {step.name} is {len(prompt)} chars, "
                      f"over the {spec.char_budget} budget; provide a module-level "
                      "region of interest instead of the whole design")
            raise PayloadTooLarge(reason, _fail(transcript, step.name, reason))

        record, ok = _run_step(spec, step, prompt, provider, params)
        transcript.steps.append(record)
        if not ok:
            return _fail(transcript, step.name, record.raw_response or "provider failure")
        for name, value in record.captures.items():
            captured[f"capture:{step.name}.{name}"] = value

    last_step = steps[-1]
    try:
        transcript.final = _final_artifact(last_step, transcript.steps[-1].raw_response)
    except ResponseParseError as exc:
        _fail(transcript, last_step.name, f"final artifact: {exc}")
    return transcript


def _run_step(spec: PipelineSpec, step: PipelineStep, prompt: str,
              provider: ChatProvider, params: GenerationParams) -> tuple[StepRecord, bool]:
    """The step's record, and whether it succeeded.  Its attempts count
    every provider call it made, those of a failed step included."""
    start = time.monotonic()
    messages = [{"role": "user", "content": prompt}]
    attempts_total = 0
    last_reason = ""
    for _ in range(spec.retry.max_attempts):
        try:
            result: CompletionResult = chat_complete(provider, messages, params, spec.retry)
        except ProviderError as exc:
            return StepRecord(step.name, prompt, str(exc), {}, attempts_total + exc.attempts,
                              time.monotonic() - start), False
        attempts_total += result.attempts
        try:
            captures = {rule.name: rule.apply(result.text) for rule in step.captures}
            return StepRecord(step.name, prompt, result.text, captures,
                              attempts_total, time.monotonic() - start), True
        except (TemplateError, ResponseParseError) as exc:
            last_reason = str(exc)
    return StepRecord(step.name, prompt, f"malformed capture: {last_reason}",
                      {}, attempts_total, time.monotonic() - start), False


def sweep_params(spec: PipelineSpec, designs: Sequence[SourceText],
                 grid: Sequence[GenerationParams], provider: Callable[[], ChatProvider],
                 in_flight: int = 4) -> dict[tuple[str, int], Transcript]:
    """Run the pipeline at every grid point for every design; results keyed
    by (design origin, grid index), sorted.  Every step runs with the
    point's params, and each job calls ``provider()`` once for its own
    provider.  A prompt over the character budget fails only its own
    transcript.  At most ``max(1, in_flight)`` provider requests are in
    flight at once, the calling thread counting as one worker.  Any other
    exception a job raises stops the sweep: the one from the lowest-index
    job (designs outer, grid points inner) that raised is re-raised."""
    if not grid:
        raise PipelineError("sweep needs a non-empty parameter grid")

    jobs = [(design, gi) for design in designs for gi in range(len(grid))]

    def task(job: tuple[SourceText, int]) -> tuple[tuple[str, int], Transcript]:
        design, gi = job
        try:
            transcript = run_pipeline(spec, design, provider(), grid[gi])
        except PayloadTooLarge as exc:
            transcript = exc.transcript
        return (design.origin, gi), transcript

    results = dict(run_jobs(task, jobs, in_flight))
    return dict(sorted(results.items()))


# -- built-in pipelines ---------------------------------------------------------

def fif_pipeline(protected: str) -> PipelineSpec:
    """Three chained steps: list unprotected transitions, tabulate their
    bits, compute per-transition FIF."""
    return PipelineSpec(
        name="fif",
        steps=(
            PipelineStep(
                name="transitions",
                template=TEMPLATES["fif_transitions"],
                bindings={"protected": protected},
                captures=(
                    CaptureRule("list", r"^.*state transition \d+:.*$", all_matches=True),
                    CaptureRule("protected", r"^.*protected_state.*$"),
                ),
            ),
            PipelineStep(
                name="bit_table",
                template=TEMPLATES["fif_bit_table"],
                captures=(CaptureRule("table", r"^.*$", all_matches=True),),
            ),
            PipelineStep(
                name="compute",
                template=TEMPLATES["fif_compute"],
                captures=(CaptureRule("fif_table", r"^.*$", all_matches=True),),
            ),
        ),
    )


def deadlock_insertion_pipeline(self_scrutiny: bool = False) -> PipelineSpec:
    return PipelineSpec(
        name="insert_deadlock",
        steps=(PipelineStep(
            name="insert",
            template=TEMPLATES["insert_deadlock"],
            bindings={"example": DEADLOCK_EXAMPLE},
        ),),
        self_scrutiny=self_scrutiny,
    )


def policy_check_pipeline(policies: Sequence[str]) -> PipelineSpec:
    text = "\n".join(f"Policy {i + 1}. {p}" for i, p in enumerate(policies))
    return PipelineSpec(
        name="policy_check",
        steps=(PipelineStep(
            name="check",
            template=TEMPLATES["policy_check"],
            bindings={"policies": text},
            policy_count=len(policies),
        ),),
    )


def blind_review_pipeline() -> PipelineSpec:
    return PipelineSpec(
        name="blind_review",
        steps=(PipelineStep(name="review", template=TEMPLATES["blind_review"]),),
    )


def mitigation_pipeline(protected: str, assessment: str,
                        self_scrutiny: bool = False) -> PipelineSpec:
    return PipelineSpec(
        name="mitigate_rules",
        steps=(PipelineStep(
            name="mitigate",
            template=TEMPLATES["mitigate_rules"],
            bindings={"protected": protected, "assessment": assessment},
        ),),
        self_scrutiny=self_scrutiny,
    )


PIPELINES: dict[str, Callable[..., PipelineSpec]] = {
    "fif": fif_pipeline,
    "insert-deadlock": deadlock_insertion_pipeline,
    "policy-check": policy_check_pipeline,
    "blind-review": blind_review_pipeline,
    "mitigate-rules": mitigation_pipeline,
}
