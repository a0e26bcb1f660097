"""Structured extraction from raw LLM responses."""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..source import SourceText


class ResponseParseError(ValueError):
    pass


_CODE_OPEN = "[code:"


def parse_delimited_code(response: str) -> SourceText:
    """Innermost content between the first ``[code:`` and its matching ``]``,
    whitespace-trimmed.  Bare brackets nest, so bracketed payload content
    like bit ranges cannot end the block early, and nested ``[code:``
    blocks resolve innermost-first."""
    start = response.find(_CODE_OPEN)
    if start == -1:
        raise ResponseParseError(f"marker {_CODE_OPEN!r} absent from response")
    depth = 1
    pos = start + len(_CODE_OPEN)
    while depth:
        next_open = response.find("[", pos)
        next_close = response.find("]", pos)
        if next_close == -1:
            raise ResponseParseError(f"unbalanced markers {_CODE_OPEN!r}...']'")
        if next_open != -1 and next_open < next_close:
            depth += 1
            pos = next_open + 1
        else:
            depth -= 1
            pos = next_close + 1
    content = response[start + len(_CODE_OPEN):pos - 1]
    if _CODE_OPEN in content:  # its brackets balance inside content
        return parse_delimited_code(content)
    stripped = content.strip()
    if not stripped:
        raise ResponseParseError("empty payload between markers")
    return SourceText(stripped, origin="<llm-response>")


@dataclass(frozen=True)
class PolicyVerdict:
    policy: int
    violated: bool
    explanation: str
    line: Optional[int] = None

    def to_json(self) -> dict:
        return {"policy": self.policy, "violated": self.violated,
                "explanation": self.explanation, "line": self.line}


_POLICY_RE = re.compile(
    r"^Policy\s+(\d+)\s*:\s*(not\s+violated|violated)\b[,.]?\s*(.*)$",
    re.IGNORECASE | re.MULTILINE,
)
_LINE_NO_RE = re.compile(r"line\s*no[.:]?\s*:?\s*(\d+)", re.IGNORECASE)
_EXPLANATION_RE = re.compile(r"explanation\s*:\s*(.*)", re.IGNORECASE | re.DOTALL)


def parse_policy_verdicts(response: str, policy_count: int) -> list[PolicyVerdict]:
    """One verdict per policy in the mandated 'Policy #: violated or not'
    format; the first number of a 'line no' range is kept."""
    verdicts = []
    for m in _POLICY_RE.finditer(response):
        policy = int(m.group(1))
        violated = m.group(2).lower() == "violated"
        rest = m.group(3).strip()
        explanation = rest
        exp_match = _EXPLANATION_RE.search(rest)
        if exp_match:
            explanation = exp_match.group(1).strip()
        line = None
        if violated:
            line_match = _LINE_NO_RE.search(response, m.start(), m.end() + 400)
            line = int(line_match.group(1)) if line_match else None
        verdicts.append(PolicyVerdict(policy, violated, explanation, line))
    if len(verdicts) != policy_count:
        raise ResponseParseError(
            f"expected {policy_count} policy verdict(s), parsed {len(verdicts)}")
    return verdicts


_TRANSITION_RE = re.compile(
    r"state transition\s+(\d+)\s*:\s*(\w+)\s*\((\w+)\)\s*(?:->|→)\s*(\w+)\s*\((\w+)\)",
    re.IGNORECASE,
)


_OVERALL_RE = re.compile(r"Overall\s+FIF\s*=.*?=\s*([01])\s*$",
                         re.IGNORECASE | re.MULTILINE)


@dataclass(frozen=True)
class FifCapture:
    source: str
    target: str
    overall: int


def parse_fif_results(text: str) -> list[FifCapture]:
    """Per-transition overall FIF values from a tabular metric response."""
    headers = list(_TRANSITION_RE.finditer(text))
    if not headers:
        raise ResponseParseError("no per-transition FIF blocks found")
    results = []
    for i, head in enumerate(headers):
        block_end = headers[i + 1].start() if i + 1 < len(headers) else len(text)
        block = text[head.start():block_end]
        overall = _OVERALL_RE.search(block)
        if not overall:
            raise ResponseParseError(
                f"transition {head.group(2)} -> {head.group(4)}: no overall FIF value")
        results.append(FifCapture(head.group(2), head.group(4), int(overall.group(1))))
    return results
