"""Prompt templates, placeholder rendering, and capture rules.

Placeholders:
  {{design}}            the design payload, wrapped in <>
  {{capture:step.name}} a named capture from an earlier pipeline step
  {{literal:key}}       a caller-provided binding

A capture takes the lines of a response that match a line-anchored pattern.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

_PLACEHOLDER_RE = re.compile(r"\{\{(design|capture:[\w.]+|literal:[\w]+)\}\}")


class TemplateError(ValueError):
    pass


@dataclass(frozen=True)
class CaptureRule:
    """Named extraction from a raw response."""

    name: str
    pattern: str
    all_matches: bool = False       # join every matching line

    def apply(self, response: str) -> str:
        rx = re.compile(self.pattern, re.MULTILINE)
        if self.all_matches:
            lines = [m.group(0) for m in rx.finditer(response)]
            if not lines:
                raise TemplateError(f"capture {self.name}: no line matches {self.pattern!r}")
            return "\n".join(lines)
        m = rx.search(response)
        if not m:
            raise TemplateError(f"capture {self.name}: no match for {self.pattern!r}")
        return m.group(1) if m.groups() else m.group(0)


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str
    expected_output: str = "free_text"   # code | table | policy_verdicts | free_text

    def placeholders(self) -> list[str]:
        return [m.group(1) for m in _PLACEHOLDER_RE.finditer(self.body)]


def render_prompt(template: PromptTemplate, bindings: dict[str, str]) -> str:
    """Substitute every placeholder; the design payload gets wrapped in <>.
    Unbound placeholders raise, naming the hole."""
    def sub(m: re.Match) -> str:
        key = m.group(1)
        if key not in bindings:
            raise TemplateError(f"unbound placeholder: {key}")
        return f"<{bindings[key]}>" if key == "design" else bindings[key]

    return _PLACEHOLDER_RE.sub(sub, template.body)


# -- the shipped template library ---------------------------------------------
#
# Feature map (each exercised by a unit test):
#   self_scrutiny         review-and-correct closing step on any pipeline
#   example_slot          one-shot worked example slot in insertion prompts
#   policy_context_slot   policy/context slot in detection prompts
#   region_binding_budget design slot takes one module; oversize payloads are
#                         rejected with a "provide a module-level region" error
#   step_chaining         capture references binding one step into the next
#   tabular_output        tabular format mandate in the metric prompts

GUIDELINE_FEATURES = {
    "self_scrutiny": "closing review question appended when a pipeline sets self_scrutiny",
    "example_slot": "{{literal:example}} one-shot slot in insertion templates",
    "policy_context_slot": "{{literal:policies}} context slot in detection templates",
    "region_binding_budget": "module-level {{design}} binding with a character budget gate",
    "step_chaining": "{{capture:step.name}} references chain multi-step pipelines",
    "tabular_output": "metric templates mandate tabular responses",
}

SELF_SCRUTINY_QUESTION = (
    "Is there any issue regarding syntax, coding style, and synthesis? "
    "If yes, correct the problems."
)

DEADLOCK_INSERTION = PromptTemplate(
    name="insert_deadlock",
    body=(
        "Your task is to perform the following actions.\n"
        "Read the Verilog module delimited by <>.\n"
        "Code: {{design}}\n"
        "Modify the module so that its case statement gains a static deadlock "
        "state.  A static deadlock is a state the machine can enter from "
        "another state but can never leave.\n"
        "Proceed in three steps:\n"
        "Step 1: Pick one state from the parameter list.\n"
        "Step 2: In the combinational block, change one of that state's "
        "transitions so it targets a new state named deadlock_state.\n"
        "Step 3: Add a deadlock_state arm to the case statement whose only "
        "transition is a self loop.\n"
        "\n"
        "{{literal:example}}\n"
        "\n"
        "Implement the deadlock in the provided code.  Keep the deadlock arm "
        "inside the case statement and do not modify the sequential block.\n"
        "Follow these conventions in the output:\n"
        "1) no semicolon after the end keyword\n"
        "2) begin/end around multiple statements\n"
        "3) parameter, not localparam\n"
        "4) a semicolon after every declaration and statement\n"
        "5) keep the module name, ports, clock, and reset names exactly as "
        "in the input\n"
        "\n"
        "Respond only in the following format delimited by []:\n"
        "Explanation: where and how Steps 1, 2, and 3 were applied, with "
        "line numbers.\n"
        "Review 1: confirm Step 2 landed in the case statement; if not, "
        "rewrite the case statement.\n"
        "Review 2: " + SELF_SCRUTINY_QUESTION + "\n"
        "[code: <modified code>]"
    ),
    expected_output="code",
)

DEADLOCK_EXAMPLE = (
    "For example, before the change:\n"
    "parameter A = 2'b00, B = 2'b01, C = 2'b10;\n"
    "case (state)\n"
    "  A: next = B;\n"
    "  B: next = C;\n"
    "  C: next = A;\n"
    "endcase\n"
    "After the change:\n"
    "case (state)\n"
    "  A: begin\n"
    "    if (go) next = B;\n"
    "    else next = deadlock_state;\n"
    "  end\n"
    "  B: next = C;\n"
    "  C: next = A;\n"
    "  deadlock_state: next = deadlock_state;\n"
    "endcase\n"
    "Once A hands control to deadlock_state, the machine never gets out."
)

BLIND_REVIEW = PromptTemplate(
    name="blind_review",
    body=(
        "{{design}}\n\n"
        "Does this module have any security issues? Describe where and why."
    ),
    expected_output="free_text",
)

POLICY_CHECK = PromptTemplate(
    name="policy_check",
    body=(
        "{{design}}\n\n"
        "{{literal:policies}}\n\n"
        "Check if any of these policies are violated in the module. "
        "If violated, why and where? Give a response in the following pattern:\n"
        "Policy #: violated or not, explanation: if violated, why and where?, "
        "line no: violated line"
    ),
    expected_output="policy_verdicts",
)

FIF_TRANSITIONS = PromptTemplate(
    name="fif_transitions",
    body=(
        "Your task is to perform the following actions.\n"
        "First, read the Verilog module delimited by <>.\n"
        "Code: {{design}}\n"
        "Next, treat the {{literal:protected}} state as protected and every "
        "other state as unprotected.\n"
        "Next, list every state transition the design makes, covering the "
        "if, else if, and else conditions.\n"
        "Then remove each transition that touches the protected state.\n"
        "Respond only with the remaining transition list in this format:\n"
        "state transition 1: state_name (encoding) -> state_name (encoding)\n"
        "protected_state: name (encoding)"
    ),
    expected_output="free_text",
)

FIF_BIT_TABLE = PromptTemplate(
    name="fif_bit_table",
    body=(
        "Your task is to perform the following actions.\n"
        "1. The fault-injection feasibility (FIF) metric is defined as\n"
        "FIF = product over i = 0..n-1 of [(bx_i XOR by_i) OR (bx_i AND bp_i)]\n"
        "where bx_i, by_i, bp_i are the bits of the present, next, and "
        "protected state at position i, n is the state register width, and "
        "index 0 is the MSB.\n"
        "2. For example, for A (11001) -> B (01011) with protected (01100):\n"
        "bx = 11001, by = 01011, bp = 01100\n"
        "i     | 0 (MSB) | 1 | 2 | 3 | 4\n"
        "bx_i  | 1 | 1 | 0 | 0 | 1\n"
        "by_i  | 0 | 1 | 0 | 1 | 1\n"
        "bp_i  | 0 | 1 | 1 | 0 | 0\n"
        "3. Now read the transition list delimited by <>.\n"
        "State transitions: <{{capture:transitions.list}}>\n"
        "Protected: {{capture:transitions.protected}}\n"
        "For each transition, identify bx_i, by_i, and bp_i for every i, and "
        "put the information in tabular format exactly as in the example.  "
        "Review the table and make sure bx, by, and bp appear in that order."
    ),
    expected_output="table",
)

FIF_COMPUTE = PromptTemplate(
    name="fif_compute",
    body=(
        "Your task is to perform the following actions.\n"
        "1. The fault-injection feasibility (FIF) metric is defined as\n"
        "FIF = product over i = 0..n-1 of [(bx_i XOR by_i) OR (bx_i AND bp_i)]\n"
        "2. Steps per transition:\n"
        "Step 1: for i = 0 compute FIF_i = (bx_i XOR by_i) OR (bx_i AND bp_i).\n"
        "Step 2: repeat for every i up to n-1.\n"
        "Step 3: the overall FIF is the product of all FIF_i values.\n"
        "Worked example with bx = 010, by = 011, bp = 000:\n"
        "i = 0: (0 XOR 0) OR (0 AND 0) = 0\n"
        "i = 1: (1 XOR 1) OR (1 AND 0) = 0\n"
        "i = 2: (0 XOR 1) OR (0 AND 0) = 1\n"
        "Overall FIF = 0 x 0 x 1 = 0\n"
        "3. Now read the bit tables delimited by <>.\n"
        "Input information: <{{capture:bit_table.table}}>\n"
        "For each transition follow Steps 1 to 3 and answer only in this "
        "tabular format:\n"
        "State transition N: from (encoding) -> to (encoding), protected (encoding)\n"
        "i | 0 | 1 | ... | n-1\n"
        "bx_i | ...\n"
        "by_i | ...\n"
        "bp_i | ...\n"
        "bx_i XOR by_i | ...\n"
        "bx_i AND bp_i | ...\n"
        "FIF_i | ...\n"
        "Overall FIF = FIF_0 x FIF_1 x ... x FIF_(n-1) = ... = value"
    ),
    expected_output="table",
)

MITIGATE_RULES = PromptTemplate(
    name="mitigate_rules",
    body=(
        "{{design}}\n\n"
        "Assume {{literal:protected}} is the protected state and the other "
        "states are unprotected.\n\n"
        "There are two security rules:\n"
        "1. Every unused state of a control FSM must be handled through the "
        "default statement in the RTL description.\n"
        "2. When a transition happens between two consecutive unprotected "
        "states, the Hamming distance between their encodings must be 1.\n\n"
        "Security assessment:\n"
        "{{literal:assessment}}\n\n"
        "Modify the design so both rules hold while the state transition "
        "graph stays the same.  After modifying, re-check the design against "
        "both rules and keep modifying until both are followed.\n"
        "Respond only in the format [code: <modified code>]."
    ),
    expected_output="code",
)

SELF_REVIEW = PromptTemplate(
    name="self_review",
    body=SELF_SCRUTINY_QUESTION + "\nRespond only in the format [code: <corrected code>].",
    expected_output="code",
)

TEMPLATES: dict[str, PromptTemplate] = {
    t.name: t for t in (
        DEADLOCK_INSERTION, BLIND_REVIEW, POLICY_CHECK,
        FIF_TRANSITIONS, FIF_BIT_TABLE, FIF_COMPUTE,
        MITIGATE_RULES, SELF_REVIEW,
    )
}
