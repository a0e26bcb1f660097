"""Identifier sanitization for blind testing.

Identifiers containing a flagged keyword (case-insensitive substring) are
replaced by neutral names; comment words containing a keyword are removed
outright.  The rename map comes back so results can be de-anonymized.
"""
from __future__ import annotations

import copy
import random
import re
from dataclasses import dataclass

from .ast_nodes import Assign, FsmAst, Stmt
from .parser import rename_identifiers

DEFAULT_KEYWORDS = ("trojan", "trigger", "malicious", "backdoor")

_WORD_RE = re.compile(r"[A-Za-z0-9_$]+")  # a comment word


@dataclass(frozen=True)
class SanitizeResult:
    ast: FsmAst
    rename_map: dict[str, str]

    def to_json(self) -> dict:
        return {"schema_version": 1, "rename_map": self.rename_map}


def _matches(name: str, keywords: tuple[str, ...]) -> bool:
    low = name.lower()
    return any(k in low for k in keywords)


def _scrub_comment(text: str, keywords: tuple[str, ...],
                   rename: dict[str, str]) -> str:
    def sub_word(m: re.Match) -> str:
        word = m.group(0)
        if word in rename:
            return rename[word]
        if _matches(word, keywords):
            return ""
        return word

    scrubbed = _WORD_RE.sub(sub_word, text)
    return re.sub(r"[ \t]{2,}", " ", scrubbed).rstrip()


def _rewrite_stmts(stmts: list[Stmt], rename: dict[str, str]) -> None:
    for stmt in stmts:
        if isinstance(stmt, Assign):
            stmt.lhs = rename.get(stmt.lhs, stmt.lhs)
            stmt.rhs = rename_identifiers(stmt.rhs, rename)
        else:
            for br in stmt.branches:
                if br.guard is not None:
                    br.guard = rename_identifiers(br.guard, rename)
                _rewrite_stmts(br.body, rename)


def sanitize_identifiers(ast: FsmAst, keywords: tuple[str, ...] = DEFAULT_KEYWORDS,
                         seed: int = 0) -> SanitizeResult:
    """Rename matching identifiers to neutral names and scrub comments.

    Naming walks declarations in order with one shared counter (module name
    first: u0, then sig1/st2/...); the seed only drives collision-escape
    suffixes, keeping output deterministic for equal inputs.
    """
    if not keywords:
        raise ValueError("keyword list must be non-empty")
    keywords = tuple(k.lower() for k in keywords)
    out = copy.deepcopy(ast)
    rng = random.Random(seed)
    taken = {p.name for p in out.ports} | set(out.param_names)
    taken |= {out.module_name, out.state_cur, out.state_next}
    rename: dict[str, str] = {}
    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        name = f"{prefix}{counter}"
        counter += 1
        while name in taken:
            name = f"{name}_{rng.randrange(10)}"
        taken.add(name)
        return name

    if _matches(out.module_name, keywords):
        rename[out.module_name] = fresh("u")
        out.module_name = rename[out.module_name]
    for port in out.ports:
        if _matches(port.name, keywords):
            rename[port.name] = fresh("sig")
            port.name = rename[port.name]
    for reg in (out.state_cur, out.state_next):
        if _matches(reg, keywords):
            rename[reg] = fresh("sig")
    out.state_cur = rename.get(out.state_cur, out.state_cur)
    out.state_next = rename.get(out.state_next, out.state_next)
    for param in out.parameters:
        if _matches(param.name, keywords):
            rename[param.name] = fresh("st")
            param.name = rename[param.name]

    seq = out.seq
    seq.clock = rename.get(seq.clock, seq.clock)
    seq.reset = rename.get(seq.reset, seq.reset)
    seq.reset_cond = rename_identifiers(seq.reset_cond, rename)
    seq.reset_target = rename.get(seq.reset_target, seq.reset_target)

    comb = out.comb
    comb.subject = rename.get(comb.subject, comb.subject)
    comb.sens_list = tuple(rename.get(s, s) for s in comb.sens_list)
    for a in comb.leading:
        a.lhs = rename.get(a.lhs, a.lhs)
        a.rhs = rename_identifiers(a.rhs, rename)
    arms = list(comb.arms) + ([comb.default_arm] if comb.default_arm else [])
    for arm in arms:
        if arm.label is not None:
            arm.label = rename.get(arm.label, arm.label)
        _rewrite_stmts(arm.body, rename)

    out.protected_annotations = frozenset(
        rename.get(n, n) for n in out.protected_annotations)
    scrubbed = (_scrub_comment(c, keywords, rename) for c in out.comments)
    out.comments = tuple(c for c in scrubbed if c.strip("/* \t"))
    return SanitizeResult(ast=out, rename_map=rename)


def contains_keywords(text: str, keywords: tuple[str, ...] = DEFAULT_KEYWORDS) -> bool:
    low = text.lower()
    return any(k in low for k in keywords)
