"""Identifier sanitization for blind testing.

Identifiers containing a flagged keyword (case-insensitive substring) are
replaced by neutral names; comment words containing a keyword are removed
outright.  The rename map comes back so results can be de-anonymized.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace

from .ast_nodes import FsmAst

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


def sanitize_identifiers(ast: FsmAst, keywords: tuple[str, ...] = DEFAULT_KEYWORDS,
                         seed: int = 0) -> SanitizeResult:
    """Rename matching identifiers to neutral names and scrub comments.

    Naming walks declarations in order with one shared counter (module name
    first: u0, then sig1/st2/...), one neutral name per distinct identifier;
    the seed only drives collision-escape suffixes, keeping output
    deterministic for equal inputs.
    """
    if not keywords:
        raise ValueError("keyword list must be non-empty")
    if not all(k.strip() for k in keywords):
        raise ValueError("keywords must not be empty or blank")
    keywords = tuple(k.lower() for k in keywords)
    rng = random.Random(seed)
    taken = ast.names
    rename: dict[str, str] = {}
    declared = ([("u", ast.module_name)] + [("sig", p.name) for p in ast.ports]
                + [("sig", ast.state_cur), ("sig", ast.state_next)]
                + [("st", n) for n in ast.param_names])
    for prefix, name in declared:
        if name in rename or not _matches(name, keywords):
            continue
        fresh = f"{prefix}{len(rename)}"
        while fresh in taken:
            fresh = f"{fresh}_{rng.randrange(10)}"
        taken.add(fresh)
        rename[name] = fresh

    scrubbed = (_scrub_comment(c, keywords, rename) for c in ast.comments)
    comments = tuple(c for c in scrubbed if c.strip("/* \t"))
    return SanitizeResult(ast=replace(ast.renamed(rename), comments=comments),
                          rename_map=rename)
