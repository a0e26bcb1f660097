"""Span recording for the traced run, from the benchmark's own files.

``Tracer.install`` rebinds each layer-entry function at every fsmguard
module that holds it (its defining module, the modules that imported it,
and the package namespaces) with a wrapper that records a span and the
layer's counts; ``Tracer.remove`` puts the originals back.  The untraced
run never installs it.

A span is (id, name, start, end, parent id, op index).  Spans opened on a
sweep worker thread take as parent the innermost span open on the main
thread, which is the ``sweep_params`` call that started the worker.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# Layer-entry functions by fsmguard module.  Per-edge helpers such as
# hamming_distance and fif_metric stay unwrapped: a span per edge would
# cost more than the work it measures.
ENTRY_POINTS = {
    "tokens": ("tokenize",),
    "parser": ("parse_source", "parse_module"),
    "lint": ("lint",),
    "emitter": ("emit_verilog",),
    "stg": ("extract_stg", "reachable_states"),
    "rules": ("check_fif_rule", "check_hd_rule", "detect_static_deadlock",
              "detect_trap_loops", "detect_unreachable_states",
              "detect_duplicate_encodings", "check_default_handling",
              "run_checks_on_ast", "run_all_checks"),
    "inject": ("plan_injection",),
    "corpus": ("generate_corpus", "write_corpus", "read_corpus",
               "verify_insertion", "verify_mitigation"),
    "mitigate": ("mitigate", "reencode_states", "apply_encoding_assignment"),
    "report": ("compute_metrics",),
    "llm.pipeline": ("sweep_params", "run_pipeline"),
    "llm.providers": ("chat_complete",),
    "llm.templates": ("render_prompt",),
    "llm.parsing": ("parse_policy_verdicts",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in ENTRY_POINTS.items() for fn in fns)

# Rejected injections and failed transcripts are not counted: on these
# inputs the injector never rejects (gate_kept_ratio reads 1), and a failed
# transcript already fails its op, so both would read 0 on every run.
COUNTS = ("tokens.tokens", "stg.states", "stg.edges", "rules.violations",
          "mitigate.rounds", "llm.transcripts", "llm.provider_attempts")


def _count(c: Counter, name: str, args, kwargs, result, exc) -> None:
    """Add the layer counts one call contributes."""
    if name == "tokens.tokenize" and exc is None:
        c["tokens.tokens"] += len(result.tokens)
    elif name == "stg.extract_stg" and exc is None:
        c["stg.states"] += len(result.states)
        c["stg.edges"] += len(result.transitions)
    elif name == "rules.run_checks_on_ast" and exc is None:
        c["rules.violations"] += len(result.violations)
    elif name == "corpus.generate_corpus" and exc is None:
        c["corpus.kept"] += sum(r.vuln is not None for r in result)
    elif name == "mitigate.mitigate" and exc is None:
        report = kwargs["report"] if "report" in kwargs else args[1]
        c["mitigate.rounds"] += result.rounds
        c["mitigate.fixed"] += len(result.fixed)
        c["mitigate.violated"] += len({v.rule for v in report.violations})
    elif name == "llm.pipeline.run_pipeline" and exc is None:
        c["llm.transcripts"] += 1
        c["llm.first_try"] += not result.failed and all(s.attempts == 1 for s in result.steps)
    elif name == "llm.providers.chat_complete":
        if exc is None:
            c["llm.provider_attempts"] += result.attempts
        elif type(exc).__name__ == "ProviderError":
            retry = kwargs.get("retry", args[3] if len(args) > 3 else None)
            c["llm.provider_attempts"] += retry.max_attempts if retry else 3


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            sid = next(self._ids)
            stack.append(sid)
            exc = result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.op))
                with self._lock:
                    _count(self.counts, name, args, kwargs, result, exc)

        return traced

    def install(self) -> None:
        targets = {}
        for mod, fns in ENTRY_POINTS.items():
            module = sys.modules[f"fsmguard.{mod}"]
            for fn in fns:
                original = getattr(module, fn)
                targets[id(original)] = self._wrap(f"{mod}.{fn}", original)
        for modname, module in list(sys.modules.items()):
            if modname != "fsmguard" and not modname.startswith("fsmguard."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, targets[id(value)])

    def remove(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Self time per span name: each span's duration minus the part of it
    covered by its children (merged, since sweep workers overlap)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[name] += (end - start) - covered
    return out


def layer_metrics(tracer: Tracer, selfs: dict[str, float], passes: int,
                  busy_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced phase, per pass over the op list.

    ``<name>.self_pct`` is the layer's self time as a share of the traced
    ops' wall-clock (a layer that never runs reads 0, not a time);
    ``<name>.calls`` and the counts are per pass, so they repeat exactly
    for a given seed.
    """
    calls = Counter(span[1] for span in tracer.spans)
    c = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / passes, "count")
        metrics[f"{name}.self_pct"] = (100.0 * selfs.get(name, 0.0) / busy_s, "%")
    for name in COUNTS:
        metrics[name] = (c[name] / passes, "count")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics["corpus.gate_kept_ratio"] = (ratio(c["corpus.kept"], calls["inject.plan_injection"]), "ratio")
    metrics["mitigate.fixed_ratio"] = (ratio(c["mitigate.fixed"], c["mitigate.violated"]), "ratio")
    metrics["llm.first_try_ratio"] = (ratio(c["llm.first_try"], c["llm.transcripts"]), "ratio")
    return metrics
