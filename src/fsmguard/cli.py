"""Command-line entry point.

Exit codes: 0 success, 1 violations found (check), 2 usage or I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from .corpus import generate_corpus, read_corpus, read_jsonl, write_corpus
from .inject import VulnClass, plan_injection
from .jsontext import dumps_indented
from .emitter import emit_verilog
from .llm.params import GenerationParams, temperature_grid
from .llm.pipeline import PIPELINES, PipelineSpec, Transcript, sweep_params
from .llm.providers import HttpProvider, MockProvider, ProviderConfig, load_mock_script
from .mitigate import mitigate
from .parser import ParseFailure, parse_source
from .report import OutcomeRecord, Provenance, compute_metrics, config_hash
from .rules import Rule, RuleConfig, run_all_checks
from .sanitize import DEFAULT_KEYWORDS, sanitize_identifiers
from .source import SourceText
from .stg import dump_stg

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


class CliError(Exception):
    pass


# Every key the config reader accepts, with the values it takes; any other
# key, or a value of another kind, is an error.  A bool is no number.
_BOOL = (lambda v: type(v) is bool, "a bool")
_NUMBER = (lambda v: type(v) in (int, float), "a number")
_SECONDS = (lambda v: type(v) in (int, float) and v > 0, "a positive number")   # not NaN
_TEXT = (lambda v: type(v) is str, "a string")
_COUNT = (lambda v: type(v) is int and v >= 1, "an integer of at least 1")
_CONFIG_KEYS = {
    "rules": {"fif": _BOOL, "include_self_edges": _BOOL},
    "corpus": {"clean_ratio": _NUMBER},
    "provider": {"endpoint": _TEXT, "model": _TEXT, "timeout": _SECONDS, "char_budget": _COUNT},
}


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise CliError(f"config {path} is not a JSON object")
    unknown = set(config) - {*_CONFIG_KEYS, "in_flight"}
    for name, keys in _CONFIG_KEYS.items():
        section = config.get(name, {})
        if not isinstance(section, dict):
            raise CliError(f"config {path}: section {name!r} is not a JSON object")
        unknown.update(f"{name}.{key}" for key in set(section) - set(keys))
        for key, value in section.items():
            if key in keys and not keys[key][0](value):
                raise CliError(f"config {path}: {name}.{key} is not {keys[key][1]}")
    if unknown:
        raise CliError(f"config {path}: unknown key(s) {', '.join(sorted(unknown))}")
    if not _COUNT[0](config.get("in_flight", 4)):
        raise CliError(f"config {path}: in_flight is not an integer of at least 1")
    return config


def _rule_config(config: dict, fif_flag: bool = False,
                 self_edges_flag: bool = False) -> RuleConfig:
    section = config.get("rules", {})
    return RuleConfig(fif=fif_flag or section.get("fif", False),
                      include_self_edges=self_edges_flag or section.get("include_self_edges", False))


def _read_design(path: str) -> SourceText:
    try:
        return SourceText.from_file(path)
    except OSError as exc:
        raise CliError(f"cannot read design {path}: {exc}") from exc


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def _protected_set(values: Optional[Sequence[str]]) -> frozenset[str]:
    out: set[str] = set()
    for value in values or ():
        out.update(n.strip() for n in value.split(",") if n.strip())
    return frozenset(out)


# -- subcommands -----------------------------------------------------------------

def _cmd_check(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    rule_config = _rule_config(config, args.fif, args.include_self_edges)
    src = _read_design(args.design)
    protected = _protected_set(args.protected)
    report = run_all_checks(src, protected, rule_config)
    if args.dump_stg and report.ast is not None:
        sys.stdout.write(dump_stg(report.expect_stg()))
    if args.json:
        sys.stdout.write(report.to_json_text())
    else:
        _print_human_report(report)
    if not report.parse_ok or report.errors:
        return EXIT_VIOLATIONS
    return EXIT_VIOLATIONS if report.violations else EXIT_OK


def _print_human_report(report) -> None:
    print(f"design: {report.design_id}")
    if not report.parse_ok:
        for d in report.lint:
            print(f"  {d}")
        print("result: parse failed")
        return
    skipped = dict(report.skipped_rules)
    for rule in Rule:
        if rule is Rule.FIF_NONZERO and not report.config.fif:
            continue
        if rule.value in skipped:
            print(f"Rule {rule.value}: not evaluated, explanation: {skipped[rule.value]}")
            continue
        found = report.violations_of(rule)
        if not found:
            print(f"Rule {rule.value}: not violated")
        for v in found:
            where = f", line no: {v.span.start}" if v.span else ""
            detail = _explain(v)
            print(f"Rule {rule.value}: violated, explanation: {detail}{where}")
    for d in report.lint:
        print(f"  {d}")


def _explain(v) -> str:
    if v.rule is Rule.HD_NOT_ONE:
        return (f"{v.states[0]} -> {v.states[1]} has Hamming distance "
                f"{v.evidence['hamming_distance']}")
    if v.rule is Rule.FIF_NONZERO:
        return f"{v.states[0]} -> {v.states[1]} has FIF 1 toward {v.states[2]}"
    if v.rule is Rule.STATIC_DEADLOCK:
        return f"{v.states[0]} can be entered but never left"
    if v.rule is Rule.TRAP_LOOP_CWE835:
        return "states {" + ", ".join(v.states) + "} loop with no exit"
    if v.rule is Rule.UNREACHABLE_STATE:
        return f"{v.states[0]} has no incoming transition ({v.evidence['variant']})"
    if v.rule is Rule.DUPLICATE_ENCODING:
        return f"{v.states[0]} and {v.states[1]} share encoding {v.evidence['encoding']}"
    if v.rule is Rule.MISSING_DEFAULT:
        count = v.evidence.get("unused_count")
        return ("unused encodings {" + ", ".join(v.evidence["unused_encodings"])
                + "}" + (f" ({count} in all)" if count else "") + " are not handled by a default")
    return v.rule.value


def _cmd_inject(args: argparse.Namespace) -> int:
    src = _read_design(args.design)
    try:
        vuln = VulnClass(args.vuln_class.upper())
    except ValueError:
        raise CliError(f"unknown class {args.vuln_class!r}; choose from "
                       + ", ".join(v.value.lower() for v in VulnClass))
    ast = parse_source(src).expect_ast()
    _, plan = plan_injection(vuln, ast, args.seed, _protected_set(args.protected))
    out_design = args.out_design or f"{args.design}.injected.v"
    out_plan = args.out_plan or f"{args.design}.plan.json"
    _atomic_write(out_design, plan.text.content)
    _atomic_write(out_plan, dumps_indented(plan.to_json()) + "\n")
    print(f"wrote {out_design} and {out_plan}")
    return EXIT_OK


def _cmd_mitigate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    rule_config = _rule_config(config, args.fif, args.include_self_edges)
    src = _read_design(args.design)
    protected = _protected_set(args.protected)
    report = run_all_checks(src, protected, rule_config)
    if not report.parse_ok:
        raise CliError("design does not parse; nothing to mitigate")
    outcome = mitigate(src, report, rule_config)
    out_design = args.out_design or f"{args.design}.mitigated.v"
    out_report = args.out_report or f"{args.design}.mitigation.json"
    _atomic_write(out_design, outcome.design.content)
    _atomic_write(out_report, dumps_indented(outcome.to_json()) + "\n")
    print(f"fixed: {[r.value for r in outcome.fixed]}; "
          f"residual: {[v.rule.value for v in outcome.residual]}; "
          f"stg_preserved: {outcome.stg_preserved}")
    print(f"wrote {out_design} and {out_report}")
    return EXIT_OK


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    rule_config = _rule_config(config)
    clean_ratio = args.clean_ratio
    if clean_ratio is None:
        clean_ratio = float(config.get("corpus", {}).get("clean_ratio", 1.0))
    mix: dict[VulnClass, int] = {}
    for item in args.mix.split(","):
        if not item.strip():
            continue
        name, _, count = item.partition("=")
        try:
            mix[VulnClass(name.strip().upper())] = int(count)
        except ValueError:
            raise CliError(f"bad mix entry {item!r} (want class=count)")
    bases = [_read_design(p) for p in args.bases]
    records = generate_corpus(
        bases, mix, args.seed, _protected_set(args.protected),
        clean_ratio=clean_ratio, config=rule_config)
    write_corpus(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def _build_pipeline(args: argparse.Namespace, config: dict) -> PipelineSpec:
    name = args.pipeline
    if name not in PIPELINES:
        raise CliError(f"unknown pipeline {name!r}; choose from "
                       + ", ".join(sorted(PIPELINES)))
    protected = sorted(_protected_set(args.protected))
    if name == "fif":
        if not protected:
            raise CliError("the fif pipeline needs --protected")
        spec = PIPELINES[name](protected[0])
    elif name == "policy-check":
        if not args.policy:
            raise CliError("policy-check needs at least one --policy")
        spec = PIPELINES[name](args.policy)
    elif name == "mitigate-rules":
        if not protected:
            raise CliError("mitigate-rules needs --protected")
        spec = PIPELINES[name](protected[0], args.assessment or "")
    else:
        spec = PIPELINES[name]()
    if budget := config.get("provider", {}).get("char_budget"):
        spec = dataclasses.replace(spec, char_budget=budget)
    return spec


def _provider_factory(args: argparse.Namespace, config: dict):
    if args.mock_script:
        script = load_mock_script(args.mock_script)
        return lambda: MockProvider(script)
    if "provider" not in config:
        raise CliError("no provider: pass --mock-script or a --config with a provider section")
    if missing := {"endpoint", "model"} - set(config["provider"]):
        raise CliError(f"config {args.config}: provider lacks {', '.join(sorted(missing))}")
    pconfig = ProviderConfig.from_dict(config["provider"])
    return lambda: HttpProvider(pconfig)


def _designs_for_run(args: argparse.Namespace) -> list[SourceText]:
    if args.corpus:
        return [SourceText(r.source, origin=r.id) for r in read_corpus(args.corpus)]
    if args.design:
        return [_read_design(args.design)]
    raise CliError("pass --design or --corpus")


def _run_sweep(args: argparse.Namespace, line: Callable[[Transcript, GenerationParams], str]
               ) -> tuple[list[GenerationParams], dict[tuple[str, int], Transcript]]:
    """run-pipeline and sweep: run every design at every grid point and write
    one line per transcript, in `sweep_params` order.  run-pipeline has no
    --grid and is the one-point sweep at --temperature."""
    config = _load_config(args.config)
    spec = _build_pipeline(args, config)
    point = GenerationParams(temperature=args.temperature)   # sweep checks it too
    provider = _provider_factory(args, config)
    designs = _designs_for_run(args)
    if "grid" not in args:
        grid = [point]
    elif args.grid:
        grid = [GenerationParams(temperature=float(t)) for t in args.grid.split(",") if t.strip()]
    else:
        grid = list(temperature_grid())
    results = sweep_params(spec, designs, grid, provider, in_flight=config.get("in_flight", 4))
    _atomic_write(args.out, "".join(f"{line(t, grid[gi])}\n" for (_, gi), t in results.items()))
    return grid, results


def _cmd_run_pipeline(args: argparse.Namespace) -> int:
    _, results = _run_sweep(args, lambda t, point: t.to_json_text())
    failed = sum(t.failed for t in results.values())
    print(f"wrote {len(results)} transcript(s) to {args.out} ({failed} failed)")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid, results = _run_sweep(args, lambda t, point: json.dumps(
        {**t.to_json(), "temperature": point.temperature}))
    print(f"wrote {len(results)} transcript(s) across {len(grid)} grid points to {args.out}")
    return EXIT_OK


def _predicted_violation(final: Optional[dict]) -> Optional[bool]:
    if not final:
        return None
    if final.get("kind") == "verdicts":
        return any(v["violated"] for v in final["verdicts"])
    if final.get("kind") == "fif":
        return any(r["overall"] == 1 for r in final["results"])
    return None


def _cmd_score(args: argparse.Namespace) -> int:
    try:
        rule = Rule(args.rule.upper())
    except ValueError:
        raise CliError(f"unknown rule {args.rule!r}")
    corpus = read_corpus(args.corpus)
    labels = {r.id: r.labels for r in corpus}
    seeds = {r.seed for r in corpus}
    records = []
    provider = "static-oracle"
    transcripts = read_jsonl(args.transcripts, lambda data: (
        data["design_id"], data, _predicted_violation(data.get("final"))))
    for design_id, data, predicted in transcripts:
        if design_id not in labels:
            raise CliError(f"transcript for unknown design {design_id}")
        provider = data.get("provider_id", provider)
        if predicted is None:
            continue
        actual = rule.value in labels[design_id]
        records.append(OutcomeRecord(
            task="detection",
            label=rule.value,
            success=predicted == actual,
            temperature=data.get("temperature"),
        ))
    if not records:
        raise CliError("no scoreable transcripts")
    report = compute_metrics(records, Provenance(
        config_hash=config_hash({"rule": rule.value}),
        seeds=tuple(sorted(seeds))[:16],
        provider=provider,
    ))
    _atomic_write(args.out, report.to_json_text())
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_sanitize(args: argparse.Namespace) -> int:
    src = _read_design(args.design)
    ast = parse_source(src).expect_ast()
    keywords = tuple(_protected_set([args.keywords])) if args.keywords else DEFAULT_KEYWORDS
    result = sanitize_identifiers(ast, keywords, args.seed)
    text = emit_verilog(result.ast)
    out_design = args.out_design or f"{args.design}.sanitized.v"
    out_map = args.out_map or f"{args.design}.rename.json"
    _atomic_write(out_design, text.content)
    _atomic_write(out_map, dumps_indented(result.to_json(), sort_keys=True) + "\n")
    print(f"wrote {out_design} and {out_map}")
    return EXIT_OK


# -- argument plumbing --------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsmguard",
        description="FSM RTL security workbench: check, inject, mitigate, "
                    "generate corpora, and drive LLM pipelines with fidelity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_rules(p):
        p.add_argument("--protected", action="append", metavar="STATE",
                       help="protected state name (repeatable or comma-separated)")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--fif", action="store_true", help="enable the FIF rule")
        p.add_argument("--include-self-edges", action="store_true",
                       help="score HD/FIF on unprotected self transitions")

    p = sub.add_parser("check", help="run every rule on a design")
    common_rules(p)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--dump-stg", action="store_true", help="print the edge list first")
    p.add_argument("design")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("inject", help="seed one vulnerability class into a design")
    p.add_argument("--class", dest="vuln_class", required=True,
                   help="one of " + ", ".join(v.value.lower() for v in VulnClass))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--protected", action="append", metavar="STATE")
    p.add_argument("--out-design")
    p.add_argument("--out-plan")
    p.add_argument("design")
    p.set_defaults(fn=_cmd_inject)

    p = sub.add_parser("mitigate", help="remove detected violations")
    common_rules(p)
    p.add_argument("--out-design")
    p.add_argument("--out-report")
    p.add_argument("design")
    p.set_defaults(fn=_cmd_mitigate)

    p = sub.add_parser("gen-corpus", help="generate a labeled vulnerable corpus")
    p.add_argument("--mix", required=True,
                   help="comma list of class=count, e.g. static_deadlock=10")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--protected", action="append", metavar="STATE")
    p.add_argument("--config")
    p.add_argument("--clean-ratio", type=float,
                   help="clean records per buggy record (default: the config's "
                        "corpus.clean_ratio, else 1.0)")
    p.add_argument("bases", nargs="+")
    p.set_defaults(fn=_cmd_gen_corpus)

    def common_pipeline(p):
        p.add_argument("--pipeline", required=True,
                       help="one of " + ", ".join(sorted(PIPELINES)))
        p.add_argument("--design")
        p.add_argument("--corpus")
        p.add_argument("--protected", action="append", metavar="STATE")
        p.add_argument("--policy", action="append", help="policy text (repeatable)")
        p.add_argument("--assessment", help="assessment text for mitigate-rules")
        p.add_argument("--temperature", type=float, default=0.0,
                       help="sampling temperature in [0, 1]; sweep range-checks it "
                            "but runs --grid or the 11-point default")
        p.add_argument("--mock-script", help="scripted responses (---step--- separated)")
        p.add_argument("--config")
        p.add_argument("--out", required=True)

    p = sub.add_parser("run-pipeline", help="run a prompt pipeline over designs")
    common_pipeline(p)
    p.set_defaults(fn=_cmd_run_pipeline)

    p = sub.add_parser("sweep", help="run a pipeline across a parameter grid")
    common_pipeline(p)
    p.add_argument("--grid", help="comma list of temperatures (default 0.0..1.0 step 0.1)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("score", help="score transcripts against corpus labels")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("sanitize", help="rename flagged identifiers for blind tests")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--keywords", help="comma list (default trojan,trigger,malicious,backdoor)")
    p.add_argument("--out-design")
    p.add_argument("--out-map")
    p.add_argument("design")
    p.set_defaults(fn=_cmd_sanitize)

    return parser


def cli_dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    # The library's input errors other than ParseFailure derive from
    # ValueError; OSError is a path that cannot be read or written.
    except (CliError, OSError, ParseFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
