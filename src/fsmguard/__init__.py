"""fsmguard: security workbench for FSM RTL designs.

Static rule checking (FIF metric, Hamming distance, deadlock/trap/
unreachable/duplicate-encoding/default-handling), seeded vulnerability
injection with ground-truth plans, deterministic mitigation, labeled corpus
generation, identifier sanitization, and LLM prompt-pipeline orchestration
with oracle-based fidelity checks.
"""

from .source import Diagnostic, Severity, SourceText, Span
from .tokens import Lexed, TokKind, Token, tokenize
from .ast_nodes import FsmAst
from .parser import ParseFailure, ParseResult, parse_module, parse_source
from .lint import lint
from .emitter import emit_verilog, emit_with_markers
from .stg import (
    Guard,
    GuardKind,
    State,
    Stg,
    StgError,
    Transition,
    dump_stg,
    extract_stg,
    reachable_states,
    stg_isomorphic_modulo_encoding,
)
from .rules import (
    BitTriple,
    CheckReport,
    FifResult,
    Rule,
    RuleConfig,
    RuleError,
    RuleViolation,
    check_default_handling,
    check_fif_rule,
    check_hd_rule,
    detect_duplicate_encodings,
    detect_static_deadlock,
    detect_trap_loops,
    detect_unreachable_states,
    fif_metric,
    run_all_checks,
    run_checks_on_ast,
)
from .inject import (
    InjectError,
    InjectionPlan,
    RULE_FOR_CLASS,
    VulnClass,
    plan_injection,
    remove_default_arm,
)
from .mitigate import (
    EncodingAssignment,
    MitigationError,
    MitigationOutcome,
    add_default_arm,
    apply_encoding_assignment,
    mitigate,
    reencode_states,
    remove_static_deadlock,
    remove_unreachable_state,
    uniquify_encodings,
)
from .corpus import (
    CorpusError,
    CorpusRecord,
    FidelityVerdict,
    derive_seed,
    generate_corpus,
    read_corpus,
    verify_insertion,
    verify_mitigation,
    write_corpus,
)
from .sanitize import DEFAULT_KEYWORDS, SanitizeResult, sanitize_identifiers
from .report import (
    ClassRow,
    ExperimentReport,
    OutcomeRecord,
    Provenance,
    ReportError,
    SweepPoint,
    compute_metrics,
    percent,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The CLI loads on first use, so ``python -m fsmguard.cli`` does not find
    # its own module already imported by the package.
    if name == "cli_dispatch":
        from .cli import cli_dispatch
        return cli_dispatch
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
