"""Provider-agnostic LLM harness: templates, pipelines, providers, parsing."""

from .params import GenerationParams, temperature_grid
from .providers import (
    API_KEY_ENV,
    ChatProvider,
    CompletionResult,
    HttpProvider,
    MockProvider,
    ProviderAuthError,
    ProviderConfig,
    ProviderError,
    ProviderRateLimited,
    ProviderTimeout,
    RetryPolicy,
    chat_complete,
    load_mock_script,
)
from .templates import (
    CaptureRule,
    GUIDELINE_FEATURES,
    PromptTemplate,
    SELF_SCRUTINY_QUESTION,
    TEMPLATES,
    TemplateError,
    render_prompt,
)
from .parsing import (
    FifCapture,
    PolicyVerdict,
    ResponseParseError,
    parse_delimited_code,
    parse_fif_results,
    parse_policy_verdicts,
)
from .pipeline import (
    PIPELINES,
    PayloadTooLarge,
    PipelineError,
    PipelineSpec,
    PipelineStep,
    StepRecord,
    Transcript,
    blind_review_pipeline,
    deadlock_insertion_pipeline,
    fif_pipeline,
    mitigation_pipeline,
    policy_check_pipeline,
    run_pipeline,
    sweep_params,
)
