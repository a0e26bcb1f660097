"""LLM harness: params, templates, parsing, providers, pipelines."""
import http.client
import io
import json
import random
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsmguard import SourceText
from fsmguard.llm import (
    CaptureRule,
    GUIDELINE_FEATURES,
    GenerationParams,
    MockProvider,
    PayloadTooLarge,
    PipelineSpec,
    PipelineStep,
    ProviderAuthError,
    ProviderError,
    ProviderRateLimited,
    PromptTemplate,
    ResponseParseError,
    RetryPolicy,
    SELF_SCRUTINY_QUESTION,
    TEMPLATES,
    TemplateError,
    chat_complete,
    deadlock_insertion_pipeline,
    fif_pipeline,
    load_mock_script,
    mitigation_pipeline,
    parse_delimited_code,
    parse_fif_results,
    parse_policy_verdicts,
    policy_check_pipeline,
    render_prompt,
    run_pipeline,
    sweep_params,
    temperature_grid,
)
from fsmguard.llm.pipeline import PipelineError
from fsmguard.llm.providers import HttpProvider, ProviderConfig, ProviderTimeout

from conftest import FIXTURES, design_source


# -- params -----------------------------------------------------------------------

def test_params_ranges_enforced():
    with pytest.raises(ValueError):
        GenerationParams(temperature=1.5)
    with pytest.raises(ValueError):
        GenerationParams(top_p=0.0)
    GenerationParams(temperature=1.0, top_p=0.5)


@pytest.mark.parametrize("attempts", [0, -1])
def test_retry_policy_needs_at_least_one_attempt(attempts):
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=attempts)
    assert RetryPolicy(max_attempts=1).max_attempts == 1


def test_temperature_grid_has_eleven_points():
    grid = temperature_grid()
    assert len(grid) == 11
    assert [p.temperature for p in grid] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


# -- capture rules ----------------------------------------------------------------

def test_capture_returns_the_first_group_when_the_pattern_has_one():
    rule = CaptureRule("k", r"^key: (\w+)$")
    assert rule.apply("noise\nkey: abc\nkey: def\n") == "abc"


def test_capture_returns_the_whole_match_without_a_group():
    rule = CaptureRule("k", r"^key: \w+$")
    assert rule.apply("noise\nkey: abc\nkey: def\n") == "key: abc"


def test_capture_all_matches_joins_the_matching_lines():
    rule = CaptureRule("k", r"^\w+ -> \w+$", all_matches=True)
    assert rule.apply("A -> B\nnoise\nB -> C\n") == "A -> B\nB -> C"


@pytest.mark.parametrize("all_matches", [False, True])
def test_capture_without_a_match_raises(all_matches):
    rule = CaptureRule("k", r"^key: (\w+)$", all_matches=all_matches)
    with pytest.raises(TemplateError, match="capture k"):
        rule.apply("no keys here\n")


# -- render -----------------------------------------------------------------------

def test_render_wraps_design_in_delimiters():
    t = TEMPLATES["insert_deadlock"]
    text = render_prompt(t, {"design": "module m; endmodule",
                             "literal:example": "EXAMPLE"})
    assert "<module m; endmodule>" in text
    assert "EXAMPLE" in text


def test_render_without_placeholders_is_identity():
    t = PromptTemplate(name="t", body="just words")
    assert render_prompt(t, {}) == "just words"


def test_render_unbound_placeholder_names_it():
    t = PromptTemplate(name="t", body="{{capture:step1.transitions}}")
    with pytest.raises(TemplateError, match="capture:step1.transitions"):
        render_prompt(t, {})


# -- delimited code -----------------------------------------------------------------

def test_parse_delimited_code_inner_strip():
    out = parse_delimited_code("[code: <module m; endmodule>]")
    assert out.content == "<module m; endmodule>"


def test_parse_delimited_code_survives_bit_ranges():
    payload = "[code: <module m; reg [2:0] s; endmodule>]"
    out = parse_delimited_code(payload)
    assert out.content == "<module m; reg [2:0] s; endmodule>"


def test_parse_delimited_code_absent_markers():
    with pytest.raises(ResponseParseError):
        parse_delimited_code("no markers here")


def test_parse_delimited_code_nested_innermost_first():
    out = parse_delimited_code("[code: outer [code: inner] ]")
    assert out.content == "inner"


@given(st.text(alphabet=st.characters(blacklist_characters="[]<>"), min_size=1)
       .filter(lambda s: s.strip()))
def test_parse_delimited_roundtrip_identity(payload):
    wrapped = f"[code: {payload}]"
    assert parse_delimited_code(wrapped).content == payload.strip()


# -- policy verdicts -----------------------------------------------------------------

VERDICT_RESPONSE = """\
Policy 1: Not violated, explanation: The password-checking logic is correctly implemented in the state machine.
Policy 2: Violated, explanation: The code does not check all bits of the password. It only checks a specific value, line no: 193-198
"""


def test_policy_verdicts_reference_shape():
    verdicts = parse_policy_verdicts(VERDICT_RESPONSE, 2)
    assert [v.violated for v in verdicts] == [False, True]
    assert verdicts[1].line == 193
    assert "password" in verdicts[0].explanation


def test_policy_verdicts_single():
    verdicts = parse_policy_verdicts("Policy 1: not violated", 1)
    assert verdicts[0].policy == 1 and not verdicts[0].violated


def test_policy_verdicts_line_only_for_violated():
    verdicts = parse_policy_verdicts(
        "Policy 1: not violated, explanation: checked, line no: 7\n"
        "Policy 2: violated, explanation: bad, line no: 12\n", 2)
    assert [v.line for v in verdicts] == [None, 12]
    assert verdicts[0].to_json()["line"] is None


def test_policy_verdicts_prose_fails():
    with pytest.raises(ResponseParseError):
        parse_policy_verdicts("the design looks fine to me", 1)


def test_policy_verdicts_count_mismatch():
    with pytest.raises(ResponseParseError):
        parse_policy_verdicts("Policy 1: violated, explanation: x", 2)


# -- transition/FIF parsing ------------------------------------------------------------

def test_parse_fif_results_fixture():
    script = load_mock_script(FIXTURES / "rsa_fif_replay.txt")
    results = parse_fif_results(script[2])
    assert len(results) == 7
    assert all(r.overall == 0 for r in results)


# -- providers ---------------------------------------------------------------------

def test_mock_provider_replays_in_order():
    mock = MockProvider(["one", "two", "three"])
    params = GenerationParams()
    assert chat_complete(mock, [], params).text == "one"
    assert chat_complete(mock, [], params).text == "two"
    assert chat_complete(mock, [], params).text == "three"


def test_retry_rate_limit_then_success():
    sleeps = []
    mock = MockProvider([ProviderRateLimited("429"), ProviderRateLimited("429"), "ok"])
    policy = RetryPolicy(max_attempts=3, sleep_fn=sleeps.append)
    result = chat_complete(mock, [], GenerationParams(), policy)
    assert result.text == "ok"
    assert result.attempts == 3
    assert len(sleeps) == 2
    assert sleeps[1] > sleeps[0]  # exponential growth dominates jitter


def test_backoff_sequence_is_pinned():
    """0.5 s doubling to a cap of 8 s, plus up to 0.25 s of seeded jitter."""
    policy = RetryPolicy(rng=random.Random(0))
    assert [policy.delay_for(k) for k in range(6)] == [
        0.7111054628812621, 1.1894886007350756, 2.1051428952077114,
        4.064729187573241, 8.127818680342152, 8.101233534362603]


def test_retry_exhaustion_raises():
    mock = MockProvider([ProviderRateLimited("429")] * 5)
    policy = RetryPolicy(max_attempts=3, sleep_fn=lambda _: None)
    with pytest.raises(ProviderError):
        chat_complete(mock, [], GenerationParams(), policy)


def test_auth_error_never_retried():
    mock = MockProvider([ProviderAuthError("bad key"), "never reached"])
    policy = RetryPolicy(max_attempts=3, sleep_fn=lambda _: None)
    with pytest.raises(ProviderAuthError):
        chat_complete(mock, [], GenerationParams(), policy)
    assert len(mock.requests) == 1


def test_http_provider_wire_contract():
    captured = {}

    def transport(url, headers, body, timeout):
        import json
        captured["url"] = url
        captured["headers"] = headers
        captured["body"] = json.loads(body)
        reply = {"choices": [{"message": {"content": "hello"}}]}
        return 200, json.dumps(reply).encode()

    provider = HttpProvider(
        ProviderConfig(endpoint="https://api.example/v1/chat", model="test-model"),
        transport=transport, api_key="sk-test")
    text = provider.send([{"role": "user", "content": "hi"}],
                         GenerationParams(temperature=0.3, max_tokens=128))
    assert text == "hello"
    assert captured["url"] == "https://api.example/v1/chat"
    assert captured["headers"]["Authorization"] == "Bearer sk-test"
    body = captured["body"]
    assert body["model"] == "test-model"
    assert body["temperature"] == 0.3
    assert set(body) == {"model", "messages", "temperature", "top_p",
                         "presence_penalty", "frequency_penalty", "max_tokens"}


def test_http_provider_auth_statuses():
    provider = HttpProvider(
        ProviderConfig(endpoint="https://x", model="m"),
        transport=lambda *a: (401, b"{}"), api_key="k")
    with pytest.raises(ProviderAuthError):
        provider.send([], GenerationParams())
    missing = HttpProvider(ProviderConfig(endpoint="https://x", model="m"),
                           transport=lambda *a: (200, b"{}"), api_key="")
    with pytest.raises(ProviderAuthError):
        missing.send([], GenerationParams())


def test_http_provider_rate_limit_status():
    provider = HttpProvider(
        ProviderConfig(endpoint="https://x", model="m"),
        transport=lambda *a: (429, b"{}"), api_key="k")
    with pytest.raises(ProviderRateLimited):
        provider.send([], GenerationParams())


def _reply(text: str) -> bytes:
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode()


def _provider(**transport) -> HttpProvider:
    """An HttpProvider with a key; urllib's transport unless one is given."""
    return HttpProvider(ProviderConfig(endpoint="https://x", model="m"), api_key="k",
                        **transport)


@pytest.mark.parametrize("payload", [b"<html>bad gateway</html>", b"\xff\xfe{}", b""],
                         ids=["not-json", "not-utf8", "empty"])
def test_http_provider_malformed_body_is_a_provider_error(payload):
    with pytest.raises(ProviderError, match="malformed completion payload"):
        _provider(transport=lambda *a: (200, payload)).send([], GenerationParams())


class _Response:
    """What urlopen returns: a context manager with a status and a body."""

    def __init__(self, read):
        self.status = 200
        self.read = read

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _urlopen_raising(exc):
    def urlopen(req, timeout):
        raise exc
    return urlopen


def _truncated_read(*size):
    raise http.client.IncompleteRead(b"{\"cho", 40)


class _TruncatedBody:
    read = staticmethod(_truncated_read)

    def close(self):
        pass


@pytest.mark.parametrize("urlopen", [
    _urlopen_raising(http.client.RemoteDisconnected("Remote end closed connection")),
    _urlopen_raising(ConnectionResetError(104, "Connection reset by peer")),
    _urlopen_raising(urllib.error.URLError("name or service not known")),
    lambda req, timeout: _Response(_truncated_read),
    _urlopen_raising(urllib.error.HTTPError("https://x", 502, "bad gateway", {},
                                            _TruncatedBody())),
], ids=["remote-disconnected", "connection-reset", "url-error", "incomplete-read",
        "incomplete-error-body"])
def test_urllib_transport_failures_are_provider_errors(monkeypatch, urlopen):
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    with pytest.raises(ProviderError) as raised:
        _provider().send([], GenerationParams())
    assert not isinstance(raised.value, ProviderTimeout)


@pytest.mark.parametrize("exc", [TimeoutError("timed out"),
                                 urllib.error.URLError(TimeoutError("timed out"))],
                         ids=["timeout", "url-error-timeout"])
def test_urllib_transport_timeouts_are_provider_timeouts(monkeypatch, exc):
    monkeypatch.setattr(urllib.request, "urlopen", _urlopen_raising(exc))
    with pytest.raises(ProviderTimeout):
        _provider().send([], GenerationParams())


def test_urllib_transport_http_error_returns_its_status_and_body(monkeypatch):
    error = urllib.error.HTTPError("https://x", 503, "unavailable", {},
                                   io.BytesIO(b"try later"))
    monkeypatch.setattr(urllib.request, "urlopen", _urlopen_raising(error))
    with pytest.raises(ProviderError, match="HTTP 503: b'try later'"):
        _provider().send([], GenerationParams())


def test_urllib_transport_returns_the_reply(monkeypatch):
    sent = []

    def urlopen(req, timeout):
        sent.append((req.full_url, req.get_method(), timeout))
        return _Response(lambda: _reply("hello"))

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    provider = HttpProvider(ProviderConfig(endpoint="https://x/v1", model="m", timeout=5.0),
                            api_key="k")
    assert provider.send([], GenerationParams()) == "hello"
    assert sent == [("https://x/v1", "POST", 5.0)]


def test_sweep_malformed_completion_fails_only_its_transcript(vending):
    tiny = SourceText("module tiny;\nendmodule\n", origin="tiny.v")

    def transport(url, headers, body, timeout):
        if b"module tiny" in body:
            return 200, b"<html>bad gateway</html>"
        return 200, _reply("Policy 1: not violated")

    spec = policy_check_pipeline(["No deadlock states."])
    results = sweep_params(spec, [vending, tiny], temperature_grid()[:3],
                           lambda: _provider(transport=transport))
    assert len(results) == 6
    for (origin, _), transcript in results.items():
        if origin == tiny.origin:
            assert transcript.failed and transcript.failed_step == "check"
            assert transcript.failure_reason.startswith("malformed completion payload")
        else:
            assert not transcript.failed and transcript.final is not None


# -- pipelines ----------------------------------------------------------------------

def test_pipeline_capture_chain_binds_forward(rsa_ctrl):
    script = load_mock_script(FIXTURES / "rsa_fif_replay.txt")
    spec = fif_pipeline("RESULT")
    transcript = run_pipeline(spec, rsa_ctrl, MockProvider(script))
    assert not transcript.failed
    step2_prompt = transcript.steps[1].rendered_prompt
    assert "state transition 1: IDLE (1000) -> INIT (1100)" in step2_prompt
    assert transcript.final["kind"] == "fif"
    assert len(transcript.final["results"]) == 7


def test_pipeline_rendered_prompts_replayable(rsa_ctrl):
    """Step k's prompt is reproducible from the template plus earlier captures."""
    script = load_mock_script(FIXTURES / "rsa_fif_replay.txt")
    spec = fif_pipeline("RESULT")
    transcript = run_pipeline(spec, rsa_ctrl, MockProvider(script))
    from fsmguard.llm import render_prompt
    for i, step in enumerate(spec.steps):
        bindings = {"design": rsa_ctrl.content}
        for earlier, record in zip(spec.steps[:i], transcript.steps[:i]):
            for cname, cval in record.captures.items():
                bindings[f"capture:{earlier.name}.{cname}"] = cval
        for key, val in step.bindings.items():
            bindings[f"literal:{key}"] = val
        assert render_prompt(step.template, bindings) == transcript.steps[i].rendered_prompt


def test_pipeline_single_step_code_extraction(vending):
    template = PromptTemplate(name="gen", body="{{design}}", expected_output="code")
    spec = PipelineSpec(name="gen", steps=(PipelineStep(name="gen", template=template),))
    mock = MockProvider(["[code: <module m; endmodule>]"])
    transcript = run_pipeline(spec, vending, mock)
    assert transcript.final == {"kind": "code", "text": "module m; endmodule"}


def test_pipeline_unbound_literal_fails_at_its_step(vending):
    first = PipelineStep(name="first", template=PromptTemplate(name="a", body="{{design}}"))
    second = PipelineStep(name="second", bindings={"other": "x"},
                          template=PromptTemplate(name="b", body="{{literal:missing}}"))
    spec = PipelineSpec(name="p", steps=(first, second))
    transcript = run_pipeline(spec, vending, MockProvider(["ok", "never sent"]))
    assert transcript.failed
    assert transcript.failed_step == "second"
    assert transcript.failure_reason == "unbound placeholder: literal:missing"
    assert [s.name for s in transcript.steps] == ["first"]
    assert transcript.final is None


def test_pipeline_garbage_fails_transcript(rsa_ctrl):
    spec = fif_pipeline("RESULT")
    mock = MockProvider(["garbage"] * 10)
    transcript = run_pipeline(spec, rsa_ctrl, mock)
    assert transcript.failed
    assert transcript.failed_step == "transitions"
    assert transcript.final is None


def test_pipeline_retries_malformed_capture(rsa_ctrl):
    script = load_mock_script(FIXTURES / "rsa_fif_replay.txt")
    responses = ["not a transition list", script[0], script[1], script[2]]
    transcript = run_pipeline(fif_pipeline("RESULT"), rsa_ctrl, MockProvider(responses))
    assert not transcript.failed
    assert transcript.steps[0].attempts == 2


@pytest.mark.parametrize("responses, calls", [
    ([ProviderRateLimited("429"), "garbage"] * 3, 6),   # every capture retry backs off once
    (["garbage"] + [ProviderRateLimited("429")] * 3, 4),  # retries run out on the second try
], ids=["malformed-capture", "provider-failure"])
def test_failed_step_records_every_provider_call(rsa_ctrl, responses, calls):
    spec = fif_pipeline("RESULT")
    quiet = PipelineSpec(spec.name, spec.steps,
                         retry=RetryPolicy(max_attempts=3, sleep_fn=lambda _: None))
    mock = MockProvider(responses)
    transcript = run_pipeline(quiet, rsa_ctrl, mock)
    assert transcript.failed and transcript.failed_step == "transitions"
    assert len(mock.requests) == calls
    assert [s.attempts for s in transcript.steps] == [calls]


@pytest.mark.parametrize("responses, kind, attempts", [
    ([ProviderAuthError("bad key")], ProviderAuthError, 1),
    ([ProviderRateLimited("429"), ProviderAuthError("bad key")], ProviderAuthError, 2),
    ([ProviderError("HTTP 500")], ProviderError, 1),
    ([ProviderRateLimited("429")] * 3, ProviderError, 3),
], ids=["auth", "auth-after-backoff", "not-retried", "exhausted"])
def test_provider_error_carries_the_calls_made(responses, kind, attempts):
    policy = RetryPolicy(max_attempts=3, sleep_fn=lambda _: None)
    with pytest.raises(ProviderError) as raised:
        chat_complete(MockProvider(responses), [], GenerationParams(), policy)
    assert type(raised.value) is kind
    assert raised.value.attempts == attempts


_WIRE_PARAMS = ("temperature", "top_p", "presence_penalty", "frequency_penalty", "max_tokens")


def _echo_provider(replies: list[str]) -> HttpProvider:
    """An HttpProvider whose n-th reply is replies[n] followed by a line
    holding the params of the request body it answers."""
    sent = []

    def transport(url, headers, body, timeout):
        wire = json.loads(body)
        sent.append(wire)
        echo = json.dumps({k: wire[k] for k in _WIRE_PARAMS}, sort_keys=True)
        return 200, _reply(f"{replies[len(sent) - 1]}\nwire: {echo}")

    return _provider(transport=transport)


def _echoed(params: GenerationParams) -> str:
    return f"\nwire: {json.dumps(params.to_json(), sort_keys=True)}"


_GRID = (GenerationParams(), GenerationParams(temperature=0.7, top_p=0.9, max_tokens=64),
         GenerationParams(temperature=1.0, presence_penalty=0.5, frequency_penalty=0.25))


@pytest.mark.parametrize("spec, design, replies", [
    (fif_pipeline("RESULT"), "rsa_ctrl", load_mock_script(FIXTURES / "rsa_fif_replay.txt")),
    (deadlock_insertion_pipeline(self_scrutiny=True), "vending",
     ["[code: <module a; endmodule>]", "[code: <module b; endmodule>]"]),
], ids=["fif", "insert-deadlock-self-review"])
def test_sweep_sends_the_grid_point_in_every_request(request, spec, design, replies):
    design = request.getfixturevalue(design)
    results = sweep_params(spec, [design], _GRID, lambda: _echo_provider(replies))
    assert list(results) == [(design.origin, gi) for gi in range(len(_GRID))]
    for (_, gi), transcript in results.items():
        assert not transcript.failed, transcript.failure_reason
        assert len(transcript.steps) == len(replies)
        for step in transcript.steps:
            assert step.raw_response.endswith(_echoed(_GRID[gi])), (gi, step.name)


def test_run_pipeline_sends_default_params(rsa_ctrl):
    replies = load_mock_script(FIXTURES / "rsa_fif_replay.txt")
    transcript = run_pipeline(fif_pipeline("RESULT"), rsa_ctrl, _echo_provider(replies))
    assert not transcript.failed and len(transcript.steps) == 3
    assert all(s.raw_response.endswith(_echoed(GenerationParams())) for s in transcript.steps)


def test_sweep_produces_grid_times_designs(vending, rsa_ctrl):
    spec = policy_check_pipeline(["No deadlock states."])
    grid = temperature_grid()
    results = sweep_params(spec, [vending, rsa_ctrl], grid,
                           lambda: MockProvider(["Policy 1: not violated"] * 4))
    assert len(results) == 22
    temps = {grid[gi].temperature for (_, gi) in results}
    assert temps == {round(i / 10, 1) for i in range(11)}


def test_sweep_rejects_empty_grid(vending):
    with pytest.raises(PipelineError):
        sweep_params(policy_check_pipeline(["x"]), [vending], [], lambda: MockProvider([]))


def test_sweep_single_point_equals_plain_run(vending):
    spec = policy_check_pipeline(["No deadlock states."])
    grid = [GenerationParams(temperature=0.0)]
    swept = sweep_params(spec, [vending], grid, lambda: MockProvider(["Policy 1: not violated"]))
    plain = run_pipeline(spec, vending, MockProvider(["Policy 1: not violated"]))
    assert swept[(vending.origin, 0)].final == plain.final


def test_sweep_oversized_prompt_fails_only_its_transcript(vending):
    import dataclasses
    spec = policy_check_pipeline(["No deadlock states."])
    tiny = SourceText("module tiny;\nendmodule\n", origin="tiny.v")
    fitted = run_pipeline(spec, tiny, MockProvider(["Policy 1: not violated"]))
    tight = dataclasses.replace(spec, char_budget=len(fitted.steps[0].rendered_prompt))
    with pytest.raises(PayloadTooLarge) as raised:
        run_pipeline(tight, vending, MockProvider([]))
    results = sweep_params(tight, [vending, tiny], [GenerationParams()],
                           lambda: MockProvider(["Policy 1: not violated"]))
    oversized, small = results[(vending.origin, 0)], results[(tiny.origin, 0)]
    assert oversized.failed and oversized.failed_step == "check"
    assert oversized.failure_reason == str(raised.value)
    assert oversized.steps == []
    assert not small.failed and small.final == fitted.final


# -- guideline features ------------------------------------------------------------------

def test_guideline_self_scrutiny_appends_review(vending):
    spec = deadlock_insertion_pipeline(self_scrutiny=True)
    mock = MockProvider(["[code: <module a; endmodule>]",
                         "[code: <module b; endmodule>]"])
    transcript = run_pipeline(spec, vending, mock)
    assert not transcript.failed
    assert transcript.steps[-1].name == "self_review"
    assert SELF_SCRUTINY_QUESTION in transcript.steps[-1].rendered_prompt
    assert transcript.final["text"] == "module b; endmodule"


def test_guideline_example_slot_in_insertion(vending):
    spec = deadlock_insertion_pipeline()
    mock = MockProvider(["[code: <module a; endmodule>]"])
    transcript = run_pipeline(spec, vending, mock)
    assert "Before the change" in transcript.steps[0].rendered_prompt.replace(
        "before the change", "Before the change")


def test_guideline_policy_context_slot(vending):
    spec = policy_check_pipeline(["Password checks must cover all bits."])
    mock = MockProvider(["Policy 1: not violated"])
    transcript = run_pipeline(spec, vending, mock)
    assert "Policy 1. Password checks must cover all bits." in transcript.steps[0].rendered_prompt


def test_guideline_region_budget_rejects_oversize(vending):
    import dataclasses
    spec = dataclasses.replace(deadlock_insertion_pipeline(), char_budget=100)
    with pytest.raises(PayloadTooLarge, match="module-level region"):
        run_pipeline(spec, vending, MockProvider(["x"]))


def test_guideline_tabular_mandate_in_fif_templates():
    assert TEMPLATES["fif_bit_table"].expected_output == "table"
    assert "tabular format" in TEMPLATES["fif_bit_table"].body
    assert "tabular format" in TEMPLATES["fif_compute"].body


def test_guideline_feature_map_is_complete():
    assert set(GUIDELINE_FEATURES) == {
        "self_scrutiny", "example_slot", "policy_context_slot",
        "region_binding_budget", "step_chaining", "tabular_output",
    }


def test_pipeline_spec_validates_capture_references():
    t = PromptTemplate(name="x", body="{{capture:nowhere.thing}}")
    with pytest.raises(PipelineError):
        PipelineSpec(name="bad", steps=(PipelineStep(name="s", template=t),))


def test_mitigation_pipeline_renders_assessment(aes_ctrl):
    spec = mitigation_pipeline("WAIT_KEY", "two violations found")
    mock = MockProvider(["[code: <module m; endmodule>]"])
    transcript = run_pipeline(spec, aes_ctrl, mock)
    prompt = transcript.steps[0].rendered_prompt
    assert "WAIT_KEY" in prompt and "two violations found" in prompt
    assert "Hamming distance" in prompt


def _tiny_designs(n: int) -> list[SourceText]:
    return [SourceText(f"module d{i}; endmodule", origin=f"d{i}") for i in range(n)]


def test_sweep_hundred_designs_eleven_points():
    designs = _tiny_designs(100)
    spec = policy_check_pipeline(["No deadlock states."])
    results = sweep_params(spec, designs, temperature_grid(),
                           lambda: MockProvider(["Policy 1: not violated"]),
                           in_flight=8)
    assert len(results) == 1100


class _GatedProvider:
    """Records every send's thread and how many sends overlap.  Its first
    ``k`` sends wait at a barrier that only opens once ``k`` sends are in
    flight at once; the timeout makes a runner that cannot reach ``k`` fail
    instead of hang."""

    provider_id = "gated"

    def __init__(self, k: int):
        self._k = k
        self._barrier = threading.Barrier(k, timeout=5)
        self._lock = threading.Lock()
        self.calls = self.live = self.peak = 0
        self.threads: set[int] = set()
        self.thread_counts: set[int] = set()

    def send(self, messages, params):
        with self._lock:
            self.calls += 1
            gated = self.calls <= self._k
            self.live += 1
            self.peak = max(self.peak, self.live)
            self.threads.add(threading.get_ident())
            self.thread_counts.add(threading.active_count())
        try:
            if gated:
                self._barrier.wait()
            return "Policy 1: not violated"
        finally:
            with self._lock:
                self.live -= 1


@pytest.mark.parametrize("in_flight", [1, 2, 3])
def test_sweep_in_flight_is_the_number_of_concurrent_requests(in_flight):
    """``in_flight`` requests are sent at once, never more, by the calling
    thread and ``in_flight - 1`` helpers; at one, no thread starts."""
    provider = _GatedProvider(in_flight)
    before = threading.active_count()
    results = sweep_params(policy_check_pipeline(["No deadlock states."]), _tiny_designs(3),
                           temperature_grid()[:3], lambda: provider, in_flight=in_flight)
    assert len(results) == 9 and not any(t.failed for t in results.values())
    assert provider.calls == 9 and provider.peak == in_flight
    assert threading.get_ident() in provider.threads and len(provider.threads) == in_flight
    assert max(provider.thread_counts) == before + in_flight - 1
    assert threading.active_count() == before


class _RaisingProvider:
    """Answers every design but those in ``bad``, for which it raises an
    error that is not a ``ProviderError``; records each request it gets."""

    provider_id = "raising"

    def __init__(self, names: list[str], bad: set[str]):
        self._names, self._bad = names, bad
        self._lock = threading.Lock()
        self.sent: list[tuple[str, float]] = []

    def send(self, messages, params):
        name = next(n for n in self._names if f"module {n};" in messages[0]["content"])
        with self._lock:
            self.sent.append((name, params.temperature))
        if name in self._bad:
            raise LookupError(f"{name} at {params.temperature}")
        return "Policy 1: not violated"


@pytest.mark.parametrize("in_flight", [1, 4])
def test_sweep_raises_the_lowest_index_failure(in_flight):
    """Jobs run designs outer, grid points inner: d1 at 0.0 is the first job
    to fail, whichever failure a worker meets first.  Serially, no job after
    it reaches the provider."""
    designs = _tiny_designs(4)
    grid = temperature_grid()[:3]
    provider = _RaisingProvider([d.origin for d in designs], {"d1", "d3"})
    before = threading.active_count()
    with pytest.raises(LookupError, match=r"^d1 at 0\.0$"):
        sweep_params(policy_check_pipeline(["No deadlock states."]), designs, grid,
                     lambda: provider, in_flight=in_flight)
    assert threading.active_count() == before
    if in_flight == 1:
        jobs = [(d.origin, p.temperature) for d in designs for p in grid]
        assert provider.sent == jobs[:4]


def test_transcript_records_retry_attempts(vending):
    spec = policy_check_pipeline(["No deadlock states."])
    mock = MockProvider([ProviderRateLimited("429"), ProviderRateLimited("429"),
                         "Policy 1: not violated"])
    import dataclasses
    quiet = dataclasses.replace(spec, retry=RetryPolicy(max_attempts=3,
                                                        sleep_fn=lambda _: None))
    transcript = run_pipeline(quiet, vending, mock)
    assert not transcript.failed
    assert transcript.steps[0].attempts == 3


def test_transcript_provider_failure_marks_step(vending):
    spec = policy_check_pipeline(["No deadlock states."])
    import dataclasses
    quiet = dataclasses.replace(spec, retry=RetryPolicy(max_attempts=2,
                                                        sleep_fn=lambda _: None))
    mock = MockProvider([ProviderRateLimited("429")] * 10)
    transcript = run_pipeline(quiet, vending, mock)
    assert transcript.failed
    assert transcript.failed_step == "check"
    assert transcript.final is None
