"""Provider-agnostic chat completion with retry/backoff.

Wire contract: request carries {model, messages, temperature, top_p,
presence_penalty, frequency_penalty, max_tokens}; the reply text is the
first choice's message content.  Endpoint and model come from a config
file; the credential comes from the FSMGUARD_API_KEY environment variable.
"""
from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Protocol, Sequence

from .params import GenerationParams

API_KEY_ENV = "FSMGUARD_API_KEY"
MOCK_STEP_SEPARATOR = "---step---"


class ProviderError(RuntimeError):
    """A failed completion.  attempts is the number of provider calls made,
    which chat_complete sets on what it raises."""

    attempts = 1


class ProviderAuthError(ProviderError):
    """Bad or missing credential; never retried."""


class ProviderRateLimited(ProviderError):
    """Transient throttling; retried with backoff."""


class ProviderTimeout(ProviderError):
    """Request timed out; retried with backoff."""


class ChatProvider(Protocol):
    provider_id: str

    def send(self, messages: list[dict], params: GenerationParams) -> str: ...


BACKOFF_BASE_S = 0.5
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_S = 8.0
BACKOFF_JITTER_S = 0.25


@dataclass
class RetryPolicy:
    max_attempts: int = 3
    sleep_fn: Callable[[float], None] = time.sleep
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts {self.max_attempts} must be at least 1")

    def delay_for(self, attempt: int) -> float:
        base = min(BACKOFF_BASE_S * BACKOFF_FACTOR ** attempt, BACKOFF_CAP_S)
        return base + self.rng.uniform(0.0, BACKOFF_JITTER_S)


@dataclass
class CompletionResult:
    text: str
    attempts: int


def chat_complete(provider: ChatProvider, messages: list[dict],
                  params: GenerationParams,
                  retry: RetryPolicy | None = None) -> CompletionResult:
    """One synchronous completion.  Rate limits and timeouts back off
    exponentially with jitter up to the policy limit; auth failures are
    terminal on the first attempt.  A ProviderError raised here carries the
    number of calls made in its attempts."""
    retry = retry or RetryPolicy()
    last: Exception | None = None
    for attempt in range(retry.max_attempts):
        try:
            text = provider.send(messages, params)
            return CompletionResult(text=text, attempts=attempt + 1)
        except (ProviderRateLimited, ProviderTimeout) as exc:
            last = exc
            if attempt + 1 < retry.max_attempts:
                retry.sleep_fn(retry.delay_for(attempt))
        except ProviderError as exc:   # auth and other errors are never retried
            exc.attempts = attempt + 1
            raise
    exhausted = ProviderError(f"provider failed after {retry.max_attempts} attempts: {last}")
    exhausted.attempts = retry.max_attempts
    raise exhausted from last


# -- mock provider -------------------------------------------------------------

class MockProvider:
    """Replays scripted responses in order; items may be exceptions to
    simulate transport failures."""

    def __init__(self, responses: Sequence[str | Exception], provider_id: str = "mock"):
        self._responses = list(responses)
        self._cursor = 0
        self.provider_id = provider_id
        self.requests: list[tuple[list[dict], GenerationParams]] = []

    def send(self, messages: list[dict], params: GenerationParams) -> str:
        self.requests.append((messages, params))
        if self._cursor >= len(self._responses):
            raise ProviderError("mock script exhausted")
        item = self._responses[self._cursor]
        self._cursor += 1
        if isinstance(item, Exception):
            raise item
        return item


def load_mock_script(path: str | Path) -> list[str]:
    """Mock scripts are plain text; steps are separated by a line equal to
    ``---step---``."""
    text = Path(path).read_text(encoding="utf-8")
    parts: list[list[str]] = [[]]
    for line in text.splitlines():
        if line.strip() == MOCK_STEP_SEPARATOR:
            parts.append([])
        else:
            parts[-1].append(line)
    return ["\n".join(p).strip("\n") for p in parts]


# -- HTTP provider --------------------------------------------------------------

@dataclass
class ProviderConfig:
    endpoint: str
    model: str
    timeout: float = 60.0

    @classmethod
    def from_dict(cls, section: dict) -> "ProviderConfig":
        return cls(
            endpoint=section["endpoint"],
            model=section["model"],
            timeout=float(section.get("timeout", 60.0)),
        )


Transport = Callable[[str, dict, bytes, float], tuple[int, bytes]]


def _urllib_transport(url: str, headers: dict, body: bytes, timeout: float) -> tuple[int, bytes]:
    # The HTTP client (with email and ssl) loads on the first request, so
    # importing fsmguard.llm for the mock provider or templates does not pay
    # for it.
    import http.client
    import urllib.error
    import urllib.request

    req = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()  # reading the error body can fail too
    except TimeoutError as exc:
        raise ProviderTimeout(str(exc)) from exc
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, TimeoutError):
            raise ProviderTimeout(str(exc)) from exc
        raise ProviderError(str(exc)) from exc
    except (OSError, http.client.HTTPException) as exc:
        # urlopen does not wrap what getresponse() or read() raise, such as
        # RemoteDisconnected, IncompleteRead or ConnectionResetError.
        raise ProviderError(f"transport failed: {exc!r}") from exc


class HttpProvider:
    """Chat-completion endpoint speaking the wire contract above."""

    def __init__(self, config: ProviderConfig,
                 transport: Transport = _urllib_transport,
                 api_key: Optional[str] = None):
        self.config = config
        self.transport = transport
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.provider_id = config.model

    def build_request(self, messages: list[dict], params: GenerationParams) -> dict:
        return {
            "model": self.config.model,
            "messages": messages,
            "temperature": params.temperature,
            "top_p": params.top_p,
            "presence_penalty": params.presence_penalty,
            "frequency_penalty": params.frequency_penalty,
            "max_tokens": params.max_tokens,
        }

    def send(self, messages: list[dict], params: GenerationParams) -> str:
        if not self.api_key:
            raise ProviderAuthError(f"no credential: set {API_KEY_ENV}")
        body = json.dumps(self.build_request(messages, params)).encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "Authorization": f"Bearer {self.api_key}",
        }
        status, payload = self.transport(self.config.endpoint, headers, body,
                                         self.config.timeout)
        if status in (401, 403):
            raise ProviderAuthError(f"authentication rejected (HTTP {status})")
        if status == 429:
            raise ProviderRateLimited("rate limited (HTTP 429)")
        if status >= 400:
            raise ProviderError(f"HTTP {status}: {payload[:200]!r}")
        try:
            return json.loads(payload.decode("utf-8"))["choices"][0]["message"]["content"]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, IndexError,
                TypeError) as exc:
            raise ProviderError(f"malformed completion payload: {exc}") from exc
