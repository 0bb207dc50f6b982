"""Chat-completion client for OpenAI-compatible endpoints, with typed output.

The strict path asks for a single JSON object and parses it under the
prompt's output schema. When that fails, a second request goes out with the
relaxed plain-text prompt ("Score:", "Label:", "Feedback:" lines) and the
response is recovered by line-anchored matching. Every item lands in exactly
one ledger bucket: typed success, fallback success, or hard failure.
"""

import json
import logging
import os
import re
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

from .dataset import canonical_label
from .errors import (
    FallbackParseFailed,
    MissingOutputField,
    NoJsonFound,
    ParseError,
    RateLimited,
    ScoreValueOutOfRange,
    Timeout,
    TransportError,
    TypeMismatch,
)
from .promptkit import CompiledPrompt, TYPE_FREETEXT, TYPE_LABEL3, TYPE_REAL01

logger = logging.getLogger(__name__)

API_KEY_ENV = "ASASF_API_KEY"

PARSE_TYPED = "typed"
PARSE_FALLBACK = "fallback"
PARSE_FAILED = "failed"


@dataclass(frozen=True)
class ModelConfig:
    endpoint: str
    model: str
    temperature: float = 0.0
    max_tokens: int = 512
    timeout: float = 60.0
    max_retries: int = 3
    concurrency: int = 4
    retry_backoff: float = 0.5

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")


@dataclass
class Judgment:
    score: Optional[float]
    label: Optional[str]
    feedback: Optional[str]
    parse_path: str
    raw_text: Optional[str] = None
    fallback_raw_text: Optional[str] = None

    def to_dict(self) -> Dict:
        return asdict(self)


@dataclass
class LedgerEntry:
    total_calls: int = 0
    typed_failures: int = 0
    fallback_successes: int = 0
    hard_failures: int = 0

    @property
    def typed_successes(self) -> int:
        return self.total_calls - self.typed_failures

    @property
    def typed_failure_rate(self) -> float:
        return self.typed_failures / self.total_calls if self.total_calls else 0.0


class ErrorLedger:
    """Per-(model, pipeline, k) accounting of typed failures and recoveries."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[str, str, int], LedgerEntry] = {}

    def _entry(self, key: Tuple[str, str, int]) -> LedgerEntry:
        if key not in self._entries:
            self._entries[key] = LedgerEntry()
        return self._entries[key]

    def record_call(self, key):
        with self._lock:
            self._entry(key).total_calls += 1

    def record_typed_failure(self, key):
        with self._lock:
            self._entry(key).typed_failures += 1

    def record_fallback_success(self, key):
        with self._lock:
            self._entry(key).fallback_successes += 1

    def record_hard_failure(self, key):
        with self._lock:
            self._entry(key).hard_failures += 1

    def entry(self, key: Tuple[str, str, int]) -> LedgerEntry:
        with self._lock:
            return self._entry(key)

    def check_conservation(self) -> None:
        """total == typed successes + fallback successes + hard failures, per stratum."""
        with self._lock:
            for key, e in self._entries.items():
                if e.typed_failures < e.fallback_successes + e.hard_failures:
                    raise AssertionError(f"ledger invariant violated for {key}: {e}")
                if e.total_calls != e.typed_successes + e.fallback_successes + e.hard_failures:
                    raise AssertionError(f"ledger conservation violated for {key}: {e}")

    def to_dict(self) -> Dict:
        with self._lock:
            return {
                "|".join(map(str, key)): asdict(e)
                for key, e in sorted(self._entries.items())
            }

    @classmethod
    def from_dict(cls, data: Dict) -> "ErrorLedger":
        ledger = cls()
        for raw_key, counts in data.items():
            model, pipeline, k = raw_key.rsplit("|", 2)
            entry = ledger._entry((model, pipeline, int(k)))
            entry.total_calls = counts["total_calls"]
            entry.typed_failures = counts["typed_failures"]
            entry.fallback_successes = counts["fallback_successes"]
            entry.hard_failures = counts["hard_failures"]
        return ledger


def _completions_url(endpoint: str) -> str:
    endpoint = endpoint.rstrip("/")
    if endpoint.endswith("/chat/completions"):
        return endpoint
    return endpoint + "/v1/chat/completions"


class ChatClient:
    """Thread-safe client; the caller's worker pool bounds requests in flight."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        import requests

        self._session = requests.Session()

    def complete(self, prompt: CompiledPrompt, relaxed: bool = False) -> str:
        """One chat completion; retries transport/5xx/429 with exponential backoff."""
        system = prompt.relaxed_system_text if relaxed else prompt.system_text
        user = prompt.relaxed_user_text if relaxed else prompt.user_text
        return self.complete_messages(
            [{"role": "system", "content": system}, {"role": "user", "content": user}]
        )

    def complete_messages(self, messages) -> str:
        import requests

        body = {
            "model": self.cfg.model,
            "messages": messages,
            "temperature": self.cfg.temperature,
            "max_tokens": self.cfg.max_tokens,
        }
        headers = {}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        url = _completions_url(self.cfg.endpoint)
        last_error: Optional[Exception] = None
        for attempt in range(self.cfg.max_retries):
            if attempt:
                time.sleep(self.cfg.retry_backoff * (2 ** (attempt - 1)))
            try:
                resp = self._session.post(
                    url, json=body, headers=headers, timeout=self.cfg.timeout
                )
            except requests.Timeout as exc:
                last_error = Timeout(f"request timed out: {exc}")
                continue
            except requests.RequestException as exc:
                last_error = TransportError(f"request failed: {exc}")
                continue
            if resp.status_code == 429:
                last_error = RateLimited("rate limited by endpoint")
                continue
            if resp.status_code >= 500:
                last_error = TransportError(f"server error HTTP {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
            try:
                return resp.json()["choices"][0]["message"]["content"]
            except (KeyError, IndexError, ValueError) as exc:
                raise TransportError(f"malformed completion response: {exc}") from exc
        assert last_error is not None
        raise last_error


def _first_json_object(raw: str) -> Dict:
    decoder = json.JSONDecoder()
    idx = raw.find("{")
    while idx != -1:
        try:
            obj, _ = decoder.raw_decode(raw, idx)
        except ValueError:
            idx = raw.find("{", idx + 1)
            continue
        if isinstance(obj, dict):
            return obj
        idx = raw.find("{", idx + 1)
    raise NoJsonFound("no JSON object in model output")


def _coerce_score(value) -> float:
    if isinstance(value, bool):
        raise TypeMismatch(f"score has wrong type {type(value).__name__}")
    if isinstance(value, (int, float)):
        score = float(value)
    elif isinstance(value, str):
        try:
            score = float(value.strip())
        except ValueError:
            raise TypeMismatch(f"score {value!r} is not numeric")
    else:
        raise TypeMismatch(f"score has wrong type {type(value).__name__}")
    if not (0.0 <= score <= 1.0):
        raise ScoreValueOutOfRange(score)
    return score


def _coerce_label(value) -> str:
    if not isinstance(value, str):
        raise TypeMismatch(f"label has wrong type {type(value).__name__}")
    try:
        return canonical_label(value)
    except ValueError:
        raise TypeMismatch(f"unknown label {value!r}")


def _extract_judgment_fields(schema, values: Dict) -> Tuple[float, str, str]:
    score = label = feedback = None
    for name, tag in schema:
        if tag == TYPE_REAL01 and score is None:
            score = values[name]
        elif tag == TYPE_LABEL3 and label is None:
            label = values[name]
        elif tag == TYPE_FREETEXT and feedback is None and name != "reasoning":
            feedback = values[name]
    if score is None or label is None or feedback is None:
        raise TypeMismatch("schema does not cover score/label/feedback")
    return score, label, feedback


def parse_typed(raw: str, schema) -> Judgment:
    """Parse the first JSON object in ``raw`` under the schema's typed contract.

    All schema fields must be present with the right types; scores may arrive
    as string-numbers but out-of-range values are errors, never clamped.
    """
    obj = _first_json_object(raw)
    values: Dict[str, object] = {}
    for name, tag in schema:
        if name not in obj:
            raise MissingOutputField(name)
        value = obj[name]
        if tag == TYPE_REAL01:
            values[name] = _coerce_score(value)
        elif tag == TYPE_LABEL3:
            values[name] = _coerce_label(value)
        else:
            if not isinstance(value, str):
                raise TypeMismatch(f"field {name!r} must be a string")
            values[name] = value
    score, label, feedback = _extract_judgment_fields(schema, values)
    return Judgment(
        score=score, label=label, feedback=feedback, parse_path=PARSE_TYPED, raw_text=raw
    )


_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


def _relaxed_field(raw: str, name: str, take_rest: bool = False) -> Optional[str]:
    pattern = re.compile(rf"(?im)^[ \t]*{re.escape(name)}[ \t]*:[ \t]*")
    match = pattern.search(raw)
    if not match:
        return None
    if take_rest:
        return raw[match.end() :].strip()
    line_end = raw.find("\n", match.end())
    value = raw[match.end() : None if line_end == -1 else line_end]
    return value.strip()


def parse_relaxed(raw: str, schema) -> Judgment:
    """Recover score/label/feedback from labelled plain-text lines."""
    score_text = _relaxed_field(raw, "score")
    label_text = _relaxed_field(raw, "label")
    feedback_text = _relaxed_field(raw, "feedback", take_rest=True)
    if score_text is None or label_text is None:
        raise FallbackParseFailed("missing Score/Label line in relaxed output")

    number = _NUMBER_RE.search(score_text)
    if not number:
        raise FallbackParseFailed(f"no numeric score in {score_text!r}")
    score = float(number.group())
    if not (0.0 <= score <= 1.0):
        raise FallbackParseFailed(f"relaxed score {score} outside [0, 1]")
    try:
        label = canonical_label(label_text)
    except ValueError:
        raise FallbackParseFailed(f"unknown relaxed label {label_text!r}")

    return Judgment(
        score=score,
        label=label,
        feedback=feedback_text or "",
        parse_path=PARSE_FALLBACK,
    )


def fallback_parse(
    prompt: CompiledPrompt, client: ChatClient, schema, first_raw: Optional[str]
) -> Judgment:
    """Second request with the relaxed prompt after a typed-parse failure.

    The first raw response stays on the judgment for audit either way.
    """
    relaxed_raw = client.complete(prompt, relaxed=True)
    try:
        judgment = parse_relaxed(relaxed_raw, schema)
    except FallbackParseFailed:
        return Judgment(
            score=None,
            label=None,
            feedback=None,
            parse_path=PARSE_FAILED,
            raw_text=first_raw,
            fallback_raw_text=relaxed_raw,
        )
    judgment.raw_text = first_raw
    judgment.fallback_raw_text = relaxed_raw
    return judgment


def judge(
    prompt: CompiledPrompt,
    client: ChatClient,
    ledger: ErrorLedger,
    ledger_key: Tuple[str, str, int],
) -> Judgment:
    """Typed attempt, then fallback; exactly one ledger bucket per item."""
    ledger.record_call(ledger_key)
    first_raw: Optional[str] = None
    try:
        first_raw = client.complete(prompt)
        judgment = parse_typed(first_raw, prompt.output_schema)
        return judgment
    except (ParseError, TransportError) as exc:
        logger.debug("typed path failed (%s); trying fallback", exc)
        ledger.record_typed_failure(ledger_key)

    try:
        judgment = fallback_parse(prompt, client, prompt.output_schema, first_raw)
    except TransportError:
        judgment = Judgment(
            score=None, label=None, feedback=None, parse_path=PARSE_FAILED, raw_text=first_raw
        )
    if judgment.parse_path == PARSE_FAILED:
        ledger.record_hard_failure(ledger_key)
    else:
        ledger.record_fallback_success(ledger_key)
    return judgment
