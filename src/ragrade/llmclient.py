"""Chat-completion client for OpenAI-compatible endpoints, with typed output.

The strict path sends a rendered ``PromptTemplate``'s system and user text,
asks for a single JSON object and parses it under the prompt's output
schema. When that fails, a second request goes out with the relaxed
plain-text prompt ("Score:", "Label:", "Feedback:" lines) and the response
is recovered by line-anchored matching. Each judgment's
``parse_path`` (typed, fallback or failed) is the only record of its item's
outcome; ``LedgerEntry.of`` tallies a run's judgments into the ledger counts.

Every HTTP request ragrade sends, chat or embedding, goes through
``post_json`` and its one retry policy. A request that times out, fails in
transport, or gets a 5xx or a 429 is sent again, up to ``max_retries``
attempts in all (always 3 for embedding), after ``retry_backoff * 2**n``
seconds (no jitter). A 429 or 503 whose ``Retry-After`` gives a delay in
seconds longer than that waits the header's delay instead, capped at
``timeout``; the HTTP-date form is ignored. The wait applies to the item whose
request got the reply, not to the whole client: other items keep sending.
While it waits, the item gives up its work slot (``WorkSlots``), so a waiting
item never idles the bound on items working at once.
"""

import json
import logging
import os
import re
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence, Tuple

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
from .promptkit import PromptTemplate, TYPE_FREETEXT, TYPE_LABEL3, TYPE_REAL01

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
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")


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


@dataclass(frozen=True)
class LedgerEntry:
    """One run's outcome tally, counted from its judgments' parse paths."""

    total_calls: int
    typed_failures: int
    fallback_successes: int
    hard_failures: int

    @classmethod
    def of(cls, judgments: Sequence[Judgment]) -> "LedgerEntry":
        paths = Counter(j.parse_path for j in judgments)
        return cls(
            total_calls=len(judgments),
            typed_failures=paths[PARSE_FALLBACK] + paths[PARSE_FAILED],
            fallback_successes=paths[PARSE_FALLBACK],
            hard_failures=paths[PARSE_FAILED],
        )

    @property
    def typed_failure_rate(self) -> float:
        return self.typed_failures / self.total_calls if self.total_calls else 0.0


class WorkSlots:
    """At most ``n`` items working at once; ``with slots:`` holds one slot.

    A retry wait inside the block gives the slot up. Coming back, the item
    takes the next free slot ahead of items that have not started, so its
    wait is its backoff, not the rest of the split.
    """

    def __init__(self, n: int):
        self._cond = threading.Condition()
        self._free = n
        self._returning = 0

    def take(self, returning: bool = False) -> None:
        with self._cond:
            self._returning += returning
            while not self._free or (self._returning and not returning):
                self._cond.wait()
            self._returning -= returning
            self._free -= 1

    def give(self) -> None:
        with self._cond:
            self._free += 1
            self._cond.notify_all()

    def __enter__(self):
        self.take()
        _held.slots = self

    def __exit__(self, *exc):
        _held.slots = None
        self.give()


_held = threading.local()  # .slots: the WorkSlots this thread's item holds a slot of
_DELAY_SECONDS = re.compile(r"[0-9]+")


def post_json(
    session, url: str, body, *, attempts: int, backoff: float, timeout: float, headers=None
) -> Dict:
    """POST ``body`` as JSON and return the reply's JSON object, retrying as
    the module docstring says. Any other non-200 status, or a body that is not
    a JSON object, raises ``TransportError`` at once."""
    import requests

    last_error: Optional[Exception] = None
    retry_after: Optional[str] = None
    for attempt in range(attempts):
        if attempt:
            delay = backoff * 2 ** (attempt - 1)
            if retry_after is not None and _DELAY_SECONDS.fullmatch(retry_after.strip()):
                delay = max(delay, min(float(retry_after), timeout))
            slots = getattr(_held, "slots", None)
            if slots is not None:
                slots.give()
            try:
                time.sleep(delay)
            finally:
                if slots is not None:
                    slots.take(returning=True)
        retry_after = None
        try:
            resp = session.post(url, json=body, headers=headers, timeout=timeout)
        except requests.Timeout as exc:
            last_error = Timeout(f"request timed out: {exc}")
            continue
        except requests.RequestException as exc:
            last_error = TransportError(f"request failed: {exc}")
            continue
        if resp.status_code in (429, 503):
            retry_after = resp.headers.get("Retry-After")
        if resp.status_code == 429:
            last_error = RateLimited("rate limited by endpoint")
            continue
        if resp.status_code >= 500:
            last_error = TransportError(f"server error HTTP {resp.status_code}")
            continue
        if resp.status_code != 200:
            raise TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            reply = resp.json()
        except (ValueError, RecursionError):
            reply = None
        if not isinstance(reply, dict):
            raise TransportError(f"reply is not a JSON object: {resp.text[:200]}")
        return reply
    raise last_error


def _completions_url(endpoint: str) -> str:
    endpoint = endpoint.rstrip("/")
    if endpoint.endswith("/chat/completions"):
        return endpoint
    return endpoint + "/v1/chat/completions"


class ChatClient:
    """Thread-safe client, shared by every item of a run.

    It sends only from the calling thread, so the caller's work slots bound
    requests in flight; an item waiting out a retry holds no slot.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        import requests

        self._session = requests.Session()

    def complete(self, prompt: PromptTemplate, relaxed: bool = False) -> str:
        """One chat completion, sent through ``post_json``."""
        system = prompt.relaxed_system_text if relaxed else prompt.system_text
        user = prompt.relaxed_user_text if relaxed else prompt.user_text
        return self.complete_messages(
            [{"role": "system", "content": system}, {"role": "user", "content": user}]
        )

    def complete_messages(self, messages) -> str:
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
        cfg = self.cfg
        reply = post_json(
            self._session, _completions_url(cfg.endpoint), body, attempts=cfg.max_retries,
            backoff=cfg.retry_backoff, timeout=cfg.timeout, headers=headers,
        )
        try:
            content = reply["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            content = None
        if not isinstance(content, str):
            raise TransportError(f"malformed completion response: {str(reply)[:200]}")
        return content


def _first_json_object(raw: str) -> Dict:
    decoder = json.JSONDecoder()
    idx = raw.find("{")
    while idx != -1:
        try:
            obj, _ = decoder.raw_decode(raw, idx)
        except (ValueError, RecursionError):  # undecodable, or nested too deep
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
        try:
            score = float(value)
        except OverflowError:  # an int too large for a float
            raise ScoreValueOutOfRange(value)
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


# the number forms float() reads: a sign, a leading- or trailing-dot decimal, an exponent
_NUMBER_RE = re.compile(r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")


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


def parse_relaxed(raw: str) -> Judgment:
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
    prompt: PromptTemplate, client: ChatClient, first_raw: Optional[str]
) -> Judgment:
    """Second request with the relaxed prompt after a typed-parse failure.

    The first raw response stays on the judgment for audit either way.
    """
    relaxed_raw = client.complete(prompt, relaxed=True)
    try:
        judgment = parse_relaxed(relaxed_raw)
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


def judge(prompt: PromptTemplate, client: ChatClient) -> Judgment:
    """Typed attempt, then fallback; the judgment's parse path is the item's outcome."""
    first_raw: Optional[str] = None
    try:
        first_raw = client.complete(prompt)
        return parse_typed(first_raw, prompt.output_schema)
    except (ParseError, TransportError) as exc:
        logger.debug("typed path failed (%s); trying fallback", exc)

    try:
        return fallback_parse(prompt, client, first_raw)
    except TransportError:
        return Judgment(
            score=None, label=None, feedback=None, parse_path=PARSE_FAILED, raw_text=first_raw
        )
