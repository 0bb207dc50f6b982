"""Chat-completion client for OpenAI-compatible endpoints, with typed output.

The strict path sends a rendered ``PromptTemplate``'s system and user text,
asks for a single JSON object and parses it under the prompt's output
schema. When that fails, a second request goes out with the relaxed
plain-text prompt ("Score:", "Label:", "Feedback:" lines) and the response
is recovered by line-anchored matching. Each judgment's
``parse_path`` (typed, fallback or failed) is the only record of its item's
outcome; ``LedgerEntry.of`` tallies a run's judgments into the ledger counts.

Every HTTP request ragrade sends, chat or embedding, goes through
``post_json`` and its one retry policy, on the standard library's
``http.client``. Connections are kept alive in one process-wide pool of idle
connections per (scheme, host, port): one the server has closed meanwhile is
dropped before reuse, and a reply marked for closing (any HTTP/1.0 reply)
closes its connection. ``http_proxy``, ``https_proxy`` and ``no_proxy`` are
read once per URL, and https goes through the proxy in a CONNECT tunnel, whose
CONNECT alone carries the proxy's credentials. The one SSL context is built on
the first https request, trusting the CA file that ``REQUESTS_CA_BUNDLE`` or
``CURL_CA_BUNDLE`` names, if either is set. In a process that has already
loaded ``requests``, each request is passed through ``requests.Session.post``
on its way to the pool, so hooks on that method (tracers, HTTP mocks) keep
seeing it. A reply longer than ``_MAX_REPLY_BYTES`` fails at once.
A request that times out, fails in transport, or gets a 5xx or a 429
is sent again, up to ``max_retries`` attempts in all (always 3 for
embedding), after ``_BACKOFF * 2**n`` seconds, 0.5 s first (no jitter). A
429 or 503 whose ``Retry-After`` gives a delay in seconds longer than that
waits the header's delay instead, capped at ``timeout``; the HTTP-date form
is ignored. The wait applies to that request only. A ``ChatClient`` bounds
its requests in flight (``WorkSlots``): a request holds a slot only while it
is sent and its reply read. Slots go out in arrival order, except that a
re-send takes the next free slot ahead of first attempts. A request granted
its slot while the caller's ``stop_when`` predicate holds gives the slot back
unsent and raises ``Stopped``: first attempts, re-sends and relaxed re-asks
alike. A re-send whose predicate holds before its backoff raises ``Stopped``
without waiting. The optimizer stops a lost trial this way.
"""

import base64
import contextvars
import functools
import json
import logging
import os
import re
import sys
import threading
import time
from collections import Counter, deque
from dataclasses import asdict, dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .dataset import canonical_label
from .errors import (
    FallbackParseFailed,
    MissingOutputField,
    NoJsonFound,
    ParseError,
    RateLimited,
    ScoreValueOutOfRange,
    Stopped,
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
# the one retry policy: attempts and timeout when none is given, and the backoff base
_ATTEMPTS, _BACKOFF, _TIMEOUT = 3, 0.5, 60.0
# the most of a reply read, above the largest legitimate embedding reply
_MAX_REPLY_BYTES = 64 << 20
_HEADERS = {"Content-Type": "application/json", "User-Agent": "ragrade"}
# read before a re-send's backoff and when a request is granted its slot: if
# it is set and returns true, the request is not sent and ``post_json`` raises
# ``Stopped``
stop_when: contextvars.ContextVar = contextvars.ContextVar("stop_when", default=None)


@dataclass(frozen=True)
class ModelConfig:
    endpoint: str
    model: str
    temperature: float = 0.0
    max_tokens: int = 512
    timeout: float = _TIMEOUT
    max_retries: int = _ATTEMPTS
    concurrency: int = 4

    def __post_init__(self):
        if not 0 <= self.temperature < float("inf"):  # NaN fails too
            raise ValueError("temperature must be a finite number >= 0")
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:  # sockets overflow above it
            raise ValueError(f"timeout must be > 0 and at most {threading.TIMEOUT_MAX:.0f} s")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")


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


class WorkSlots:
    """At most ``n`` holders at once, handed out in arrival order. A
    ``returning`` taker (a re-send) is served ahead of every first taker, so
    its wait is its backoff alone."""

    def __init__(self, n: int):
        self._lock = threading.Lock()
        self._free = n
        self._waiting = (deque(), deque())  # tickets of first takers, of re-sends

    def take(self, returning: bool = False) -> None:
        with self._lock:
            if self._free:  # nobody waits while a slot is free
                self._free -= 1
                return
            ticket = threading.Lock()
            ticket.acquire()
            self._waiting[returning].append(ticket)
        ticket.acquire()  # released by the ``give`` that hands this taker its slot

    def give(self) -> None:
        with self._lock:
            queue = self._waiting[True] or self._waiting[False]
            if queue:
                queue.popleft().release()
            else:
                self._free += 1


_DELAY_SECONDS = re.compile(r"[0-9]+")


class _Route(NamedTuple):
    """Where a URL's requests go: the host to connect to, an optional CONNECT
    tunnel, the request target, and any proxy credentials, which go with each
    request through a plain-http proxy and with the CONNECT of a tunnel only."""

    key: tuple
    https: bool
    host: str
    port: int
    tunnel: Optional[Tuple[str, int]]
    target: str
    proxy_headers: Dict[str, str]


@functools.lru_cache(maxsize=256)
def _route(url: str) -> _Route:
    """``url``'s route. The proxy settings (``*_proxy``, ``no_proxy``) are read
    once per URL, as ``urllib`` reads them; a proxy is spoken to in plain HTTP,
    so one given by an ``https://`` (or any other non-http) URL is refused."""
    import http.client
    import urllib.parse
    import urllib.request

    try:
        parts = urllib.parse.urlsplit(url)
        port = parts.port or (443 if parts.scheme == "https" else 80)
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and not urllib.request.proxy_bypass(parts.netloc.rpartition("@")[2]):
            proxy = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            proxy_port = proxy.port or 80
        else:
            proxy = None
    except ValueError as exc:  # a malformed host or port, in the URL or its proxy's
        raise http.client.InvalidURL(f"{exc}: {url!r}") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname or (proxy and not proxy.hostname):
        raise http.client.InvalidURL(f"not an http(s) URL with a host: {url!r}")
    if proxy and proxy.scheme != "http":
        raise http.client.InvalidURL(f"proxy {proxy.geturl()!r} for {url!r} is not an http:// URL")
    https = parts.scheme == "https"
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    if proxy is None:
        return _Route((parts.scheme, parts.hostname, port), https, parts.hostname, port,
                      None, target, {})
    proxy_headers = {}
    if proxy.username:
        credentials = ":".join(map(urllib.parse.unquote, (proxy.username, proxy.password or "")))
        proxy_headers["Proxy-Authorization"] = "Basic " + base64.b64encode(
            credentials.encode("utf-8")).decode("ascii")
    key = (parts.scheme, parts.hostname, port, proxy.geturl())
    if https:  # TLS end to end, through a CONNECT tunnel
        return _Route(key, True, proxy.hostname, proxy_port, (parts.hostname, port), target,
                      proxy_headers)
    return _Route(key, False, proxy.hostname, proxy_port, None, url, proxy_headers)


def _closed_by_peer(sock) -> bool:
    """An idle keep-alive socket reads as ready only if the server closed it
    (or sent what it must not); either way it cannot carry another request."""
    import select

    try:
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):  # already closed, or a descriptor past select's range
        return True


class _Reply(NamedTuple):
    """A reply, under the names a ``requests.Response`` gives its parts."""

    status_code: int
    headers: object
    content: bytes


class _ConnectionPool:
    """The process's idle keep-alive connections, per (scheme, host, port) and
    proxy. A connection goes back only after a reply read to its end and not
    marked ``will_close``, so there are never more idle than requests were
    once in flight together."""

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: Dict[tuple, list] = {}
        self._ssl_context = None

    def send(self, url: str, payload: bytes, headers: Dict[str, str], timeout: float) -> _Reply:
        """POST ``payload`` to ``url``; the reply's body is read to at most
        ``_MAX_REPLY_BYTES + 1`` bytes."""
        route = _route(url)
        conn = self._take(route.key) or self._connect(route, timeout)
        if route.tunnel is None:  # to the server itself, or in plain http to its proxy
            headers = {**headers, **route.proxy_headers}
        try:
            if conn.sock is not None:  # a reused connection takes this request's timeout
                conn.sock.settimeout(timeout)
            conn.request("POST", route.target, body=payload, headers={**_HEADERS, **headers})
            resp = conn.getresponse()
            body = resp.read(_MAX_REPLY_BYTES + 1)
        except BaseException:
            conn.close()
            raise
        if resp.will_close or not resp.isclosed():  # not read to its end: past the cap
            resp.close()
            conn.close()
        else:
            self._give(route.key, conn)
        return _Reply(resp.status, resp.headers, body)

    def _take(self, key):
        with self._lock:
            idle = self._idle.get(key)
            while idle:
                conn = idle.pop()
                if not _closed_by_peer(conn.sock):
                    return conn
                conn.close()
        return None

    def _give(self, key, conn) -> None:
        with self._lock:
            self._idle.setdefault(key, []).append(conn)

    def _connect(self, route: _Route, timeout: float):
        import http.client

        if not route.https:
            return http.client.HTTPConnection(route.host, route.port, timeout=timeout)
        conn = http.client.HTTPSConnection(
            route.host, route.port, timeout=timeout, context=self._context()
        )
        if route.tunnel:
            conn.set_tunnel(*route.tunnel, headers=route.proxy_headers)
        return conn

    def _context(self):
        """The one SSL context, built on the first https request: building one
        costs more than the rest of a request. ``REQUESTS_CA_BUNDLE`` or
        ``CURL_CA_BUNDLE`` names the CA file to trust instead of the system's."""
        with self._lock:
            if self._ssl_context is None:
                import ssl

                cafile = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
                self._ssl_context = ssl.create_default_context(cafile=cafile or None)
            return self._ssl_context


_POOL = _ConnectionPool()


class _SessionStandIn:
    """The ``self`` that ``requests.Session.post`` is called on, in a process
    that has already loaded ``requests``. That method's body is
    ``return self.request("POST", url, data=data, json=json, **kwargs)``, so the
    request still goes out on ``_POOL``, and hooks on the method see it."""

    @staticmethod
    def request(method, url, data, json, headers, timeout) -> _Reply:
        return _POOL.send(url, data, headers, timeout)


def _stopped() -> bool:
    stop = stop_when.get()
    return stop is not None and stop()


def post_json(
    url: str, body, *, attempts=None, timeout=None, headers=None, slots=None
) -> Dict:
    """POST ``body`` as JSON and return the reply's JSON object, retrying as
    the module docstring says (``_ATTEMPTS`` and ``_TIMEOUT`` unless given).
    Each send holds one of ``slots``, if given, while it is sent and its reply
    read; if ``stop_when`` holds before a re-send's backoff, or when the slot
    is granted (the slot then goes back), ``Stopped`` is raised. Any other
    non-200 status, a reply past ``_MAX_REPLY_BYTES``, or a body that is not
    a JSON object, raises ``TransportError`` at once."""
    import http.client

    attempts = _ATTEMPTS if attempts is None else attempts
    timeout = _TIMEOUT if timeout is None else timeout
    try:
        payload = json.dumps(body, allow_nan=False).encode("utf-8")
    except ValueError as exc:  # NaN or infinity, which JSON cannot carry
        raise TransportError(f"request body is not JSON: {exc}") from None
    requests = sys.modules.get("requests")
    send = functools.partial(requests.Session.post, _SessionStandIn) if requests else _POOL.send
    last_error: Optional[Exception] = None
    retry_after: Optional[str] = None
    for attempt in range(attempts):
        if attempt:
            if _stopped():  # a request that will not be sent waits out no backoff
                raise Stopped("stopped before a re-send")
            delay = _BACKOFF * 2 ** (attempt - 1)
            if retry_after is not None and _DELAY_SECONDS.fullmatch(retry_after.strip()):
                delay = max(delay, min(float(retry_after), timeout))
            time.sleep(delay)
        retry_after = None
        if slots is not None:
            slots.take(returning=attempt > 0)
            if _stopped():
                slots.give()
                raise Stopped("stopped before sending")
        try:
            resp = send(url, payload, headers=headers or {}, timeout=timeout)
        except TimeoutError as exc:
            last_error = Timeout(f"request timed out: {exc}")
            continue
        except (OSError, http.client.HTTPException) as exc:
            last_error = TransportError(f"request failed: {exc}")
            continue
        finally:
            if slots is not None:
                slots.give()
        status, data = resp.status_code, resp.content
        if len(data) > _MAX_REPLY_BYTES:
            raise TransportError(f"reply is longer than {_MAX_REPLY_BYTES} bytes")
        if status in (429, 503):
            retry_after = resp.headers.get("Retry-After")
        if status == 429:
            last_error = RateLimited("rate limited by endpoint")
            continue
        if status >= 500:
            last_error = TransportError(f"server error HTTP {status}")
            continue
        if status != 200:
            raise TransportError(f"HTTP {status}: {data[:200].decode('utf-8', 'replace')}")
        try:
            reply = json.loads(data)
        except (ValueError, RecursionError):
            reply = None
        if not isinstance(reply, dict):
            raise TransportError(
                f"reply is not a JSON object: {data[:200].decode('utf-8', 'replace')}"
            )
        return reply
    raise last_error


def _completions_url(endpoint: str) -> str:
    endpoint = endpoint.rstrip("/")
    if endpoint.endswith("/chat/completions"):
        return endpoint
    return endpoint + "/v1/chat/completions"


class ChatClient:
    """Thread-safe client, shared by every item of a run.

    It owns the one bound on chat requests in flight: at most
    ``cfg.concurrency`` at once, from any number of threads or runs.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self._slots = WorkSlots(cfg.concurrency)

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
            _completions_url(cfg.endpoint), body, attempts=cfg.max_retries,
            timeout=cfg.timeout, headers=headers, slots=self._slots,
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
# what may not follow such a number: "1_0", "1/2", "0,5" and "0.5.1" are not scores
_NUMBER_CUT_RE = re.compile(r"[\w/]|[.,]\d")


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
    if not number or _NUMBER_CUT_RE.match(score_text, number.end()):
        raise FallbackParseFailed(f"no plain numeric score in {score_text!r}")
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
