import json
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ragrade import embedding, llmclient

from ragrade.errors import (
    FallbackParseFailed,
    MissingOutputField,
    NoJsonFound,
    ParseError,
    RateLimited,
    ScoreValueOutOfRange,
    TransportError,
    TypeMismatch,
)
from ragrade.llmclient import (
    ChatClient,
    LedgerEntry,
    ModelConfig,
    judge,
    parse_relaxed,
    parse_typed,
)
from ragrade.promptkit import Signature, compile_signature, render_prompt

from stub_servers import (
    _chat_payload,
    _is_relaxed,
    always_status_app,
    echo_gold_chat_app,
    fail_n_then,
    fixed_chat_app,
    mirror_embedding_app,
)

SCHEMA = (("score", "real01"), ("label", "label3"), ("feedback", "freetext"))


def _cfg(endpoint, **kw):
    defaults = dict(model="stub-model", max_retries=3, retry_backoff=0.0, timeout=5.0)
    defaults.update(kw)
    return ModelConfig(endpoint=endpoint, **defaults)


def _prompt():
    return render_prompt(
        compile_signature(Signature(), "predict"),
        {
            "question": "What is X?",
            "reference_answer": "X is Y.",
            "student_answer": "X is Y indeed kestrel",
        },
    )


# --- transport ---


def test_complete_returns_stub_body(stub_server_factory):
    body = '{"score": 1.0, "label": "correct", "feedback": "well done"}'
    server = stub_server_factory(fixed_chat_app(body))
    client = ChatClient(_cfg(server.url))
    assert client.complete(_prompt()) == body
    request = server.requests[0]
    assert request["path"] == "/v1/chat/completions"
    assert request["body"]["model"] == "stub-model"
    assert request["body"]["temperature"] == 0.0
    assert [m["role"] for m in request["body"]["messages"]] == ["system", "user"]


def test_retry_succeeds_after_two_failures(stub_server_factory):
    server = stub_server_factory(fail_n_then(2, fixed_chat_app("recovered")))
    client = ChatClient(_cfg(server.url, max_retries=3))
    assert client.complete(_prompt()) == "recovered"
    assert len(server.requests) == 3


def test_retries_exhausted_on_5xx(stub_server_factory):
    server = stub_server_factory(always_status_app(500))
    client = ChatClient(_cfg(server.url, max_retries=3))
    with pytest.raises(TransportError):
        client.complete(_prompt())
    assert len(server.requests) == 3


def test_rate_limited(stub_server_factory):
    server = stub_server_factory(always_status_app(429))
    client = ChatClient(_cfg(server.url, max_retries=2))
    with pytest.raises(RateLimited):
        client.complete(_prompt())


_RETRY_AFTER_CASES = [
    (429, "2", 0.0, 2.0),  # the header's delay is longer than the backoff
    (503, "2", 0.0, 2.0),
    (429, "0", 0.25, 0.25),  # the backoff is longer
    (429, "30", 0.0, 5.0),  # capped at the timeout
    (500, "2", 0.25, 0.25),  # honoured on 429 and 503 only
    (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.25, 0.25),  # date form ignored
    (429, "-3", 0.25, 0.25),
]


def _chat_once(url, backoff, timeout, monkeypatch):
    client = ChatClient(_cfg(url, max_retries=2, retry_backoff=backoff, timeout=timeout))
    assert client.complete(_prompt()) == "recovered"


def _embed_once(url, backoff, timeout, monkeypatch):
    # the embedding client has no retry options: it reads its module's policy
    monkeypatch.setattr(embedding, "_BACKOFF", backoff)
    monkeypatch.setattr(embedding, "_TIMEOUT", timeout)
    cfg = embedding.EmbedderConfig(backend="remote", endpoint=url, dimension=8)
    assert embedding.embed_tokens("recovered", cfg).tokens == ["recovered"]


# both clients send through one request path, so they wait alike; chat cases are unprefixed
@pytest.mark.parametrize(
    "send, app, status, retry_after, backoff, expected",
    [
        pytest.param(send, app, *case, id=prefix + "-".join(map(str, case)))
        for prefix, send, app in (
            ("", _chat_once, fixed_chat_app("recovered")),
            ("embedding-", _embed_once, mirror_embedding_app(8)),
        )
        for case in _RETRY_AFTER_CASES
    ],
)
def test_retry_wait_honours_retry_after(
    stub_server_factory, monkeypatch, send, app, status, retry_after, backoff, expected
):
    waits = []
    monkeypatch.setattr(llmclient, "time", SimpleNamespace(sleep=waits.append))
    server = stub_server_factory(
        fail_n_then(1, app, status, headers={"Retry-After": retry_after})
    )
    send(server.url, backoff, 5.0, monkeypatch)
    assert waits == [expected]
    assert len(server.requests) == 2


def test_work_slots_bound_holds_under_contention():
    slots = llmclient.WorkSlots(3)
    lock = threading.Lock()
    state = {"now": 0, "peak": 0, "done": 0}

    def busy(delta):
        with lock:
            state["now"] += delta
            state["peak"] = max(state["peak"], state["now"])

    def worker(seed):
        for i in range(300):
            slots.take()
            busy(1)
            time.sleep(0.0001)
            if (i + seed) % 7 == 0:  # a retry wait: give the slot up, come back first
                busy(-1)
                slots.give()
                slots.take(returning=True)
                busy(1)
            busy(-1)
            slots.give()
        with lock:
            state["done"] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert state["done"] == 8 and state["now"] == 0
    assert state["peak"] <= 3


def test_unreachable_endpoint_raises_transport_error():
    client = ChatClient(_cfg("http://127.0.0.1:9", max_retries=2))
    with pytest.raises(TransportError):
        client.complete(_prompt())


def test_deeply_nested_reply_envelope_is_a_transport_error(stub_server_factory):
    deep = b'{"choices": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    server = stub_server_factory(lambda path, body: (200, deep))
    with pytest.raises(TransportError, match="not a JSON object"):
        ChatClient(_cfg(server.url)).complete(_prompt())


def test_bearer_token_from_environment(stub_server_factory, monkeypatch):
    server = stub_server_factory(fixed_chat_app("ok"))
    monkeypatch.setenv("ASASF_API_KEY", "sekrit")

    # the stub handler drops headers, so spy on the outgoing request instead
    captured = {}
    import requests

    original_post = requests.Session.post

    def spy(self, url, **kwargs):
        captured.update(kwargs.get("headers") or {})
        return original_post(self, url, **kwargs)

    monkeypatch.setattr(requests.Session, "post", spy)
    ChatClient(_cfg(server.url)).complete(_prompt())
    assert captured.get("Authorization") == "Bearer sekrit"


# --- typed parsing ---


def test_parse_typed_happy_path():
    raw = '{"score": 0.75, "label": "partially_correct", "feedback": "close"}'
    judgment = parse_typed(raw, SCHEMA)
    assert judgment.score == 0.75
    assert judgment.label == "partially_correct"
    assert judgment.feedback == "close"
    assert judgment.parse_path == "typed"
    assert judgment.raw_text == raw


def test_parse_typed_score_out_of_range():
    with pytest.raises(ScoreValueOutOfRange):
        parse_typed('{"score": 1.4, "label": "correct", "feedback": "x"}', SCHEMA)


def test_parse_typed_finds_first_embedded_object():
    raw = (
        "Sure! Here is my grading of the answer:\n"
        '{"score": "0.5", "label": "Partially correct", "feedback": "halfway"}\n'
        "Hope that helps."
    )
    judgment = parse_typed(raw, SCHEMA)
    assert judgment.score == 0.5  # string-number coerced
    assert judgment.label == "partially_correct"  # canonicalized


def test_parse_typed_skips_non_matching_objects():
    raw = '{"note": "warmup"} {"score": 1.0, "label": "correct", "feedback": "yes"}'
    # first object lacks the schema fields -> MissingOutputField, not silent skip
    with pytest.raises(MissingOutputField):
        parse_typed(raw, SCHEMA)


def test_parse_typed_no_json():
    with pytest.raises(NoJsonFound):
        parse_typed("The answer looks fine to me.", SCHEMA)


def test_parse_typed_type_mismatches():
    with pytest.raises(TypeMismatch):
        parse_typed('{"score": "high", "label": "correct", "feedback": "x"}', SCHEMA)
    with pytest.raises(TypeMismatch):
        parse_typed('{"score": 1.0, "label": "great", "feedback": "x"}', SCHEMA)
    with pytest.raises(TypeMismatch):
        parse_typed('{"score": 1.0, "label": "correct", "feedback": 7}', SCHEMA)
    with pytest.raises(TypeMismatch):
        parse_typed('{"score": true, "label": "correct", "feedback": "x"}', SCHEMA)


def test_parse_typed_missing_field():
    with pytest.raises(MissingOutputField):
        parse_typed('{"score": 1.0, "label": "correct"}', SCHEMA)


def test_parse_typed_cot_requires_reasoning():
    cot_schema = (("reasoning", "freetext"),) + SCHEMA
    with pytest.raises(MissingOutputField):
        parse_typed('{"score": 1.0, "label": "correct", "feedback": "x"}', cot_schema)
    judgment = parse_typed(
        '{"reasoning": "because", "score": 1.0, "label": "correct", "feedback": "x"}',
        cot_schema,
    )
    assert judgment.feedback == "x"  # reasoning requested but discarded


# --- relaxed / fallback parsing ---


def test_parse_relaxed_happy_path():
    raw = "Score: 0.5\nLabel: partially correct\nFeedback: decent work\non two lines"
    judgment = parse_relaxed(raw)
    assert judgment.score == 0.5
    assert judgment.label == "partially_correct"
    assert judgment.feedback == "decent work\non two lines"
    assert judgment.parse_path == "fallback"


@pytest.mark.parametrize(
    "score_text, score",
    [("1e-1", 0.1), (".5", 0.5), ("+0.75", 0.75), ("5E-1", 0.5), ("1.", 1.0), ("0.25 out of 1", 0.25)],
)
def test_parse_relaxed_reads_the_number_forms_float_reads(score_text, score):
    judgment = parse_relaxed(f"Score: {score_text}\nLabel: correct\nFeedback: ok")
    assert judgment.score == score


def test_parse_relaxed_no_score_fails():
    from ragrade.errors import FallbackParseFailed

    with pytest.raises(FallbackParseFailed):
        parse_relaxed("Label: correct\nFeedback: nice")


def test_judge_fallback_recovers(stub_server_factory, fixture_corpus):
    # strict requests get prose; relaxed requests succeed
    from conftest import gold_by_answer

    gold = gold_by_answer(fixture_corpus.records)
    app = echo_gold_chat_app(gold, malform_answers=set(gold))
    server = stub_server_factory(app)
    client = ChatClient(_cfg(server.url))
    record = fixture_corpus.records[0]
    prompt = render_prompt(
        compile_signature(Signature(), "predict"),
        {
            "question": record.question,
            "reference_answer": record.reference_answer,
            "student_answer": record.student_answer,
        },
    )
    judgment = judge(prompt, client)
    assert judgment.parse_path == "fallback"
    assert judgment.label == record.gold_label
    assert judgment.raw_text is not None  # first raw kept for audit
    entry = LedgerEntry.of([judgment])
    assert entry.typed_failures == 1
    assert entry.fallback_successes == 1
    assert entry.hard_failures == 0


def test_judge_hard_failure_when_fallback_unparseable(stub_server_factory):
    server = stub_server_factory(fixed_chat_app("no structure whatsoever"))
    client = ChatClient(_cfg(server.url))
    judgment = judge(_prompt(), client)
    assert judgment.parse_path == "failed"
    assert judgment.score is None and judgment.label is None
    entry = LedgerEntry.of([judgment])
    assert entry.hard_failures == 1
    assert entry.typed_failures == 1


@pytest.mark.parametrize(
    "payload",
    [
        {"choices": [{"message": {"content": None}}]},
        {"choices": None},
        {"choices": [{"message": "not an object"}]},
    ],
)
def test_judge_malformed_completion_is_hard_failure(stub_server_factory, payload):
    server = stub_server_factory(lambda path, body: (200, payload))
    client = ChatClient(_cfg(server.url))
    with pytest.raises(TransportError, match="malformed completion response"):
        client.complete(_prompt())
    judgment = judge(_prompt(), client)
    assert judgment.parse_path == "failed"
    assert len(server.requests) == 3  # complete, then judge's typed and relaxed asks


def test_judge_deeply_nested_reply_takes_the_relaxed_path(stub_server_factory):
    def app(path, body):
        if _is_relaxed(body):
            return 200, _chat_payload("Score: 1.0\nLabel: correct\nFeedback: fine")
        return 200, _chat_payload('{"score": ' + "[" * 100_000)

    judgment = judge(_prompt(), ChatClient(_cfg(stub_server_factory(app).url)))
    assert judgment.parse_path == "fallback"
    assert (judgment.score, judgment.label) == (1.0, "correct")


def test_ledger_counts_injected_failure_rate(stub_server_factory, fixture_corpus):
    from conftest import gold_by_answer

    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold, malform_every=10))
    client = ChatClient(_cfg(server.url))
    template = compile_signature(Signature(), "predict")
    records = fixture_corpus.records
    judgments = []
    for i in range(200):
        record = records[i % len(records)]
        prompt = render_prompt(
            template,
            {
                "question": record.question,
                "reference_answer": record.reference_answer,
                "student_answer": record.student_answer,
            },
        )
        judgments.append(judge(prompt, client))

    entry = LedgerEntry.of(judgments)
    assert entry.total_calls == 200
    assert entry.typed_failures == 20
    assert entry.typed_failure_rate == pytest.approx(0.10)
    assert entry.fallback_successes == 20  # relaxed responses always parse
    assert entry.hard_failures == 0


def test_temperature_validation():
    with pytest.raises(ValueError):
        ModelConfig(endpoint="http://x", model="m", temperature=-1.0)
    with pytest.raises(ValueError):
        ModelConfig(endpoint="http://x", model="m", concurrency=0)
    with pytest.raises(ValueError):
        ModelConfig(endpoint="http://x", model="m", max_retries=0)
    with pytest.raises(ValueError, match="retry_backoff"):
        ModelConfig(endpoint="http://x", model="m", retry_backoff=-0.5)
    assert ModelConfig(endpoint="http://x", model="m", retry_backoff=0.0).retry_backoff == 0.0


# --- parser properties ---

_SCORES = st.one_of(
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.text(max_size=12),
    st.sampled_from(["0.5", " 1 ", "1e400", "nan", "-0", "1_0"]),
    st.booleans(),
    st.none(),
)
_LABELS = st.one_of(
    st.sampled_from(["correct", "Partially correct", "INCORRECT", "great"]), st.text(max_size=12)
)
_TYPED_REPLIES = st.one_of(
    st.text(),
    st.builds(
        lambda prefix, obj: prefix + json.dumps(obj),
        st.text(max_size=8),
        st.fixed_dictionaries(
            {"score": _SCORES, "label": _LABELS},
            optional={"feedback": st.one_of(st.text(max_size=8), st.integers())},
        ),
    ),
)
_RELAXED_REPLIES = st.one_of(
    st.text(),
    st.builds(
        "Score: {}\nLabel: {}\nFeedback: {}".format,
        st.one_of(
            _SCORES.map(str),
            st.from_regex(r"[-+]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?", fullmatch=True),
        ),
        _LABELS,
        st.text(max_size=8),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_TYPED_REPLIES)
def test_parse_typed_raises_only_parse_errors_and_keeps_scores_in_range(raw):
    try:
        judgment = parse_typed(raw, SCHEMA)
    except ParseError:
        return
    assert 0.0 <= judgment.score <= 1.0


@settings(max_examples=300, deadline=None)
@given(_RELAXED_REPLIES)
def test_parse_relaxed_raises_only_fallback_failures_and_keeps_scores_in_range(raw):
    try:
        judgment = parse_relaxed(raw)
    except FallbackParseFailed:
        return
    assert 0.0 <= judgment.score <= 1.0
