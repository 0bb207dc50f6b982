import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from ragrade.dataset import split_view
from ragrade.embedding import EmbedderConfig
from ragrade import pipelines
from ragrade.errors import BudgetExhaustedWithoutValidCandidate, GoldLeakage
from ragrade.llmclient import ChatClient, LedgerEntry, ModelConfig
from ragrade.pipelines import (
    MODE_OPTIMIZED,
    MODE_RAG,
    MODE_VOTE,
    MODE_ZERO_SHOT,
    PipelineConfig,
    build_manifest,
    load_manifest,
    optimize_few_shot,
    run_split,
    write_manifest,
)
from ragrade.promptkit import Signature
from ragrade.retrieval import build_index

from conftest import gold_by_answer, typed_failure_rate, wait_until
from stub_servers import (
    copy_first_demo_chat_app,
    echo_gold_chat_app,
    fixed_chat_app,
    StubServer,
    instruction_sensitive_chat_app,
    outcome_chat_app,
    rate_limit_once_app,
)


@pytest.fixture(autouse=True)
def _no_backoff(monkeypatch):
    # retries wait 0 s here unless a test sets its own backoff
    monkeypatch.setattr("ragrade.llmclient._BACKOFF", 0.0)


def _model_cfg(endpoint, **kw):
    defaults = dict(model="stub-model", max_retries=2, timeout=5.0)
    defaults.update(kw)
    return ModelConfig(endpoint=endpoint, **defaults)


@pytest.fixture
def train_index(fixture_corpus):
    return build_index(split_view(fixture_corpus, "train"), EmbedderConfig(dimension=32))


def test_vote_mode_k1_exact_match(fixture_corpus, train_index):
    # query text identical to an indexed answer: k=1 returns that record's golds
    import dataclasses

    target = split_view(fixture_corpus, "train")[4]  # r05
    live = dataclasses.replace(target, id="probe", gold_score=0.0, gold_label="incorrect")
    cfg = PipelineConfig(mode=MODE_VOTE, k=1)
    (judgment,) = run_split([live], cfg, train_index)
    assert judgment.label == target.gold_label
    assert judgment.score == target.gold_score
    assert judgment.parse_path == "typed"


def test_vote_mode_excludes_own_id(fixture_corpus, train_index):
    # grading an indexed record must not let it vote for itself
    target = split_view(fixture_corpus, "train")[0]
    cfg = PipelineConfig(mode=MODE_VOTE, k=1)
    (judgment,) = run_split([target], cfg, train_index)
    assert judgment.parse_path == "typed"
    # nearest other neighbor cannot be the record itself; its own gold may
    # still coincide, so assert via neighbor retrieval instead
    from ragrade.retrieval import top_k

    neighbors = top_k(train_index, target.student_answer, 1, exclude={target.id})
    assert neighbors[0].record.id != target.id
    assert judgment.label == neighbors[0].record.gold_label


def test_zero_shot_with_fixed_stub(fixture_corpus, stub_server_factory):
    body = '{"score": 0.5, "label": "partially_correct", "feedback": "halfway"}'
    server = stub_server_factory(fixed_chat_app(body))
    cfg = PipelineConfig(mode=MODE_ZERO_SHOT, k=0, model=_model_cfg(server.url))
    record = split_view(fixture_corpus, "test_ua")[0]
    (judgment,) = run_split([record], cfg)
    assert (judgment.score, judgment.label, judgment.feedback) == (0.5, "partially_correct", "halfway")


def test_rag_mode_copies_rank1_neighbor_label(fixture_corpus, train_index, stub_server_factory):
    server = stub_server_factory(copy_first_demo_chat_app())
    cfg = PipelineConfig(mode=MODE_RAG, k=3, model=_model_cfg(server.url))
    from ragrade.retrieval import top_k

    for record in split_view(fixture_corpus, "test_ua"):
        (judgment,) = run_split([record], cfg, train_index)
        rank1 = top_k(train_index, record.student_answer, 1, exclude={record.id})[0]
        assert judgment.label == rank1.record.gold_label


def test_rag_prompt_demo_provenance(fixture_corpus, train_index, stub_server_factory):
    server = stub_server_factory(copy_first_demo_chat_app())
    cfg = PipelineConfig(mode=MODE_RAG, k=3, model=_model_cfg(server.url, concurrency=1))
    records = split_view(fixture_corpus, "test_ua")
    run_split(records, cfg, train_index)
    indexed_answers = set(train_index.record_ids)
    for request, record in zip(server.requests, records):
        user_text = next(
            m["content"] for m in request["body"]["messages"] if m["role"] == "user"
        )
        demo_section = user_text.split("Grade the following item.")[0]
        # every demo's student answer belongs to an indexed record != live id
        for rid in indexed_answers:
            rec = train_index.payload[rid]
            if rec.student_answer in demo_section:
                assert rid != record.id


def test_run_split_preserves_order_under_concurrency(fixture_corpus, stub_server_factory):
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    cfg = PipelineConfig(
        mode=MODE_ZERO_SHOT, k=0, model=_model_cfg(server.url, concurrency=4)
    )
    records = fixture_corpus.records  # all 14, any split
    judgments = run_split(records, cfg)
    assert len(judgments) == len(records)
    for record, judgment in zip(records, judgments):
        assert judgment.label == record.gold_label, "order or content drifted"
    assert LedgerEntry.of(judgments).total_calls == len(records)


class _InFlight:
    """Slows stub apps to ``delay`` s per request and records the peak in flight."""

    def __init__(self, delay=0.05):
        self.delay = delay
        self.now = 0
        self.peak = 0
        self.lock = threading.Lock()

    def wrap(self, app):
        def slow(path, body):
            with self.lock:
                self.now += 1
                self.peak = max(self.peak, self.now)
            try:
                time.sleep(self.delay)
                return app(path, body)
            finally:
                with self.lock:
                    self.now -= 1

        return slow


def test_chat_client_is_the_only_chat_concurrency_bound(fixture_corpus, stub_server_factory):
    gauge = _InFlight()
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(gauge.wrap(echo_gold_chat_app(gold)))
    cfg = PipelineConfig(mode=MODE_ZERO_SHOT, model=_model_cfg(server.url, concurrency=2))
    judgments = run_split(fixture_corpus.records[:8], cfg)
    assert [j.parse_path for j in judgments] == ["typed"] * 8
    assert gauge.peak == 2


def test_chat_client_bound_holds_alongside_remote_embedding(fixture_corpus, stub_server_factory):
    # rag embeds the split's queries in one request before the pool starts,
    # then the workers call the model
    from stub_servers import mirror_embedding_app

    gauge = _InFlight()
    gold = gold_by_answer(fixture_corpus.records)
    chat = stub_server_factory(gauge.wrap(echo_gold_chat_app(gold)))
    embed = stub_server_factory(gauge.wrap(mirror_embedding_app(32)))
    embed_cfg = EmbedderConfig(backend="remote", endpoint=embed.url, dimension=32)
    index = build_index(split_view(fixture_corpus, "train"), embed_cfg)
    gauge.peak = 0
    cfg = PipelineConfig(mode=MODE_RAG, k=2, model=_model_cfg(chat.url, concurrency=2))
    judgments = run_split(fixture_corpus.records[:8], cfg, index)
    assert [j.parse_path for j in judgments] == ["typed"] * 8
    assert len(embed.requests) == 1 + 1  # the index batch, then the queries' batch
    assert gauge.peak == 2


def test_every_embedding_and_chat_request_goes_out_on_one_session(
    fixture_corpus, stub_server_factory, monkeypatch
):
    from ragrade import llmclient
    from stub_servers import mirror_embedding_app

    sessions = []  # the connection pool each request went out on
    original_send = llmclient._ConnectionPool.send

    def spy(self, url, payload, headers, timeout):
        sessions.append(self)
        return original_send(self, url, payload, headers, timeout)

    monkeypatch.setattr(llmclient._ConnectionPool, "send", spy)
    chat = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
    embed = stub_server_factory(mirror_embedding_app(32))
    embed_cfg = EmbedderConfig(backend="remote", endpoint=embed.url, dimension=32)
    index = build_index(split_view(fixture_corpus, "train"), embed_cfg)
    cfg = PipelineConfig(mode=MODE_RAG, k=2, model=_model_cfg(chat.url, concurrency=2))
    judgments = run_split(split_view(fixture_corpus, "test_ua"), cfg, index)
    assert [j.parse_path for j in judgments] == ["typed"] * 3
    assert len(sessions) == len(embed.requests) + len(chat.requests) == 2 + 3
    assert len(set(map(id, sessions))) == 1


def test_oversized_reply_fails_its_own_item_only(fixture_corpus, stub_server_factory, monkeypatch):
    from stub_servers import _chat_payload

    monkeypatch.setattr("ragrade.llmclient._MAX_REPLY_BYTES", 1024)
    records = split_view(fixture_corpus, "test_ua")
    huge_answer = records[1].student_answer
    echo = echo_gold_chat_app(gold_by_answer(fixture_corpus.records))

    def app(path, body):
        if huge_answer in body["messages"][-1]["content"]:
            return 200, _chat_payload("x" * 2048)
        return echo(path, body)

    server = stub_server_factory(app)
    cfg = PipelineConfig(mode=MODE_ZERO_SHOT, model=_model_cfg(server.url, concurrency=2))
    judgments = run_split(records, cfg)
    assert [j.parse_path for j in judgments] == ["typed", "failed", "typed"]
    # one send on each path, typed then relaxed: a reply past the cap is not sent again
    huge = [r for r in server.requests if huge_answer in r["body"]["messages"][-1]["content"]]
    assert len(huge) == 2 and len(server.requests) == 4


def test_shared_client_bound_holds_across_concurrent_run_splits(
    fixture_corpus, stub_server_factory
):
    # the client, not each run, bounds the requests in flight
    gauge = _InFlight(delay=0.1)
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(gauge.wrap(echo_gold_chat_app(gold)))
    cfg = PipelineConfig(mode=MODE_ZERO_SHOT, model=_model_cfg(server.url, concurrency=2))
    client = ChatClient(cfg.model)
    halves = [fixture_corpus.records[0::2], fixture_corpus.records[1::2]]
    results = {}

    def grade(half):
        results[half] = run_split(halves[half], cfg, client=client)

    threads = [threading.Thread(target=grade, args=(half,)) for half in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    for half, records in enumerate(halves):
        assert [j.label for j in results[half]] == [r.gold_label for r in records]
    assert len(server.requests) == len(fixture_corpus.records)
    assert gauge.peak == 2


def test_vote_mode_builds_no_client_and_no_pool(fixture_corpus, train_index, monkeypatch):
    from ragrade import pipelines

    def refuse(*args, **kwargs):
        raise AssertionError("vote grades one item at a time, with no model")

    monkeypatch.setattr(pipelines, "ChatClient", refuse)
    monkeypatch.setattr(pipelines, "ThreadPoolExecutor", refuse)
    cfg = PipelineConfig(mode=MODE_VOTE, k=3)
    judgments = run_split(fixture_corpus.records, cfg, train_index)
    assert [j.parse_path for j in judgments] == ["typed"] * len(fixture_corpus.records)


def _graded_ids(requests, records):
    """The record each zero-shot chat request grades, in arrival order."""
    users = [m["content"] for r in requests for m in r["body"]["messages"] if m["role"] == "user"]
    return [next(rec.id for rec in records if rec.student_answer in user) for user in users]


def test_item_waiting_out_a_retry_frees_its_slot(fixture_corpus, stub_server_factory, monkeypatch):
    monkeypatch.setattr("ragrade.llmclient._BACKOFF", 0.5)
    gauge = _InFlight(delay=0.02)
    records = fixture_corpus.records[:3]
    gold = gold_by_answer(fixture_corpus.records)
    app = rate_limit_once_app({records[0].student_answer}, echo_gold_chat_app(gold))
    server = stub_server_factory(gauge.wrap(app))
    model = _model_cfg(server.url, concurrency=1)
    judgments = run_split(records, PipelineConfig(mode=MODE_ZERO_SHOT, model=model))
    assert [j.parse_path for j in judgments] == ["typed"] * 3
    order = _graded_ids(server.requests, records)
    # r01's 429 reply comes first or second; r02 and r03 go out while r01 waits
    assert sorted(order) == ["r01", "r01", "r02", "r03"] and order[-1] == "r01"
    assert gauge.peak == 1


def test_item_back_from_a_retry_goes_ahead_of_unstarted_items(
    fixture_corpus, stub_server_factory, monkeypatch
):
    monkeypatch.setattr("ragrade.llmclient._BACKOFF", 0.1)
    records = fixture_corpus.records  # 14 items, 20 ms each, one at a time
    gold = gold_by_answer(records)
    app = rate_limit_once_app({records[0].student_answer}, echo_gold_chat_app(gold))
    server = stub_server_factory(_InFlight(delay=0.02).wrap(app))
    model = _model_cfg(server.url, concurrency=1)
    run_split(records, PipelineConfig(mode=MODE_ZERO_SHOT, model=model))
    order = _graded_ids(server.requests, records)
    first, retry = [i for i, rid in enumerate(order) if rid == "r01"]
    # others go out during the 0.1 s wait, and the 13 take at least 0.26 s
    assert first + 1 < retry < len(order) - 1


def test_several_waiting_items_keep_the_bound(fixture_corpus, stub_server_factory, monkeypatch):
    monkeypatch.setattr("ragrade.llmclient._BACKOFF", 0.2)
    gauge = _InFlight()
    records = fixture_corpus.records[:8]
    gold = gold_by_answer(fixture_corpus.records)
    limited = {r.student_answer for r in records[:3]}
    server = stub_server_factory(gauge.wrap(rate_limit_once_app(limited, echo_gold_chat_app(gold))))
    model = _model_cfg(server.url, concurrency=2)
    judgments = run_split(records, PipelineConfig(mode=MODE_ZERO_SHOT, model=model))
    assert [j.parse_path for j in judgments] == ["typed"] * 8
    assert len(server.requests) == 8 + 3
    assert gauge.peak == 2


@pytest.mark.parametrize("mode", [MODE_RAG, MODE_VOTE])
def test_failing_query_batch_fails_its_items_without_more_requests(
    mode, fixture_corpus, stub_server_factory
):
    # documents embed; every query request gets a 503
    from stub_servers import mirror_embedding_app

    mirror = mirror_embedding_app(32)

    def embed_app(path, body):
        return (503, {"error": "down"}) if body["role"] == "query" else mirror(path, body)

    embed = stub_server_factory(embed_app)
    embed_cfg = EmbedderConfig(backend="remote", endpoint=embed.url, dimension=32)
    index = build_index(split_view(fixture_corpus, "train"), embed_cfg)
    chat = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
    model = _model_cfg(chat.url) if mode == MODE_RAG else None
    records = split_view(fixture_corpus, "test_ua")
    judgments = run_split(records, PipelineConfig(mode=mode, k=3, model=model), index)
    assert [j.parse_path for j in judgments] == ["failed"] * len(records)
    assert [r["body"]["role"] for r in embed.requests].count("query") == 3  # one group, 3 attempts
    assert chat.requests == []


def test_identity_pipeline_perfect_metrics(fixture_corpus, train_index, stub_server_factory):
    from ragrade.metrics import scoring_metrics

    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    cfg = PipelineConfig(mode=MODE_RAG, k=3, model=_model_cfg(server.url))
    records = split_view(fixture_corpus, "test_ua")
    judgments = run_split(records, cfg, train_index)
    report = scoring_metrics(judgments, [(r.gold_label, r.gold_score) for r in records])
    assert report.accuracy == 1.0
    assert report.rmse == 0.0
    assert typed_failure_rate(LedgerEntry.of(judgments)) == 0.0


def test_injected_failures_hit_exact_ledger_rate(fixture_corpus, train_index, stub_server_factory):
    records = split_view(fixture_corpus, "test_ua") * 10  # 30 items
    gold = gold_by_answer(fixture_corpus.records)
    # item-keyed malforming: 1 of 3 distinct UA answers -> exactly 10 of 30
    malform = {records[0].student_answer}
    server = stub_server_factory(echo_gold_chat_app(gold, malform_answers=malform))
    cfg = PipelineConfig(mode=MODE_RAG, k=3, model=_model_cfg(server.url))
    judgments = run_split(records, cfg, train_index)
    entry = LedgerEntry.of(judgments)
    assert entry.total_calls == 30
    assert entry.typed_failures == 10
    assert entry.fallback_successes == 10  # fallback recovers every one
    assert entry.hard_failures == 0
    assert all(j.parse_path in ("typed", "fallback") for j in judgments)
    # recovered items still carry the right gold fields
    for record, judgment in zip(records, judgments):
        assert judgment.label == record.gold_label


def test_no_leakage_sentinel_scan(fixture_corpus, train_index, stub_server_factory):
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    records = split_view(fixture_corpus, "test_ua")
    for mode, k in ((MODE_ZERO_SHOT, 0), (MODE_RAG, 3)):
        cfg = PipelineConfig(mode=mode, k=k, model=_model_cfg(server.url))
        run_split(records, cfg, train_index if mode == MODE_RAG else None)
    # request arrival order varies under concurrency; scan everything at once
    all_prompt_text = "\n".join(
        m["content"]
        for request in server.requests
        for m in request["body"]["messages"]
    )
    for record in records:
        sentinel = f"SENTINEL-FEEDBACK-{record.id}"
        assert sentinel not in all_prompt_text, f"gold feedback of live item {record.id} leaked"


def test_exclude_same_question_flag(fixture_corpus, train_index, stub_server_factory):
    server = stub_server_factory(copy_first_demo_chat_app())
    record = split_view(fixture_corpus, "test_ua")[0]  # q1
    cfg = PipelineConfig(
        mode=MODE_RAG, k=3, model=_model_cfg(server.url), exclude_same_question=True
    )
    run_split([record], cfg, train_index)
    user_text = next(
        m["content"]
        for m in server.requests[-1]["body"]["messages"]
        if m["role"] == "user"
    )
    demo_section = user_text.split("Grade the following item.")[0]
    for rid, rec in train_index.payload.items():
        if rec.question_id == record.question_id:
            assert rec.student_answer not in demo_section


def test_exclude_same_question_matches_payload_filter(fixture_corpus, train_index):
    from ragrade.pipelines import _batch_neighbors
    from ragrade.retrieval import top_k

    for k in (1, 3, 8):
        cfg = PipelineConfig(mode=MODE_VOTE, k=k, exclude_same_question=True)
        got = _batch_neighbors(fixture_corpus.records, cfg, train_index)
        for record, hits in zip(fixture_corpus.records, got):
            same_question = {
                rid for rid, rec in train_index.payload.items()
                if rec.question_id == record.question_id
            }
            reference = top_k(train_index, record.student_answer, k,
                              exclude={record.id} | same_question)
            assert [n.record.id for n in hits] == [n.record.id for n in reference]


def test_chain_of_thought_style_end_to_end(fixture_corpus, train_index, stub_server_factory):
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    cfg = PipelineConfig(
        mode=MODE_RAG, k=2, style="chain_of_thought", model=_model_cfg(server.url)
    )
    records = split_view(fixture_corpus, "test_ua")
    judgments = run_split(records, cfg, train_index)
    for record, judgment in zip(records, judgments):
        assert judgment.parse_path == "typed"
        assert judgment.label == record.gold_label
        # the reasoning field is requested and parsed but never surfaces
        assert "reasoning" not in (judgment.feedback or "")
    assert LedgerEntry.of(judgments).typed_failures == 0


def test_rag_empty_answer_falls_back_to_zero_demos(fixture_corpus, train_index, stub_server_factory):
    import dataclasses

    record = dataclasses.replace(
        split_view(fixture_corpus, "test_ua")[0], id="empty1", student_answer=""
    )
    body = '{"score": 0.0, "label": "incorrect", "feedback": "no answer"}'
    server = stub_server_factory(fixed_chat_app(body))
    cfg = PipelineConfig(mode=MODE_RAG, k=3, model=_model_cfg(server.url))
    (judgment,) = run_split([record], cfg, train_index)
    assert judgment.label == "incorrect"
    user_text = next(
        m["content"]
        for m in server.requests[0]["body"]["messages"]
        if m["role"] == "user"
    )
    assert "Example" not in user_text


def test_whitespace_answer_fails_in_vote_mode_and_is_typed_in_rag_mode(
    fixture_corpus, train_index, stub_server_factory, caplog
):
    import dataclasses

    record = dataclasses.replace(
        split_view(fixture_corpus, "test_ua")[0], id="blank1", student_answer=" \t\n"
    )
    (voted,) = run_split([record], PipelineConfig(mode=MODE_VOTE, k=3), train_index)
    assert voted.parse_path == "failed"
    assert "vote failed for blank1: the answer has no tokens" in caplog.text
    body = '{"score": 0.0, "label": "incorrect", "feedback": "no answer"}'
    server = stub_server_factory(fixed_chat_app(body))
    cfg = PipelineConfig(mode=MODE_RAG, k=3, model=_model_cfg(server.url))
    (graded,) = run_split([record], cfg, train_index)
    assert (graded.parse_path, graded.label) == ("typed", "incorrect")


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(mode="zero_shot", k=3).validate()
    with pytest.raises(ValueError):
        PipelineConfig(mode="rag", k=0).validate()
    with pytest.raises(ValueError):
        PipelineConfig(mode="unknown").validate()
    with pytest.raises(ValueError):
        PipelineConfig(mode="zero_shot", k=0, model=None).validate()


# --- manifests ---


def _run_and_manifest(fixture_corpus, train_index, server, seed=7):
    records = split_view(fixture_corpus, "test_ua")
    cfg = PipelineConfig(mode=MODE_RAG, k=3, model=_model_cfg(server.url), seed=seed)
    judgments = run_split(records, cfg, train_index)
    run_config = {
        "mode": cfg.mode,
        "k": cfg.k,
        "split": "test_ua",
        "model_id": cfg.model_id,
        "seed": cfg.seed,
    }
    return build_manifest(
        run_config,
        records,
        judgments,
        index_fingerprint=train_index.fingerprint,
        created_at="1970-01-01T00:00:00+00:00",
    )


def test_manifest_round_trip(fixture_corpus, train_index, stub_server_factory, tmp_path):
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    manifest = _run_and_manifest(fixture_corpus, train_index, server)
    path = tmp_path / "manifest.json"
    write_manifest(manifest, path)
    assert load_manifest(path) == manifest


def test_manifest_determinism_modulo_timestamp(fixture_corpus, train_index, stub_server_factory, tmp_path):
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    a = _run_and_manifest(fixture_corpus, train_index, server)
    b = _run_and_manifest(fixture_corpus, train_index, server)
    a["created_at"] = b["created_at"] = "masked"
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_manifest(a, pa)
    write_manifest(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


# --- optimizer ---


def test_optimize_budget_one_returns_measured_candidate(fixture_corpus, stub_server_factory):
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    train = split_view(fixture_corpus, "train")
    dev = split_view(fixture_corpus, "test_ua")
    cfg = PipelineConfig(mode=MODE_OPTIMIZED, model=_model_cfg(server.url), seed=3)
    program = optimize_few_shot(train, dev, Signature(), budget=1, k_max=3, cfg=cfg)
    assert program.dev_accuracy == 1.0  # echo stub is perfect
    assert len(program.trace) == 1
    assert program.trace[0]["dev_accuracy"] == 1.0
    assert set(program.demo_record_ids) <= {r.id for r in train}


def test_optimize_finds_planted_optimum(fixture_corpus, stub_server_factory):
    gold = gold_by_answer(fixture_corpus.records)
    train = split_view(fixture_corpus, "train")
    dev = [r for r in split_view(fixture_corpus, "test_ua") if r.gold_label != "incorrect"]
    magic = train[2].student_answer  # r03
    server = stub_server_factory(instruction_sensitive_chat_app(gold, magic))
    cfg = PipelineConfig(mode=MODE_OPTIMIZED, model=_model_cfg(server.url), seed=11)
    program = optimize_few_shot(train, dev, Signature(), budget=12, k_max=4, cfg=cfg)
    assert "r03" in program.demo_record_ids
    assert program.dev_accuracy == 1.0


def test_optimize_deterministic_under_fixed_seed(fixture_corpus, stub_server_factory):
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    train = split_view(fixture_corpus, "train")
    dev = split_view(fixture_corpus, "test_ua")
    cfg = PipelineConfig(mode=MODE_OPTIMIZED, model=_model_cfg(server.url), seed=42)
    first = optimize_few_shot(train, dev, Signature(), budget=5, k_max=3, cfg=cfg)
    second = optimize_few_shot(train, dev, Signature(), budget=5, k_max=3, cfg=cfg)
    assert first.to_dict() == second.to_dict()


def test_optimizer_never_selects_dev_records(fixture_corpus, stub_server_factory):
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    train = split_view(fixture_corpus, "train")
    dev = split_view(fixture_corpus, "test_ua")
    dev_ids = {r.id for r in dev}
    cfg = PipelineConfig(mode=MODE_OPTIMIZED, model=_model_cfg(server.url), seed=5)
    program = optimize_few_shot(train, dev, Signature(), budget=8, k_max=4, cfg=cfg)
    for entry in program.trace:
        assert not (set(entry["demo_record_ids"]) & dev_ids)


@pytest.mark.parametrize("proposal_model, clients", [("stub-model", 1), ("other-model", 2)])
def test_optimize_shares_one_client(
    fixture_corpus, stub_server_factory, monkeypatch, proposal_model, clients
):
    from ragrade import pipelines

    created = []

    class CountingClient(pipelines.ChatClient):
        def __init__(self, cfg):
            created.append(cfg.model)
            super().__init__(cfg)

    monkeypatch.setattr(pipelines, "ChatClient", CountingClient)
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    cfg = PipelineConfig(
        mode=MODE_OPTIMIZED,
        model=_model_cfg(server.url),
        proposal_model=_model_cfg(server.url, model=proposal_model),
        seed=2,
    )
    train = split_view(fixture_corpus, "train")
    optimize_few_shot(train, split_view(fixture_corpus, "test_ua"), Signature(), budget=3, k_max=2, cfg=cfg)
    assert len(created) == clients


def _count_trial_requests(monkeypatch, server):
    """Patches ``run_split`` to note the stub requests of each optimizer trial."""
    counts = []
    real = pipelines.run_split

    def counting(*args, **kwargs):
        before = len(server.requests)
        try:
            return real(*args, **kwargs)
        finally:
            counts.append(len(server.requests) - before)

    monkeypatch.setattr(pipelines, "run_split", counting)
    return counts


def _live(request):
    return request["body"]["messages"][1]["content"].rpartition("student_answer: ")[2].split("\n")[0]


_GOOD = "Grade the answer against the reference."


def _good_or_all_wrong(dev, misses):
    """``_GOOD`` grades every dev item right but ``misses``; any other prompt gets all wrong."""
    missed = {dev[i].student_answer for i in misses}

    def outcome(instruction, demos, answer):
        return "right" if instruction == _GOOD and answer not in missed else "wrong"

    return outcome


def test_optimize_race_stops_a_poor_candidate_early(fixture_corpus, stub_server_factory, monkeypatch):
    gold = gold_by_answer(fixture_corpus.records)
    train = split_view(fixture_corpus, "train")
    dev = split_view(fixture_corpus, "test_ua") + split_view(fixture_corpus, "test_uq")
    server = stub_server_factory(outcome_chat_app(gold, _good_or_all_wrong(dev, misses=(2, 4))))
    counts = _count_trial_requests(monkeypatch, server)
    cfg = PipelineConfig(mode=MODE_OPTIMIZED, model=_model_cfg(server.url, concurrency=1), seed=0)
    program = optimize_few_shot(train, dev, Signature(), budget=2, k_max=0, cfg=cfg, instructions=[_GOOD])

    first, second = program.trace
    assert first["instruction"] == _GOOD and second["instruction"] != _GOOD  # the seed's draw
    assert counts[0] == len(dev)
    # the poor candidate stops after the incumbent's two misses: at most one more was started
    assert 2 <= counts[1] <= 3 < len(dev)
    later = server.requests[len(dev):]
    assert {_live(r) for r in later[:2]} == {dev[2].student_answer, dev[4].student_answer}
    assert second == {"trial": 1, "instruction": second["instruction"], "demo_record_ids": [], "stopped": True}
    assert (program.instruction, program.demo_record_ids, program.dev_accuracy) == (_GOOD, [], 4 / 6)


def test_run_split_entry_of_an_item_stopped_at_its_slot_is_none(fixture_corpus, stub_server_factory):
    server = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
    client = ChatClient(_model_cfg(server.url, concurrency=1))
    cfg = PipelineConfig(mode=MODE_OPTIMIZED, model=client.cfg)
    records = split_view(fixture_corpus, "test_ua")[:2]
    race = pipelines._Race(len(records), incumbent=(0, 1))  # bound 1 > 0: not lost
    client._slots.take()  # the test holds the only slot, so both items wait for it
    out = []
    runner = threading.Thread(
        target=lambda: out.append(run_split(records, cfg, client=client, gate=race)), daemon=True
    )
    runner.start()
    wait_until(lambda: len(client._slots._waiting[False]) == len(records))  # both passed the gate
    race.incumbent = (1, 1)  # a perfect incumbent: the trial has lost
    client._slots.give()
    runner.join(timeout=10)
    assert not runner.is_alive()
    assert out == [[None, None]]
    assert server.requests == []


def test_optimize_race_later_trials_send_nothing_after_a_perfect_incumbent(
    fixture_corpus, stub_server_factory, monkeypatch
):
    server = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
    counts = _count_trial_requests(monkeypatch, server)
    train = split_view(fixture_corpus, "train")
    dev = split_view(fixture_corpus, "test_ua")
    cfg = PipelineConfig(mode=MODE_OPTIMIZED, model=_model_cfg(server.url), seed=42)
    program = optimize_few_shot(train, dev, Signature(), budget=5, k_max=3, cfg=cfg)
    assert program.trace[0]["dev_accuracy"] == 1.0
    assert counts[0] == len(dev) and not any(counts[1:])
    assert len(server.requests) == len(dev)
    assert all(entry["stopped"] and "dev_accuracy" not in entry for entry in program.trace[1:])


def test_optimize_race_stops_a_repeated_candidate(fixture_corpus, stub_server_factory, monkeypatch):
    # k_max=0 and no other instruction: every trial repeats the first candidate,
    # which misses two items; each repeat is sent those misses first and loses on them
    gold = gold_by_answer(fixture_corpus.records)
    train = split_view(fixture_corpus, "train")
    dev = split_view(fixture_corpus, "test_ua") + split_view(fixture_corpus, "test_uq")
    missed = {dev[2].student_answer, dev[4].student_answer}
    server = stub_server_factory(
        outcome_chat_app(gold, lambda instruction, demos, answer: "wrong" if answer in missed else "right")
    )
    counts = _count_trial_requests(monkeypatch, server)
    cfg = PipelineConfig(mode=MODE_OPTIMIZED, model=_model_cfg(server.url, concurrency=1), seed=1)
    program = optimize_few_shot(train, dev, Signature(), budget=3, k_max=0, cfg=cfg)
    assert counts[0] == len(dev)
    # at most one item past the two misses was started before the repeat lost
    assert all(2 <= count <= 3 for count in counts[1:])
    assert [entry.get("stopped", False) for entry in program.trace] == [False, True, True]
    assert program.dev_accuracy == (len(dev) - 2) / len(dev)


def test_optimize_grades_a_repeat_again_after_its_items_failed(
    fixture_corpus, stub_server_factory, monkeypatch
):
    # every trial is the same candidate; an outage fails all of the first trial's
    # items, so nothing has been measured and the repeat must be graded in full
    gold = gold_by_answer(fixture_corpus.records)
    outage = [True]
    server = stub_server_factory(
        outcome_chat_app(gold, lambda instruction, demos, answer: "fail" if outage[0] else "right")
    )
    real = pipelines.run_split

    def outage_in_first_trial(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        finally:
            outage[0] = False

    monkeypatch.setattr(pipelines, "run_split", outage_in_first_trial)
    train = split_view(fixture_corpus, "train")
    dev = split_view(fixture_corpus, "test_ua")
    cfg = PipelineConfig(mode=MODE_OPTIMIZED, model=_model_cfg(server.url), seed=1)
    program = optimize_few_shot(train, dev, Signature(), budget=2, k_max=0, cfg=cfg)
    assert [entry["dev_accuracy"] for entry in program.trace] == [None, 1.0]
    assert (program.instruction, program.demo_record_ids, program.dev_accuracy) == (
        Signature().task_description, [], 1.0
    )


def test_optimize_race_gives_the_same_program_twice(fixture_corpus, stub_server_factory):
    # stop points move with thread timing; the program and its trace must not
    gold = gold_by_answer(fixture_corpus.records)
    train = split_view(fixture_corpus, "train")
    dev = split_view(fixture_corpus, "test_ua") + split_view(fixture_corpus, "test_uq")

    def outcome(instruction, demos, answer):
        return ("right", "wrong", "fail")[(len(answer) + demos + len(instruction)) % 3]

    server = stub_server_factory(outcome_chat_app(gold, outcome))
    cfg = PipelineConfig(mode=MODE_OPTIMIZED, model=_model_cfg(server.url), seed=7)
    runs = [
        optimize_few_shot(train, dev, Signature(), budget=8, k_max=3, cfg=cfg, instructions=[_GOOD, "Be strict."])
        for _ in range(2)
    ]
    assert runs[0].to_dict() == runs[1].to_dict()
    assert any(entry.get("stopped") for entry in runs[0].trace)


_VERDICTS = ("right", "wrong", "fail")


@st.composite
def _race_cases(draw):
    extra = draw(st.integers(0, 2))
    k_max = draw(st.integers(0, 2))
    items = draw(st.integers(1, 6))
    table = {
        (c, d, i): draw(st.sampled_from(_VERDICTS))
        for c in range(extra + 1)
        for d in range(k_max + 1)
        for i in range(items)
    }
    budget = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10**6))
    concurrency = draw(st.integers(1, 2))
    return extra, k_max, items, table, budget, seed, concurrency


def test_optimize_race_picks_the_program_full_grading_picks(fixture_corpus):
    """Random (candidate, dev item) outcome tables: racing picks what grading every trial fully picks."""
    gold = gold_by_answer(fixture_corpus.records)
    train = split_view(fixture_corpus, "train")
    all_dev = split_view(fixture_corpus, "test_ua") + split_view(fixture_corpus, "test_uq")
    case = {}
    seen = []

    def outcome(instruction, demos, answer):
        verdict = case["table"][case["candidates"].index(instruction), demos, case["item_of"][answer]]
        seen.append(verdict)
        return verdict

    server = StubServer(outcome_chat_app(gold, outcome))

    @settings(max_examples=30, deadline=None)
    @given(_race_cases())
    def check(args):
        extra, k_max, items, table, budget, seed, concurrency = args
        dev = all_dev[:items]
        instructions = [f"Instruction number {n}." for n in range(extra)]
        case.update(
            table=table,
            candidates=[Signature().task_description] + instructions,
            item_of={r.student_answer: i for i, r in enumerate(dev)},
        )
        seen.clear()
        cfg = PipelineConfig(
            mode=MODE_OPTIMIZED, model=_model_cfg(server.url, concurrency=concurrency), seed=seed
        )
        try:
            program = optimize_few_shot(train, dev, Signature(), budget, k_max, cfg, instructions)
        except BudgetExhaustedWithoutValidCandidate:
            # no trial ever scored an item, so none was cut short: every reply failed
            assert seen and set(seen) == {"fail"}
            return

        def full(entry):
            outs = [
                table[case["candidates"].index(entry["instruction"]), len(entry["demo_record_ids"]), i]
                for i in range(items)
            ]
            return outs.count("right"), len(outs) - outs.count("fail")

        best, expected = None, []
        for entry in program.trace:
            correct, scored = full(entry)
            wins = scored > 0 and (best is None or correct * best[1] > best[0] * scored)
            want = {k: entry[k] for k in ("trial", "instruction", "demo_record_ids")}
            if best is not None and not wins:
                want["stopped"] = True
            else:
                want["dev_accuracy"] = correct / scored if scored else None
            expected.append(want)
            if wins:
                best = (correct, scored, entry["instruction"], entry["demo_record_ids"])
        assert program.trace == expected
        assert (program.instruction, program.demo_record_ids, program.dev_accuracy) == (
            best[2], best[3], best[0] / best[1]
        )
        assert len(seen) <= 2 * items * budget

    try:
        check()
    finally:
        server.close()


def test_optimize_all_candidates_fail(fixture_corpus, stub_server_factory):
    server = stub_server_factory(fixed_chat_app("never valid output"))
    train = split_view(fixture_corpus, "train")
    dev = split_view(fixture_corpus, "test_ua")
    cfg = PipelineConfig(mode=MODE_OPTIMIZED, model=_model_cfg(server.url), seed=1)
    with pytest.raises(BudgetExhaustedWithoutValidCandidate):
        optimize_few_shot(train, dev, Signature(), budget=2, k_max=2, cfg=cfg)


def test_optimize_rejects_a_config_of_another_mode(fixture_corpus):
    # trials grade through run_split under cfg, so another mode would drop the demos
    train = split_view(fixture_corpus, "train")
    dev = split_view(fixture_corpus, "test_ua")
    cfg = PipelineConfig(mode=MODE_ZERO_SHOT, model=_model_cfg("http://127.0.0.1:9"))
    with pytest.raises(ValueError, match="optimized-mode"):
        optimize_few_shot(train, dev, Signature(), budget=1, k_max=1, cfg=cfg)


def test_optimized_mode_refuses_a_graded_record_as_demo(fixture_corpus, stub_server_factory):
    server = stub_server_factory(echo_gold_chat_app(gold_by_answer(fixture_corpus.records)))
    train = split_view(fixture_corpus, "train")
    cfg = PipelineConfig(mode=MODE_OPTIMIZED, k=2, model=_model_cfg(server.url))
    with pytest.raises(GoldLeakage, match="'r01', 'r02'"):
        run_split(train[:3], cfg, demo_records=train[:2])
    assert server.requests == []  # refused before any request


def test_optimized_mode_grades_with_program(fixture_corpus, stub_server_factory):
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    train = split_view(fixture_corpus, "train")
    cfg = PipelineConfig(
        mode=MODE_OPTIMIZED, k=2, model=_model_cfg(server.url, concurrency=1)
    )
    records = split_view(fixture_corpus, "test_uq")
    judgments = run_split(
        records,
        cfg,
        signature=Signature(task_description="Grade the answer strictly."),
        demo_records=[train[0], train[5]],
    )
    assert [j.label for j in judgments] == [r.gold_label for r in records]
    system_text = server.requests[0]["body"]["messages"][0]["content"]
    assert system_text.startswith("Grade the answer strictly.")
    user_text = server.requests[0]["body"]["messages"][1]["content"]
    assert train[0].student_answer in user_text
    assert train[5].student_answer in user_text
