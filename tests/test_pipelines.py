import threading
import time

import pytest

from ragrade.dataset import split_view
from ragrade.embedding import EmbedderConfig
from ragrade.errors import BudgetExhaustedWithoutValidCandidate
from ragrade.llmclient import ModelConfig
from ragrade.pipelines import (
    MODE_OPTIMIZED,
    MODE_RAG,
    MODE_VOTE,
    MODE_ZERO_SHOT,
    OptimizedProgram,
    PipelineConfig,
    build_manifest,
    grade_item,
    load_manifest,
    optimize_few_shot,
    run_split,
    write_manifest,
)
from ragrade.promptkit import Signature
from ragrade.retrieval import build_index

from conftest import gold_by_answer
from stub_servers import (
    copy_first_demo_chat_app,
    echo_gold_chat_app,
    fixed_chat_app,
    instruction_sensitive_chat_app,
)


def _model_cfg(endpoint, **kw):
    defaults = dict(model="stub-model", max_retries=2, retry_backoff=0.0, timeout=5.0)
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
    judgment = grade_item(live, cfg, train_index)
    assert judgment.label == target.gold_label
    assert judgment.score == target.gold_score
    assert judgment.parse_path == "typed"


def test_vote_mode_excludes_own_id(fixture_corpus, train_index):
    # grading an indexed record must not let it vote for itself
    target = split_view(fixture_corpus, "train")[0]
    cfg = PipelineConfig(mode=MODE_VOTE, k=1)
    judgment = grade_item(target, cfg, train_index)
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
    judgment = grade_item(record, cfg)
    assert (judgment.score, judgment.label, judgment.feedback) == (0.5, "partially_correct", "halfway")


def test_rag_mode_copies_rank1_neighbor_label(fixture_corpus, train_index, stub_server_factory):
    server = stub_server_factory(copy_first_demo_chat_app())
    cfg = PipelineConfig(mode=MODE_RAG, k=3, model=_model_cfg(server.url))
    from ragrade.retrieval import top_k

    for record in split_view(fixture_corpus, "test_ua"):
        judgment = grade_item(record, cfg, train_index)
        rank1 = top_k(train_index, record.student_answer, 1, exclude={record.id})[0]
        assert judgment.label == rank1.record.gold_label


def test_rag_prompt_demo_provenance(fixture_corpus, train_index, stub_server_factory):
    server = stub_server_factory(copy_first_demo_chat_app())
    cfg = PipelineConfig(mode=MODE_RAG, k=3, model=_model_cfg(server.url, concurrency=1))
    records = split_view(fixture_corpus, "test_ua")
    run_split(records, cfg, train_index)
    indexed_answers = {e.record_id for e in train_index.entries}
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
    judgments, ledger = run_split(records, cfg)
    assert len(judgments) == len(records)
    for record, judgment in zip(records, judgments):
        assert judgment.label == record.gold_label, "order or content drifted"
    assert ledger.entry(("stub-model", MODE_ZERO_SHOT, 0)).total_calls == len(records)


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


def test_worker_pool_is_the_only_chat_concurrency_bound(fixture_corpus, stub_server_factory):
    gauge = _InFlight()
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(gauge.wrap(echo_gold_chat_app(gold)))
    cfg = PipelineConfig(mode=MODE_ZERO_SHOT, model=_model_cfg(server.url, concurrency=2))
    judgments, _ = run_split(fixture_corpus.records[:8], cfg)
    assert [j.parse_path for j in judgments] == ["typed"] * 8
    assert gauge.peak == 2


def test_worker_pool_bounds_chat_and_embedding_together(fixture_corpus, stub_server_factory):
    # rag embeds each query on the pool worker that then calls the model
    from stub_servers import mirror_embedding_app

    gauge = _InFlight()
    gold = gold_by_answer(fixture_corpus.records)
    chat = stub_server_factory(gauge.wrap(echo_gold_chat_app(gold)))
    embed = stub_server_factory(gauge.wrap(mirror_embedding_app(32)))
    embed_cfg = EmbedderConfig(backend="remote", endpoint=embed.url, dimension=32)
    index = build_index(split_view(fixture_corpus, "train"), embed_cfg)
    gauge.peak = 0
    cfg = PipelineConfig(mode=MODE_RAG, k=2, model=_model_cfg(chat.url, concurrency=2))
    judgments, _ = run_split(fixture_corpus.records[:8], cfg, index)
    assert [j.parse_path for j in judgments] == ["typed"] * 8
    assert len(embed.requests) == 1 + 8  # the index batch, then one query per item
    assert gauge.peak == 2


def test_identity_pipeline_perfect_metrics(fixture_corpus, train_index, stub_server_factory):
    from ragrade.metrics import scoring_metrics

    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    cfg = PipelineConfig(mode=MODE_RAG, k=3, model=_model_cfg(server.url))
    records = split_view(fixture_corpus, "test_ua")
    judgments, ledger = run_split(records, cfg, train_index)
    report = scoring_metrics(judgments, [(r.gold_label, r.gold_score) for r in records])
    assert report.accuracy == 1.0
    assert report.rmse == 0.0
    assert ledger.entry(("stub-model", MODE_RAG, 3)).typed_failure_rate == 0.0


def test_injected_failures_hit_exact_ledger_rate(fixture_corpus, train_index, stub_server_factory):
    records = split_view(fixture_corpus, "test_ua") * 10  # 30 items
    gold = gold_by_answer(fixture_corpus.records)
    # item-keyed malforming: 1 of 3 distinct UA answers -> exactly 10 of 30
    malform = {records[0].student_answer}
    server = stub_server_factory(echo_gold_chat_app(gold, malform_answers=malform))
    cfg = PipelineConfig(mode=MODE_RAG, k=3, model=_model_cfg(server.url))
    judgments, ledger = run_split(records, cfg, train_index)
    entry = ledger.entry(("stub-model", MODE_RAG, 3))
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
    grade_item(record, cfg, train_index)
    user_text = next(
        m["content"]
        for m in server.requests[-1]["body"]["messages"]
        if m["role"] == "user"
    )
    demo_section = user_text.split("Grade the following item.")[0]
    for rid, rec in train_index.payload.items():
        if rec.question_id == record.question_id:
            assert rec.student_answer not in demo_section


def test_chain_of_thought_style_end_to_end(fixture_corpus, train_index, stub_server_factory):
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    cfg = PipelineConfig(
        mode=MODE_RAG, k=2, style="chain_of_thought", model=_model_cfg(server.url)
    )
    records = split_view(fixture_corpus, "test_ua")
    judgments, ledger = run_split(records, cfg, train_index)
    for record, judgment in zip(records, judgments):
        assert judgment.parse_path == "typed"
        assert judgment.label == record.gold_label
        # the reasoning field is requested and parsed but never surfaces
        assert "reasoning" not in (judgment.feedback or "")
    assert ledger.entry(("stub-model", MODE_RAG, 2)).typed_failures == 0


def test_rag_empty_answer_falls_back_to_zero_demos(fixture_corpus, train_index, stub_server_factory):
    import dataclasses

    record = dataclasses.replace(
        split_view(fixture_corpus, "test_ua")[0], id="empty1", student_answer=""
    )
    body = '{"score": 0.0, "label": "incorrect", "feedback": "no answer"}'
    server = stub_server_factory(fixed_chat_app(body))
    cfg = PipelineConfig(mode=MODE_RAG, k=3, model=_model_cfg(server.url))
    judgment = grade_item(record, cfg, train_index)
    assert judgment.label == "incorrect"
    user_text = next(
        m["content"]
        for m in server.requests[0]["body"]["messages"]
        if m["role"] == "user"
    )
    assert "Example" not in user_text


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
    judgments, ledger = run_split(records, cfg, train_index)
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
        ledger,
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


def test_optimize_all_candidates_fail(fixture_corpus, stub_server_factory):
    server = stub_server_factory(fixed_chat_app("never valid output"))
    train = split_view(fixture_corpus, "train")
    dev = split_view(fixture_corpus, "test_ua")
    cfg = PipelineConfig(mode=MODE_OPTIMIZED, model=_model_cfg(server.url), seed=1)
    with pytest.raises(BudgetExhaustedWithoutValidCandidate):
        optimize_few_shot(train, dev, Signature(), budget=2, k_max=2, cfg=cfg)


def test_optimized_mode_grades_with_program(fixture_corpus, stub_server_factory):
    gold = gold_by_answer(fixture_corpus.records)
    server = stub_server_factory(echo_gold_chat_app(gold))
    train = split_view(fixture_corpus, "train")
    program = OptimizedProgram(
        instruction="Grade the answer strictly.",
        demo_record_ids=[train[0].id, train[5].id],
        dev_accuracy=1.0,
    )
    cfg = PipelineConfig(
        mode=MODE_OPTIMIZED, k=2, model=_model_cfg(server.url, concurrency=1)
    )
    records = split_view(fixture_corpus, "test_uq")
    judgments, _ = run_split(records, cfg, program=program, demo_pool=train)
    assert [j.label for j in judgments] == [r.gold_label for r in records]
    system_text = server.requests[0]["body"]["messages"][0]["content"]
    assert system_text.startswith("Grade the answer strictly.")
    user_text = server.requests[0]["body"]["messages"][1]["content"]
    assert train[0].student_answer in user_text
    assert train[5].student_answer in user_text
