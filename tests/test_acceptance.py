"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
Criterion 1 needs the real SAF corpus (see scripts/saf_to_jsonl.py); it skips
with a clear message when the file is absent.
"""

import json
import os
import random
from pathlib import Path

import numpy as np
import pytest

from ragrade.cli import main
from ragrade.dataset import AnswerRecord, Corpus, load_corpus, split_view
from ragrade.embedding import EmbedderConfig, normalize_rows
from ragrade.llmclient import Judgment
from ragrade.metrics import bleu, rouge2, scoring_metrics
from ragrade.retrieval import build_index, maxsim_score, top_k
from ragrade.votegrader import vote_classify

from conftest import embed_tokens, gold_by_answer
from stub_servers import StubServer, echo_gold_chat_app
from test_promptkit import GOLDEN_DIR, golden_cases, _golden_bytes
from test_retrieval import _exact_order, _matrix, _stored_docs
from test_votegrader import _neighbors

SAF_ENV = "ASASF_SAF_DATA"
SAF_DEFAULT = Path(__file__).parent / "data" / "saf_corpus.jsonl"

_LABELS = ("correct", "incorrect", "partially_correct")


def _report(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1. Majority-baseline reproduction on the SAF corpus
# ---------------------------------------------------------------------------

_MAJORITY_EXPECTED = {
    "test_ua": {"acc": 0.540, "f1": 0.234, "rmse": 0.470},
    "test_uq": {"acc": 0.471, "f1": 0.214, "rmse": 0.512},
}


def _saf_corpus():
    path = os.environ.get(SAF_ENV) or SAF_DEFAULT
    path = Path(path)
    if not path.exists():
        pytest.skip(
            f"SAF corpus not found at {path}; convert the public dataset with "
            f"scripts/saf_to_jsonl.py (needs network) and set {SAF_ENV} or place "
            f"it at {SAF_DEFAULT}"
        )
    return load_corpus(path, "jsonl")


def test_acceptance_1_majority_baseline():
    corpus = _saf_corpus()
    train = split_view(corpus, "train")
    counts = {}
    for record in train:
        counts[record.gold_label] = counts.get(record.gold_label, 0) + 1
    modal = max(counts, key=lambda label: counts[label])
    modal_scores = [r.gold_score for r in train if r.gold_label == modal]
    constant_score = sum(modal_scores) / len(modal_scores)

    for split, expected in _MAJORITY_EXPECTED.items():
        records = split_view(corpus, split)
        judgments = [
            Judgment(score=constant_score, label=modal, feedback="", parse_path="typed")
            for _ in records
        ]
        report = scoring_metrics(
            judgments, [(r.gold_label, r.gold_score) for r in records]
        )
        assert abs(report.accuracy - expected["acc"]) <= 0.01, (split, report)
        assert abs(report.macro_f1 - expected["f1"]) <= 0.01, (split, report)
        assert abs(report.rmse - expected["rmse"]) <= 0.01, (split, report)
    _report(1, "majority baseline on SAF")


# ---------------------------------------------------------------------------
# 2. MaxSim oracle equivalence and exhaustive top-k
# ---------------------------------------------------------------------------


def _double_loop_maxsim(query, doc):
    total = 0.0
    for q_row in query.vectors:
        best = max(float(np.dot(q_row, d_row)) for d_row in doc.vectors)
        total += best
    return total


def test_acceptance_2_maxsim_oracle_equivalence():
    rng = np.random.default_rng(20260808)
    for trial in range(1000):
        d = 4 if trial % 2 == 0 else 32
        query = _matrix(normalize_rows(rng.normal(size=(int(rng.integers(1, 9)), d))))
        doc = _matrix(normalize_rows(rng.normal(size=(int(rng.integers(1, 9)), d))))
        assert abs(maxsim_score(query, doc) - _double_loop_maxsim(query, doc)) <= 1e-9

    words = ["router", "switch", "frame", "packet", "header", "tree", "path", "ack"]
    pyrng = random.Random(77)
    for size in (5, 20, 50):
        records = [
            AnswerRecord(
                id=f"r{i:03d}",
                question="q",
                question_id="q1",
                reference_answer="ref",
                student_answer=" ".join(pyrng.choice(words) for _ in range(pyrng.randint(2, 7))),
                gold_score=1.0,
                gold_label="correct",
                gold_feedback="fb",
            )
            for i in range(size)
        ]
        cfg = EmbedderConfig(dimension=32)
        index = build_index(records, cfg)
        for _ in range(10):
            query_text = " ".join(pyrng.choice(words) for _ in range(3))
            query_matrix = embed_tokens(query_text, cfg, role="query")
            brute = _exact_order(
                [(maxsim_score(query_matrix, doc), rid) for rid, doc in _stored_docs(index)]
            )
            k = min(10, size)
            got = [r.record.id for r in top_k(index, query_text, k)]
            assert got == [rid for _, rid in brute[:k]]
    _report(2, "MaxSim equals double-loop oracle; top-k exhaustive")


# ---------------------------------------------------------------------------
# 3. Vote grader correctness against the hand rule
# ---------------------------------------------------------------------------


def _hand_vote_rule(labels):
    counts = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    best = max(counts.values())
    tied = {label for label, count in counts.items() if count == best}
    for label in labels:  # rank order; first tied label wins
        if label in tied:
            return label
    raise AssertionError("unreachable")


def _all_sequences(max_len):
    out = [[]]
    for _ in range(max_len):
        out = [seq + [label] for seq in out for label in _LABELS] + out
    # dedupe, drop empty
    seen = set()
    result = []
    for seq in out:
        key = tuple(seq)
        if seq and key not in seen:
            seen.add(key)
            result.append(seq)
    return result


def test_acceptance_3_vote_grader():
    # k=1 nearest-neighbor equivalence on 200 random fixtures
    rng = random.Random(31337)
    for _ in range(200):
        label = rng.choice(_LABELS)
        score = round(rng.random(), 3)
        neighbors = _neighbors([label], [score])
        result = vote_classify(neighbors)
        assert result.label == label
        assert result.score == score

    # exhaustive multisets (all ordered label sequences) up to length 5
    sequences = _all_sequences(5)
    assert len(sequences) == 3 + 9 + 27 + 81 + 243
    for labels in sequences:
        result = vote_classify(_neighbors(labels))
        assert result.label == _hand_vote_rule(labels), labels
        expected_score = sum(
            {"correct": 1.0, "incorrect": 0.0, "partially_correct": 0.5}[l]
            for l in labels
        ) / len(labels)
        assert result.score == pytest.approx(expected_score)
    _report(3, "vote grader matches brute-force rule")


# ---------------------------------------------------------------------------
# 4. Metric fixtures
# ---------------------------------------------------------------------------


def test_acceptance_4_metric_fixtures():
    rng = random.Random(4040)
    words = ["net", "link", "host", "frame", "port", "route", "ack", "syn", "tcp"]
    for _ in range(100):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(4, 14)))
        assert bleu([text], [text]) == pytest.approx(100.0, abs=1e-6)
        assert rouge2(text, text).f1 == pytest.approx(1.0, abs=1e-12)

    # hand confusion-matrix example: macro-F1 = accuracy = 2/3
    judgments = [
        Judgment(score=s, label=l, feedback="", parse_path="typed")
        for l, s in (("correct", 1.0), ("correct", 1.0), ("incorrect", 0.0))
    ]
    golds = [("correct", 1.0), ("incorrect", 0.0), ("incorrect", 0.0)]
    report = scoring_metrics(judgments, golds)
    assert report.accuracy == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert report.macro_f1 == pytest.approx(2.0 / 3.0, abs=1e-12)

    # RMSE examples: identity -> 0; maximal miss -> 1
    same = [Judgment(score=1.0, label="correct", feedback="", parse_path="typed")]
    assert scoring_metrics(same, [("correct", 1.0)]).rmse == 0.0
    flipped = [
        Judgment(score=0.0, label="correct", feedback="", parse_path="typed"),
        Judgment(score=1.0, label="correct", feedback="", parse_path="typed"),
    ]
    assert scoring_metrics(flipped, [("correct", 1.0), ("correct", 0.0)]).rmse == pytest.approx(1.0)

    # 2-sentence fixture against the hand-executed oracle
    cands = ["the cat sat on the mat", "routers forward packets"]
    refs = ["a cat sat on a mat", "switches forward frames quickly"]
    assert bleu(cands, refs) == pytest.approx(24.13401656704727, abs=1e-6)
    _report(4, "metric fixtures exact")


# ---------------------------------------------------------------------------
# 5-7. Mock-LLM end-to-end through the CLI, determinism, leakage audit
# ---------------------------------------------------------------------------


def _synthetic_corpus(n_train=10, n_ua=40):
    rows = []
    questions = {
        "q1": ("What does ARP resolve?", "ARP maps an IP address to a MAC address."),
        "q2": ("What is a default route?", "The route used when no specific prefix matches."),
    }
    labels = ["correct", "incorrect", "partially_correct"]
    scores = {"correct": 1.0, "incorrect": 0.0, "partially_correct": 0.5}
    for i in range(n_train):
        qid = "q1" if i % 2 == 0 else "q2"
        label = labels[i % 3]
        rows.append((f"t{i:03d}", qid, f"train answer variant {i} tern", label, "train"))
    for i in range(n_ua):
        qid = "q1" if i % 2 == 0 else "q2"
        label = labels[i % 3]
        rows.append((f"u{i:03d}", qid, f"unseen answer variant {i} skua", label, "test_ua"))

    corpus = Corpus()
    for rid, qid, answer, label, split in rows:
        question, reference = questions[qid]
        corpus.records.append(
            AnswerRecord(
                id=rid,
                question=question,
                question_id=qid,
                reference_answer=reference,
                student_answer=answer,
                gold_score=scores[label],
                gold_label=label,
                gold_feedback=f"SENTINEL-FEEDBACK-{rid}-z41c because it is {label}.",
            )
        )
        corpus.split_assignment[rid] = split
    corpus.validate()
    return corpus


def _write_corpus(corpus, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in corpus.records:
            fh.write(json.dumps(rec.to_row(corpus.split_assignment[rec.id])) + "\n")


def _grade_rag(corpus_file, out_dir, server_url, manifest_path, extra=()):
    assert main(["ingest", str(corpus_file), "--out-dir", str(out_dir)]) == 0
    assert main(["index", "--split", "train", "--out-dir", str(out_dir)]) == 0
    code = main(
        [
            "grade",
            "--mode",
            "rag",
            "--k",
            "3",
            "--split",
            "test_ua",
            "--endpoint",
            server_url,
            "--model",
            "stub-model",
            "--seed",
            "7",
            "--out-dir",
            str(out_dir),
            "--out",
            str(manifest_path),
            *extra,
        ]
    )
    assert code == 0


def test_acceptance_5_mock_llm_end_to_end(tmp_path):
    corpus = _synthetic_corpus()
    corpus_file = tmp_path / "corpus.jsonl"
    _write_corpus(corpus, corpus_file)
    gold = gold_by_answer(corpus.records)

    # clean run: identity metrics, zero ledger errors
    clean_server = StubServer(echo_gold_chat_app(gold))
    try:
        out_dir = tmp_path / "clean"
        manifest_path = out_dir / "manifest.json"
        _grade_rag(corpus_file, out_dir, clean_server.url, manifest_path)
        assert main(["evaluate", str(manifest_path), "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "manifest.report.json").read_text())
        assert report["accuracy"] == 1.0
        assert report["rmse"] == 0.0
        ledger = json.loads(manifest_path.read_text())["ledger"]
        entry = ledger["stub-model|rag|3"]
        assert entry["total_calls"] == 40
        assert entry["typed_failures"] == 0
        assert entry["hard_failures"] == 0
    finally:
        clean_server.close()

    # 5% injected malformed responses: 2 of 40 items, deterministic by item
    ua = [r for r in corpus.records if corpus.split_assignment[r.id] == "test_ua"]
    malform = {ua[4].student_answer, ua[19].student_answer}
    faulty_server = StubServer(echo_gold_chat_app(gold, malform_answers=malform))
    try:
        out_dir = tmp_path / "faulty"
        manifest_path = out_dir / "manifest.json"
        _grade_rag(corpus_file, out_dir, faulty_server.url, manifest_path)
        manifest = json.loads(manifest_path.read_text())
        entry = manifest["ledger"]["stub-model|rag|3"]
        assert entry["total_calls"] == 40
        assert entry["typed_failures"] == 2  # exactly the injected 5%
        assert entry["typed_failures"] / entry["total_calls"] == 0.05
        assert entry["fallback_successes"] == 2  # fallback recovered both
        assert entry["hard_failures"] == 0
        # recovered items preserve gold fields, so metrics stay perfect
        assert main(["evaluate", str(manifest_path), "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "manifest.report.json").read_text())
        assert report["accuracy"] == 1.0
        assert report["rmse"] == 0.0
        paths = {item["judgment"]["parse_path"] for item in manifest["items"]}
        assert paths == {"typed", "fallback"}
    finally:
        faulty_server.close()
    _report(5, "mock-LLM end-to-end, ledger rate exact, fallback recovers")


def test_acceptance_6_determinism(tmp_path):
    corpus = _synthetic_corpus(n_train=8, n_ua=12)
    corpus_file = tmp_path / "corpus.jsonl"
    _write_corpus(corpus, corpus_file)
    gold = gold_by_answer(corpus.records)
    server = StubServer(echo_gold_chat_app(gold))
    try:
        manifests = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            manifest_path = out_dir / "manifest.json"
            _grade_rag(corpus_file, out_dir, server.url, manifest_path)
            manifests.append(manifest_path)
        contents = []
        for path in manifests:
            data = json.loads(path.read_text())
            data["created_at"] = "masked"
            contents.append(json.dumps(data, sort_keys=True, indent=2))
        assert contents[0] == contents[1]

        # vote pipeline (no LLM) must be deterministic too
        vote_manifests = []
        for run in ("v1", "v2"):
            out_dir = tmp_path / run
            assert main(["ingest", str(corpus_file), "--out-dir", str(out_dir)]) == 0
            assert main(["index", "--split", "train", "--out-dir", str(out_dir)]) == 0
            path = out_dir / "vote.json"
            assert (
                main(
                    [
                        "grade", "--mode", "vote", "--k", "5", "--split", "test_ua",
                        "--seed", "7", "--out-dir", str(out_dir), "--out", str(path),
                    ]
                )
                == 0
            )
            data = json.loads(path.read_text())
            data["created_at"] = "masked"
            vote_manifests.append(json.dumps(data, sort_keys=True, indent=2))
        assert vote_manifests[0] == vote_manifests[1]
    finally:
        server.close()

    # golden prompt files are byte-stable
    for name, prompt in golden_cases().items():
        assert _golden_bytes(prompt) == (GOLDEN_DIR / name).read_bytes()
    _report(6, "byte-identical manifests modulo timestamp; goldens stable")


def test_acceptance_7_no_leakage_audit(tmp_path):
    corpus = _synthetic_corpus(n_train=10, n_ua=20)
    corpus_file = tmp_path / "corpus.jsonl"
    _write_corpus(corpus, corpus_file)
    gold = gold_by_answer(corpus.records)
    server = StubServer(echo_gold_chat_app(gold))
    try:
        out_dir = tmp_path / "runs"
        manifest_path = out_dir / "manifest.json"
        _grade_rag(corpus_file, out_dir, server.url, manifest_path)

        ua_ids = {r.id for r in corpus.records if corpus.split_assignment[r.id] == "test_ua"}
        scanned = 0
        for request in server.requests:
            prompt_text = "\n".join(
                m["content"] for m in request["body"]["messages"]
            )
            for rid in ua_ids:
                assert f"SENTINEL-FEEDBACK-{rid}" not in prompt_text, (
                    f"gold feedback for live record {rid} leaked into a prompt"
                )
            scanned += 1
        assert scanned == 20
    finally:
        server.close()
    _report(7, "no gold leakage in any prompt")
