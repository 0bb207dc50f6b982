import csv
import io
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ragrade.embedding import EmbedderConfig, embed_tokens
from ragrade.errors import (
    AllEmptyReferences,
    EmptyEvaluationSet,
    LengthMismatch,
    SchemaMismatch,
)
from ragrade.llmclient import Judgment
from ragrade.metrics import (
    bleu,
    build_report,
    embed_sim_f1,
    manifest_metrics,
    report_to_csv,
    report_to_text,
    rouge2,
    scoring_metrics,
    text_metrics_report,
)

from stub_servers import mirror_embedding_app

# hand-executed oracle for the 2-sentence fixture below: pooled counts
# [5,2,1,0]/[9,7,5,3], the zero at n=4 smoothed to 1/(2*3), bp=exp(1-10/9)
_BLEU_FIXTURE = [
    ("the cat sat on the mat", "a cat sat on a mat"),
    ("routers forward packets", "switches forward frames quickly"),
]
_BLEU_FIXTURE_EXPECTED = 24.13401656704727


def _judgments(labels, scores):
    return [
        Judgment(score=s, label=l, feedback="", parse_path="typed")
        for l, s in zip(labels, scores)
    ]


def test_scoring_identity():
    judgments = _judgments(["correct", "incorrect"], [1.0, 0.0])
    report = scoring_metrics(judgments, [("correct", 1.0), ("incorrect", 0.0)])
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0
    assert report.rmse == 0.0
    assert report.n_evaluated == 2


def test_rmse_worst_case():
    judgments = _judgments(["correct", "correct"], [0.0, 1.0])
    report = scoring_metrics(judgments, [("correct", 1.0), ("correct", 0.0)])
    assert report.rmse == pytest.approx(1.0)


def test_macro_f1_hand_example():
    # preds [c, c, i] vs golds [c, i, i]: per-label F1 both 2/3, accuracy 2/3
    judgments = _judgments(["correct", "correct", "incorrect"], [1.0, 1.0, 0.0])
    golds = [("correct", 1.0), ("incorrect", 0.0), ("incorrect", 0.0)]
    report = scoring_metrics(judgments, golds)
    assert report.accuracy == pytest.approx(2.0 / 3.0)
    assert report.macro_f1 == pytest.approx(2.0 / 3.0)


def test_macro_f1_counts_labels_in_golds_or_preds():
    # constant predictor: union has 2 labels, so macro-F1 halves the hit F1
    judgments = _judgments(["correct", "correct"], [1.0, 1.0])
    golds = [("correct", 1.0), ("incorrect", 0.0)]
    report = scoring_metrics(judgments, golds)
    f1_correct = 2 * 0.5 * 1.0 / 1.5
    assert report.macro_f1 == pytest.approx(f1_correct / 2)


def test_macro_f1_relabel_invariance():
    rng = random.Random(8)
    labels = ["correct", "incorrect", "partially_correct"]
    preds = [rng.choice(labels) for _ in range(60)]
    golds = [rng.choice(labels) for _ in range(60)]
    swap = {"correct": "incorrect", "incorrect": "partially_correct", "partially_correct": "correct"}
    a = scoring_metrics(_judgments(preds, [0.5] * 60), [(g, 0.5) for g in golds])
    b = scoring_metrics(
        _judgments([swap[p] for p in preds], [0.5] * 60),
        [(swap[g], 0.5) for g in golds],
    )
    assert a.macro_f1 == pytest.approx(b.macro_f1)
    assert a.accuracy == pytest.approx(b.accuracy)


def test_scoring_metrics_errors():
    with pytest.raises(LengthMismatch):
        scoring_metrics(_judgments(["correct"], [1.0]), [])
    with pytest.raises(EmptyEvaluationSet):
        scoring_metrics([], [])


def test_bleu_identity():
    text = "the quick brown fox jumps over the lazy dog"
    assert bleu([text], [text]) == pytest.approx(100.0, abs=1e-6)


def test_bleu_disjoint_near_zero():
    # smoothing shrinks with length; feedback-sized disjoint texts land < 1.0
    cand = " ".join(f"alpha{i}" for i in range(40))
    ref = " ".join(f"omega{i}" for i in range(40))
    value = bleu([cand], [ref])
    assert 0.0 <= value < 1.0


def test_bleu_two_sentence_fixture_matches_manual_oracle():
    cands = [c for c, _ in _BLEU_FIXTURE]
    refs = [r for _, r in _BLEU_FIXTURE]
    assert bleu(cands, refs) == pytest.approx(_BLEU_FIXTURE_EXPECTED, abs=1e-6)


def test_bleu_corpus_permutation_invariance():
    cands = ["the cat sat on the mat", "routers forward packets", "a b c d e"]
    refs = ["a cat sat on a mat", "switches forward frames", "a b c x e"]
    direct = bleu(cands, refs)
    order = [2, 0, 1]
    assert bleu([cands[i] for i in order], [refs[i] for i in order]) == pytest.approx(direct)


def test_bleu_errors():
    with pytest.raises(LengthMismatch):
        bleu(["a"], ["a", "b"])
    with pytest.raises(AllEmptyReferences):
        bleu(["something here"], [""])


def test_bleu_short_candidate_is_zero():
    # no 4-grams anywhere in the candidate corpus
    assert bleu(["one two"], ["one two three four"]) == 0.0


def test_rouge2_identity():
    result = rouge2("a b c d", "a b c d")
    assert result.f1 == pytest.approx(1.0)


def test_rouge2_hand_example():
    result = rouge2("a b c d", "a b c e")
    assert result.precision == pytest.approx(2.0 / 3.0)
    assert result.recall == pytest.approx(2.0 / 3.0)
    assert result.f1 == pytest.approx(2.0 / 3.0)


def test_rouge2_degenerate():
    assert rouge2("single", "a b c").f1 == 0.0
    assert rouge2("", "a b c").f1 == 0.0
    assert rouge2("a b", "").f1 == 0.0


def test_identity_properties_over_random_token_strings():
    rng = random.Random(4242)
    words = ["net", "link", "host", "frame", "port", "route", "ack", "syn"]
    for _ in range(100):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(4, 12)))
        assert bleu([text], [text]) == pytest.approx(100.0, abs=1e-6)
        assert rouge2(text, text).f1 == pytest.approx(1.0, abs=1e-12)


def test_embed_sim_identity():
    cfg = EmbedderConfig(dimension=32)
    assert embed_sim_f1("routers forward packets", "routers forward packets", cfg) == pytest.approx(1.0, abs=1e-6)


def test_embed_sim_disjoint_below_one():
    cfg = EmbedderConfig(dimension=32)
    assert embed_sim_f1("alpha beta", "gamma delta", cfg) < 1.0


def test_embed_sim_empty_text():
    cfg = EmbedderConfig(dimension=32)
    assert embed_sim_f1("", "anything", cfg) == 0.0
    assert embed_sim_f1("anything", "", cfg) == 0.0


@pytest.mark.parametrize(
    "candidate, reference",
    # greedy precision or recall below 0 at dim 32: 2PR/(P+R) gave -59.96 and 48.27
    [("osprey port osprey", "switch step"), ("cat", "heron frame packet")],
)
def test_embed_sim_negative_precision_or_recall_scores_zero(candidate, reference):
    assert embed_sim_f1(candidate, reference, EmbedderConfig(dimension=32)) == 0.0


_WORDS = st.sampled_from(["cat", "heron", "osprey", "port", "switch", "step", "frame", "packet", "a", "the"])
_TEXTS = st.one_of(st.lists(_WORDS, max_size=8).map(" ".join), st.text(max_size=20))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_TEXTS, _TEXTS), min_size=1, max_size=4))
def test_bleu_stays_in_0_100(pairs):
    candidates, references = zip(*pairs)
    try:
        score = bleu(list(candidates), list(references))
    except AllEmptyReferences:
        return
    assert 0.0 <= score <= 100.0


@settings(max_examples=200, deadline=None)
@given(_TEXTS, _TEXTS)
def test_rouge2_stays_in_0_1(candidate, reference):
    assert all(0.0 <= value <= 1.0 for value in rouge2(candidate, reference))


@settings(max_examples=200, deadline=None)
@given(_TEXTS, _TEXTS)
def test_embed_sim_stays_in_0_1(candidate, reference):
    # a self-pair can land one rounding step above 1
    assert 0.0 <= embed_sim_f1(candidate, reference, EmbedderConfig(dimension=32)) <= 1.0 + 1e-12


def test_embed_sim_matches_double_loop_oracle():
    cfg = EmbedderConfig(dimension=16)
    candidate = "one two three"
    reference = "two three four five"
    cand = embed_tokens(candidate, cfg)
    ref = embed_tokens(reference, cfg)
    precision = np.mean([max(float(c @ r) for r in ref.vectors) for c in cand.vectors])
    recall = np.mean([max(float(c @ r) for c in cand.vectors) for r in ref.vectors])
    expected = 2 * precision * recall / (precision + recall)
    assert embed_sim_f1(candidate, reference, cfg) == pytest.approx(expected, abs=1e-9)


def test_embed_sim_remote_sends_document_role(stub_server_factory):
    # embed_sim_f1 passes no role, so the pair goes out in one request under the default
    server = stub_server_factory(mirror_embedding_app(16))
    cfg = EmbedderConfig(backend="remote", endpoint=server.url, dimension=16)
    local = embed_sim_f1("one two three", "two three four", EmbedderConfig(dimension=16))
    assert embed_sim_f1("one two three", "two three four", cfg) == pytest.approx(local, abs=1e-9)
    assert [r["body"]["role"] for r in server.requests] == ["document"]


def test_text_metrics_embedsim_is_mean_of_per_pair_embed_sim(stub_server_factory):
    # one embedding call for the whole report gives each pair the rows it
    # gets alone; repeated tokens and empty texts included
    pairs = [
        ("routers forward packets", "a router forwards packets"),
        ("", "anything at all"),
        ("packets packets packets", "routers forward packets"),
        ("same words here", "same words here"),
        ("tail text", ""),
    ]
    candidates, references = [c for c, _ in pairs], [r for _, r in pairs]
    server = stub_server_factory(mirror_embedding_app(16))
    for cfg in (EmbedderConfig(dimension=16),
                EmbedderConfig(backend="remote", endpoint=server.url, dimension=16)):
        per_pair = [embed_sim_f1(c, r, cfg) for c, r in pairs]
        report = text_metrics_report(candidates, references, cfg)
        assert report.embedsim_f1 == sum(per_pair) / len(pairs)
    # the per-pair calls, then one request for all ten texts
    assert [len(r["body"]["texts"]) for r in server.requests] == [2] * 5 + [10]


def _manifest(model="m1", mode="zero_shot", k=0, split="test_ua", items=None):
    default_items = [
        {
            "record_id": "r1",
            "question_id": "q1",
            "gold_score": 1.0,
            "gold_label": "correct",
            "gold_feedback": "good work on this answer",
            "judgment": {
                "score": 1.0,
                "label": "correct",
                "feedback": "good work on this answer",
                "parse_path": "typed",
            },
        },
        {
            "record_id": "r2",
            "question_id": "q1",
            "gold_score": 0.0,
            "gold_label": "incorrect",
            "gold_feedback": "the answer misses the point",
            "judgment": {
                "score": 0.5,
                "label": "partially_correct",
                "feedback": "partially there",
                "parse_path": "typed",
            },
        },
    ]
    return {
        "manifest_version": 1,
        "created_at": "2026-01-01T00:00:00+00:00",
        "config": {"model_id": model, "mode": mode, "k": k, "split": split},
        "items": items if items is not None else default_items,
        "ledger": {},
    }


def test_manifest_metrics_single_row():
    row = manifest_metrics(_manifest())
    assert row.model == "m1"
    assert row.scores.n_evaluated == 2
    assert row.scores.n_excluded == 0
    assert row.scores.accuracy == pytest.approx(0.5)


def test_manifest_metrics_excludes_failed():
    items = _manifest()["items"]
    items.append(
        {
            "record_id": "r3",
            "question_id": "q1",
            "gold_score": 1.0,
            "gold_label": "correct",
            "gold_feedback": "fb",
            "judgment": {"score": None, "label": None, "feedback": None, "parse_path": "failed"},
        }
    )
    row = manifest_metrics(_manifest(items=items))
    assert row.scores.n_evaluated == 2
    assert row.scores.n_excluded == 1


def test_build_report_marks_best_and_second():
    rows = build_report([_manifest(model="m1"), _manifest(model="m2")])
    text = report_to_text(rows)
    assert "*" in text and "_" in text
    # both manifests identical -> m1 listed best (first), m2 second
    assert text.index("m1") < text.index("m2")


def test_report_csv_round_trip(tmp_path):
    rows = build_report([_manifest()], text_metrics=True, embed_cfg=EmbedderConfig())
    parsed = list(csv.DictReader(io.StringIO(report_to_csv(rows))))
    assert len(parsed) == 1
    # floats are written as their repr, so they read back exactly
    assert parsed[0]["acc"] == repr(rows[0].scores.accuracy)
    assert parsed[0]["rmse"] == repr(rows[0].scores.rmse)
    assert parsed[0]["bleu"] == repr(rows[0].text.bleu)
    assert parsed[0]["embedsim"] == repr(rows[0].text.embedsim_f1)
    assert float(parsed[0]["embedsim"]) == rows[0].text.embedsim_f1
    assert parsed[0]["n"] == str(rows[0].scores.n_evaluated)
    # without text metrics those columns are empty
    plain = list(csv.DictReader(io.StringIO(report_to_csv(build_report([_manifest()])))))
    assert (plain[0]["bleu"], plain[0]["rouge2"], plain[0]["embedsim"]) == ("", "", "")


def test_build_report_version_mismatch():
    bad = _manifest()
    bad["manifest_version"] = 2
    with pytest.raises(SchemaMismatch):
        build_report([_manifest(), bad])


def test_manifest_metrics_all_failed():
    items = [
        {
            "record_id": "r1",
            "question_id": "q1",
            "gold_score": 1.0,
            "gold_label": "correct",
            "gold_feedback": "fb",
            "judgment": {"score": None, "label": None, "feedback": None, "parse_path": "failed"},
        }
    ]
    with pytest.raises(EmptyEvaluationSet):
        manifest_metrics(_manifest(items=items))
