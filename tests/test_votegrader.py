import random

import pytest

from ragrade.dataset import AnswerRecord
from ragrade.errors import RagradeError
from ragrade.retrieval import RetrievedExample
from ragrade.votegrader import vote_classify

_LABEL_SCORE = {"correct": 1.0, "incorrect": 0.0, "partially_correct": 0.5}


def _neighbors(labels, scores=None, relevances=None):
    scores = scores or [_LABEL_SCORE[label] for label in labels]
    relevances = relevances or [float(len(labels) - i) for i in range(len(labels))]
    out = []
    for i, (label, score, rel) in enumerate(zip(labels, scores, relevances)):
        record = AnswerRecord(
            id=f"n{i}",
            question="q",
            question_id="q1",
            reference_answer="ref",
            student_answer=f"answer {i}",
            gold_score=score,
            gold_label=label,
            gold_feedback=f"fb {i}",
        )
        out.append(RetrievedExample(record=record, relevance=rel, rank=i + 1))
    return out


def test_modal_label_and_mean_score():
    result = vote_classify(_neighbors(["correct", "correct", "incorrect"], [1.0, 1.0, 0.0]))
    assert result.label == "correct"
    assert result.score == pytest.approx(2.0 / 3.0)


def test_k1_equals_neighbor():
    neighbors = _neighbors(["partially_correct"], [0.5])
    result = vote_classify(neighbors)
    assert result.label == "partially_correct"
    assert result.score == 0.5


def test_tie_breaks_to_highest_relevance_neighbor():
    # incorrect sits at rank 1, so a 1-1 tie resolves to incorrect
    result = vote_classify(_neighbors(["incorrect", "correct"]))
    assert result.label == "incorrect"


def test_tie_break_skips_untied_rank1_label():
    # rank 1 label is unique-but-not-tied only when counts differ; build a
    # 2-2-1 multiset where rank 1 holds the singleton label
    labels = ["partially_correct", "correct", "incorrect", "correct", "incorrect"]
    result = vote_classify(_neighbors(labels))
    assert result.label == "correct"  # first neighbor among the tied pair


def test_empty_neighbors():
    with pytest.raises(RagradeError, match="vote requires at least one neighbor"):
        vote_classify([])


def test_score_within_neighbor_bounds_and_label_in_multiset():
    rng = random.Random(2024)
    labels_pool = list(_LABEL_SCORE)
    for _ in range(200):
        k = rng.randint(1, 5)
        labels = [rng.choice(labels_pool) for _ in range(k)]
        scores = [rng.random() for _ in range(k)]
        result = vote_classify(_neighbors(labels, scores))
        assert min(scores) <= result.score <= max(scores)
        assert result.label in labels
