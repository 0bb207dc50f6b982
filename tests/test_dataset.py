import json
import re

import pytest
from hypothesis import given, strategies as st

from ragrade.dataset import (
    LABELS,
    SPLITS,
    canonical_label,
    canonical_split,
    load_corpus,
    save_corpus,
    split_view,
)
from ragrade.errors import (
    CorpusError,
    MissingField,
    ScoreOutOfRange,
    SplitViolation,
    UnknownLabel,
)


def _row(
    row_id="a1",
    question="What is X?",
    question_id="q1",
    score=1.0,
    label="correct",
    split="train",
    **extra,
):
    row = {
        "id": row_id,
        "question": question,
        "question_id": question_id,
        "reference_answer": "X is Y.",
        "student_answer": "X is Y indeed.",
        "score": score,
        "label": label,
        "feedback": "Fine.",
        "split": split,
    }
    row.update(extra)
    return row


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def test_three_row_fixture_loads(tmp_path):
    rows = [
        _row("a1", split="train"),
        _row("a2", split="train", score=0.5, label="partially_correct"),
        _row("a3", split="test_ua", score=0.0, label="incorrect"),
    ]
    corpus = load_corpus(_write_jsonl(tmp_path / "c.jsonl", rows))
    assert len(corpus.records) == 3
    assert corpus.split_assignment == {"a1": "train", "a2": "train", "a3": "test_ua"}


def test_score_out_of_range_rejected(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_row(score=1.25)])
    with pytest.raises(ScoreOutOfRange):
        load_corpus(path)


def test_negative_score_rejected(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_row(score=-0.1)])
    with pytest.raises(ScoreOutOfRange):
        load_corpus(path)


def test_uq_question_in_train_is_split_violation(tmp_path):
    rows = [
        _row("a1", question_id="q9", split="train"),
        _row("a2", question_id="q9", split="test_uq"),
    ]
    path = _write_jsonl(tmp_path / "c.jsonl", rows)
    with pytest.raises(SplitViolation):
        load_corpus(path)


def test_ua_question_without_train_records_is_split_violation(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_row("a1", split="test_ua")])
    with pytest.raises(SplitViolation):
        load_corpus(path)


def test_missing_field(tmp_path):
    row = _row()
    del row["reference_answer"]
    path = _write_jsonl(tmp_path / "c.jsonl", [row])
    with pytest.raises(MissingField):
        load_corpus(path)


def test_unknown_label(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_row(label="excellent")])
    with pytest.raises(UnknownLabel):
        load_corpus(path)


def test_duplicate_id_rejected(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_row("a1"), _row("a1")])
    with pytest.raises(CorpusError):
        load_corpus(path)


@pytest.mark.parametrize("bad_line", ["5", "null", '{"id": "a2",'])
def test_a_row_that_is_not_a_json_object_names_its_row(tmp_path, bad_line):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(_row()) + "\n\n" + bad_line + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"^row 2: "):
        load_corpus(path)


def test_label_canonicalization():
    assert canonical_label("Partially correct") == "partially_correct"
    assert canonical_label("  CORRECT ") == "correct"
    assert canonical_label("partially_ correct") == "partially_correct"
    with pytest.raises(ValueError):
        canonical_label("sort of right")


def _fold_reference(raw, allowed, kind):
    """The folding rule: case, surrounding space, and runs of whitespace and
    underscores all fold away."""
    folded = "_".join(p for p in re.split(r"[\s_]+", str(raw).strip().lower()) if p)
    if folded not in allowed:
        raise ValueError(f"unknown {kind} {raw!r}")
    return folded


def _outcome(fn, raw):
    try:
        return ("ok", fn(raw))
    except ValueError as exc:
        return ("error", str(exc))


# canonical values, their parts with case and separators varied, and any text
_label_like = st.one_of(
    st.sampled_from(LABELS + SPLITS),
    st.lists(
        st.sampled_from(["correct", "partially", "train", "test", "ua", "uq", "CORRECT",
                         "Test", "_", " ", "\t", "__", "\u00a0", "x"]),
        max_size=6,
    ).map("".join),
    st.text(max_size=20),
)


@given(raw=_label_like)
def test_canonical_label_and_split_equal_the_folding_rule(raw):
    assert _outcome(canonical_label, raw) == _outcome(
        lambda r: _fold_reference(r, LABELS, "label"), raw
    )
    assert _outcome(canonical_split, raw) == _outcome(
        lambda r: _fold_reference(r, SPLITS, "split"), raw
    )


def test_max_points_normalization(tmp_path):
    rows = [_row("a1", score=2.0, max_points=4.0)]
    corpus = load_corpus(_write_jsonl(tmp_path / "c.jsonl", rows))
    assert corpus.records[0].gold_score == 0.5


def test_max_points_overshoot_still_rejected(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_row(score=5.0, max_points=4.0)])
    with pytest.raises(ScoreOutOfRange):
        load_corpus(path)


def test_empty_student_answer_is_legal(tmp_path):
    rows = [_row("a1", student_answer="")]
    corpus = load_corpus(_write_jsonl(tmp_path / "c.jsonl", rows))
    assert corpus.records[0].student_answer == ""


def test_split_views(fixture_corpus):
    assert len(split_view(fixture_corpus, "train")) == 8
    assert len(split_view(fixture_corpus, "test_ua")) == 3
    assert len(split_view(fixture_corpus, "test_uq")) == 3


def test_split_view_empty_when_no_rows(tmp_path):
    corpus = load_corpus(_write_jsonl(tmp_path / "c.jsonl", [_row()]))
    assert split_view(corpus, "test_uq") == []


def test_split_view_preserves_input_order(fixture_corpus):
    train = split_view(fixture_corpus, "train")
    assert [r.id for r in train] == sorted([r.id for r in train])


def test_partition_property(fixture_corpus):
    views = [split_view(fixture_corpus, s) for s in ("train", "test_ua", "test_uq")]
    ids = [r.id for view in views for r in view]
    assert len(ids) == len(set(ids)) == len(fixture_corpus.records)
    assert set(ids) == {r.id for r in fixture_corpus.records}


def test_uq_isolation(fixture_corpus):
    train_qids = {r.question_id for r in split_view(fixture_corpus, "train")}
    uq_qids = {r.question_id for r in split_view(fixture_corpus, "test_uq")}
    assert not (train_qids & uq_qids)


def test_saf_train_proportion_near_published():
    # gated on the real dataset; the published 70% is a rounded figure, so
    # allow two percentage points rather than exact record counts
    import os
    from pathlib import Path

    path = Path(os.environ.get("ASASF_SAF_DATA") or Path(__file__).parent / "data" / "saf_corpus.jsonl")
    if not path.exists():
        pytest.skip(f"SAF corpus not found at {path}; see scripts/saf_to_jsonl.py")
    corpus = load_corpus(path, "jsonl")
    fraction = len(split_view(corpus, "train")) / len(corpus.records)
    assert abs(fraction - 0.70) <= 0.02


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_round_trip(fixture_corpus, tmp_path, fmt):
    first = tmp_path / f"c1.{fmt}"
    second = tmp_path / f"c2.{fmt}"
    save_corpus(fixture_corpus, first, fmt)
    loaded = load_corpus(first, fmt)
    assert loaded.records == fixture_corpus.records
    assert loaded.split_assignment == fixture_corpus.split_assignment
    save_corpus(loaded, second, fmt)
    assert second.read_bytes() == first.read_bytes()
