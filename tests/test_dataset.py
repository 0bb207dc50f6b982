import csv
import json
import os
import re
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ragrade.dataset import (
    LABELS,
    SPLITS,
    atomic_write,
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


def _write_source(corpus, path, fmt):
    rows = [rec.to_row(corpus.split_assignment[rec.id]) for rec in corpus.records]
    if fmt == "jsonl":
        return _write_jsonl(path, rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_round_trip(fixture_corpus, tmp_path, fmt):
    # A corpus ingested from either source format survives the cache unchanged,
    # and re-saving what the cache gave back reproduces it byte for byte.
    source = _write_source(fixture_corpus, tmp_path / f"corpus.{fmt}", fmt)
    ingested = load_corpus(source, fmt)
    assert ingested.records == fixture_corpus.records
    assert ingested.split_assignment == fixture_corpus.split_assignment
    first = tmp_path / "c1.cache"
    second = tmp_path / "c2.cache"
    save_corpus(ingested, first)
    loaded = load_corpus(first, "cache")
    assert loaded.records == fixture_corpus.records
    assert loaded.split_assignment == fixture_corpus.split_assignment
    save_corpus(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_cache_layout(fixture_corpus, tmp_path):
    path = tmp_path / "c.cache"
    save_corpus(fixture_corpus, path)
    header_line, body = path.read_bytes().split(b"\n", 1)
    assert json.loads(header_line) == {
        "format": "ragrade-corpus",
        "version": 1,
        "records": 14,
        "crc32": zlib.crc32(body),
    }
    columns = [json.loads(line) for line in body.splitlines()]
    assert len(columns) == 9
    assert columns[0] == [r.id for r in fixture_corpus.records]
    assert columns[5] == [r.gold_score for r in fixture_corpus.records]
    assert columns[8] == [fixture_corpus.split_assignment[r.id] for r in fixture_corpus.records]


# text that a line-per-column format must keep on its line
_CACHE_TEXT = st.one_of(
    st.sampled_from(["", "\n", "a\nb", "\u2028", "\u2029", "\r\n", '"', '\\"', "\u00e9\u4e2d\U0001f600"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@st.composite
def _source_rows(draw):
    """Rows of a valid corpus: questions of even number are seen in train
    (test_ua may reuse them), those of odd number only in test_uq."""
    n = draw(st.integers(min_value=0, max_value=8))
    rows, seen = [], set()
    for i in range(n):
        q = draw(st.integers(min_value=0, max_value=3))
        if q % 2:
            split = "test_uq"
        elif q in seen:
            split = draw(st.sampled_from(["train", "test_ua"]))
        else:
            split = "train"
        seen.add(q)
        rows.append({
            "id": f"{i}{draw(_CACHE_TEXT)}",
            "question": f"{draw(_CACHE_TEXT)}#{q}",
            "question_id": f"q{q}",
            "reference_answer": draw(_CACHE_TEXT),
            "student_answer": draw(_CACHE_TEXT),
            "score": draw(st.one_of(st.sampled_from([0.0, 1e-7, 1 / 3, 1.0]), st.floats(0.0, 1.0))),
            "label": draw(st.sampled_from(["correct", "Partially correct", "INCORRECT"])),
            "feedback": draw(_CACHE_TEXT),
            "split": split,
        })
    # one text per question: every row takes the text its question's first row drew
    texts = {}
    for row in rows:
        row["question"] = texts.setdefault(row["question_id"], row["question"])
    return rows


@settings(max_examples=150, deadline=None)
@given(_source_rows())
def test_cache_loads_what_the_source_loads(rows):
    with tempfile.TemporaryDirectory() as tmp:
        source_path = Path(tmp) / "source.jsonl"
        source_path.write_text(
            "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8"
        )
        source = load_corpus(source_path)
        save_corpus(source, Path(tmp) / "corpus.cache")
        cached = load_corpus(Path(tmp) / "corpus.cache", "cache")
    assert cached.records == source.records
    assert [type(r.gold_score) for r in cached.records] == [float] * len(rows)
    assert list(cached.split_assignment.items()) == list(source.split_assignment.items())


def test_atomic_write_that_raises_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"old contents\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write(b"new con")
            raise RuntimeError("writer failed half-way")
    assert path.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == ["out.json"]

    with atomic_write(path) as fh:
        fh.write(b"new contents\n")
    assert path.read_bytes() == b"new contents\n"
    assert os.listdir(tmp_path) == ["out.json"]
