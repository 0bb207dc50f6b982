import csv
import json
import os
import re
import struct
import tempfile
import zlib
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ragrade.dataset import (
    LABELS,
    SPLITS,
    AnswerRecord,
    Corpus,
    atomic_write,
    canonical_label,
    canonical_split,
    load_corpus,
    read_json,
    read_sealed,
    save_corpus,
    split_view,
    write_json,
)
from ragrade.errors import RagradeError

from conftest import SEALED_PREFIX, corpus_row


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
    assert [r.split for r in corpus.records] == ["train", "train", "test_ua"]


def test_score_out_of_range_rejected(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_row(score=1.25)])
    with pytest.raises(RagradeError, match=re.escape("row 1: score 1.25 outside [0, 1]")):
        load_corpus(path)


def test_negative_score_rejected(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_row(score=-0.1)])
    with pytest.raises(RagradeError, match=re.escape("row 1: score -0.1 outside [0, 1]")):
        load_corpus(path)


def test_uq_question_in_train_is_split_violation(tmp_path):
    rows = [
        _row("a1", question_id="q9", split="train"),
        _row("a2", question_id="q9", split="test_uq"),
    ]
    path = _write_jsonl(tmp_path / "c.jsonl", rows)
    with pytest.raises(RagradeError, match="question 'q9': appears in both train and test_uq"):
        load_corpus(path)


def test_ua_question_without_train_records_is_split_violation(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_row("a1", split="test_ua")])
    with pytest.raises(RagradeError, match="question 'q1': in test_ua but has no train records"):
        load_corpus(path)


def test_missing_field(tmp_path):
    row = _row()
    del row["reference_answer"]
    path = _write_jsonl(tmp_path / "c.jsonl", [row])
    with pytest.raises(RagradeError, match="row 1: missing field 'reference_answer'"):
        load_corpus(path)


def test_unknown_label(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_row(label="excellent")])
    with pytest.raises(RagradeError, match="row 1: unknown label 'excellent'"):
        load_corpus(path)


@pytest.mark.parametrize("rows, error", [
    ([_row(question_id="")], "record 'a1': empty question_id"),
    ([_row("a1"), _row("a2", question_id="q2")], "question text maps to both 'q1' and 'q2'"),
    ([_row(split="dev")], "row 1: unknown split 'dev'"),
], ids=["empty_question_id", "one_question_two_ids", "unknown_split"])
def test_a_row_that_breaks_a_corpus_rule_is_refused(tmp_path, rows, error):
    path = _write_jsonl(tmp_path / "c.jsonl", rows)
    with pytest.raises(RagradeError, match=f"^{re.escape(error)}$"):
        load_corpus(path)


@pytest.mark.parametrize("split, error", [
    (None, "record 'a1' has no split assignment"),
    ("dev", "record 'a1' has unknown split 'dev'"),
], ids=["None", "dev"])
def test_a_corpus_record_without_a_known_split_is_refused(split, error):
    # a record built outside a corpus has no split; a corpus does not take it
    record = AnswerRecord(id="a1", question="What is X?", question_id="q1",
                          reference_answer="X is Y.", student_answer="X.", gold_score=1.0,
                          gold_label="correct", gold_feedback="Fine.", split=split)
    with pytest.raises(RagradeError, match=f"^{re.escape(error)}$"):
        Corpus(records=[record]).validate()


def test_duplicate_id_rejected(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_row("a1"), _row("a1")])
    with pytest.raises(RagradeError, match="duplicate record id 'a1'"):
        load_corpus(path)


@pytest.mark.parametrize("bad_line", ["5", "null", '{"id": "a2",'])
def test_a_row_that_is_not_a_json_object_names_its_row(tmp_path, bad_line):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(_row()) + "\n\n" + bad_line + "\n", encoding="utf-8")
    with pytest.raises(RagradeError, match=r"^row 2: (not a JSON object|malformed JSON)"):
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
    with pytest.raises(RagradeError, match=re.escape("row 1: score 1.25 outside [0, 1]")):
        load_corpus(path)


@pytest.mark.parametrize(
    "max_points",
    ["abc", "inf", "nan", float("inf"), float("nan"), 0, -4.0, True, [4],
     pytest.param(10 ** 400, id="int_past_float")],
)
def test_bad_max_points_is_refused_with_its_row(tmp_path, max_points):
    rows = [_row("a1", score=2.0, max_points=4.0), _row("a2", score=3.0, max_points=max_points)]
    path = _write_jsonl(tmp_path / "c.jsonl", rows)
    with pytest.raises(RagradeError, match=r"^row 2: max_points must be a finite number > 0"):
        load_corpus(path)


@pytest.mark.parametrize("cell, error", [("", None), ("4", None), ("abc", "row 1: max_points"),
                                         ("inf", "row 1: max_points")])
def test_csv_max_points_cell(tmp_path, cell, error):
    path = tmp_path / "c.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=[*_row(), "max_points"])
        writer.writeheader()
        writer.writerow({**_row(score=1.0), "max_points": cell})
    if error:
        with pytest.raises(RagradeError, match=error):
            load_corpus(path)
    else:  # an empty cell means no max_points
        assert load_corpus(path).records[0].gold_score == (0.25 if cell else 1.0)


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
    rows = [corpus_row(rec) for rec in corpus.records]
    if fmt == "jsonl":
        return _write_jsonl(path, rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_file_that_starts_with_a_utf8_bom_loads_as_without(fixture_corpus, tmp_path, fmt):
    # Excel's "CSV UTF-8" export writes one
    source = _write_source(fixture_corpus, tmp_path / f"corpus.{fmt}", fmt)
    bom = tmp_path / f"bom.{fmt}"
    bom.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    loaded = load_corpus(bom)
    assert loaded.records == fixture_corpus.records


@pytest.mark.parametrize("score", [True, False, "abc", "1/2", pytest.param([1.0], id="list"),
                                   pytest.param({"points": 1}, id="object"),
                                   pytest.param(10 ** 400, id="int_past_float")])
def test_a_score_that_is_not_a_number_is_refused_with_its_row(tmp_path, score):
    rows = [_row("a1"), _row("a2", score=score)]
    path = _write_jsonl(tmp_path / "c.jsonl", rows)
    with pytest.raises(RagradeError, match=re.escape(f"row 2: score must be a number, not {score!r}")):
        load_corpus(path)


# an empty cell is a missing score, as JSON's null is
@pytest.mark.parametrize("cell, error", [("", "row 1: missing field 'score'"),
                                         ("  ", "row 1: missing field 'score'"),
                                         ("abc", "row 1: score must be a number, not 'abc'"),
                                         ("0.5", None)])
def test_csv_score_cell(tmp_path, cell, error):
    path = tmp_path / "c.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(_row()))
        writer.writeheader()
        writer.writerow(_row(score=cell, label="partially_correct"))
    if error:
        with pytest.raises(RagradeError, match=re.escape(error)):
            load_corpus(path)
    else:
        assert load_corpus(path).records[0].gold_score == 0.5


def test_a_null_score_is_a_missing_field(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_row(score=None)])
    with pytest.raises(RagradeError, match="row 1: missing field 'score'"):
        load_corpus(path)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_round_trip(fixture_corpus, tmp_path, fmt):
    # A corpus ingested from either source format survives the cache unchanged,
    # and re-saving what the cache gave back reproduces it byte for byte.
    source = _write_source(fixture_corpus, tmp_path / f"corpus.{fmt}", fmt)
    ingested = load_corpus(source, fmt)
    assert ingested.records == fixture_corpus.records
    first = tmp_path / "c1.cache"
    second = tmp_path / "c2.cache"
    save_corpus(ingested, first)
    loaded = load_corpus(first, "cache")
    assert loaded.records == fixture_corpus.records
    save_corpus(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_cache_layout(fixture_corpus, tmp_path):
    path = tmp_path / "c.cache"
    save_corpus(fixture_corpus, path)
    data = path.read_bytes()
    magic, version, header_len, crc = struct.unpack("<4sIII", data[:SEALED_PREFIX])
    assert (magic, version, crc) == (b"RGCC", 3, zlib.crc32(data[SEALED_PREFIX:]))
    assert json.loads(data[SEALED_PREFIX : SEALED_PREFIX + header_len]) == {"records": 14}
    lines = [json.loads(line) for line in data[SEALED_PREFIX + header_len :].splitlines()]
    assert len(lines) == 18
    # each field: its distinct values in order of first use, then one index per record
    records = fixture_corpus.records
    assert lines[0:2] == [[r.id for r in records], list(range(14))]
    assert lines[16:18] == [["train", "test_ua", "test_uq"], [0] * 8 + [1] * 3 + [2] * 3]
    for f, values, indices in zip(fields(AnswerRecord), lines[::2], lines[1::2]):
        column = [getattr(r, f.name) for r in records]
        assert values == list(dict.fromkeys(column))
        assert [values[i] for i in indices] == column
    loaded = load_corpus(path, "cache").records
    # one object per distinct value, shared by the records that hold it
    assert len({id(r.question) for r in loaded}) == len({r.question for r in records})
    assert len({id(r.split) for r in loaded}) == 3


def test_cache_checks_its_checksum_before_its_header_and_columns(fixture_corpus, tmp_path):
    path = tmp_path / "c.cache"
    save_corpus(fixture_corpus, path)
    data = path.read_bytes()
    # every byte after the header length: the checksum, the header and the columns
    for at in range(12, len(data)):
        flipped = bytearray(data)
        flipped[at] ^= 1 << (at % 8)
        path.write_bytes(bytes(flipped))
        with pytest.raises(ValueError, match="^corrupt corpus file: checksum mismatch"):
            with read_sealed(path, b"RGCC", 3, "corpus", "re-ingest"):
                pass
        with pytest.raises(RagradeError, match="is not a current corpus cache"):
            load_corpus(path, "cache")


# text that a line-per-column format must keep on its line
_CACHE_TEXT = st.one_of(
    st.sampled_from(["", "\n", "a\nb", "\u2028", "\u2029", "\r\n", '"', '\\"', "\u00e9\u4e2d\U0001f600"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@st.composite
def _source_rows(draw):
    """Rows of a valid corpus: questions of even number are seen in train
    (test_ua may reuse them), those of odd number only in test_uq. Rows share
    question texts and reference answers, and scores of 0.0 and -0.0 mix."""
    n = draw(st.integers(min_value=0, max_value=8))
    references = draw(st.lists(_CACHE_TEXT, min_size=1, max_size=3))
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
            "reference_answer": draw(st.sampled_from(references)),
            "student_answer": draw(_CACHE_TEXT),
            "score": draw(st.one_of(st.sampled_from([0.0, -0.0, 1e-7, 1 / 3, 1.0]),
                                    st.floats(-0.0, 1.0))),
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
    # 0.0 == -0.0, so the records' equality alone would not tell them apart
    assert [repr(r.gold_score) for r in cached.records] == [
        repr(r.gold_score) for r in source.records
    ]
    assert [r.split for r in cached.records] == [row["split"] for row in rows]


def test_json_files_are_sorted_indented_utf8_with_a_final_newline(tmp_path):
    path = tmp_path / "out.json"
    document = {"b": "caf\u00e9 \u4e2d", "a": [1, None]}
    write_json(path, document)
    assert path.read_bytes() == (
        '{\n  "a": [\n    1,\n    null\n  ],\n  "b": "caf\u00e9 \u4e2d"\n}\n'.encode("utf-8")
    )
    assert read_json(path, "document") == document


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
