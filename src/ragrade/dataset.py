"""Loading, validation, and split views for labeled short-answer corpora.

A corpus row carries a question, a reference answer, a student answer, a
numeric score in [0, 1], a categorical label, elaborated feedback, and a
split tag. Rows are grouped by question via ``question_id`` and partitioned
into ``train`` / ``test_ua`` (new answers to known questions) / ``test_uq``
(entirely new questions).
"""

import csv
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List

from .errors import (
    CorpusError,
    MissingField,
    ScoreOutOfRange,
    SplitViolation,
    UnknownLabel,
)

LABELS = ("correct", "incorrect", "partially_correct")
SPLITS = ("train", "test_ua", "test_uq")

_REQUIRED_KEYS = (
    "id",
    "question",
    "question_id",
    "reference_answer",
    "student_answer",
    "score",
    "label",
    "feedback",
    "split",
)

# Text fields where a JSON null / absent CSV cell means "empty", not an error.
_NULLABLE_TEXT = {"student_answer", "feedback"}


def canonical_label(raw: str) -> str:
    """Fold case, whitespace, and underscores: "Partially correct" -> partially_correct."""
    folded = "_".join(p for p in re.split(r"[\s_]+", str(raw).strip().lower()) if p)
    if folded not in LABELS:
        raise ValueError(f"unknown label {raw!r}")
    return folded


def canonical_split(raw: str) -> str:
    folded = "_".join(p for p in re.split(r"[\s_]+", str(raw).strip().lower()) if p)
    if folded not in SPLITS:
        raise ValueError(f"unknown split {raw!r}")
    return folded


@dataclass(frozen=True)
class AnswerRecord:
    """One labeled item: question, reference answer, student answer, gold fields."""

    id: str
    question: str
    question_id: str
    reference_answer: str
    student_answer: str
    gold_score: float
    gold_label: str
    gold_feedback: str

    def to_row(self, split: str) -> Dict[str, object]:
        return {
            "id": self.id,
            "question": self.question,
            "question_id": self.question_id,
            "reference_answer": self.reference_answer,
            "student_answer": self.student_answer,
            "score": self.gold_score,
            "label": self.gold_label,
            "feedback": self.gold_feedback,
            "split": split,
        }


@dataclass
class Corpus:
    records: List[AnswerRecord] = field(default_factory=list)
    split_assignment: Dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        """Check structural invariants; raises on violation."""
        seen_ids = set()
        question_to_qid: Dict[str, str] = {}
        for rec in self.records:
            if rec.id in seen_ids:
                raise CorpusError(f"duplicate record id {rec.id!r}")
            seen_ids.add(rec.id)
            if not rec.question_id:
                raise CorpusError(f"record {rec.id!r}: empty question_id")
            prior = question_to_qid.get(rec.question)
            if prior is not None and prior != rec.question_id:
                raise CorpusError(
                    f"question text maps to both {prior!r} and {rec.question_id!r}"
                )
            question_to_qid[rec.question] = rec.question_id
            if rec.id not in self.split_assignment:
                raise CorpusError(f"record {rec.id!r} has no split assignment")

        train_qids = {r.question_id for r in self._in_split("train")}
        ua_qids = {r.question_id for r in self._in_split("test_ua")}
        uq_qids = {r.question_id for r in self._in_split("test_uq")}

        leaked = uq_qids & train_qids
        if leaked:
            raise SplitViolation(sorted(leaked)[0], "appears in both train and test_uq")
        orphaned = ua_qids - train_qids
        if orphaned:
            raise SplitViolation(
                sorted(orphaned)[0], "in test_ua but has no train records"
            )

    def _in_split(self, split: str) -> List[AnswerRecord]:
        return [r for r in self.records if self.split_assignment[r.id] == split]


def parse_row(row: Dict[str, object], row_no: int) -> "tuple[AnswerRecord, str]":
    """Validate one corpus row (as written by ``AnswerRecord.to_row``) into a record and its split."""
    for key in _REQUIRED_KEYS:
        if key not in row:
            raise MissingField(row_no, key)
        if row[key] is None and key not in _NULLABLE_TEXT:
            raise MissingField(row_no, key)

    try:
        score = float(row["score"])  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise MissingField(row_no, "score")

    max_points = row.get("max_points")
    if max_points is not None and str(max_points).strip() != "":
        denom = float(max_points)
        if denom <= 0:
            raise CorpusError(f"row {row_no}: max_points must be positive")
        score = score / denom

    if not (0.0 <= score <= 1.0):
        raise ScoreOutOfRange(row_no, score)

    try:
        label = canonical_label(str(row["label"]))
    except ValueError:
        raise UnknownLabel(row_no, row["label"])

    try:
        split = canonical_split(str(row["split"]))
    except ValueError:
        raise CorpusError(f"row {row_no}: unknown split {row['split']!r}")

    record = AnswerRecord(
        id=str(row["id"]),
        question=str(row["question"]),
        question_id=str(row["question_id"]),
        reference_answer=str(row["reference_answer"]),
        student_answer=str(row.get("student_answer") or ""),
        gold_score=score,
        gold_label=label,
        gold_feedback=str(row.get("feedback") or ""),
    )
    return record, split


def _iter_rows(path: Path, fmt: str) -> Iterable[Dict[str, object]]:
    if fmt == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield json.loads(line)
    elif fmt == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                yield dict(row)
    else:
        raise ValueError(f"unknown corpus format {fmt!r}")


def load_corpus(path, fmt: str = "jsonl") -> Corpus:
    """Load and validate a corpus file. Scores outside [0, 1] are rejected, not clamped."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    corpus = Corpus()
    for row_no, row in enumerate(_iter_rows(path, fmt), start=1):
        record, split = parse_row(row, row_no)
        corpus.records.append(record)
        corpus.split_assignment[record.id] = split
    corpus.validate()
    return corpus


def save_corpus(corpus: Corpus, path, fmt: str = "jsonl") -> None:
    path = Path(path)
    rows = [r.to_row(corpus.split_assignment[r.id]) for r in corpus.records]
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    elif fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(_REQUIRED_KEYS))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: row[k] for k in _REQUIRED_KEYS})
    else:
        raise ValueError(f"unknown corpus format {fmt!r}")


def split_view(corpus: Corpus, split: str) -> List[AnswerRecord]:
    """Records of one split, in corpus (input) order."""
    split = canonical_split(split)
    return [r for r in corpus.records if corpus.split_assignment[r.id] == split]
