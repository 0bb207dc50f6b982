"""Loading, validation, and split views for labeled short-answer corpora.

A corpus row carries a question, a reference answer, a student answer, a
numeric score in [0, 1], a categorical label, elaborated feedback, and a
split tag. Rows are grouped by question via ``question_id`` and partitioned
into ``train`` / ``test_ua`` (new answers to known questions) / ``test_uq``
(entirely new questions).
"""

import csv
import json
import os
import re
import zlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional

from .errors import RagradeError

LABELS = ("correct", "incorrect", "partially_correct")
SPLITS = ("train", "test_ua", "test_uq")
FORMATS = ("jsonl", "csv")

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


def _canonical(raw: str, allowed: "tuple[str, ...]", kind: str) -> str:
    if raw in allowed:  # already canonical: folding would return it unchanged
        return raw
    folded = "_".join(p for p in re.split(r"[\s_]+", str(raw).strip().lower()) if p)
    if folded not in allowed:
        raise ValueError(f"unknown {kind} {raw!r}")
    return folded


def canonical_label(raw: str) -> str:
    """Fold case, whitespace, and underscores: "Partially correct" -> partially_correct."""
    return _canonical(raw, LABELS, "label")


def canonical_split(raw: str) -> str:
    return _canonical(raw, SPLITS, "split")


@dataclass(frozen=True, slots=True)
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
    split: Optional[str] = None  # None for a record built outside a corpus


@dataclass
class Corpus:
    records: List[AnswerRecord] = field(default_factory=list)

    def validate(self) -> None:
        """Check structural invariants; raises on violation."""
        seen_ids = set()
        question_to_qid: Dict[str, str] = {}
        split_qids: Dict[str, set] = defaultdict(set)
        for rec in self.records:
            if rec.id in seen_ids:
                raise RagradeError(f"duplicate record id {rec.id!r}")
            seen_ids.add(rec.id)
            if not rec.question_id:
                raise RagradeError(f"record {rec.id!r}: empty question_id")
            prior = question_to_qid.get(rec.question)
            if prior is not None and prior != rec.question_id:
                raise RagradeError(
                    f"question text maps to both {prior!r} and {rec.question_id!r}"
                )
            question_to_qid[rec.question] = rec.question_id
            if rec.split is None:
                raise RagradeError(f"record {rec.id!r} has no split assignment")
            if rec.split not in SPLITS:
                raise RagradeError(f"record {rec.id!r} has unknown split {rec.split!r}")
            split_qids[rec.split].add(rec.question_id)

        train_qids, ua_qids, uq_qids = (split_qids[split] for split in SPLITS)

        leaked = uq_qids & train_qids
        if leaked:
            raise RagradeError(f"question {min(leaked)!r}: appears in both train and test_uq")
        orphaned = ua_qids - train_qids
        if orphaned:
            raise RagradeError(f"question {min(orphaned)!r}: in test_ua but has no train records")


def parse_row(row: Dict[str, object], row_no: int) -> AnswerRecord:
    """Validate one corpus row, a JSONL object or a CSV row keyed by
    ``_REQUIRED_KEYS`` and an optional ``max_points``, into a record."""
    if not isinstance(row, dict):
        raise RagradeError(f"row {row_no}: not a JSON object")
    for key in _REQUIRED_KEYS:
        if key not in row or (row[key] is None and key not in _NULLABLE_TEXT):
            raise RagradeError(f"row {row_no}: missing field {key!r}")

    raw_score = row["score"]
    if isinstance(raw_score, str) and not raw_score.strip():  # an empty CSV cell
        raise RagradeError(f"row {row_no}: missing field 'score'")
    try:
        score = float(raw_score)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        score = None
    if score is None or isinstance(raw_score, bool):
        raise RagradeError(f"row {row_no}: score must be a number, not {raw_score!r}")

    max_points = row.get("max_points")
    if max_points is not None and str(max_points).strip() != "":  # an empty CSV cell is absent
        try:
            denom = float(max_points)
        except (TypeError, ValueError, OverflowError):
            denom = float("nan")
        if isinstance(max_points, bool) or not 0 < denom < float("inf"):
            raise RagradeError(
                f"row {row_no}: max_points must be a finite number > 0, not {max_points!r}"
            )
        score = score / denom

    if not (0.0 <= score <= 1.0):
        raise RagradeError(f"row {row_no}: score {score!r} outside [0, 1]")

    try:
        label = canonical_label(str(row["label"]))
    except ValueError:
        raise RagradeError(f"row {row_no}: unknown label {row['label']!r}")

    try:
        split = canonical_split(str(row["split"]))
    except ValueError:
        raise RagradeError(f"row {row_no}: unknown split {row['split']!r}")

    return AnswerRecord(
        id=str(row["id"]),
        question=str(row["question"]),
        question_id=str(row["question_id"]),
        reference_answer=str(row["reference_answer"]),
        student_answer=str(row.get("student_answer") or ""),
        gold_score=score,
        gold_label=label,
        gold_feedback=str(row.get("feedback") or ""),
        split=split,
    )


def _iter_rows(path: Path, fmt: str) -> Iterable[Dict[str, object]]:
    if fmt == "jsonl":
        with open(path, encoding="utf-8-sig") as fh:  # a BOM, as Excel writes, is read past
            lines = (line for line in fh if line.strip())
            for row_no, line in enumerate(lines, start=1):
                try:
                    row = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise RagradeError(f"row {row_no}: malformed JSON: {exc}") from exc
                yield row
    else:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                yield dict(row)


def load_corpus(path, fmt: Optional[str] = None) -> Corpus:
    """Load and validate a corpus file. Scores outside [0, 1] are rejected, not clamped.

    Without ``fmt``, a ``.csv`` file is read as CSV and any other as JSONL.
    ``fmt="cache"`` reads a file written by ``save_corpus``: once its header
    and checksum match, its records are trusted and not validated again.
    """
    path = Path(path)
    if fmt == "cache":
        return _load_cache(path)
    corpus = Corpus()
    fmt = fmt or ("csv" if path.suffix == ".csv" else "jsonl")
    if fmt not in FORMATS:
        raise ValueError(f"unknown corpus format {fmt!r}")
    for row_no, row in enumerate(_iter_rows(path, fmt), start=1):
        corpus.records.append(parse_row(row, row_no))
    corpus.validate()
    return corpus


# The corpus cache: a JSON header line, then one JSON array per field of
# AnswerRecord, the split last, in corpus order. The header's crc32 covers
# every byte after the header line.
CACHE_FORMAT = "ragrade-corpus"
CACHE_VERSION = 1
_RECORD_FIELDS = tuple(f.name for f in fields(AnswerRecord))


def save_corpus(corpus: Corpus, path) -> None:
    """Write a validated ``corpus`` as a cache that ``load_corpus(path, "cache")`` reads."""
    records = corpus.records
    columns = [list(map(attrgetter(name), records)) for name in _RECORD_FIELDS]
    body = "".join(json.dumps(c, ensure_ascii=False) + "\n" for c in columns).encode("utf-8")
    header = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "records": len(records),
        "crc32": zlib.crc32(body),
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(body)


def _load_cache(path: Path) -> Corpus:
    stale = RagradeError(f"{path} is not a current corpus cache; re-run `ragrade ingest`")
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except (ValueError, RecursionError):
            raise stale from None
        if not (
            isinstance(header, dict)
            and header.get("format") == CACHE_FORMAT
            and header.get("version") == CACHE_VERSION
        ):
            raise stale
        body_start = fh.tell()
        crc = 0
        for block in iter(lambda: fh.read(1 << 16), b""):  # 64 KiB at a time
            crc = zlib.crc32(block, crc)
        if crc != header.get("crc32"):
            raise stale
        fh.seek(body_start)
        try:
            columns = [json.loads(line) for line in fh]
        except (ValueError, RecursionError):
            raise stale from None
    n = header.get("records")
    if len(columns) != len(_RECORD_FIELDS) or not all(
        isinstance(c, list) and len(c) == n for c in columns
    ):
        raise stale
    return Corpus(records=list(map(AnswerRecord, *columns)))


@contextmanager
def atomic_write(path) -> Iterator[BinaryIO]:
    """Yield a new binary file next to ``path``; it replaces ``path`` when the
    block exits normally and is removed when it raises. ``path``'s directory
    is created if it is missing.

    A crash part-way leaves the old ``path`` whole. There is no fsync, so this
    does not promise durability across a power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def split_view(corpus: Corpus, split: str) -> List[AnswerRecord]:
    """Records of one split, in corpus (input) order."""
    split = canonical_split(split)
    return [r for r in corpus.records if r.split == split]
