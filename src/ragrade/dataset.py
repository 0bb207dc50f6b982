"""Loading, validation, and split views for labeled short-answer corpora.

A corpus row carries a question, a reference answer, a student answer, a
numeric score in [0, 1], a categorical label, elaborated feedback, and a
split tag. Rows are grouped by question via ``question_id`` and partitioned
into ``train`` / ``test_ua`` (new answers to known questions) / ``test_uq``
(entirely new questions).

Every output goes through ``atomic_write``; ``write_sealed`` and
``read_sealed`` frame the checksummed files (corpus cache and index), and
``write_json`` and ``read_json`` every JSON document ragrade writes or reads.
"""

import csv
import json
import os
import re
import struct
import zlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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


# The corpus cache: a sealed file whose header holds the record count and
# whose body is two JSON array lines per field of AnswerRecord, the split
# last: the field's distinct values in order of first use, then each record's
# index into them, in corpus order. Records loaded from it share one object
# per distinct value.
_CACHE_MAGIC = b"RGCC"
_CACHE_VERSION = 3
_RECORD_FIELDS = tuple(f.name for f in fields(AnswerRecord))


def _distinct(column: Iterable) -> Tuple[list, List[int]]:
    """The distinct values of ``column`` in order of first use, and each
    entry's index into them. A float is told apart by its repr, so 0.0 and
    -0.0, which are equal, stay apart."""
    first: Dict[object, int] = {}
    values: list = []
    indices = []
    for value in column:
        key = (float, repr(value)) if isinstance(value, float) else value
        at = first.setdefault(key, len(values))
        if at == len(values):
            values.append(value)
        indices.append(at)
    return values, indices


def save_corpus(corpus: Corpus, path) -> None:
    """Write a validated ``corpus`` as a cache that ``load_corpus(path, "cache")`` reads."""
    records = corpus.records
    lines = []
    for name in _RECORD_FIELDS:
        lines += _distinct(map(attrgetter(name), records))
    body = [(json.dumps(line, ensure_ascii=False) + "\n").encode("utf-8") for line in lines]
    write_sealed(path, _CACHE_MAGIC, _CACHE_VERSION, {"records": len(records)}, body)


def _load_cache(path: Path) -> Corpus:
    stale = RagradeError(f"{path} is not a current corpus cache; re-run `ragrade ingest`")
    try:
        with read_sealed(path, _CACHE_MAGIC, _CACHE_VERSION, "corpus", "re-ingest") as sealed:
            header, _, fh = sealed
            lines = [json.loads(line) for line in fh]
    except (ValueError, RecursionError):
        raise stale from None
    n = header.get("records")
    if len(lines) != 2 * len(_RECORD_FIELDS):
        raise stale
    columns = []
    for values, indices in zip(lines[::2], lines[1::2]):
        if not (
            isinstance(values, list)
            and isinstance(indices, list)
            and len(indices) == n
            and set(map(type, indices)) <= {int}  # a bool is not an index
            and min(indices, default=0) >= 0
            and max(indices, default=-1) < len(values)
        ):
            raise stale
        columns.append(map(values.__getitem__, indices))
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


# A sealed file: a 4-byte magic, then the ``<u4`` version, header length and
# crc32 of every byte after these 16, then the JSON header and the body.
_SEALED_PREFIX = struct.Struct("<4sIII")


def write_sealed(path, magic: bytes, version: int, header: Dict, blocks: Sequence) -> None:
    """Write ``header`` and the bytes-like ``blocks``, in order, as the body of
    a sealed file that ``read_sealed`` opens."""
    header_raw = json.dumps(header, sort_keys=True).encode("utf-8")
    crc = zlib.crc32(header_raw)
    for block in blocks:
        crc = zlib.crc32(block, crc)
    with atomic_write(path) as fh:
        fh.write(_SEALED_PREFIX.pack(magic, version, len(header_raw), crc) + header_raw)
        for block in blocks:
            fh.write(block)


@contextmanager
def read_sealed(
    path, magic: bytes, version: int, kind: str, fix: str
) -> Iterator[Tuple[Dict, int, BinaryIO]]:
    """Open a sealed file and yield its JSON object header, the length of its
    body and the file, at the body's first byte. The magic, the version and
    the checksum are checked before the header is parsed; a ``ValueError``
    naming ``kind`` refuses a file that fails a check, ``fix`` saying what to do."""
    with open(path, "rb") as fh:
        prefix = fh.read(_SEALED_PREFIX.size)
        if prefix[:4] != magic:
            raise ValueError(f"not a ragrade {kind} file")
        if len(prefix) < _SEALED_PREFIX.size:
            raise ValueError(f"truncated {kind} file")
        _, got, header_len, crc = _SEALED_PREFIX.unpack(prefix)
        if got != version:
            raise ValueError(f"{kind} format v{got} is not supported; {fix}")
        body_crc = 0
        for block in iter(lambda: fh.read(1 << 16), b""):  # 64 KiB at a time
            body_crc = zlib.crc32(block, body_crc)
        if body_crc != crc:
            raise ValueError(f"corrupt {kind} file: checksum mismatch; {fix}")
        body_len = fh.tell() - _SEALED_PREFIX.size - header_len
        if body_len < 0:  # checked before a read of header_len bytes allocates them
            raise ValueError(f"corrupt {kind} file: the header runs past the end")
        fh.seek(_SEALED_PREFIX.size)
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (ValueError, RecursionError):
            header = None
        if not isinstance(header, dict):
            raise ValueError(f"corrupt {kind} file: the header is not a JSON object")
        yield header, body_len, fh


def write_json(path, obj) -> None:
    """Write ``obj`` to ``path`` atomically as UTF-8 JSON: keys sorted, an
    indent of 2, non-ASCII text as itself and a newline at the end."""
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


def read_json(path, what: str) -> Dict:
    """The JSON object in the file at ``path``. A file that is not UTF-8, not
    JSON, nested too deeply or not an object is refused with one
    ``RagradeError`` naming ``what`` and ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # a UnicodeDecodeError is a ValueError
        raise RagradeError(f"{what} {path} is not readable JSON: {exc}") from None
    if not isinstance(data, dict):
        raise RagradeError(f"{what} {path} must hold a JSON object, not {type(data).__name__}")
    return data


def split_view(corpus: Corpus, split: str) -> List[AnswerRecord]:
    """Records of one split, in corpus (input) order."""
    split = canonical_split(split)
    return [r for r in corpus.records if r.split == split]
