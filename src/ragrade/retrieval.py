"""Late-interaction retrieval over training-record student answers.

The relevance of a document to a query is the sum, over query tokens, of the
maximum dot product against any document token (MaxSim). Scoring is exact and
exhaustive over the index; no approximate pruning. Scores equal to 1e-9 tie;
ascending record id breaks ties.

Every document's token rows live in one C-contiguous float32 matrix, with an
offsets array marking where each document starts. ``top_k`` scans that matrix
in float32 and then re-scores in float64 every document whose float32 score is
within a proven error bound of the k-th best, so the ranking equals the exact
one over the stored rows. The index persists to a single binary file and
refuses to load under a different embedder fingerprint unless forced.
"""

import json
import os
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from .dataset import AnswerRecord, parse_row
from .embedding import (
    EmbedderConfig,
    ROLE_DOCUMENT,
    ROLE_QUERY,
    TokenEmbeddingMatrix,
    config_fingerprint,
    embed_texts,
    embed_tokens,
)
from .errors import DimensionMismatch, EmptyIndex, EmptyMatrix, FingerprintMismatch

_MAGIC = b"RGIX"
_FORMAT_VERSION = 2
_EMBED_BATCH = 32
# documents per float32 matmul in top_k; bounds the (query tokens x block
# tokens) similarity matrix a scan holds at once
_SCAN_BLOCK_DOCS = 128


@dataclass(eq=False)
class MaxSimIndex:
    """Document ``i`` is ``record_ids[i]``; its token rows are
    ``vectors[offsets[i]:offsets[i + 1]]``, at least one per document."""

    dim: int
    fingerprint: str
    config: EmbedderConfig
    record_ids: List[str]
    offsets: np.ndarray  # int64, len(record_ids) + 1, offsets[0] == 0
    vectors: np.ndarray  # float32 (offsets[-1], dim), C-contiguous unit rows
    payload: Dict[str, AnswerRecord]
    skipped_empty: int = 0
    row_of: Dict[str, int] = field(init=False, repr=False)
    question_rows: Dict[str, List[int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.row_of = {rid: row for row, rid in enumerate(self.record_ids)}
        self.question_rows = {}
        for row, rid in enumerate(self.record_ids):
            self.question_rows.setdefault(self.payload[rid].question_id, []).append(row)

    def __len__(self) -> int:
        return len(self.record_ids)


@dataclass
class RetrievedExample:
    record: AnswerRecord
    relevance: float
    rank: int


def maxsim_score(query: TokenEmbeddingMatrix, doc: TokenEmbeddingMatrix) -> float:
    """Sum over query tokens of the max dot product against document tokens."""
    if query.n_tokens == 0 or doc.n_tokens == 0:
        raise EmptyMatrix("maxsim requires at least one token on each side")
    if query.dim != doc.dim:
        raise DimensionMismatch(f"query dim {query.dim} != doc dim {doc.dim}")
    return _maxsim(query.vectors, doc.vectors)


def _maxsim(query: np.ndarray, doc: np.ndarray) -> float:
    sims = query @ doc.T
    return float(np.sum(np.max(sims, axis=1)))


def build_index(records: Sequence[AnswerRecord], cfg: EmbedderConfig) -> MaxSimIndex:
    """Embed each record's student answer (document role) into a fresh index.

    Records with empty student answers are skipped and counted, not indexed.
    """
    if not records:
        raise EmptyIndex("no records to index")

    indexable = [r for r in records if r.student_answer.strip()]
    skipped = len(records) - len(indexable)
    if not indexable:
        raise EmptyIndex(f"all {len(records)} records had empty student answers")

    record_ids: List[str] = []
    matrices: List[np.ndarray] = []
    for start in range(0, len(indexable), _EMBED_BATCH):
        batch = indexable[start : start + _EMBED_BATCH]
        embedded = embed_texts([r.student_answer for r in batch], cfg, role=ROLE_DOCUMENT)
        for rec, matrix in zip(batch, embedded):
            if matrix.n_tokens == 0:
                skipped += 1
                continue
            record_ids.append(rec.id)
            matrices.append(matrix.vectors)

    if not matrices:
        raise EmptyIndex("no record produced any tokens")
    dims = {m.shape[1] for m in matrices}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed dimensions in index: {sorted(dims)}")

    offsets = np.zeros(len(matrices) + 1, dtype=np.int64)
    np.cumsum([m.shape[0] for m in matrices], out=offsets[1:])
    return MaxSimIndex(
        dim=dims.pop(),
        fingerprint=config_fingerprint(cfg),
        config=cfg,
        record_ids=record_ids,
        offsets=offsets,
        vectors=np.concatenate(matrices, dtype=np.float32),
        payload={r.id: r for r in records if r.student_answer.strip()},
        skipped_empty=skipped,
    )


def _scan_scores(index: MaxSimIndex, query: np.ndarray) -> np.ndarray:
    """float32 MaxSim of ``query`` against every document, summed in float64."""
    scores = np.empty(len(index), dtype=np.float64)
    offsets = index.offsets
    for start in range(0, len(index), _SCAN_BLOCK_DOCS):
        stop = min(start + _SCAN_BLOCK_DOCS, len(index))
        lo, hi = offsets[start], offsets[stop]
        sims = index.vectors[lo:hi] @ query.T
        best = np.maximum.reduceat(sims, offsets[start:stop] - lo, axis=0)
        scores[start:stop] = best.sum(axis=1, dtype=np.float64)
    return scores


def top_k(
    index: MaxSimIndex,
    query_text: str,
    k: int,
    exclude: Optional[Set[str]] = None,
) -> List[RetrievedExample]:
    """Exact top-k documents by MaxSim, leaving out the record ids in ``exclude``.

    Scores equal to 1e-9 tie; ascending record id breaks ties. ``relevance``
    is the float64 MaxSim over the stored rows.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not len(index):
        raise EmptyIndex("index has no entries")
    query = embed_tokens(query_text, index.config, role=ROLE_QUERY)
    if query.n_tokens == 0:
        raise EmptyMatrix("query produced no tokens")
    if query.dim != index.dim:
        raise DimensionMismatch(f"query dim {query.dim} != doc dim {index.dim}")

    scores = _scan_scores(index, query.vectors.astype(np.float32))
    if exclude:
        scores[[index.row_of[rid] for rid in exclude if rid in index.row_of]] = -np.inf
    kept = np.flatnonzero(scores > -np.inf)
    if k < len(kept):
        # A float32 dot product of unit rows is within (d + 1) * 2^-24 of the
        # exact one (query rounding plus a d-term sum), so a scanned score is
        # within bound = n_q * d * 2^-23 of exact. A document of the exact top
        # k, ties included, then scans at least kth - 2 * bound - 1e-9; one
        # more 1e-9 covers float64 rounding.
        kth = np.partition(scores, -k)[-k]
        bound = query.n_tokens * index.dim * 2.0**-23
        kept = np.flatnonzero(scores >= kth - 2 * bound - 2e-9)

    exact = []
    for row in kept:
        rows = index.vectors[index.offsets[row] : index.offsets[row + 1]]
        score = _maxsim(query.vectors, rows.astype(np.float64))
        exact.append((-round(score, 9), index.record_ids[row], score))
    exact.sort()
    return [
        RetrievedExample(record=index.payload[rid], relevance=score, rank=rank)
        for rank, (_, rid, score) in enumerate(exact[:k], start=1)
    ]


def save_index(index: MaxSimIndex, path) -> None:
    """Format v2: magic, version, JSON header (carrying ``record_ids``), the
    ``<i8`` offsets block, one ``<f4`` vectors block, then the JSON payload."""
    header = {
        "dim": index.dim,
        "fingerprint": index.fingerprint,
        "record_ids": index.record_ids,
        "skipped_empty": index.skipped_empty,
        "config": {
            "backend": index.config.backend,
            "endpoint": index.config.endpoint,
            "dimension": index.config.dimension,
        },
    }
    header_raw = json.dumps(header, sort_keys=True).encode("utf-8")
    payload_rows = [rec.to_row("train") for rec in index.payload.values()]
    payload_raw = json.dumps(
        {"records": payload_rows}, sort_keys=True, ensure_ascii=False
    ).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<II", _FORMAT_VERSION, len(header_raw)))
        fh.write(header_raw)
        fh.write(np.ascontiguousarray(index.offsets, dtype="<i8").data)
        fh.write(np.ascontiguousarray(index.vectors, dtype="<f4").data)
        fh.write(struct.pack("<Q", len(payload_raw)))
        fh.write(payload_raw)


def _read_bytes(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError("truncated index file")
    return data


def _read_array(fh, dtype: str, count: int) -> np.ndarray:
    """The next ``count`` items of the file, read straight into a new array."""
    itemsize = np.dtype(dtype).itemsize
    if count * itemsize > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError("truncated index file")
    out = np.empty(count, dtype=dtype)
    if fh.readinto(out.data.cast("B")) != out.nbytes:
        raise ValueError("truncated index file")
    return out


def load_index(
    path, cfg: Optional[EmbedderConfig] = None, force: bool = False
) -> MaxSimIndex:
    """Load a persisted index; refuses fingerprint mismatches against ``cfg`` unless forced."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not an index file")
        (version,) = struct.unpack("<I", _read_bytes(fh, 4))
        if version == 1:
            raise ValueError(
                "index format v1 is no longer supported; re-index with `ragrade index`"
            )
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported index format version {version}")
        (header_len,) = struct.unpack("<I", _read_bytes(fh, 4))
        header = json.loads(_read_bytes(fh, header_len).decode("utf-8"))

        stored_cfg = EmbedderConfig(
            backend=header["config"]["backend"],
            endpoint=header["config"]["endpoint"],
            dimension=header["config"]["dimension"],
        )
        dim = int(header["dim"])
        if cfg is not None and config_fingerprint(cfg) != header["fingerprint"]:
            if not force:
                raise FingerprintMismatch(
                    f"index built with fingerprint {header['fingerprint']}, "
                    f"current config is {config_fingerprint(cfg)} (use force to override)"
                )
            # a forced load can point at a moved backend, but the stored vectors
            # pin the geometry; a different dimension can never work
            if cfg.dimension != dim:
                raise DimensionMismatch(
                    f"index stores {dim}-dim vectors; config asks for "
                    f"{cfg.dimension} (force cannot reconcile dimensions)"
                )
            stored_cfg = cfg

        record_ids = header["record_ids"]
        offsets = _read_array(fh, "<i8", len(record_ids) + 1)
        if offsets[0] != 0 or np.any(np.diff(offsets) < 1):
            raise ValueError("corrupt index file: offsets must rise from 0")
        vectors = _read_array(fh, "<f4", int(offsets[-1]) * dim).reshape(-1, dim)
        (payload_len,) = struct.unpack("<Q", _read_bytes(fh, 8))
        payload_raw = _read_bytes(fh, payload_len)

    payload: Dict[str, AnswerRecord] = {}
    rows = json.loads(payload_raw.decode("utf-8"))["records"]
    for row_no, row in enumerate(rows, start=1):
        record, _ = parse_row(row, row_no)
        payload[record.id] = record

    return MaxSimIndex(
        dim=dim,
        fingerprint=header["fingerprint"],
        config=stored_cfg,
        record_ids=record_ids,
        offsets=offsets,
        vectors=vectors,
        payload=payload,
        skipped_empty=int(header["skipped_empty"]),
    )
