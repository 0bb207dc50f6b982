"""Late-interaction retrieval over training-record student answers.

The relevance of a document to a query is the sum, over query tokens, of the
maximum dot product against any document token (MaxSim). Scoring is
exhaustive over the index; no approximate pruning. The index persists to a
single binary file and refuses to load under a different embedder
fingerprint unless forced.
"""

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
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
    normalize_rows,
)
from .errors import DimensionMismatch, EmptyIndex, EmptyMatrix, FingerprintMismatch

_MAGIC = b"RGIX"
_FORMAT_VERSION = 1
_EMBED_BATCH = 32


@dataclass
class IndexEntry:
    record_id: str
    matrix: TokenEmbeddingMatrix


@dataclass
class MaxSimIndex:
    dim: int
    fingerprint: str
    config: EmbedderConfig
    entries: List[IndexEntry] = field(default_factory=list)
    payload: Dict[str, AnswerRecord] = field(default_factory=dict)
    skipped_empty: int = 0

    def __len__(self) -> int:
        return len(self.entries)


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
    sims = query.vectors @ doc.vectors.T
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

    entries: List[IndexEntry] = []
    for start in range(0, len(indexable), _EMBED_BATCH):
        batch = indexable[start : start + _EMBED_BATCH]
        matrices = embed_texts([r.student_answer for r in batch], cfg, role=ROLE_DOCUMENT)
        for rec, matrix in zip(batch, matrices):
            if matrix.n_tokens == 0:
                skipped += 1
                continue
            entries.append(IndexEntry(rec.id, matrix))

    if not entries:
        raise EmptyIndex("no record produced any tokens")
    dims = {e.matrix.dim for e in entries}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed dimensions in index: {sorted(dims)}")

    return MaxSimIndex(
        dim=dims.pop(),
        fingerprint=config_fingerprint(cfg),
        config=cfg,
        entries=entries,
        payload={r.id: r for r in records if r.student_answer.strip()},
        skipped_empty=skipped,
    )


def top_k(
    index: MaxSimIndex,
    query_text: str,
    k: int,
    exclude: Optional[Set[str]] = None,
) -> List[RetrievedExample]:
    """Exact top-k entries by MaxSim; ties broken by ascending record id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not index.entries:
        raise EmptyIndex("index has no entries")
    query = embed_tokens(query_text, index.config, role=ROLE_QUERY)
    if query.n_tokens == 0:
        raise EmptyMatrix("query produced no tokens")

    exclude = exclude or set()
    scored = [
        (maxsim_score(query, entry.matrix), entry.record_id)
        for entry in index.entries
        if entry.record_id not in exclude
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [
        RetrievedExample(record=index.payload[rid], relevance=score, rank=rank)
        for rank, (score, rid) in enumerate(scored[:k], start=1)
    ]


def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        chunk = self.data[self.pos : self.pos + n]
        if len(chunk) != n:
            raise ValueError("truncated index file")
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def save_index(index: MaxSimIndex, path) -> None:
    """Binary layout: magic, version, JSON header, packed f32 matrices, JSON payload."""
    header = {
        "dim": index.dim,
        "fingerprint": index.fingerprint,
        "entry_count": len(index.entries),
        "skipped_empty": index.skipped_empty,
        "config": {
            "backend": index.config.backend,
            "endpoint": index.config.endpoint,
            "dimension": index.config.dimension,
        },
    }
    header_raw = json.dumps(header, sort_keys=True).encode("utf-8")

    chunks: List[bytes] = [_MAGIC, struct.pack("<I", _FORMAT_VERSION)]
    chunks.append(struct.pack("<I", len(header_raw)))
    chunks.append(header_raw)
    for entry in index.entries:
        chunks.append(_pack_str(entry.record_id))
        chunks.append(struct.pack("<I", entry.matrix.n_tokens))
        for token in entry.matrix.tokens:
            chunks.append(_pack_str(token))
        chunks.append(
            np.ascontiguousarray(entry.matrix.vectors, dtype="<f4").tobytes()
        )
    payload_rows = [rec.to_row("train") for rec in index.payload.values()]
    payload_raw = json.dumps(
        {"records": payload_rows}, sort_keys=True, ensure_ascii=False
    ).encode("utf-8")
    chunks.append(struct.pack("<Q", len(payload_raw)))
    chunks.append(payload_raw)

    Path(path).write_bytes(b"".join(chunks))


def load_index(
    path, cfg: Optional[EmbedderConfig] = None, force: bool = False
) -> MaxSimIndex:
    """Load a persisted index; refuses fingerprint mismatches against ``cfg`` unless forced."""
    reader = _Reader(Path(path).read_bytes())
    if reader.take(4) != _MAGIC:
        raise ValueError("not an index file")
    version = reader.u32()
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported index format version {version}")
    header = json.loads(reader.take(reader.u32()).decode("utf-8"))

    stored_cfg = EmbedderConfig(
        backend=header["config"]["backend"],
        endpoint=header["config"]["endpoint"],
        dimension=header["config"]["dimension"],
    )
    if cfg is not None and config_fingerprint(cfg) != header["fingerprint"]:
        if not force:
            raise FingerprintMismatch(
                f"index built with fingerprint {header['fingerprint']}, "
                f"current config is {config_fingerprint(cfg)} (use force to override)"
            )
        # a forced load can point at a moved backend, but the stored vectors
        # pin the geometry; a different dimension can never work
        if cfg.dimension != int(header["dim"]):
            raise DimensionMismatch(
                f"index stores {header['dim']}-dim vectors; config asks for "
                f"{cfg.dimension} (force cannot reconcile dimensions)"
            )
        stored_cfg = cfg

    dim = int(header["dim"])
    entries: List[IndexEntry] = []
    for _ in range(int(header["entry_count"])):
        record_id = reader.string()
        n_tokens = reader.u32()
        tokens = [reader.string() for _ in range(n_tokens)]
        raw = reader.take(n_tokens * dim * 4)
        vectors = np.frombuffer(raw, dtype="<f4").reshape(n_tokens, dim)
        entries.append(
            IndexEntry(record_id, TokenEmbeddingMatrix(tokens, normalize_rows(vectors)))
        )

    payload_raw = reader.take(reader.u64())
    payload: Dict[str, AnswerRecord] = {}
    rows = json.loads(payload_raw.decode("utf-8"))["records"]
    for row_no, row in enumerate(rows, start=1):
        record, _ = parse_row(row, row_no)
        payload[record.id] = record

    return MaxSimIndex(
        dim=dim,
        fingerprint=header["fingerprint"],
        config=stored_cfg,
        entries=entries,
        payload=payload,
        skipped_empty=int(header["skipped_empty"]),
    )


def same_question_ids(index: MaxSimIndex, question_id: str) -> Set[str]:
    """Record ids in the index sharing a question; used for exclusion filters."""
    return {rid for rid, rec in index.payload.items() if rec.question_id == question_id}
