"""Late-interaction retrieval over training-record student answers.

The relevance of a document to a query is the sum, over query tokens, of the
maximum dot product against any document token (MaxSim). Scoring is exact and
exhaustive over the index; no approximate pruning. Scores equal to 1e-9 tie;
ascending record id breaks ties.

Every document's token rows live in one C-contiguous float32 matrix, with an
offsets array marking where each document starts. Documents are stored in
ascending token count, stable with respect to input order, so the documents
of one length form a contiguous run. ``top_k_batch`` embeds a group of
queries in one call and scans each run once for all of them, in chunks: one
float32 matmul against the group's distinct query rows, a zero-copy
(documents, length, rows) view, and a max over token positions by in-place
pairwise halving; each query then sums its rows' maxima in float64. Per
query, it re-scores in float64 every document whose float32 score is within
a proven error bound of the k-th best, so the ranking equals the exact one
over the stored rows. ``top_k`` is its one-query case. The index persists to
a single binary file (format v3) of record ids and token rows, not records:
loading takes the records from the caller's corpus. It refuses to load under
a different embedder fingerprint unless forced. A v2 file loads without its
record payload being read; one written in another document order is put into
length order on load, with no re-indexing.
"""

import json
import os
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from .dataset import AnswerRecord, atomic_write
from .embedding import (
    EmbedderConfig,
    ROLE_DOCUMENT,
    ROLE_QUERY,
    TokenEmbeddingMatrix,
    config_fingerprint,
    embed_texts,
)
from .errors import DimensionMismatch, EmptyIndex, EmptyMatrix, FingerprintMismatch

_MAGIC = b"RGIX"
_FORMAT_VERSION = 3
# most document tokens per float32 matmul of a scan
_SCAN_CHUNK_TOKENS = 4096
# the scan's one (chunk tokens x distinct query rows) float32 similarity buffer
_SCAN_BUFFER_BYTES = 1 << 20
# one query group's (queries x documents) float64 score block
_SCORE_BLOCK_BYTES = 4 << 20


@dataclass(eq=False)
class MaxSimIndex:
    """Document ``i`` is ``record_ids[i]``; its token rows are
    ``vectors[offsets[i]:offsets[i + 1]]``, at least one per document.
    Construction puts the documents in ascending token count, stable with
    respect to the order given."""

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
        lengths = np.diff(self.offsets)
        if np.any(lengths[1:] < lengths[:-1]):
            order = np.argsort(lengths, kind="stable")
            lengths = lengths[order]
            offsets = np.zeros_like(self.offsets)
            np.cumsum(lengths, out=offsets[1:])
            # every row of document order[i] moves from its old start to offsets[i]
            shift = np.repeat(self.offsets[:-1][order] - offsets[:-1], lengths)
            self.vectors = self.vectors[shift + np.arange(offsets[-1])]
            self.offsets = offsets
            self.record_ids = [self.record_ids[i] for i in order]
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

    indexed: List[AnswerRecord] = []
    matrices: List[np.ndarray] = []
    embedded = embed_texts([r.student_answer for r in indexable], cfg, role=ROLE_DOCUMENT)
    for rec, matrix in zip(indexable, embedded):
        if matrix.n_tokens == 0:
            skipped += 1
            continue
        indexed.append(rec)
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
        record_ids=[r.id for r in indexed],
        offsets=offsets,
        vectors=np.concatenate(matrices, dtype=np.float32),
        payload={r.id: r for r in indexed},
        skipped_empty=skipped,
    )


def query_group_size(index: MaxSimIndex) -> int:
    """Queries per ``top_k_batch`` group: their float64 score block
    (documents x queries) fits ``_SCORE_BLOCK_BYTES``."""
    return max(1, _SCORE_BLOCK_BYTES // (8 * max(1, len(index))))


def _scan_scores(index: MaxSimIndex, queries: Sequence[np.ndarray]) -> np.ndarray:
    """float32 MaxSim of each query (float32 rows, at least one) against every
    document, summed in float64: shape (queries, documents).

    Equal rows give equal column maxima, so the scan multiplies only the
    distinct rows of all queries; a query's score gathers its columns back.
    """
    distinct, inverse = np.unique(np.concatenate(queries), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    starts = np.cumsum([0] + [len(q) for q in queries[:-1]])
    scores = np.empty((len(queries), len(index)), dtype=np.float64)
    offsets = index.offsets
    lengths = np.diff(offsets)
    # documents come in ascending token count: one run per distinct length
    bounds = [*np.flatnonzero(np.diff(lengths, prepend=0)).tolist(), len(index)]
    chunk = max(1, min(_SCAN_CHUNK_TOKENS, _SCAN_BUFFER_BYTES // (4 * len(distinct))))
    buffer = np.empty((max(chunk, lengths.max()), len(distinct)), np.float32)
    for run_start, run_stop in zip(bounds[:-1], bounds[1:]):
        length = int(lengths[run_start])
        step = max(1, chunk // length)
        for start in range(run_start, run_stop, step):
            stop = min(start + step, run_stop)
            lo, hi = offsets[start], offsets[stop]
            sims = np.matmul(index.vectors[lo:hi], distinct.T, out=buffer[: hi - lo])
            sims = sims.reshape(stop - start, length, len(distinct))
            rows = length
            while rows > 1:  # fold the last half of the rows onto the first
                half = rows // 2
                np.maximum(sims[:, :half], sims[:, rows - half : rows], out=sims[:, :half])
                rows -= half
            np.add.reduceat(
                sims[:, 0][:, inverse], starts, axis=1, dtype=np.float64,
                out=scores.T[start:stop],
            )
    return scores


def _select(
    index: MaxSimIndex,
    scores: np.ndarray,
    query: TokenEmbeddingMatrix,
    k: int,
    exclude: Optional[Set[str]],
) -> List[RetrievedExample]:
    """The exact top k of one query from its scanned scores (modified in place)."""
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


def _retrieve(
    index: MaxSimIndex,
    query_texts: Sequence[str],
    k: int,
    excludes: Optional[Sequence[Optional[Set[str]]]],
) -> List[Optional[List[RetrievedExample]]]:
    """``top_k`` of every query, ``None`` for a query with no tokens; one
    embedding call and one scan per group of ``query_group_size`` queries."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not len(index):
        raise EmptyIndex("index has no entries")
    excludes = excludes or [None] * len(query_texts)
    if len(excludes) != len(query_texts):
        raise ValueError("one exclusion set per query")
    out: List[Optional[List[RetrievedExample]]] = []
    step = query_group_size(index)
    for first in range(0, len(query_texts), step):
        queries = embed_texts(query_texts[first : first + step], index.config, role=ROLE_QUERY)
        live = [j for j, query in enumerate(queries) if query.n_tokens]
        for j in live:
            if queries[j].dim != index.dim:
                raise DimensionMismatch(f"query dim {queries[j].dim} != doc dim {index.dim}")
        rows = [queries[j].vectors.astype(np.float32) for j in live]
        scores = _scan_scores(index, rows) if live else None
        group: List[Optional[List[RetrievedExample]]] = [None] * len(queries)
        for row, j in enumerate(live):
            group[j] = _select(index, scores[row], queries[j], k, excludes[first + j])
        out += group
    return out


def top_k_batch(
    index: MaxSimIndex,
    query_texts: Sequence[str],
    k: int,
    excludes: Optional[Sequence[Optional[Set[str]]]] = None,
) -> List[List[RetrievedExample]]:
    """``top_k`` of each query text, leaving out the ids in its exclusion set.

    Results equal per-query ``top_k``'s bit for bit; a query with no tokens
    gets ``[]``. Memory does not grow with the number of queries.
    """
    return [hits or [] for hits in _retrieve(index, query_texts, k, excludes)]


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
    (hits,) = _retrieve(index, [query_text], k, [exclude])
    if hits is None:
        raise EmptyMatrix("query produced no tokens")
    return hits


def save_index(index: MaxSimIndex, path) -> None:
    """Format v3: magic, version, JSON header (carrying ``record_ids``), the
    ``<i8`` offsets block and one ``<f4`` vectors block. Records are not
    stored; ``load_index`` takes them from the corpus."""
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

    with atomic_write(path) as fh:
        fh.write(_MAGIC + struct.pack("<II", _FORMAT_VERSION, len(header_raw)))
        fh.write(header_raw)
        fh.write(np.ascontiguousarray(index.offsets, dtype="<i8").data)
        fh.write(np.ascontiguousarray(index.vectors, dtype="<f4").data)


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


def _field(fields, key: str, kind):
    """``fields[key]``, which must be present and a ``kind``; else the file is corrupt."""
    if isinstance(fields, dict) and key in fields:
        value = fields[key]
        if isinstance(value, kind) and not isinstance(value, bool):
            return value
    raise ValueError(f"corrupt index file: header field {key!r} is missing or mistyped")


def load_index(
    path, records: Sequence[AnswerRecord], cfg: Optional[EmbedderConfig] = None,
    force: bool = False,
) -> MaxSimIndex:
    """Load a persisted index, each stored id's record taken from ``records``
    (the corpus); refuses fingerprint mismatches against ``cfg`` unless forced."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not an index file")
        (version,) = struct.unpack("<I", _read_bytes(fh, 4))
        if version == 1:
            raise ValueError(
                "index format v1 is no longer supported; re-index with `ragrade index`"
            )
        # v2 is v3 followed by a record payload, which is never read
        if version not in (2, _FORMAT_VERSION):
            raise ValueError(f"unsupported index format version {version}")
        (header_len,) = struct.unpack("<I", _read_bytes(fh, 4))
        header = json.loads(_read_bytes(fh, header_len).decode("utf-8"))

        stored = _field(header, "config", dict)
        stored_cfg = EmbedderConfig(
            backend=_field(stored, "backend", str),
            endpoint=_field(stored, "endpoint", (str, type(None))),
            dimension=_field(stored, "dimension", int),
        )
        dim = _field(header, "dim", int)
        fingerprint = _field(header, "fingerprint", str)
        record_ids = _field(header, "record_ids", list)
        skipped_empty = _field(header, "skipped_empty", int)
        if not all(isinstance(rid, str) for rid in record_ids):
            raise ValueError("corrupt index file: header field 'record_ids' is mistyped")
        if cfg is not None and config_fingerprint(cfg) != fingerprint:
            if not force:
                raise FingerprintMismatch(
                    f"index built with fingerprint {fingerprint}, "
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

        offsets = _read_array(fh, "<i8", len(record_ids) + 1)
        if offsets[0] != 0 or np.any(np.diff(offsets) < 1):
            raise ValueError("corrupt index file: offsets must rise from 0")
        vectors = _read_array(fh, "<f4", int(offsets[-1]) * dim).reshape(-1, dim)

    by_id = {rec.id: rec for rec in records}
    missing = [rid for rid in record_ids if rid not in by_id]
    if missing:
        raise ValueError(f"index ids {missing[:5]} not in the corpus; rebuild with `ragrade index`")

    index = MaxSimIndex(
        dim=dim,
        fingerprint=fingerprint,
        config=stored_cfg,
        record_ids=record_ids,
        offsets=offsets,
        vectors=vectors,
        payload={rid: by_id[rid] for rid in record_ids},
        skipped_empty=skipped_empty,
    )
    if len(index.row_of) != len(index):
        raise ValueError("corrupt index file: a record id is listed twice")
    return index
