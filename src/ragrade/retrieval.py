"""Late-interaction retrieval over training-record student answers.

The relevance of a document to a query is the sum, over query tokens, of the
maximum dot product against any document token (MaxSim). Scoring is exact and
exhaustive over the index; no approximate pruning. Scores equal to 1e-9 tie;
ascending record id breaks ties.

The index keeps a float32 table of unit rows and one int32 row id per
document token, with an offsets array marking where each document's tokens
start. The table is the one ``embed_texts`` returned: on the deterministic
backend it holds each distinct indexed token once; on the remote backend it
holds one row per token, stored in the index's token order, so its row ids
count up from 0. ``build_index`` stores documents in ascending token count,
stable with respect to input order, so the documents of one length form a
contiguous run. It embeds every answer in one ``embed_texts`` call and lays
out the row ids in length order, with no per-answer matrix and no reordering
afterwards. ``top_k_batch``, a split's one retrieval call, embeds each group
of queries in one call and scans each run once for the group, in chunks: a
gather of the chunk's rows from the table, one float32 matmul against the
group's distinct query rows, a zero-copy (documents, length, rows) view, and
a max over token positions by in-place pairwise halving; each query then sums
its rows' maxima in float64. Per query, it re-scores in float64 every
document whose float32 score is within a proven error bound of the k-th best,
so the ranking equals the exact one over the stored rows. A group whose
embedding fails gives its queries ``None``; the next group goes on.
``top_k`` is one query's group. The index persists to a sealed file
(``dataset.write_sealed``, format v5) of record ids, offsets, row ids and the
table, not records: loading checks the checksum before it parses anything,
takes the records from the caller's corpus and keeps the file's document
order. It refuses a file that fails the checksum, whose blocks do not fill it
or whose row ids fall outside its table, refuses to load under a different
embedder backend, endpoint or dimension unless forced, and refuses a header
whose ``dim`` is not its config's ``dimension``. It hashes nothing: the header
keeps the fingerprint that ``build_index`` computed. Order changes no ranking,
only a scan's speed.
"""

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from .dataset import AnswerRecord, read_sealed, write_sealed
from .embedding import (
    EmbedderConfig,
    ROLE_DOCUMENT,
    ROLE_QUERY,
    TokenEmbeddingMatrix,
    config_fingerprint,
    config_key,
    embed_texts,
)
from .errors import BackendUnavailable, InvalidEmbedding, RagradeError

logger = logging.getLogger(__name__)

_MAGIC = b"RGIX"
_FORMAT_VERSION = 5
_REINDEX = "re-index with `ragrade index`"
# most document tokens per float32 matmul of a scan
_SCAN_CHUNK_TOKENS = 2048
# the scan's (chunk tokens x dim) float32 row buffer and (chunk tokens x
# distinct query rows) float32 similarity buffer, together
_SCAN_BUFFER_BYTES = 1 << 20
# one query group's (queries x documents) float64 score block
_SCORE_BLOCK_BYTES = 4 << 20


@dataclass(eq=False)
class MaxSimIndex:
    """Document ``i`` is ``records[i]``; its token rows are
    ``table[row_ids[offsets[i]:offsets[i + 1]]]``, at least one per document.
    Documents may come in any order; a scan is fastest in ascending token
    count, the order ``build_index`` lays them out in. Any number of tokens
    may share a table row."""

    fingerprint: str
    config: EmbedderConfig
    records: List[AnswerRecord]
    offsets: np.ndarray  # int64, len(records) + 1, offsets[0] == 0
    table: np.ndarray  # float32 (rows, config.dimension), C-contiguous unit rows
    row_ids: np.ndarray  # int32 (offsets[-1],), each in [0, rows)
    skipped_empty: int = 0
    row_of: Dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.row_of = {rec.id: row for row, rec in enumerate(self.records)}

    def __len__(self) -> int:
        return len(self.records)


def _length_order(offsets: np.ndarray):
    """The documents that ``offsets`` delimits, in ascending token count and
    stable: (their old positions, their new offsets, each new row's old row)."""
    lengths = np.diff(offsets)
    order = np.argsort(lengths, kind="stable")
    lengths = lengths[order]
    new_offsets = np.zeros_like(offsets)
    np.cumsum(lengths, out=new_offsets[1:])
    # every row of document order[i] moves from its old start to new_offsets[i]
    shift = np.repeat(offsets[:-1][order] - new_offsets[:-1], lengths)
    return order, new_offsets, shift + np.arange(new_offsets[-1])


@dataclass
class RetrievedExample:
    record: AnswerRecord
    relevance: float
    rank: int


def maxsim_score(query: TokenEmbeddingMatrix, doc: TokenEmbeddingMatrix) -> float:
    """Sum over query tokens of the max dot product against document tokens."""
    if query.n_tokens == 0 or doc.n_tokens == 0:
        raise RagradeError("maxsim requires at least one token on each side")
    if query.dim != doc.dim:
        raise InvalidEmbedding(f"query dim {query.dim} != doc dim {doc.dim}")
    return _maxsim(query.vectors, doc.vectors)


def _maxsim(query: np.ndarray, doc: np.ndarray) -> float:
    sims = query @ doc.T
    return float(np.sum(np.max(sims, axis=1)))


def build_index(records: Sequence[AnswerRecord], cfg: EmbedderConfig) -> MaxSimIndex:
    """Embed each record's student answer (document role) into a fresh index.

    Records with empty student answers are skipped and counted, not indexed.
    One embedding call embeds every answer; the index keeps its row table in
    float32 and lays out its row ids in the index's length order.
    """
    if not records:
        raise RagradeError("no records to index")

    indexable = [r for r in records if r.student_answer.strip()]
    if not indexable:
        raise RagradeError(f"all {len(records)} records had empty student answers")

    embedded = embed_texts([r.student_answer for r in indexable], cfg, role=ROLE_DOCUMENT)
    order, offsets, rows = _length_order(embedded.offsets)
    # answers without tokens sort first, and are skipped
    empty = int(np.count_nonzero(offsets[1:] == 0))
    if empty == len(indexable):
        raise RagradeError("no record produced any tokens")
    indexed = [indexable[i] for i in order[empty:].tolist()]
    table, row_ids = embedded.table.astype(np.float32), embedded.row_ids[rows]
    if len(table) == len(row_ids):  # a row per token: store them in token order
        table, row_ids = table[row_ids], np.arange(len(row_ids))
    return MaxSimIndex(
        fingerprint=config_fingerprint(cfg),
        config=cfg,
        records=indexed,
        offsets=offsets[empty:],
        table=table,
        row_ids=row_ids.astype(np.int32),
        skipped_empty=len(records) - len(indexed),
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
    # one run per stretch of equal-length documents: one per distinct length
    # in an index that ``build_index`` laid out
    bounds = [*np.flatnonzero(np.diff(lengths, prepend=0)).tolist(), len(index)]
    dim = index.config.dimension
    chunk = max(1, min(_SCAN_CHUNK_TOKENS, _SCAN_BUFFER_BYTES // (4 * (dim + len(distinct)))))
    longest = max(chunk, lengths.max())
    rows_buffer = np.empty((longest, dim), np.float32)
    buffer = np.empty((longest, len(distinct)), np.float32)
    for run_start, run_stop in zip(bounds[:-1], bounds[1:]):
        length = int(lengths[run_start])
        step = max(1, chunk // length)
        for start in range(run_start, run_stop, step):
            stop = min(start + step, run_stop)
            lo, hi = offsets[start], offsets[stop]
            # row ids are in range (built, or checked at load): a mode other
            # than "raise" lets take write straight into the buffer
            doc_rows = np.take(index.table, index.row_ids[lo:hi], axis=0,
                               out=rows_buffer[: hi - lo], mode="clip")
            sims = np.matmul(doc_rows, distinct.T, out=buffer[: hi - lo])
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
        bound = query.n_tokens * index.config.dimension * 2.0**-23
        kept = np.flatnonzero(scores >= kth - 2 * bound - 2e-9)

    exact = []
    for row in kept:
        rows = index.table[index.row_ids[index.offsets[row] : index.offsets[row + 1]]]
        score = _maxsim(query.vectors, rows.astype(np.float64))
        exact.append((-round(score, 9), index.records[row].id, score, row))
    exact.sort()
    return [
        RetrievedExample(record=index.records[row], relevance=score, rank=rank)
        for rank, (_, _, score, row) in enumerate(exact[:k], start=1)
    ]


def _retrieve(
    index: MaxSimIndex,
    query_texts: Sequence[str],
    k: int,
    excludes: Sequence[Optional[Set[str]]],
) -> List[Optional[List[RetrievedExample]]]:
    """One group's ``top_k`` of each query, ``None`` for one without tokens."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not len(index):
        raise RagradeError("index has no entries")
    embedded = embed_texts(query_texts, index.config, role=ROLE_QUERY)
    live = np.flatnonzero(np.diff(embedded.offsets)).tolist()
    # each query's float64 rows are gathered when used, so the group's rows
    # are held once, in the embedding's table
    rows = [embedded[j].vectors.astype(np.float32) for j in live]
    scores = _scan_scores(index, rows) if live else None
    out: List[Optional[List[RetrievedExample]]] = [None] * len(embedded)
    for row, j in enumerate(live):
        out[j] = _select(index, scores[row], embedded[j], k, excludes[j])
    return out


def top_k_batch(
    index: MaxSimIndex,
    query_texts: Sequence[str],
    k: int,
    excludes: Optional[Sequence[Optional[Set[str]]]] = None,
) -> List[Optional[List[RetrievedExample]]]:
    """``top_k`` of each query text, leaving out the ids in its exclusion set.

    The queries are embedded and scanned in groups of ``query_group_size``.
    Each query gets its hits, equal to per-query ``top_k``'s bit for bit;
    ``[]`` when it has no tokens; or ``None`` when its group's embedding
    failed after its retries, which the other groups outlive. Memory does not
    grow with the number of queries.
    """
    excludes = excludes or [None] * len(query_texts)
    if len(excludes) != len(query_texts):
        raise ValueError("one exclusion set per query")
    out: List[Optional[List[RetrievedExample]]] = []
    step = query_group_size(index)
    for first in range(0, len(query_texts), step):
        group = query_texts[first : first + step]
        try:
            out += [h or [] for h in _retrieve(index, group, k, excludes[first : first + step])]
        except (BackendUnavailable, InvalidEmbedding) as exc:
            logger.warning("batch retrieval failed (%s); its %d items fail", exc, len(group))
            out += [None] * len(group)
    return out


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
        raise RagradeError("query produced no tokens")
    return hits


def save_index(index: MaxSimIndex, path) -> None:
    """Format v5, a sealed file (``dataset.write_sealed``) whose JSON header
    carries ``record_ids`` and the table's ``rows`` and whose body is the
    ``<i8`` offsets, ``<i4`` row ids and ``<f4`` table blocks, and nothing
    after them. Records are not stored; ``load_index`` takes them from the
    corpus."""
    blocks = [
        np.ascontiguousarray(index.offsets, dtype="<i8"),
        np.ascontiguousarray(index.row_ids, dtype="<i4"),
        np.ascontiguousarray(index.table, dtype="<f4"),
    ]
    header = {
        "dim": index.config.dimension,
        "fingerprint": index.fingerprint,
        "record_ids": [r.id for r in index.records],
        "rows": len(index.table),
        "skipped_empty": index.skipped_empty,
        "config": {
            "backend": index.config.backend,
            "endpoint": index.config.endpoint,
            "dimension": index.config.dimension,
        },
    }
    write_sealed(path, _MAGIC, _FORMAT_VERSION, header, [block.data for block in blocks])


def _field(fields, key: str, kind):
    """``fields[key]``, which must be present and a ``kind``; else the file is corrupt."""
    if isinstance(fields, dict) and key in fields:
        value = fields[key]
        if isinstance(value, kind) and not isinstance(value, bool):
            return value
    raise ValueError(f"corrupt index file: header field {key!r} is missing or mistyped")


def _read_block(fh, dtype: str, count: int) -> np.ndarray:
    """The next ``count`` items of ``dtype`` in ``fh``. ``np.fromfile`` returns
    a short array, without a warning, from a file that shrank after its
    checksum pass; such a file is refused."""
    block = np.fromfile(fh, dtype, count)
    if len(block) != count:
        raise ValueError(f"corrupt index file: it ends inside a block; {_REINDEX}")
    return block


def load_index(
    path, records: Sequence[AnswerRecord], cfg: Optional[EmbedderConfig] = None,
    force: bool = False,
) -> MaxSimIndex:
    """Load a persisted index, each stored id's record taken from ``records``
    (the corpus); refuses a stored config whose ``config_key`` is not
    ``cfg``'s unless forced. Nothing after the file's fixed prefix is parsed
    before its checksum holds."""
    with read_sealed(path, _MAGIC, _FORMAT_VERSION, "index", _REINDEX) as sealed:
        header, body_len, fh = sealed
        stored = _field(header, "config", dict)
        dim = _field(stored, "dimension", int)
        if _field(header, "dim", int) != dim:
            raise ValueError(f"corrupt index file: header field 'dim' is not the config's {dim}")
        record_ids = _field(header, "record_ids", list)
        rows = _field(header, "rows", int)
        if rows < 0:
            raise ValueError("corrupt index file: header field 'rows' is negative")
        unfilled = ValueError(f"corrupt index file: its blocks do not fill its body; {_REINDEX}")
        if 8 * (len(record_ids) + 1) > body_len:
            raise unfilled
        offsets = _read_block(fh, "<i8", len(record_ids) + 1)
        if offsets[0] != 0 or np.any(np.diff(offsets) < 1):
            raise ValueError("corrupt index file: offsets must rise from 0")
        tokens = int(offsets[-1])
        if offsets.nbytes + 4 * tokens + 4 * rows * dim != body_len:
            raise unfilled
        row_ids = _read_block(fh, "<i4", tokens)
        table = _read_block(fh, "<f4", rows * dim).reshape(rows, dim)

    stored_cfg = EmbedderConfig(
        backend=_field(stored, "backend", str),
        endpoint=_field(stored, "endpoint", (str, type(None))),
        dimension=dim,
    )
    fingerprint = _field(header, "fingerprint", str)
    skipped_empty = _field(header, "skipped_empty", int)
    if not all(isinstance(rid, str) for rid in record_ids):
        raise ValueError("corrupt index file: header field 'record_ids' is mistyped")
    if row_ids.size and (row_ids.min() < 0 or row_ids.max() >= rows):
        raise ValueError("corrupt index file: a row id is outside the table")
    if cfg is not None and config_key(cfg) != config_key(stored_cfg):
        if not force:
            raise RagradeError(
                f"index built with fingerprint {fingerprint}, "
                f"current config is {config_fingerprint(cfg)} (use force to override)"
            )
        # a forced load can point at a moved backend, but the stored vectors
        # pin the geometry; a different dimension can never work
        if cfg.dimension != dim:
            raise RagradeError(
                f"index stores {dim}-dim vectors; config asks for "
                f"{cfg.dimension} (force cannot reconcile dimensions)"
            )
        stored_cfg = cfg

    by_id = {rec.id: rec for rec in records}
    missing = [rid for rid in record_ids if rid not in by_id]
    if missing:
        raise ValueError(f"index ids {missing[:5]} not in the corpus; rebuild with `ragrade index`")

    index = MaxSimIndex(
        fingerprint=fingerprint,
        config=stored_cfg,
        records=[by_id[rid] for rid in record_ids],
        offsets=offsets,
        table=table,
        row_ids=row_ids,
        skipped_empty=skipped_empty,
    )
    if len(index.row_of) != len(index):
        raise ValueError("corrupt index file: a record id is listed twice")
    return index
