"""Per-token unit-vector embeddings behind a pluggable backend.

Two backends produce the same output: a remote embedding service (POST
JSON, one token matrix per input text) and a deterministic local embedder
meant for tests and offline runs. Rows are always re-normalized to unit
length, whatever the backend returned.

One ``embed_texts`` call returns its texts in one layout, ``EmbeddedTexts``:
each text's token list, int64 offsets marking where each text's tokens
start, a float64 table of unit rows, and one table row id per token. The
deterministic backend's table holds each distinct token of the call once;
the remote backend's holds the reply rows, one per token. The layout reads
as a sequence of per-text ``TokenEmbeddingMatrix``; ``retrieval.build_index``
gathers the whole index from it at once.
"""

import base64
import unicodedata
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BackendUnavailable, InvalidEmbedding, TransportError
from .llmclient import post_json

ROLE_QUERY = "query"
ROLE_DOCUMENT = "document"
BACKENDS = ("deterministic_test", "remote")
# texts per embedding-service request
_REQUEST_TEXTS = 32


@dataclass(frozen=True)
class EmbedderConfig:
    backend: str = "deterministic_test"  # one of BACKENDS
    endpoint: Optional[str] = None
    dimension: int = 32

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("dimension must be >= 2")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")


def config_key(cfg: EmbedderConfig) -> Tuple[str, str, int]:
    """Identity of an embedding space: its backend, endpoint (``None`` read as
    ``""``) and dimension; the query/document role is per-call, not identity."""
    return cfg.backend, cfg.endpoint or "", cfg.dimension


def config_fingerprint(cfg: EmbedderConfig) -> str:
    """A short hash of ``config_key``: an index file records it, and manifests copy it."""
    from hashlib import sha256  # only `index` hashes, so no other command maps OpenSSL

    return sha256("|".join(map(str, config_key(cfg))).encode("utf-8")).hexdigest()[:16]


@dataclass
class TokenEmbeddingMatrix:
    tokens: List[str]
    vectors: np.ndarray  # shape (len(tokens), dim), rows unit-normalized

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True, eq=False)
class EmbeddedTexts(Sequence[TokenEmbeddingMatrix]):
    """The texts of one ``embed_texts`` call. Text ``i`` has the tokens
    ``tokens[i]``, and its token ``j`` the row
    ``table[row_ids[offsets[i] + j]]``. Item ``i`` is text ``i``'s
    ``TokenEmbeddingMatrix``, whose rows are a fresh float64 gather made when
    the item is read, so iterating holds one text's rows at a time."""

    tokens: List[List[str]]
    offsets: np.ndarray  # int64, len(tokens) + 1, offsets[0] == 0
    table: np.ndarray  # float64 (rows, dim), unit rows
    row_ids: np.ndarray  # intp, offsets[-1]

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # negative indices count from the end
        rows = self.row_ids[self.offsets[i] : self.offsets[i + 1]]
        return TokenEmbeddingMatrix(self.tokens[i], self.table[rows])


def tokenize(text: str) -> List[str]:
    """Lowercase, split on whitespace, and break punctuation into its own tokens."""
    tokens: List[str] = []
    # split() breaks exactly where isspace() holds, and no alphanumeric
    # character is punctuation, so an alphanumeric chunk is one token
    for chunk in text.lower().split():
        if chunk.isalnum():
            tokens.append(chunk)
            continue
        start = 0
        for i, ch in enumerate(chunk):
            if unicodedata.category(ch).startswith("P"):
                if start < i:
                    tokens.append(chunk[start:i])
                tokens.append(ch)
                start = i + 1
        if start < len(chunk):
            tokens.append(chunk[start:])
    return tokens


_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _hash_rows(tokens: Sequence[str], d: int) -> np.ndarray:
    """(len(tokens), d) unit rows: each token's FNV-1a 64-bit hash seeds a
    splitmix64 stream whose draws map into (-1, 1) by their top 53 bits."""
    encoded = [t.encode("utf-8") for t in tokens]
    lengths = np.array([len(b) for b in encoded], dtype=np.int64)
    # longest first, so the tokens still hashing at byte j are a prefix
    order = np.argsort(-lengths, kind="stable")
    flat = np.frombuffer(b"".join([encoded[i] for i in order]), dtype=np.uint8)
    starts = np.zeros(len(tokens), dtype=np.int64)
    np.cumsum(lengths[order][:-1], out=starts[1:])
    longer_than = len(tokens) - np.cumsum(np.bincount(lengths))
    h = np.full(len(tokens), _FNV_OFFSET, dtype=np.uint64)
    for j, live in enumerate(longer_than[:-1].tolist()):  # uint64 arithmetic wraps
        h[:live] = (h[:live] ^ flat[starts[:live] + j]) * _FNV_PRIME
    seeds = np.empty_like(h)
    seeds[order] = h

    # splitmix64: draw i (from 1) mixes the state seed + i * gamma
    z = seeds[:, None] + np.arange(1, d + 1, dtype=np.uint64) * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z ^= z >> np.uint64(31)
    values = ((z >> np.uint64(11)).astype(np.float64) + 0.5) / float(1 << 53) * 2.0 - 1.0
    # no draw is 0, so no norm is; a (1, d) @ (d, 1) matmul is the per-row
    # dot product that np.linalg.norm takes of one row
    return values / np.sqrt(np.matmul(values[:, None, :], values[:, :, None])).reshape(-1, 1)


def deterministic_embed(token: str, d: int) -> np.ndarray:
    """Pure hash-derived unit vector for a token.

    Identical (token, d) always yields identical output, equal to the token's
    row in any ``embed_texts`` call on the deterministic backend.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return _hash_rows([token], d)[0]


# below this norm a row's squares can be subnormal and lose bits
_TINY_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize each row; idempotent within 1e-9 on already-unit rows."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if not np.isfinite(matrix).all():
        raise InvalidEmbedding("non-finite embedding value")
    with np.errstate(over="ignore"):  # such rows are rescaled below
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if len(norms) and (float(norms.min()) < _TINY_NORM or float(norms.max()) == np.inf):
        # squares that underflow or overflow: rescale those rows (only) by their
        # largest magnitude, so the other rows stay bit for bit
        odd = (norms < _TINY_NORM) | np.isinf(norms)
        peak = np.where(odd, np.abs(matrix).max(axis=1, keepdims=True, initial=0.0), 1.0)
        if not peak.all():
            raise InvalidEmbedding("zero-norm embedding row")
        matrix = matrix / peak
        norms = np.where(odd, np.linalg.norm(matrix, axis=1, keepdims=True), norms)
    return matrix / norms


def _embed_remote(
    texts: Sequence[str], cfg: EmbedderConfig, role: str
) -> Tuple[List[List[str]], np.ndarray]:
    """Embed on the embedding service, one request per ``_REQUEST_TEXTS`` texts
    in order, and none for no texts: each text's tokens, and every token's
    row, in order, as one matrix.

    Wire format: POST {"texts": [...], "role": "query"|"document",
    "encoding_format": "base64"} -> {"embeddings": [...], "tokens": [[...], ...]},
    one token matrix per input text. The returned token list is authoritative.
    Each embedding is a base64 string (see ``_token_rows``); a service that
    ignores ``encoding_format`` is refused. Each reply's rows are normalized
    as one matrix. Requests retry as chat ones do
    (``llmclient.post_json``), under its default attempts and timeout; one
    that still fails raises ``BackendUnavailable``.
    """
    if not cfg.endpoint:
        raise ValueError("remote backend requires an endpoint")
    texts = list(texts)
    token_lists: List[List[str]] = []
    tables = [np.empty((0, cfg.dimension))]
    for start in range(0, len(texts), _REQUEST_TEXTS):
        batch = texts[start : start + _REQUEST_TEXTS]
        payload = {"texts": batch, "role": role, "encoding_format": "base64"}
        try:
            data = post_json(cfg.endpoint, payload)
        except TransportError as exc:
            raise BackendUnavailable(f"embedding service: {exc}") from exc
        embeddings = data.get("embeddings")
        reply_tokens = data.get("tokens")
        if not (
            isinstance(embeddings, list)
            and isinstance(reply_tokens, list)
            and all(isinstance(x, list) for x in reply_tokens)
        ):
            raise BackendUnavailable(
                "embedding service response needs 'embeddings' as a list"
                " and 'tokens' as a list of lists"
            )
        if len(embeddings) != len(batch) or len(reply_tokens) != len(batch):
            raise BackendUnavailable("embedding service returned wrong batch size")
        rows = [
            _token_rows(matrix, len(tokens), cfg.dimension)
            for matrix, tokens in zip(embeddings, reply_tokens)
        ]
        tables.append(normalize_rows(np.concatenate(rows)))
        token_lists.extend(map(list, reply_tokens))
    return token_lists, np.concatenate(tables)


def _token_rows(rows, n_tokens: int, dimension: int) -> np.ndarray:
    """One reply embedding as an (n_tokens, dimension) float64 matrix, not
    yet normalized: a base64 string of little-endian float64 values,
    row-major, ``dimension`` values per row.
    """
    if not isinstance(rows, str):
        raise BackendUnavailable(
            "an embedding must be a base64 string: the service must honour"
            ' "encoding_format": "base64"'
        )
    try:
        raw = base64.b64decode(rows, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise BackendUnavailable(f"embedding is not valid base64: {exc}") from exc
    if len(raw) != n_tokens * dimension * 8:
        raise InvalidEmbedding(
            f"{len(raw)} embedding bytes for {n_tokens} tokens of dimension {dimension}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(n_tokens, dimension)


def embed_texts(
    texts: Sequence[str], cfg: EmbedderConfig, role: str = ROLE_DOCUMENT
) -> EmbeddedTexts:
    """Embed a batch of texts in one layout; item ``i`` is text ``i``'s token matrix."""
    if cfg.backend == "deterministic_test":
        token_lists = [tokenize(text) for text in texts]
        flat = list(chain.from_iterable(token_lists))
        # each distinct token of the call is hashed once, in order of first use
        ids = {token: i for i, token in enumerate(dict.fromkeys(flat))}
        table = _hash_rows(list(ids), cfg.dimension)
        row_ids = np.fromiter(map(ids.__getitem__, flat), np.intp, len(flat))
    else:
        token_lists, table = _embed_remote(texts, cfg, role)
        row_ids = np.arange(len(table))
    offsets = np.zeros(len(token_lists) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, token_lists), np.int64, len(token_lists)), out=offsets[1:])
    return EmbeddedTexts(token_lists, offsets, table, row_ids)
