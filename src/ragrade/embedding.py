"""Per-token unit-vector embeddings behind a pluggable backend.

Two backends produce the same shape of output: a remote embedding service
(POST JSON, one token matrix per input text) and a deterministic local
embedder meant for tests and offline runs. Rows are always re-normalized to
unit length, whatever the backend returned.
"""

import base64
import unicodedata
from dataclasses import dataclass
from hashlib import sha256
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import BackendUnavailable, DimensionMismatch, InvalidEmbedding, TransportError
from .llmclient import post_json

ROLE_QUERY = "query"
ROLE_DOCUMENT = "document"
# texts per embedding-service request
_REQUEST_TEXTS = 32


@dataclass(frozen=True)
class EmbedderConfig:
    backend: str = "deterministic_test"  # "remote" | "deterministic_test"
    endpoint: Optional[str] = None
    dimension: int = 32

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("dimension must be >= 2")
        if self.backend not in ("remote", "deterministic_test"):
            raise ValueError(f"unknown backend {self.backend!r}")


def config_fingerprint(cfg: EmbedderConfig) -> str:
    """Identity of an embedding space; the query/document role is per-call, not identity."""
    key = f"{cfg.backend}|{cfg.endpoint or ''}|{cfg.dimension}"
    return sha256(key.encode("utf-8")).hexdigest()[:16]


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
    # no draw is 0, so no norm is; a per-row dot is the sum np.linalg.norm takes
    return values / np.sqrt([row.dot(row) for row in values]).reshape(-1, 1)


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
) -> List[TokenEmbeddingMatrix]:
    """Embed on the embedding service, one request per ``_REQUEST_TEXTS`` texts
    in order, and none for no texts.

    Wire format: POST {"texts": [...], "role": "query"|"document",
    "encoding_format": "base64"} -> {"embeddings": [...], "tokens": [[...], ...]},
    one token matrix per input text. The returned token list is authoritative.
    An embedding is a string (see ``_token_rows``) or, from a server that
    ignores ``encoding_format``, a list of rows of numbers. Requests retry as
    chat ones do (``llmclient.post_json``), under its default attempts and
    timeout; one that still fails raises ``BackendUnavailable``.
    """
    if not cfg.endpoint:
        raise ValueError("remote backend requires an endpoint")
    texts = list(texts)
    out: List[TokenEmbeddingMatrix] = []
    for start in range(0, len(texts), _REQUEST_TEXTS):
        batch = texts[start : start + _REQUEST_TEXTS]
        payload = {"texts": batch, "role": role, "encoding_format": "base64"}
        try:
            data = post_json(cfg.endpoint, payload)
        except TransportError as exc:
            raise BackendUnavailable(f"embedding service: {exc}") from exc
        embeddings = data.get("embeddings")
        token_lists = data.get("tokens")
        if not (
            isinstance(embeddings, list)
            and isinstance(token_lists, list)
            and all(isinstance(x, list) for x in token_lists)
        ):
            raise BackendUnavailable(
                "embedding service response needs 'embeddings' as a list"
                " and 'tokens' as a list of lists"
            )
        if len(embeddings) != len(batch) or len(token_lists) != len(batch):
            raise BackendUnavailable("embedding service returned wrong batch size")
        out.extend(
            TokenEmbeddingMatrix(list(tokens), _token_rows(rows, len(tokens), cfg.dimension))
            for rows, tokens in zip(embeddings, token_lists)
        )
    return out


def _token_rows(rows, n_tokens: int, dimension: int) -> np.ndarray:
    """One reply embedding as an (n_tokens, dimension) matrix of unit rows.

    A string holds the rows base64-encoded as little-endian float64, row-major,
    ``dimension`` values per row; a list holds them as JSON numbers. Either
    way the shape must be exactly (n_tokens, dimension).
    """
    if isinstance(rows, str):
        try:
            raw = base64.b64decode(rows, validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise BackendUnavailable(f"embedding is not valid base64: {exc}") from exc
        if len(raw) != n_tokens * dimension * 8:
            raise DimensionMismatch(
                f"{len(raw)} embedding bytes for {n_tokens} tokens of dimension {dimension}"
            )
        matrix = np.frombuffer(raw, dtype="<f8").reshape(n_tokens, dimension)
    elif isinstance(rows, list):
        try:
            matrix = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DimensionMismatch(f"embedding rows are not a matrix of numbers: {exc}") from exc
        if not rows:
            matrix = matrix.reshape(0, dimension)
        if matrix.shape != (n_tokens, dimension):
            raise DimensionMismatch(
                f"embedding of shape {matrix.shape} for {n_tokens} tokens of dimension {dimension}"
            )
    else:
        raise BackendUnavailable("an embedding must be a base64 string or a list of rows")
    return normalize_rows(matrix)


def embed_texts(
    texts: Sequence[str], cfg: EmbedderConfig, role: str = ROLE_DOCUMENT
) -> List[TokenEmbeddingMatrix]:
    """Embed a batch of texts into token matrices (one per text)."""
    if cfg.backend == "deterministic_test":
        token_lists = [tokenize(text) for text in texts]
        ids: Dict[str, int] = {}
        rows = [[ids.setdefault(t, len(ids)) for t in tokens] for tokens in token_lists]
        # each distinct token of the call is hashed once
        table = _hash_rows(list(ids), cfg.dimension)
        return [TokenEmbeddingMatrix(t, table[r]) for t, r in zip(token_lists, rows)]
    return _embed_remote(texts, cfg, role)
