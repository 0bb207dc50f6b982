"""Per-token unit-vector embeddings behind a pluggable backend.

Two backends produce the same shape of output: a remote embedding service
(POST JSON, one token matrix per input text) and a deterministic local
embedder meant for tests and offline runs. Rows are always re-normalized to
unit length, whatever the backend returned.
"""

import threading
import unicodedata
from dataclasses import dataclass
from hashlib import sha256
from typing import List, Optional, Sequence

import numpy as np

from .errors import BackendUnavailable, DimensionMismatch, InvalidEmbedding

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

ROLE_QUERY = "query"
ROLE_DOCUMENT = "document"


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
    current: List[str] = []
    for ch in text.lower():
        if ch.isspace():
            if current:
                tokens.append("".join(current))
                current = []
        elif unicodedata.category(ch).startswith("P"):
            if current:
                tokens.append("".join(current))
                current = []
            tokens.append(ch)
        else:
            current.append(ch)
    if current:
        tokens.append("".join(current))
    return tokens


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _splitmix64(state: int) -> "tuple[int, int]":
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


_det_cache: "dict[tuple[str, int], np.ndarray]" = {}
_det_cache_lock = threading.Lock()


def deterministic_embed(token: str, d: int) -> np.ndarray:
    """Pure hash-derived unit vector for a token.

    The token's FNV-1a 64-bit hash seeds a splitmix64 stream; each draw maps
    uniformly into (-1, 1) via its top 53 bits, and the vector is then
    L2-normalized. Identical (token, d) always yields identical output.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    key = (token, d)
    with _det_cache_lock:
        cached = _det_cache.get(key)
    if cached is not None:
        return cached.copy()

    state = _fnv1a64(token.encode("utf-8"))
    values = np.empty(d, dtype=np.float64)
    for i in range(d):
        state, draw = _splitmix64(state)
        values[i] = ((draw >> 11) + 0.5) / float(1 << 53) * 2.0 - 1.0
    norm = float(np.linalg.norm(values))
    if norm == 0.0:  # unreachable for real tokens; keeps the contract total
        values[0] = 1.0
        norm = 1.0
    values /= norm

    with _det_cache_lock:
        _det_cache[key] = values
    return values.copy()


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize each row; idempotent within 1e-9 on already-unit rows."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if matrix.shape[0] and float(norms.min()) == 0.0:
        raise InvalidEmbedding("zero-norm embedding row")
    return matrix / norms


class RemoteEmbeddingClient:
    """HTTP client for the embedding service; callers bound the requests in flight.

    Wire format: POST {"texts": [...], "role": "query"|"document"} ->
    {"embeddings": [[[f, ...], ...], ...], "tokens": [[...], ...]}, one token
    matrix per input text. The returned token list is authoritative.
    """

    def __init__(self, cfg: EmbedderConfig):
        if not cfg.endpoint:
            raise ValueError("remote backend requires an endpoint")
        self.cfg = cfg
        import requests

        self._session = requests.Session()

    def embed(self, texts: Sequence[str], role: str) -> List[TokenEmbeddingMatrix]:
        import requests

        payload = {"texts": list(texts), "role": role}
        try:
            resp = self._session.post(self.cfg.endpoint, json=payload, timeout=60)
        except requests.RequestException as exc:
            raise BackendUnavailable(f"embedding service: {exc}") from exc
        if resp.status_code != 200:
            raise BackendUnavailable(
                f"embedding service returned HTTP {resp.status_code}"
            )
        data = resp.json()
        embeddings = data.get("embeddings")
        token_lists = data.get("tokens")
        if embeddings is None or token_lists is None:
            raise BackendUnavailable("embedding service response missing fields")
        if len(embeddings) != len(texts) or len(token_lists) != len(texts):
            raise BackendUnavailable("embedding service returned wrong batch size")

        out: List[TokenEmbeddingMatrix] = []
        expected_dim: Optional[int] = None
        for rows, tokens in zip(embeddings, token_lists):
            if len(rows) != len(tokens):
                raise DimensionMismatch("token/vector count mismatch")
            try:
                matrix = np.asarray(rows, dtype=np.float64)
            except ValueError as exc:
                raise DimensionMismatch(f"ragged embedding rows: {exc}") from exc
            if matrix.size == 0:
                matrix = matrix.reshape(0, expected_dim or self.cfg.dimension)
            if matrix.ndim != 2:
                raise DimensionMismatch("ragged embedding rows")
            if expected_dim is None and matrix.shape[0]:
                expected_dim = int(matrix.shape[1])
            if matrix.shape[0] and matrix.shape[1] != expected_dim:
                raise DimensionMismatch(
                    f"inconsistent dimensions {matrix.shape[1]} vs {expected_dim}"
                )
            out.append(TokenEmbeddingMatrix(list(tokens), normalize_rows(matrix)))
        return out


_remote_clients: "dict[str, RemoteEmbeddingClient]" = {}
_remote_clients_lock = threading.Lock()


def _remote_client(cfg: EmbedderConfig) -> RemoteEmbeddingClient:
    with _remote_clients_lock:
        client = _remote_clients.get(cfg.endpoint)
        if client is None:
            client = RemoteEmbeddingClient(cfg)
            _remote_clients[cfg.endpoint] = client
    return client


def embed_texts(
    texts: Sequence[str], cfg: EmbedderConfig, role: str = ROLE_DOCUMENT
) -> List[TokenEmbeddingMatrix]:
    """Embed a batch of texts into token matrices (one per text)."""
    if cfg.backend == "deterministic_test":
        out = []
        for text in texts:
            tokens = tokenize(text)
            if tokens:
                vectors = np.stack([deterministic_embed(t, cfg.dimension) for t in tokens])
            else:
                vectors = np.zeros((0, cfg.dimension), dtype=np.float64)
            out.append(TokenEmbeddingMatrix(tokens, vectors))
        return out
    return _remote_client(cfg).embed(texts, role)


def embed_tokens(
    text: str, cfg: EmbedderConfig, role: str = ROLE_DOCUMENT
) -> TokenEmbeddingMatrix:
    return embed_texts([text], cfg, role)[0]
