import random

import numpy as np
import pytest

from ragrade.embedding import (
    EmbedderConfig,
    config_fingerprint,
    deterministic_embed,
    embed_texts,
    embed_tokens,
    normalize_rows,
    tokenize,
    _fnv1a64,
)
from ragrade.errors import BackendUnavailable, DimensionMismatch

from stub_servers import fixed_embedding_app, mirror_embedding_app


def test_tokenize_sentence():
    assert tokenize("The cat sat.") == ["the", "cat", "sat", "."]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_punctuation_split():
    # hand application of the rule: punctuation chars become their own tokens
    assert tokenize("IPv6 extension-headers") == ["ipv6", "extension", "-", "headers"]


def test_tokenize_whitespace_runs():
    assert tokenize("a \t b\n\nc") == ["a", "b", "c"]


def test_fnv1a64_known_vectors():
    assert _fnv1a64(b"") == 0xCBF29CE484222325
    assert _fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_deterministic_embed_purity():
    first = deterministic_embed("cat", 32)
    second = deterministic_embed("cat", 32)
    assert np.array_equal(first, second)


def test_deterministic_embed_distinct_tokens():
    cat = deterministic_embed("cat", 32)
    dog = deterministic_embed("dog", 32)
    assert float(cat @ dog) < 1.0 - 1e-6


def test_deterministic_embed_norm_property():
    rng = random.Random(1234)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    for _ in range(100):
        token = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        vec = deterministic_embed(token, rng.choice([4, 8, 32]))
        assert abs(float(np.linalg.norm(vec)) - 1.0) <= 1e-9


def test_deterministic_embed_values_in_open_interval():
    vec = deterministic_embed("cat", 64)
    # pre-normalization draws live in (-1, 1); normalized entries stay within
    assert np.all(np.abs(vec) < 1.0)


def test_embed_tokens_repeated_token_rows_identical():
    matrix = embed_tokens("cat cat", EmbedderConfig())
    assert matrix.tokens == ["cat", "cat"]
    assert np.array_equal(matrix.vectors[0], matrix.vectors[1])


def test_embed_tokens_single_token_shape_and_norm():
    matrix = embed_tokens("cat", EmbedderConfig(dimension=32))
    assert matrix.vectors.shape == (1, 32)
    assert abs(float(np.linalg.norm(matrix.vectors[0])) - 1.0) <= 1e-6


def test_embed_tokens_empty_text():
    matrix = embed_tokens("", EmbedderConfig())
    assert matrix.tokens == []
    assert matrix.vectors.shape == (0, 32)


def test_token_alignment_property():
    cfg = EmbedderConfig()
    for text in ["", "one", "two words", "lots of text with punctuation, even."]:
        matrix = embed_tokens(text, cfg)
        assert len(matrix.tokens) == matrix.vectors.shape[0]


def test_normalization_idempotent():
    rng = np.random.default_rng(7)
    matrix = normalize_rows(rng.normal(size=(6, 16)))
    again = normalize_rows(matrix)
    assert float(np.max(np.abs(again - matrix))) <= 1e-9


def test_dimension_minimum():
    with pytest.raises(ValueError):
        EmbedderConfig(dimension=1)
    with pytest.raises(ValueError):
        deterministic_embed("cat", 1)


def test_fingerprint_differs_by_dimension():
    base = EmbedderConfig(dimension=32)
    assert config_fingerprint(base) != config_fingerprint(EmbedderConfig(dimension=16))


def test_remote_backend_fixed_payload(stub_server_factory):
    # stub returns unnormalized vectors; client must renormalize rows
    payload = {"hello there": (["hello", "there"], [[3.0, 4.0], [0.0, 2.0]])}
    server = stub_server_factory(fixed_embedding_app(payload))
    cfg = EmbedderConfig(backend="remote", endpoint=server.url, dimension=2)
    matrix = embed_tokens("hello there", cfg)
    assert matrix.tokens == ["hello", "there"]
    expected = np.array([[0.6, 0.8], [0.0, 1.0]])
    assert np.allclose(matrix.vectors, expected, atol=1e-12)


def test_remote_backend_matches_local_deterministic(stub_server_factory):
    server = stub_server_factory(mirror_embedding_app(dimension=32))
    remote_cfg = EmbedderConfig(backend="remote", endpoint=server.url, dimension=32)
    local_cfg = EmbedderConfig(dimension=32)
    text = "routers forward packets."
    remote = embed_tokens(text, remote_cfg)
    local = embed_tokens(text, local_cfg)
    assert remote.tokens == local.tokens
    assert np.allclose(remote.vectors, local.vectors, atol=1e-12)


def test_remote_backend_inconsistent_dimension(stub_server_factory):
    payload = {"bad text": (["bad", "text"], [[1.0, 0.0], [1.0, 0.0, 0.0]])}
    server = stub_server_factory(fixed_embedding_app(payload))
    cfg = EmbedderConfig(backend="remote", endpoint=server.url, dimension=2)
    with pytest.raises(DimensionMismatch):
        embed_tokens("bad text", cfg)


def test_remote_backend_unreachable():
    cfg = EmbedderConfig(backend="remote", endpoint="http://127.0.0.1:9", dimension=8)
    with pytest.raises(BackendUnavailable):
        embed_tokens("hello", cfg)


def test_remote_batch_order(stub_server_factory):
    server = stub_server_factory(mirror_embedding_app(dimension=8))
    cfg = EmbedderConfig(backend="remote", endpoint=server.url, dimension=8)
    matrices = embed_texts(["alpha beta", "gamma"], cfg, role="document")
    assert [m.tokens for m in matrices] == [["alpha", "beta"], ["gamma"]]
    assert server.requests[0]["body"]["role"] == "document"
