import base64
import json
import random
import sys
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ragrade.embedding import (
    EmbedderConfig,
    config_fingerprint,
    deterministic_embed,
    embed_texts,
    normalize_rows,
    tokenize,
    _hash_rows,
    _token_rows,
)
from ragrade.errors import BackendUnavailable, DimensionMismatch, InvalidEmbedding

from conftest import embed_tokens
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


def _char_loop_tokenize(text):
    """Reference: the original one-character-at-a-time tokenizer."""
    tokens, current = [], []
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


# letters and digits, ASCII or not; punctuation of every P* category; symbols
# and combining marks; every whitespace code point; and "İ", whose lowercase
# is two characters
_TOKENIZER_CHARS = (
    "aZ09éÉ٣²ßΣ"
    "_¿、«»-–()[]{}.,!?'\"@#%&*/\\"
    "$+<=>^`|~©€\u0301\u0308"
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
    "İ"
)


@settings(max_examples=400, deadline=None)
@given(st.text(st.one_of(st.sampled_from(_TOKENIZER_CHARS), st.characters()), max_size=40))
def test_tokenize_equals_character_loop(text):
    assert tokenize(text) == _char_loop_tokenize(text)


def test_tokenize_exactness_facts_hold_for_every_code_point():
    # tokenize keeps an alphanumeric whitespace-split chunk whole; that equals
    # the character loop because str.split() breaks exactly where isspace()
    # holds and no alphanumeric character is punctuation
    split_at = [cp for cp in range(sys.maxunicode + 1) if len(f"a{chr(cp)}a".split()) != 1]
    assert split_at == [cp for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]
    assert not [
        cp for cp in range(sys.maxunicode + 1)
        if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")
    ]


def _scalar_fnv1a64(data):
    """Reference: FNV-1a 64-bit, one byte at a time in Python integers."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & ((1 << 64) - 1)
    return h


def _scalar_splitmix_unit(seed, d):
    """Reference: one scalar splitmix64 step per draw, in Python integers."""
    mask = (1 << 64) - 1
    state = seed
    values = []
    for _ in range(d):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        values.append(((z >> 11) + 0.5) / float(1 << 53) * 2.0 - 1.0)
    vector = np.array(values)
    return vector / float(np.linalg.norm(vector))


def _scalar_splitmix_embed(token, d):
    return _scalar_splitmix_unit(_scalar_fnv1a64(token.encode("utf-8")), d)


def test_fnv1a64_known_vectors():
    # published FNV-1a 64-bit values; the batch hash seeds each row with them
    for token, seed in (("", 0xCBF29CE484222325), ("a", 0xAF63DC4C8601EC8C)):
        assert _scalar_fnv1a64(token.encode("utf-8")) == seed
        assert _hash_rows([token], 32)[0].tobytes() == _scalar_splitmix_unit(seed, 32).tobytes()


@pytest.mark.parametrize("d", [2, 3, 16, 32, 64])
def test_hash_rows_bit_identical_to_scalar_reference(d):
    # 1-byte tokens, multi-byte tokens of 40 bytes and more, and duplicates
    tokens = ["a", "é" * 20, "z", "€" * 14, "x" * 45, "a", "٣²" * 11, "é" * 20, "", "."]
    table = _hash_rows(tokens, d)
    assert table.shape == (len(tokens), d) and table.dtype == np.float64
    for row, token in zip(table, tokens):
        assert row.tobytes() == _scalar_splitmix_embed(token, d).tobytes()


def test_deterministic_embed_matches_scalar_splitmix_reference():
    rng = random.Random(5000)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-.é"
    for _ in range(5000):
        token = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 14)))
        d = rng.choice([2, 4, 16, 32, 64])
        assert deterministic_embed(token, d).tobytes() == _scalar_splitmix_embed(token, d).tobytes()


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


def test_embedded_rows_are_copies_of_the_cache():
    cfg = EmbedderConfig(dimension=16)
    expected = embed_texts(["cache copy probe", "probe"], cfg)
    snapshot = [m.vectors.copy() for m in expected]
    for matrix in expected:
        matrix.vectors[:] = 0.0
    deterministic_embed("probe", 16)[:] = 0.0
    again = embed_texts(["cache copy probe", "probe"], cfg)
    assert [m.vectors.tobytes() for m in again] == [v.tobytes() for v in snapshot]
    assert again[1].vectors[0].tobytes() == _scalar_splitmix_embed("probe", 16).tobytes()


def test_embed_texts_batch_equals_one_text_at_a_time():
    cfg = EmbedderConfig(dimension=16)
    texts = ["the cat sat.", "", "cat, dog; cat!", " \t\u3000 ", "Ünïcode €5 İ", "the end"]
    batch = embed_texts(texts, cfg)
    assert [m.vectors.shape for m in batch][1::2] == [(0, 16), (0, 16), (2, 16)]
    for text, matrix in zip(texts, batch):
        alone = embed_texts([text], cfg)[0]
        assert matrix.tokens == alone.tokens
        assert matrix.vectors.shape == alone.vectors.shape
        assert matrix.vectors.dtype == alone.vectors.dtype == np.float64
        assert matrix.vectors.tobytes() == alone.vectors.tobytes()


def test_embed_texts_no_texts(stub_server_factory):
    server = stub_server_factory(mirror_embedding_app(dimension=8))
    assert list(embed_texts([], EmbedderConfig(dimension=8))) == []
    assert list(embed_texts([], EmbedderConfig(backend="remote", endpoint=server.url, dimension=8))) == []
    assert server.requests == []


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


def test_normalize_rows_rejects_non_finite_values():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidEmbedding, match="non-finite"):
            normalize_rows(np.array([[1.0, 0.0], [bad, 1.0]]))


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-160])
def test_normalize_rows_survives_overflowing_and_underflowing_squares(scale):
    # the squares of these rows overflow to inf, underflow to 0, or go subnormal
    out = normalize_rows(np.array([[scale, scale], [3.0, -4.0], [-scale, 0.0], [scale, 0.3 * scale]]))
    expected = [[2**-0.5, 2**-0.5], [0.6, -0.8], [-1.0, 0.0], np.array([1.0, 0.3]) / 1.09**0.5]
    assert np.allclose(out, expected, rtol=0, atol=1e-15)


def test_normalize_rows_keeps_ordinary_rows_bit_for_bit():
    matrix = np.random.default_rng(7).normal(size=(64, 32)) * np.logspace(-100, 100, 64)[:, None]
    expected = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    assert normalize_rows(matrix).tobytes() == expected.tobytes()
    mixed = np.vstack([matrix, [[1e200] * 32]])  # one odd row leaves the others alone
    assert normalize_rows(mixed)[:64].tobytes() == expected.tobytes()


def test_normalize_rows_rejects_zero_rows():
    with pytest.raises(InvalidEmbedding, match="zero-norm"):
        normalize_rows(np.array([[3.0, 4.0], [0.0, -0.0]]))


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


@pytest.mark.parametrize("payload", [b"<html>busy</html>", ["not", "an", "object"]])
def test_remote_backend_non_object_reply(stub_server_factory, payload):
    server = stub_server_factory(lambda path, body: (200, payload))
    cfg = EmbedderConfig(backend="remote", endpoint=server.url, dimension=8)
    with pytest.raises(BackendUnavailable, match="not a JSON object"):
        embed_tokens("hello", cfg)


def test_remote_batch_order(stub_server_factory):
    server = stub_server_factory(mirror_embedding_app(dimension=8))
    cfg = EmbedderConfig(backend="remote", endpoint=server.url, dimension=8)
    matrices = embed_texts(["alpha beta", "gamma"], cfg, role="document")
    assert [m.tokens for m in matrices] == [["alpha", "beta"], ["gamma"]]
    assert server.requests[0]["body"]["role"] == "document"
    assert server.requests[0]["body"]["encoding_format"] == "base64"


def test_remote_client_per_config_not_per_endpoint(stub_server_factory):
    # an empty text gets a zero-row matrix of its own config's width, even
    # after another config has used the same endpoint
    server = stub_server_factory(mirror_embedding_app(dimension=16))
    narrow = EmbedderConfig(backend="remote", endpoint=server.url, dimension=16)
    wide = EmbedderConfig(backend="remote", endpoint=server.url, dimension=32)
    assert embed_tokens("hello", narrow).vectors.shape == (1, 16)
    assert embed_tokens("", wide).vectors.shape == (0, 32)


def _base64_rows(matrix):
    return base64.b64encode(np.asarray(matrix, dtype="<f8").tobytes()).decode("ascii")


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d), max_size=6),
        )
    )
)
def test_base64_and_list_embeddings_decode_bit_identically(case):
    d, rows = case
    as_list = json.loads(json.dumps(rows))  # the list path's JSON round trip
    as_base64 = _base64_rows(np.array(rows, dtype=np.float64).reshape(len(rows), d))
    decoded = []
    for entry in (as_list, as_base64):
        try:
            matrix = _token_rows(entry, len(rows), d)
            assert matrix.shape == (len(rows), d) and matrix.dtype == np.float64
            decoded.append(matrix.tobytes())
        except InvalidEmbedding:  # a row of zeros, or one whose squares underflow
            decoded.append(InvalidEmbedding)
    assert decoded[0] == decoded[1]


_ONE_TOKEN_ROW = _base64_rows([[3.0, 4.0]])


@pytest.mark.parametrize(
    "embedding, error",
    [
        (_base64_rows([[3.0, 4.0, 0.0]]), DimensionMismatch),  # 24 bytes, not 16
        (_base64_rows([[3.0, 4.0], [1.0, 0.0]]), DimensionMismatch),  # two rows, one token
        (_ONE_TOKEN_ROW[:-4], DimensionMismatch),  # whole base64 quanta cut off
        (_ONE_TOKEN_ROW[:-1], BackendUnavailable),  # padding cut off
        ("*" + _ONE_TOKEN_ROW[1:], BackendUnavailable),  # not a base64 character
        (_ONE_TOKEN_ROW[:4] + "\n" + _ONE_TOKEN_ROW[4:], BackendUnavailable),
        ("\u00e9" * 4, BackendUnavailable),  # not ASCII
        ([[3.0, 4.0, 0.0]], DimensionMismatch),  # list rows wider than the config
        ([[3.0]], DimensionMismatch),
        ([[3.0, {"x": 1}]], DimensionMismatch),
        ([[3.0, 10 ** 400]], DimensionMismatch),
        ([], DimensionMismatch),
        (5, BackendUnavailable),
        (None, BackendUnavailable),
        ({"rows": [[3.0, 4.0]]}, BackendUnavailable),
        ([[3.0, float("nan")]], InvalidEmbedding),
        (_base64_rows([[3.0, float("inf")]]), InvalidEmbedding),
    ],
)
def test_remote_malformed_embedding_raises_ragrade_error(stub_server_factory, embedding, error):
    server = stub_server_factory(
        lambda path, body: (200, {"embeddings": [embedding], "tokens": [["hello"]]})
    )
    cfg = EmbedderConfig(backend="remote", endpoint=server.url, dimension=2)
    with pytest.raises(error):
        embed_tokens("hello", cfg)

