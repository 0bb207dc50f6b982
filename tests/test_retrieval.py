import functools
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ragrade
from ragrade.dataset import AnswerRecord
from ragrade.embedding import (
    EmbedderConfig,
    TokenEmbeddingMatrix,
    deterministic_embed,
    embed_texts,
    normalize_rows,
    tokenize,
)
from ragrade.errors import InvalidEmbedding, RagradeError
from ragrade.retrieval import (
    _SCAN_CHUNK_TOKENS,
    MaxSimIndex,
    _scan_scores,
    build_index,
    load_index,
    maxsim_score,
    query_group_size,
    save_index,
    top_k,
    top_k_batch,
)

from conftest import INDEX_PREFIX, embed_tokens, rewrite_index_header
from stub_servers import mirror_embedding_app


def _matrix(rows):
    arr = np.asarray(rows, dtype=np.float64)
    return TokenEmbeddingMatrix([f"t{i}" for i in range(arr.shape[0])], arr)


def _random_unit_matrix(rng, n, d):
    return _matrix(normalize_rows(rng.normal(size=(n, d))))


def _naive_maxsim(query, doc):
    total = 0.0
    for q_row in query.vectors:
        best = -np.inf
        for d_row in doc.vectors:
            best = max(best, float(np.dot(q_row, d_row)))
        total += best
    return total


def _doc_rows(index, i):
    """Document ``i``'s stored token rows, gathered from the index's table."""
    return index.table[index.row_ids[index.offsets[i] : index.offsets[i + 1]]]


def _stored_docs(index):
    """(record id, stored token rows) for every indexed document."""
    return [(rec.id, _matrix(_doc_rows(index, i))) for i, rec in enumerate(index.records)]


def _exact_order(scored):
    """The documented tie rule: scores equal to 1e-9 tie; ascending id breaks ties."""
    return sorted(scored, key=lambda p: (-round(p[0], 9), p[1]))


def _brute_force(index, query_matrix):
    return _exact_order(
        [(maxsim_score(query_matrix, doc), rid) for rid, doc in _stored_docs(index)]
    )


def _record(rid, answer, qid="q1", score=1.0, label="correct"):
    return AnswerRecord(
        id=rid,
        question="What is X?",
        question_id=qid,
        reference_answer="X is Y.",
        student_answer=answer,
        gold_score=score,
        gold_label=label,
        gold_feedback=f"feedback for {rid}",
    )


def test_maxsim_self_similarity_unit_tokens():
    matrix = _matrix([[1.0, 0.0], [0.0, 1.0]])
    assert maxsim_score(matrix, matrix) == pytest.approx(2.0, abs=1e-12)


def test_maxsim_hand_example():
    query = _matrix([[1.0, 0.0], [0.0, 1.0]])
    doc = _matrix([[1.0, 0.0], [0.6, 0.8]])
    # max(1.0, 0.6) + max(0.0, 0.8)
    assert maxsim_score(query, doc) == pytest.approx(1.8, abs=1e-12)


def test_maxsim_matches_double_loop():
    rng = np.random.default_rng(42)
    query = _random_unit_matrix(rng, 5, 8)
    doc = _random_unit_matrix(rng, 7, 8)
    assert maxsim_score(query, doc) == pytest.approx(_naive_maxsim(query, doc), abs=1e-9)


def test_maxsim_bounds():
    rng = np.random.default_rng(3)
    query = _random_unit_matrix(rng, 6, 4)
    doc = _random_unit_matrix(rng, 3, 4)
    score = maxsim_score(query, doc)
    assert -6.0 <= score <= 6.0


def test_maxsim_permutation_invariance():
    rng = np.random.default_rng(11)
    query = _random_unit_matrix(rng, 4, 8)
    doc = _random_unit_matrix(rng, 6, 8)
    shuffled = TokenEmbeddingMatrix(doc.tokens, doc.vectors[::-1].copy())
    assert maxsim_score(query, doc) == pytest.approx(maxsim_score(query, shuffled), abs=1e-12)


def test_maxsim_errors():
    a = _matrix([[1.0, 0.0]])
    empty = TokenEmbeddingMatrix([], np.zeros((0, 2)))
    with pytest.raises(RagradeError, match="maxsim requires at least one token on each side"):
        maxsim_score(empty, a)
    with pytest.raises(RagradeError, match="maxsim requires at least one token on each side"):
        maxsim_score(a, empty)
    with pytest.raises(InvalidEmbedding, match="query dim 2 != doc dim 3"):
        maxsim_score(a, _matrix([[1.0, 0.0, 0.0]]))


def _answer_pool(rng, n):
    words = ["router", "packet", "header", "tree", "path", "switch", "frame", "port"]
    return [
        " ".join(rng.choice(words) for _ in range(rng.randint(2, 6))) for _ in range(n)
    ]


def test_build_index_counts():
    records = [_record(f"r{i:02d}", f"answer number {i}") for i in range(10)]
    index = build_index(records, EmbedderConfig(dimension=32))
    assert len(index) == 10
    assert index.table.shape[1] == 32
    assert index.skipped_empty == 0


def test_build_index_skips_empty_answers():
    records = [_record(f"r{i:02d}", f"answer number {i}") for i in range(8)]
    records += [_record("r98", ""), _record("r99", "   ")]
    index = build_index(records, EmbedderConfig(dimension=32))
    assert len(index) == 8
    assert index.skipped_empty == 2


def test_build_index_all_empty():
    with pytest.raises(RagradeError, match="all 2 records had empty student answers"):
        build_index([_record("r1", ""), _record("r2", "")], EmbedderConfig())


def _reference_build(records, cfg):
    """Reference for ``build_index``: each answer embedded alone, the answers
    with tokens stably sorted by token count, their rows concatenated in
    float32. Returns (record ids, offsets, vectors, skipped) or None when no
    answer has a token."""
    docs = [
        (r.id, embed_texts([r.student_answer], cfg)[0].vectors)
        for r in records
        if r.student_answer.strip()
    ]
    docs = sorted((doc for doc in docs if len(doc[1])), key=lambda doc: len(doc[1]))
    if not docs:
        return None
    offsets = np.cumsum([0] + [len(rows) for _, rows in docs])
    vectors = np.concatenate([rows for _, rows in docs], dtype=np.float32)
    return [rid for rid, _ in docs], offsets, vectors, len(records) - len(docs)


def _assert_build_equals_reference(texts, cfg):
    records = [_record(f"r{i:02d}", text) for i, text in enumerate(texts)]
    expected = _reference_build(records, cfg)
    if expected is None:
        with pytest.raises(RagradeError, match=r"^(all \d+ records had empty student answers"
                                               r"|no record produced any tokens)$"):
            build_index(records, cfg)
        return
    index = build_index(records, cfg)
    record_ids, offsets, vectors, skipped = expected
    assert index.table[index.row_ids].tobytes() == vectors.tobytes()
    assert index.table.dtype == np.float32 and index.table.flags.c_contiguous
    assert index.row_ids.dtype == np.int32
    assert index.offsets.dtype == np.int64 and index.offsets.tolist() == offsets.tolist()
    assert [r.id for r in index.records] == record_ids
    assert index.skipped_empty == skipped


# empty and whitespace-only answers, punctuation alone, repeated tokens, and
# non-ASCII letters, digits and punctuation
_BUILD_PIECES = [
    "", " ", "\t\n", "\u3000", "cat", "cat", "dog.", "...", "!?", "—", "naïve",
    "İstanbul", "東京", "x-y", "€5", "٣²",
]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(st.lists(st.sampled_from(_BUILD_PIECES), max_size=6).map(" ".join),
                  st.text(max_size=12)),
        min_size=1,
        max_size=12,
    )
)
@example([" ", "\t\n", "", "\u3000"])
def test_build_index_equals_per_answer_reference(texts):
    _assert_build_equals_reference(texts, EmbedderConfig(dimension=8))


def test_remote_build_index_equals_per_answer_reference(stub_server_factory):
    server = stub_server_factory(mirror_embedding_app(dimension=16))
    cfg = EmbedderConfig(backend="remote", endpoint=server.url, dimension=16)
    # 70 answers: three requests, each reply's rows normalized as one matrix
    rng = random.Random(23)
    texts = [" ".join(rng.choices(_BUILD_PIECES, k=rng.randint(0, 6))) for _ in range(70)]
    _assert_build_equals_reference(texts, cfg)


def test_top_k_self_retrieval():
    records = [_record(f"r{i:02d}", f"completely distinct answer {i} variant") for i in range(10)]
    index = build_index(records, EmbedderConfig(dimension=32))
    results = top_k(index, records[3].student_answer, 1)
    assert results[0].record.id == "r03"
    assert results[0].rank == 1


def test_top_k_pool_exhaustion():
    records = [_record(f"r{i}", f"short answer {i}") for i in range(4)]
    index = build_index(records, EmbedderConfig(dimension=16))
    results = top_k(index, "short answer", 50)
    assert len(results) == 4
    assert [r.rank for r in results] == [1, 2, 3, 4]


def test_top_k_matches_brute_force():
    rng = random.Random(99)
    records = [_record(f"r{i:02d}", a) for i, a in enumerate(_answer_pool(rng, 20))]
    cfg = EmbedderConfig(dimension=32)
    index = build_index(records, cfg)

    for _ in range(10):
        query = " ".join(rng.choice(["router", "tree", "frame", "pigeon"]) for _ in range(3))
        query_matrix = embed_tokens(query, cfg, role="query")
        brute = _brute_force(index, query_matrix)
        results = top_k(index, query, 5)
        assert [r.record.id for r in results] == [rid for _, rid in brute[:5]]
        assert [r.relevance for r in results] == pytest.approx([s for s, _ in brute[:5]])


def test_top_k_rank_and_relevance_invariants():
    rng = random.Random(5)
    records = [_record(f"r{i:02d}", a) for i, a in enumerate(_answer_pool(rng, 15))]
    index = build_index(records, EmbedderConfig(dimension=16))
    results = top_k(index, "router packet path", 7)
    assert [r.rank for r in results] == list(range(1, len(results) + 1))
    relevances = [r.relevance for r in results]
    assert relevances == sorted(relevances, reverse=True)


def test_top_k_monotone_prefix():
    rng = random.Random(17)
    records = [_record(f"r{i:02d}", a) for i, a in enumerate(_answer_pool(rng, 12))]
    index = build_index(records, EmbedderConfig(dimension=16))
    for k in range(1, 11):
        small = [r.record.id for r in top_k(index, "switch port frame", k)]
        big = [r.record.id for r in top_k(index, "switch port frame", k + 1)]
        assert big[:k] == small


def test_top_k_exclusion_soundness():
    records = [_record(f"r{i}", f"some answer {i}") for i in range(6)]
    index = build_index(records, EmbedderConfig(dimension=16))
    excluded = {"r0", "r3"}
    results = top_k(index, "some answer", 6, exclude=excluded)
    assert not ({r.record.id for r in results} & excluded)
    assert len(results) == 4


def test_top_k_tie_break_by_record_id():
    # identical answers score identically; order must be ascending id
    records = [_record(rid, "identical answer text") for rid in ("rB", "rA", "rC")]
    index = build_index(records, EmbedderConfig(dimension=16))
    results = top_k(index, "identical answer text", 3)
    assert [r.record.id for r in results] == ["rA", "rB", "rC"]


def test_empty_index_error():
    cfg = EmbedderConfig(dimension=16)
    index = MaxSimIndex(
        fingerprint="",
        config=cfg,
        records=[],
        offsets=np.zeros(1, dtype=np.int64),
        table=np.zeros((0, 16), dtype=np.float32),
        row_ids=np.zeros(0, dtype=np.int32),
    )
    with pytest.raises(RagradeError, match="index has no entries"):
        top_k(index, "an answer", 1)


def test_save_load_round_trip(tmp_path):
    rng = random.Random(123)
    records = [_record(f"r{i:02d}", a, qid=f"q{i % 3}") for i, a in enumerate(_answer_pool(rng, 12))]
    cfg = EmbedderConfig(dimension=32)
    index = build_index(records, cfg)
    path = tmp_path / "index.rgix"
    save_index(index, path)
    loaded = load_index(path, records, cfg)

    assert loaded.config == index.config
    assert loaded.fingerprint == index.fingerprint
    assert loaded.skipped_empty == index.skipped_empty
    assert loaded.records == index.records
    assert np.array_equal(loaded.offsets, index.offsets)
    assert loaded.table.dtype == np.float32 and loaded.table.flags.c_contiguous
    assert loaded.table.tobytes() == index.table.tobytes()
    assert loaded.row_ids.dtype == np.int32
    assert loaded.row_ids.tobytes() == index.row_ids.tobytes()

    for _ in range(20):
        query = " ".join(rng.choice(["router", "header", "tree", "port"]) for _ in range(4))
        before = [(r.record.id, r.rank) for r in top_k(index, query, 5)]
        after = [(r.record.id, r.rank) for r in top_k(loaded, query, 5)]
        assert before == after


def test_load_rejects_fingerprint_mismatch(tmp_path):
    records = [_record("r1", "an answer")]
    index = build_index(records, EmbedderConfig(dimension=32))
    path = tmp_path / "index.rgix"
    save_index(index, path)

    # same geometry, different backend identity: refuse unless forced
    moved_cfg = EmbedderConfig(backend="remote", endpoint="http://new-host", dimension=32)
    with pytest.raises(RagradeError, match=r"index built with fingerprint .*use force to override"):
        load_index(path, records, moved_cfg)
    forced = load_index(path, records, moved_cfg, force=True)
    assert len(forced) == 1
    assert forced.config.endpoint == "http://new-host"

    # a different dimension can never be forced; the stored vectors pin it
    narrow_cfg = EmbedderConfig(dimension=16)
    with pytest.raises(RagradeError, match=r"index built with fingerprint .*use force to override"):
        load_index(path, records, narrow_cfg)
    with pytest.raises(RagradeError, match="force cannot reconcile dimensions"):
        load_index(path, records, narrow_cfg, force=True)


def test_load_without_config_trusts_header(tmp_path):
    records = [_record("r1", "an answer")]
    index = build_index(records, EmbedderConfig(dimension=32))
    path = tmp_path / "index.rgix"
    save_index(index, path)
    loaded = load_index(path, records)
    assert loaded.config.dimension == 32


def test_remote_and_local_backends_rank_identically(stub_server_factory, tmp_path):
    server = stub_server_factory(mirror_embedding_app(dimension=32))
    records = [_record(f"r{i:02d}", f"unique answer text {i} here") for i in range(8)]
    local = build_index(records, EmbedderConfig(dimension=32))
    remote = build_index(
        records, EmbedderConfig(backend="remote", endpoint=server.url, dimension=32)
    )
    for query in ["unique answer", "text 3 here", "something else entirely"]:
        assert [r.record.id for r in top_k(local, query, 4)] == [
            r.record.id for r in top_k(remote, query, 4)
        ]


def test_build_index_remote_sends_requests_of_at_most_32_texts(stub_server_factory):
    server = stub_server_factory(mirror_embedding_app(dimension=16))
    records = [_record(f"r{i:02d}", f"answer number {i}") for i in range(70)]
    build_index(records, EmbedderConfig(backend="remote", endpoint=server.url, dimension=16))
    bodies = [r["body"] for r in server.requests]
    assert [len(b["texts"]) for b in bodies] == [32, 32, 6]
    assert [b["role"] for b in bodies] == ["document"] * 3
    assert [t for b in bodies for t in b["texts"]] == [r.student_answer for r in records]


def _small_vocab_records(rng, n, words):
    return [
        _record(f"r{i:04d}", " ".join(rng.choice(words) for _ in range(rng.randint(2, 8))),
                qid=f"q{i % 7}")
        for i in range(n)
    ]


_VOCAB40 = [f"w{i:02d}" for i in range(40)]


def test_built_and_reloaded_indexes_rank_identically(tmp_path):
    # a small vocabulary makes many near-equal scores, so any difference
    # between built and reloaded rows would reorder neighbours
    rng = random.Random(2024)
    cfg = EmbedderConfig(dimension=32)
    records = _small_vocab_records(rng, 3000, _VOCAB40)
    built = build_index(records, cfg)
    save_index(built, tmp_path / "index.rgix")
    loaded = load_index(tmp_path / "index.rgix", records, cfg)
    differ = 0
    for _ in range(300):
        query = " ".join(rng.choice(_VOCAB40) for _ in range(rng.randint(1, 6)))
        differ += [r.record.id for r in top_k(built, query, 5)] != [
            r.record.id for r in top_k(loaded, query, 5)
        ]
    assert differ == 0, f"{differ}/300 queries ranked differently after reload"


def test_deterministic_index_table_holds_each_distinct_token_once():
    rng = random.Random(77)
    records = _small_vocab_records(rng, 200, _VOCAB40 + ["x-y", "naïve", "!?"])
    records[5] = _record(records[5].id, "   ")  # skipped, so it adds no token
    cfg = EmbedderConfig(dimension=16)
    index = build_index(records, cfg)
    row_of = {}
    for i, rec in enumerate(index.records):
        tokens = tokenize(rec.student_answer)
        rows = index.row_ids[index.offsets[i] : index.offsets[i + 1]].tolist()
        assert len(rows) == len(tokens)
        for token, row in zip(tokens, rows):
            assert row_of.setdefault(token, row) == row
    # one row per distinct indexed token, each that token's own row
    assert len(index.table) == len(set(row_of.values())) == len(row_of)
    for token, row in row_of.items():
        expected = deterministic_embed(token, cfg.dimension).astype(np.float32)
        assert index.table[row].tobytes() == expected.tobytes()


def test_remote_index_keeps_one_row_per_token_in_token_order(stub_server_factory):
    server = stub_server_factory(mirror_embedding_app(dimension=16))
    records = _small_vocab_records(random.Random(78), 70, _VOCAB40)
    index = build_index(records, EmbedderConfig(backend="remote", endpoint=server.url,
                                                dimension=16))
    assert index.row_ids.dtype == np.int32
    assert index.row_ids.tolist() == list(range(index.offsets[-1]))
    assert len(index.table) == index.offsets[-1]


@pytest.mark.parametrize("backend", ["deterministic_test", "remote"])
def test_built_and_reloaded_indexes_rank_identically_on_either_backend(
    backend, stub_server_factory, tmp_path
):
    cfg = EmbedderConfig(dimension=32)
    if backend == "remote":
        server = stub_server_factory(mirror_embedding_app(dimension=32))
        cfg = EmbedderConfig(backend="remote", endpoint=server.url, dimension=32)
    rng = random.Random(2025)
    records = _small_vocab_records(rng, 400, _VOCAB40)
    built = build_index(records, cfg)
    save_index(built, tmp_path / "index.rgix")
    loaded = load_index(tmp_path / "index.rgix", records, cfg)
    queries = [" ".join(rng.choice(_VOCAB40) for _ in range(rng.randint(1, 12))) for _ in range(60)]
    excludes = [{r.id for r in rng.sample(records, 3)} for _ in queries]
    assert [_hits(h) for h in top_k_batch(loaded, queries, 5, excludes)] == [
        _hits(h) for h in top_k_batch(built, queries, 5, excludes)
    ]


def test_load_refuses_a_flipped_bit_in_any_block_byte(tmp_path):
    records = [_record(f"r{i}", f"answer number {i}") for i in range(6)]
    path = tmp_path / "index.rgix"
    save_index(build_index(records, EmbedderConfig(dimension=16)), path)
    data = path.read_bytes()
    # every byte after the header length: the checksum, the header and the blocks
    for at in range(12, len(data)):
        flipped = bytearray(data)
        flipped[at] ^= 1 << (at % 8)
        path.write_bytes(bytes(flipped))
        # an offset or a header count flipped upwards can also point past the
        # end of the file
        with pytest.raises(ValueError, match="^(corrupt|truncated) index file"):
            load_index(path, records)


def _fraction_maxsim(query_rows, doc_rows):
    query = [[Fraction(float(x)) for x in row] for row in query_rows]
    doc = [[Fraction(float(x)) for x in row] for row in doc_rows]
    return sum(max(sum(a * b for a, b in zip(q, d)) for d in doc) for q in query)


def test_top_k_equals_exact_rational_order():
    # acceptance 2's corpus and queries, scored in exact rational arithmetic
    words = ["router", "switch", "frame", "packet", "header", "tree", "path", "ack"]
    pyrng = random.Random(77)
    cfg = EmbedderConfig(dimension=32)
    for size in (5, 20, 50):
        records = [
            _record(f"r{i:03d}", " ".join(pyrng.choice(words) for _ in range(pyrng.randint(2, 7))))
            for i in range(size)
        ]
        index = build_index(records, cfg)
        docs = _stored_docs(index)
        k = min(10, size)
        query_texts = [" ".join(pyrng.choice(words) for _ in range(3)) for _ in range(10)]
        batch = top_k_batch(index, query_texts, k)
        for query_text, batched in zip(query_texts, batch):
            query = embed_tokens(query_text, cfg, role="query").vectors
            exact = _exact_order(
                [(_fraction_maxsim(query, doc.vectors), rid) for rid, doc in docs]
            )
            for got in (top_k(index, query_text, k), batched):
                assert [r.record.id for r in got] == [rid for _, rid in exact[:k]]
                for result, (score, _) in zip(got, exact):
                    assert abs(result.relevance - float(score)) <= 1e-12


_PROPERTY_WORDS = [f"v{i}" for i in range(12)]


@functools.lru_cache(maxsize=1)
def _property_index():
    # 400 answers over 4 of the 12 query words, each token's row nudged by
    # 1e-9 to 1e-7: many documents score within float32 rounding of each
    # other. Each token gets a table row of its own.
    records = _small_vocab_records(random.Random(31), 400, _PROPERTY_WORDS[:4])
    index = build_index(records, EmbedderConfig(dimension=32))
    rows = index.table[index.row_ids]
    rng = np.random.default_rng(31)
    scale = 10.0 ** -rng.integers(7, 10, size=(len(rows), 1))
    nudged = rows + rng.normal(size=rows.shape) * scale
    index.table = normalize_rows(nudged).astype(np.float32)
    index.row_ids = np.arange(len(rows), dtype=np.int32)
    return index


@settings(max_examples=60, deadline=None)
@given(
    words=st.integers(min_value=1, max_value=200).flatmap(
        lambda n: st.lists(st.sampled_from(_PROPERTY_WORDS), min_size=n, max_size=n)
    ),
    k=st.integers(min_value=1, max_value=12),
)
def test_top_k_equals_float64_ranking_for_any_query_length(words, k):
    index = _property_index()
    query_text = " ".join(words)
    brute = _brute_force(index, embed_tokens(query_text, index.config, role="query"))
    expected = [(rid, s) for s, rid in brute[:k]]
    got = top_k(index, query_text, k)
    assert [(r.record.id, r.relevance) for r in got] == expected
    # a repeated query repeats every row: the batch scans them once
    batch = top_k_batch(index, [query_text, query_text], k)
    for hits in batch:
        assert [(r.record.id, r.relevance) for r in hits] == expected


def test_load_rejects_truncated_file(tmp_path):
    records = [_record(f"r{i}", f"answer number {i}") for i in range(6)]
    index = build_index(records, EmbedderConfig(dimension=16))
    path = tmp_path / "index.rgix"
    save_index(index, path)
    data = path.read_bytes()
    (header_len,) = struct.unpack("<I", data[8:12])
    offsets_at = INDEX_PREFIX + header_len
    row_ids_at = offsets_at + index.offsets.nbytes
    table_at = row_ids_at + index.row_ids.nbytes
    # a cut inside each block: header length, header, offsets, row ids, table
    for cut in (10, offsets_at - 5, offsets_at + 20, row_ids_at + 10, table_at + 100,
                len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated"):
            load_index(path, records)


def test_load_rejects_format_v1_with_reindex_hint(tmp_path):
    # and any other version but 5, with the same message
    path = tmp_path / "index.rgix"
    header = b'{"dim": 16}'
    for version in (1, 0, 2, 3, 4, 6):
        path.write_bytes(b"RGIX" + struct.pack("<II", version, len(header)) + header)
        with pytest.raises(ValueError) as raised:
            load_index(path, [])
        assert str(raised.value) == (
            f"index format v{version} is not supported; re-index with `ragrade index`"
        )


def _is_length_ordered(index):
    return bool(np.all(np.diff(np.diff(index.offsets)) >= 0))


def test_built_and_loaded_indexes_store_documents_in_length_order(tmp_path):
    answers = ["a b c d", "a", "a b", "b c", "c", "a b c", "d e"]
    records = [_record(f"r{i}", text) for i, text in enumerate(answers)]
    cfg = EmbedderConfig(dimension=16)
    index = build_index(records, cfg)
    # ascending token count; equal counts keep the input order
    assert [r.id for r in index.records] == ["r1", "r4", "r2", "r3", "r6", "r5", "r0"]
    assert _is_length_ordered(index)
    for rid, doc in _stored_docs(index):
        expected = embed_tokens(answers[int(rid[1:])], cfg).vectors.astype(np.float32)
        assert np.array_equal(doc.vectors, expected)
    assert index.row_of == {rec.id: row for row, rec in enumerate(index.records)}
    save_index(index, tmp_path / "index.rgix")
    loaded = load_index(tmp_path / "index.rgix", records, cfg)
    assert loaded.records == index.records
    assert _is_length_ordered(loaded)


def _index_from_docs(docs, length_order=True):
    """An index over ``docs`` (token-row arrays), document ``i`` with id
    ``d{i:03d}``: in stable ascending length, as ``build_index`` lays
    documents out, or in the order given."""
    order = range(len(docs))
    if length_order:
        order = sorted(order, key=lambda i: len(docs[i]))
    offsets = np.zeros(len(docs) + 1, dtype=np.int64)
    np.cumsum([len(docs[i]) for i in order], out=offsets[1:])
    return MaxSimIndex(
        fingerprint="",
        config=EmbedderConfig(dimension=docs[0].shape[1]),
        records=[_record(f"d{i:03d}", "unused") for i in order],
        offsets=offsets,
        table=np.concatenate([docs[i] for i in order]).astype(np.float32),
        row_ids=np.arange(offsets[-1], dtype=np.int32),
    )


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=40), max_size=40).map(
        lambda drawn: drawn + [1, _SCAN_CHUNK_TOKENS + 3]
    ).flatmap(st.permutations),
    n_query=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_scan_scores_equal_per_document_reference(lengths, n_query, seed):
    # Small integer components keep every float32 dot product and every sum
    # exact, so any correct scan matches the per-document reference bit for
    # bit, however BLAS blocks the matmul. With real-valued rows the float32
    # products depend on the matmul's shape; the next test bounds that error.
    rng = np.random.default_rng(seed)
    dim = 4
    docs = [rng.integers(-8, 9, size=(n, dim)).astype(np.float32) for n in lengths]
    query = rng.integers(-8, 9, size=(n_query, dim)).astype(np.float32)
    index = _index_from_docs(docs)
    assert _is_length_ordered(index)
    expected = {
        f"d{i:03d}": np.max(doc @ query.T, axis=0).sum(dtype=np.float64)
        for i, doc in enumerate(docs)
    }
    got = _scan_scores(index, [query])[0]
    assert [float(s) for s in got] == [float(expected[r.id]) for r in index.records]


@settings(max_examples=20, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=60),
    n_query=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_scan_scores_within_float32_bound_of_exact(lengths, n_query, seed):
    # the bound top_k's float64 re-score relies on: n_q * d * 2^-23
    rng = np.random.default_rng(seed)
    dim = 32
    docs = [normalize_rows(rng.normal(size=(n, dim))) for n in lengths]
    query = normalize_rows(rng.normal(size=(n_query, dim)))
    index = _index_from_docs(docs, length_order=False)
    exact = {
        f"d{i:03d}": np.max(doc.astype(np.float32).astype(np.float64) @ query.T, axis=0).sum()
        for i, doc in enumerate(docs)
    }
    got = _scan_scores(index, [query.astype(np.float32)])[0]
    bound = n_query * dim * 2.0**-23
    for rec, score in zip(index.records, got):
        assert abs(score - exact[rec.id]) <= bound


def _save_in_order(index, order, path):
    """Save ``index`` with its documents listed in ``order`` (row numbers of
    ``index``) rather than in the length order ``build_index`` lays out."""
    docs = [index.row_ids[index.offsets[row] : index.offsets[row + 1]] for row in order]
    offsets = np.zeros(len(docs) + 1, dtype=np.int64)
    np.cumsum([len(doc) for doc in docs], out=offsets[1:])
    records = [index.records[row] for row in order]
    save_index(replace(index, records=records, offsets=offsets,
                       row_ids=np.concatenate(docs)), path)


def test_corpus_ordered_file_loads_and_ranks_identically(tmp_path):
    rng = random.Random(404)
    cfg = EmbedderConfig(dimension=32)
    records = _small_vocab_records(rng, 600, _VOCAB40)
    built = build_index(records, cfg)
    corpus_order = [built.row_of[r.id] for r in records]
    assert corpus_order != sorted(corpus_order)
    _save_in_order(built, corpus_order, tmp_path / "index.rgix")

    loaded = load_index(tmp_path / "index.rgix", records, cfg)
    # loaded as written: in corpus order, not put back into length order
    assert [r.id for r in loaded.records] == [r.id for r in records]
    assert not _is_length_ordered(loaded)
    assert {r.id: r for r in loaded.records} == {r.id: r for r in built.records}
    for rid, doc in _stored_docs(loaded):
        stored = _doc_rows(built, built.row_of[rid])
        assert doc.vectors.tobytes() == stored.astype(np.float64).tobytes()
    for _ in range(100):
        query = " ".join(rng.choice(_VOCAB40) for _ in range(rng.randint(1, 12)))
        exclude = {r.id for r in rng.sample(records, 5)}
        assert [(r.record.id, r.relevance) for r in top_k(loaded, query, 8, exclude)] == [
            (r.record.id, r.relevance) for r in top_k(built, query, 8, exclude)
        ]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_index_out_of_length_order_ranks_as_the_ordered_one(seed):
    # document order only sets a scan's speed: the same documents out of
    # length order give the same ids, relevances and ranks
    rng = random.Random(seed)
    built = build_index(_small_vocab_records(rng, 300, _VOCAB40), EmbedderConfig(dimension=32))
    docs = [_doc_rows(built, i) for i in range(len(built))]
    rng.shuffle(docs)
    ordered, unordered = _index_from_docs(docs), _index_from_docs(docs, length_order=False)
    assert not _is_length_ordered(unordered)
    queries = [" ".join(rng.choice(_VOCAB40) for _ in range(rng.randint(1, 12))) for _ in range(60)]
    excludes = [set(rng.sample([r.id for r in unordered.records], 5)) for _ in queries]
    for k in (1, 8):
        assert [_hits(h) for h in top_k_batch(unordered, queries, k, excludes)] == [
            _hits(h) for h in top_k_batch(ordered, queries, k, excludes)
        ]


def test_top_k_peak_memory_stays_under_1_mib():
    # 5,000 answers of 12-28 tokens; tracemalloc sees numpy's buffers, so
    # this bounds the scan's transient similarity chunks
    rng = random.Random(5000)
    vocab = [f"t{i}" for i in range(400)]
    records = [
        _record(f"r{i:04d}", " ".join(rng.choice(vocab) for _ in range(rng.randint(12, 28))))
        for i in range(5000)
    ]
    index = build_index(records, EmbedderConfig(dimension=32))
    query = " ".join(rng.choice(vocab) for _ in range(28))
    top_k(index, query, 5)  # warm the embedder's cache
    tracemalloc.start()
    try:
        top_k(index, query, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, f"top_k peaked at {peak / 2**20:.2f} MiB"


def _hits(results):
    return [(r.record.id, r.relevance, r.rank) for r in results]


@functools.lru_cache(maxsize=1)
def _mix_index():
    # 300 answers over 12 words and 7 questions, 15 with no tokens (skipped)
    rng = random.Random(808)
    records = _small_vocab_records(rng, 300, _PROPERTY_WORDS)
    for i in range(0, 300, 20):
        records[i] = _record(records[i].id, "  ", qid=records[i].question_id)
    return build_index(records, EmbedderConfig(dimension=32)), records


_query_text = st.one_of(
    st.lists(st.sampled_from(_PROPERTY_WORDS), min_size=1, max_size=30).map(" ".join),
    st.sampled_from(["", "   ", "v1 v2 v3", "v1 v2 v3", "v3 v2 v1"]),
)


@settings(max_examples=40, deadline=None)
@given(
    queries=st.lists(
        st.tuples(_query_text, st.integers(min_value=0, max_value=299), st.booleans()),
        min_size=1,
        max_size=12,
    ),
    k=st.integers(min_value=1, max_value=8),
    same_question=st.booleans(),
)
def test_top_k_batch_equals_per_query_top_k(queries, k, same_question):
    # duplicate texts, tokens shared across queries, no-token queries, and
    # per-query exclusions: the live record, plus with same_question every
    # answer to its question (the exclusion run_split builds)
    index, records = _mix_index()
    texts, excludes = [], []
    for text, live, exclude in queries:
        record = records[live]
        excluded = {record.id} if exclude else None
        if exclude and same_question:
            excluded |= {r.id for r in index.records if r.question_id == record.question_id}
        texts.append(text)
        excludes.append(excluded)
    batch = top_k_batch(index, texts, k, excludes)
    assert len(batch) == len(texts)
    for text, excluded, hits in zip(texts, excludes, batch):
        if not text.split():
            with pytest.raises(RagradeError, match="query produced no tokens"):
                top_k(index, text, k, excluded)
            assert hits == []
        else:
            assert _hits(hits) == _hits(top_k(index, text, k, excluded))


def test_top_k_batch_splits_into_query_groups(monkeypatch):
    index, records = _mix_index()
    live = [r for r in records[1:60:3] if r.student_answer.strip()]
    texts = [r.student_answer for r in live]
    excludes = [{r.id} for r in live]
    whole = [_hits(h) for h in top_k_batch(index, texts, 4, excludes)]
    assert whole == [_hits(top_k(index, t, 4, e)) for t, e in zip(texts, excludes)]
    monkeypatch.setattr("ragrade.retrieval._SCORE_BLOCK_BYTES", 8 * len(index) * 3)
    assert query_group_size(index) == 3
    assert [_hits(h) for h in top_k_batch(index, texts, 4, excludes)] == whole


def test_top_k_batch_argument_errors():
    index, _ = _mix_index()
    assert top_k_batch(index, [], 3) == []
    with pytest.raises(ValueError, match="k must be"):
        top_k_batch(index, ["v1"], 0)
    with pytest.raises(ValueError, match="one exclusion set per query"):
        top_k_batch(index, ["v1", "v2"], 1, [None])


def test_top_k_batch_peak_memory_stays_within_its_budgets():
    # vote-5k's shape: 40 queries of 12-28 tokens over 5,000 answers of 12-28
    # tokens. The scan holds one 1 MiB similarity buffer and one 1.6 MB score
    # block; the queries' rows and a chunk's gathered maxima add under 1 MiB.
    # Materialising (documents x query rows) would take 16 MB or more.
    rng = random.Random(5000)
    vocab = [f"t{i}" for i in range(400)]
    records = [
        _record(f"r{i:04d}", " ".join(rng.choice(vocab) for _ in range(rng.randint(12, 28))))
        for i in range(5000)
    ]
    index = build_index(records, EmbedderConfig(dimension=32))
    queries = [" ".join(rng.choice(vocab) for _ in range(rng.randint(12, 28))) for _ in range(40)]
    excludes = [{f"r{i:04d}"} for i in range(40)]
    assert query_group_size(index) >= 40  # one group: the whole block is live at once
    top_k_batch(index, queries, 5, excludes)
    tracemalloc.start()
    try:
        top_k_batch(index, queries, 5, excludes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20, f"top_k_batch peaked at {peak / 2**20:.2f} MiB"


def test_load_rejects_record_id_not_among_records(tmp_path):
    records = [_record(f"r{i}", f"answer number {i}") for i in range(4)]
    save_index(build_index(records, EmbedderConfig(dimension=16)), tmp_path / "index.rgix")
    with pytest.raises(ValueError, match=r"\['r2'\] not in the corpus; rebuild with `ragrade index`"):
        load_index(tmp_path / "index.rgix", records[:2] + records[3:])


def test_load_rejects_duplicated_record_id(tmp_path):
    records = [_record(f"r{i}", f"answer number {i}") for i in range(4)]
    index = build_index(records, EmbedderConfig(dimension=16))
    index.records[3] = index.records[0]
    save_index(index, tmp_path / "index.rgix")
    with pytest.raises(ValueError, match="corrupt index file: a record id is listed twice"):
        load_index(tmp_path / "index.rgix", records)


def test_saved_file_holds_no_record_payload(tmp_path):
    records = [_record(f"r{i}", f"answer number {i}") for i in range(6)]
    index = build_index(records, EmbedderConfig(dimension=16))
    path = tmp_path / "index.rgix"
    save_index(index, path)
    data = path.read_bytes()
    assert data[:8] == b"RGIX" + struct.pack("<I", 5)
    (header_len,) = struct.unpack("<I", data[8:12])
    blocks = index.offsets.nbytes + index.row_ids.nbytes + index.table.nbytes
    assert len(data) == INDEX_PREFIX + header_len + blocks


@pytest.mark.parametrize("field, corrupt", [
    ("config", lambda h: h.pop("config")),
    ("config", lambda h: h.update(config=["deterministic_test"])),
    ("backend", lambda h: h["config"].pop("backend")),
    ("dim", lambda h: h.update(dim="16")),
    ("fingerprint", lambda h: h.pop("fingerprint")),
    ("record_ids", lambda h: h.update(record_ids="r0")),
    ("record_ids", lambda h: h["record_ids"].__setitem__(0, ["r0"])),
    ("skipped_empty", lambda h: h.update(skipped_empty=None)),
    ("rows", lambda h: h.pop("rows")),
    ("rows", lambda h: h.update(rows=-1)),
], ids=["config_missing", "config_list", "backend_missing", "dim_string", "fingerprint_missing",
        "record_ids_string", "record_id_list", "skipped_empty_null", "rows_missing",
        "rows_negative"])
def test_load_rejects_missing_or_mistyped_header_field(tmp_path, field, corrupt):
    records = [_record(f"r{i}", f"answer number {i}") for i in range(4)]
    path = tmp_path / "index.rgix"
    save_index(build_index(records, EmbedderConfig(dimension=16)), path)
    rewrite_index_header(path, corrupt)
    with pytest.raises(ValueError, match=f"corrupt index file: header field '{field}'"):
        load_index(path, records)


@pytest.mark.parametrize("given_value, expected", [(None, "1"), ("3", "3")])
def test_import_pins_one_blas_thread_unless_the_user_set_one(given_value, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given_value is not None:
        env["OPENBLAS_NUM_THREADS"] = given_value
    src = str(Path(ragrade.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import os, ragrade; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == f"{expected}\n"
