import json
import struct
import sys
import time
import zlib
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ragrade import embedding
from ragrade.dataset import AnswerRecord, Corpus

from stub_servers import StubServer


_QUESTIONS = {
    "q1": (
        "What is the main advantage of extension headers?",
        "Extension headers are optional and sit between the fixed header and the payload.",
    ),
    "q2": (
        "Why is a spanning tree appealing for broadcast?",
        "A spanning tree has no loops, so packets traverse a unique path.",
    ),
    "q3": (
        "What does a congestion window control?",
        "It limits how much unacknowledged data a sender may have in flight.",
    ),
}

# (id, qid, answer core, score, label, split)
_ROWS = [
    ("r01", "q1", "headers are optional kingfisher", 1.0, "correct", "train"),
    ("r02", "q1", "they sit after the payload osprey", 0.0, "incorrect", "train"),
    ("r03", "q1", "optional but only one allowed heron", 0.5, "partially_correct", "train"),
    ("r04", "q1", "flexible extensions save space plover", 0.75, "partially_correct", "train"),
    ("r05", "q2", "no loops so a single path sandpiper", 1.0, "correct", "train"),
    ("r06", "q2", "trees are cheaper to build dunlin", 0.0, "incorrect", "train"),
    ("r07", "q2", "unique path but tables still needed avocet", 0.5, "partially_correct", "train"),
    ("r08", "q2", "packets travel exactly one route curlew", 1.0, "correct", "train"),
    ("r09", "q1", "optional headers between header and payload puffin", 1.0, "correct", "test_ua"),
    ("r10", "q1", "headers replace the payload entirely gannet", 0.0, "incorrect", "test_ua"),
    ("r11", "q2", "spanning trees avoid loops fulmar", 0.75, "partially_correct", "test_ua"),
    ("r12", "q3", "it caps unacknowledged bytes in flight merlin", 1.0, "correct", "test_uq"),
    ("r13", "q3", "it slows the receiver down kestrel", 0.0, "incorrect", "test_uq"),
    ("r14", "q3", "limits data but per connection only goshawk", 0.5, "partially_correct", "test_uq"),
]


def _record(row_id, qid, answer, score, label, split=None):
    question, reference = _QUESTIONS[qid]
    return AnswerRecord(
        id=row_id,
        question=question,
        question_id=qid,
        reference_answer=reference,
        student_answer=answer,
        gold_score=score,
        gold_label=label,
        gold_feedback=f"SENTINEL-FEEDBACK-{row_id}-x93k the answer is {label}.",
        split=split,
    )


@pytest.fixture
def fixture_corpus() -> Corpus:
    corpus = Corpus(records=[_record(*row) for row in _ROWS])
    corpus.validate()
    return corpus


@pytest.fixture
def corpus_path(fixture_corpus, tmp_path) -> Path:
    path = tmp_path / "corpus.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for rec in fixture_corpus.records:
            fh.write(json.dumps(corpus_row(rec)) + "\n")
    return path


def corpus_row(record):
    """``record`` as a corpus row, the input ``dataset.parse_row`` reads."""
    return {
        "id": record.id,
        "question": record.question,
        "question_id": record.question_id,
        "reference_answer": record.reference_answer,
        "student_answer": record.student_answer,
        "score": record.gold_score,
        "label": record.gold_label,
        "feedback": record.gold_feedback,
        "split": record.split,
    }


def gold_by_answer(records):
    return {
        r.student_answer: {
            "score": r.gold_score,
            "label": r.gold_label,
            "feedback": r.gold_feedback,
        }
        for r in records
        if r.student_answer
    }


def embed_tokens(text, cfg, role=embedding.ROLE_DOCUMENT):
    """One text's token matrix: ``embed_texts`` over a batch of one."""
    return embedding.embed_texts([text], cfg, role)[0]


def typed_failure_rate(entry):
    """The share of a ``LedgerEntry``'s judgments whose typed parse failed."""
    return entry.typed_failures / entry.total_calls if entry.total_calls else 0.0


def wait_until(condition, timeout=10.0):
    """Poll ``condition`` until it holds; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.001)


# an index file's fixed prefix: magic, version, header length and crc32
INDEX_PREFIX = 16


def reseal_index(path, data):
    """Write the index bytes ``data`` to ``path`` under a recomputed checksum."""
    body = bytes(data[INDEX_PREFIX:])
    path.write_bytes(bytes(data[:12]) + struct.pack("<I", zlib.crc32(body)) + body)


def rewrite_index_header(path, edit):
    """Apply ``edit`` to the JSON header of the index file at ``path``, in
    place, and recompute the checksum."""
    data = path.read_bytes()
    (header_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[INDEX_PREFIX : INDEX_PREFIX + header_len])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    rest = data[INDEX_PREFIX + header_len :]
    reseal_index(path, data[:8] + struct.pack("<II", len(raw), 0) + raw + rest)


@pytest.fixture
def stub_server_factory():
    servers = []

    def start(app) -> StubServer:
        server = StubServer(app)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()
