"""The fault matrix: `grade` through every transport fault, in every mode
that calls a model.

Each row is a fault, each column a `grade` mode (zero-shot, rag over a
remote-embedded index, optimized from a hand-written program). A fault hits
the chat requests of one live item, r10, and is keyed on that item's answer
in the request, so no cell depends on which thread sends first; the other
items are answered with their gold fields. Connection refused, 401 and 404
hit every item, and the embedding outage (rag only) the whole query group.
Three rows cut r10's reply short on the wire: a `Content-Length` reply cut
by a reset or by a clean close (FIN), and a chunked reply cut mid-chunk. The
last row is no transport fault but a typed reply that breaks the schema, the
one failure that is re-asked with the relaxed prompt. Backoff is patched to 0
in every row but the `Retry-After` one.

Each cell checks the exit code, that the manifest lists the split's records
in order, that its ledger is the tally of parse paths, the exact number of
chat requests each item made (counted at the client, so refused connections
count too), that no prompt carries its live record's gold feedback, and that
the run ends within a bound, so a hang fails.
"""

import itertools
import json
import re
import socket
import struct
import threading
import time
from collections import Counter
from typing import Callable, NamedTuple, Optional, Tuple

import pytest

from ragrade import llmclient
from ragrade.cli import main

from conftest import gold_by_answer
from stub_servers import _chat_payload, echo_gold_chat_app, mirror_embedding_app

SPLIT = "test_ua"
SPLIT_IDS = ["r09", "r10", "r11"]
FAULTED = "r10"
PROGRAM = {"instruction": "Grade the student answer.", "demo_record_ids": ["r01", "r05"],
           "dev_accuracy": 1.0}
CAP = 16 << 10  # the lowered reply cap of the past-cap row
WALL_S = 10.0


class Row(NamedTuple):
    # the faulted item's n-th chat request (from 1) gets this reply; None is its gold reply
    reply: Optional[Callable[[int], Optional[Tuple]]]
    sends: int  # chat requests the faulted item makes
    path: str  # its parse path
    flags: Tuple[str, ...] = ()
    everyone: bool = False  # the fault hits every item, not r10 alone
    min_s: float = 0.0  # the least time the run must take


def _slow(n):
    time.sleep(0.6)  # twice the row's --timeout


_ROWS = {
    "refused": Row(None, 3, "failed", everyone=True),
    "401": Row(lambda n: (401, {"error": "bad key"}), 1, "failed", everyone=True),
    "404": Row(lambda n: (404, {"error": "no such route"}), 1, "failed", everyone=True),
    # replies cut short on the wire (_CutServer)
    "reset": Row(None, 3, "failed"),
    "fin": Row(None, 3, "failed"),
    "chunk-cut": Row(None, 3, "failed"),
    "503-then-200": Row(lambda n: (503, {"error": "busy"}) if n == 1 else None, 2, "typed"),
    "429-run": Row(lambda n: (429, {"error": "slow down"}), 3, "failed"),
    # waits of max(backoff, min(Retry-After, --timeout)): 1 s, then 1 s
    "429-retry-after": Row(lambda n: (429, {"error": "slow down"}, {"Retry-After": "30"}),
                           3, "failed", ("--timeout", "1"), min_s=2.0),
    "not-json": Row(lambda n: (200, b"<html>busy</html>"), 1, "failed"),
    "null-content": Row(lambda n: (200, {"choices": [{"message": {"content": None}}]}),
                        1, "failed"),
    "past-cap": Row(lambda n: (200, _chat_payload("x" * 2 * CAP)), 1, "failed"),
    "timeout": Row(_slow, 3, "failed", ("--timeout", "0.3")),
    "embedding-503": Row(None, 0, "failed", everyone=True),
    # not a transport fault: a typed reply that breaks the schema is re-asked relaxed
    "prose": Row(lambda n: (200, _chat_payload("Looks fine to me.")) if n == 1 else None,
                 2, "fallback"),
}
_MODES = ("zero-shot", "rag", "optimized")
_CELLS = [(row, mode) for row in _ROWS for mode in _MODES
          if row != "embedding-503" or mode == "rag"]


# what a request for the faulted answer gets before its connection closes
_LENGTH_CUT = b"HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n{\"choices\": ["
_CUT_REPLIES = {
    "reset": _LENGTH_CUT,
    "fin": _LENGTH_CUT,
    "chunk-cut": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1000\r\n{\"choices\": [",
}


class _CutServer:
    """Answers each request on a connection of its own as ``app`` does, except
    that a request for ``answer`` gets the head and first bytes of a reply
    (``_CUT_REPLIES[cut]``) and then a TCP reset (``reset``) or a FIN."""

    def __init__(self, app, answer, cut):
        self._app, self._answer, self._cut = app, answer, cut
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.05)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}"

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(5)
                body = _read_request(conn)
                if self._answer in body["messages"][-1]["content"]:
                    conn.sendall(_CUT_REPLIES[self._cut])
                    if self._cut == "reset":  # a zero linger time sends a reset, not a FIN
                        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                        struct.pack("ii", 1, 0))
                    continue
                status, payload = self._app("/v1/chat/completions", body)
                raw = json.dumps(payload).encode("utf-8")
                conn.sendall(b"HTTP/1.1 %d OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
                             % (status, len(raw)) + raw)

    def close(self):
        self._stop.set()
        self._thread.join()
        self._sock.close()


def _read_request(conn) -> dict:
    data = b""
    while b"\r\n\r\n" not in data:
        data += conn.recv(65536)
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"(?i)content-length:\s*(\d+)", head).group(1))
    while len(body) < length:
        body += conn.recv(65536)
    return json.loads(body)


def _refusing_url() -> str:
    with socket.socket() as sock:  # a port that nothing listens on once it is closed
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}"


@pytest.mark.parametrize("row_name, mode", _CELLS)
def test_fault_matrix(row_name, mode, corpus_path, fixture_corpus, tmp_path,
                      stub_server_factory, monkeypatch, request):
    row = _ROWS[row_name]
    records = {r.id: r for r in fixture_corpus.records}
    answers = {rid: records[rid].student_answer for rid in SPLIT_IDS}
    echo = echo_gold_chat_app(gold_by_answer(fixture_corpus.records))
    if row_name != "429-retry-after":
        monkeypatch.setattr(llmclient, "_BACKOFF", 0.0)

    numbers = itertools.count(1)  # numbers the faulted items' chat requests

    def chat_app(path, body):
        if not (row.everyone or answers[FAULTED] in body["messages"][-1]["content"]):
            return echo(path, body)
        reply = row.reply and row.reply(next(numbers))
        return echo(path, body) if reply is None else reply

    if row_name == "refused":
        chat_url = _refusing_url()
    elif row_name in _CUT_REPLIES:
        server = _CutServer(echo, answers[FAULTED], row_name)
        request.addfinalizer(server.close)
        chat_url = server.url
    else:
        chat_url = stub_server_factory(chat_app).url

    mirror = mirror_embedding_app(32)

    def embed_app(path, body):
        if row_name == "embedding-503" and answers[FAULTED] in body["texts"]:
            return 503, {"error": "embedding service down"}
        return mirror(path, body)

    out_dir = tmp_path / "runs"
    assert main(["ingest", str(corpus_path), "--out-dir", str(out_dir)]) == 0
    flags = ["--mode", mode, "--split", SPLIT, "--endpoint", chat_url, "--timeout", "5"]
    if mode == "rag":
        remote = ["--embed-backend", "remote",
                  "--embed-endpoint", stub_server_factory(embed_app).url]
        assert main(["index", "--split", "train", "--out-dir", str(out_dir), *remote]) == 0
        flags += ["--k", "2", *remote]
    elif mode == "optimized":
        program = tmp_path / "program.json"
        program.write_text(json.dumps(PROGRAM), encoding="utf-8")
        flags += ["--program", str(program)]

    chat_sends = []  # every chat request the client makes, refused ones too
    send = llmclient._ConnectionPool.send

    def counting_send(pool, url, payload, headers, timeout):
        if url.endswith("/chat/completions"):
            chat_sends.append(json.loads(payload))
        return send(pool, url, payload, headers, timeout)

    monkeypatch.setattr(llmclient._ConnectionPool, "send", counting_send)
    monkeypatch.setattr(llmclient, "_MAX_REPLY_BYTES", CAP)
    manifest_path = out_dir / "m.json"
    start = time.monotonic()
    code = main(["grade", *flags, *row.flags, "--out-dir", str(out_dir),
                 "--out", str(manifest_path)])
    took = time.monotonic() - start

    faulted = set(SPLIT_IDS) if row.everyone else {FAULTED}
    assert code == (2 if row.everyone else 0)
    manifest = json.loads(manifest_path.read_text())
    items = manifest["items"]
    assert [item["record_id"] for item in items] == SPLIT_IDS
    paths = Counter(item["judgment"]["parse_path"] for item in items)
    assert list(manifest["ledger"].values()) == [{
        "total_calls": len(items),
        "typed_failures": paths["fallback"] + paths["failed"],
        "fallback_successes": paths["fallback"],
        "hard_failures": paths["failed"],
    }]
    assert {item["record_id"]: item["judgment"]["parse_path"] for item in items} == {
        rid: row.path if rid in faulted else "typed" for rid in SPLIT_IDS
    }

    per_item = Counter()
    for body in chat_sends:
        text = "\n".join(message["content"] for message in body["messages"])
        live = [rid for rid in SPLIT_IDS if answers[rid] in text]
        assert len(live) == 1, text
        per_item[live[0]] += 1
        assert records[live[0]].gold_feedback not in text
    assert per_item == Counter({rid: row.sends if rid in faulted else 1 for rid in SPLIT_IDS})
    assert row.min_s <= took < WALL_S
