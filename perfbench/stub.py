"""The benchmark's peer: chat and embedding endpoints in one child process.

Run as a script, this serves ``tests/stub_servers.StubServer`` with a
benchmark-owned chat app (fixed latency, content-keyed faults) next to the
unchanged ``mirror_embedding_app``, then answers control commands, one JSON
line each way, on stdin/stdout. ``Stub`` is the parent's handle on it.

Running in its own process keeps the stub's JSON and sleep work off the
grading process's interpreter lock.

The chat app finds the live item by the ``student_answer:`` line after
``Grade the following item.`` (answers are unique per corpus) and looks its
fault class up in the schedule, a dict, so a request costs O(prompt) and not
O(corpus). Fault classes depend on the item's text, never on arrival
order; the only state is which 429-class items have had their one 429 since
the last ``reset``.
"""

import json
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from corpus import FAULT_429, FAULT_HARD, FAULT_OK, FAULT_RECOVER, label_for

LIVE_MARKER = "Grade the following item."
ANSWER_PREFIX = "student_answer: "
CHAT_PATH = "/v1/chat/completions"
EMBED_PATH = "/embed"

MALFORMED_TYPED = "The grade seems fine to me overall."
MALFORMED_RELAXED = "I would rather not grade this one."


def live_answer(user_text: str) -> str:
    live = user_text.rpartition(LIVE_MARKER)[2]
    return live.partition(ANSWER_PREFIX)[2].partition("\n")[0]


def reply_feedback(answer: str, score: float) -> str:
    """About 25 tokens that overlap the gold feedback only in part."""
    verdict = "covers the key idea" if score >= 0.5 else "misses the key idea"
    return (
        f"the student answer {verdict} ; it says {' '.join(answer.split()[:8])} "
        "so compare it with the reference answer and explain each step ."
    )


class ChatApp:
    """``app(path, body) -> (status, payload)`` for StubServer, plus counters."""

    def __init__(self, schedule, latency_s: float, embed_app):
        from stub_servers import _chat_payload, _is_relaxed, _message_text

        self._payload = _chat_payload
        self._is_relaxed = _is_relaxed
        self._message_text = _message_text
        self.schedule = schedule  # answer -> [fault class, stub score]
        self.latency_s = latency_s
        self.embed_app = embed_app
        self.lock = threading.Lock()
        self.counts: Counter = Counter()
        self.rate_limited: set = set()

    def reset(self) -> None:
        with self.lock:
            self.counts.clear()
            self.rate_limited.clear()

    def __call__(self, path, body):
        if path == EMBED_PATH:
            status, payload = self.embed_app(path, body)
        else:
            status, payload = self._chat(body)
        with self.lock:
            self.counts[f"{path} {status}"] += 1
        return status, payload

    def _chat(self, body):
        time.sleep(self.latency_s)
        answer = live_answer(self._message_text(body, "user"))
        fault, score = self.schedule.get(answer, (FAULT_OK, 0.5))
        relaxed = self._is_relaxed(body)
        if fault == FAULT_429 and not relaxed:
            with self.lock:
                first = answer not in self.rate_limited
                self.rate_limited.add(answer)
            if first:
                return 429, {"error": "rate limited"}
        feedback = reply_feedback(answer, score)
        if relaxed:
            if fault == FAULT_HARD:
                return 200, self._payload(MALFORMED_RELAXED)
            text = f"Score: {score}\nLabel: {label_for(score)}\nFeedback: {feedback}"
            return 200, self._payload(text)
        if fault in (FAULT_RECOVER, FAULT_HARD):
            return 200, self._payload(MALFORMED_TYPED)
        reply = {"score": score, "label": label_for(score), "feedback": feedback}
        return 200, self._payload(json.dumps(reply))


def _serve(root: Path, schedule_path: Path, latency_s: float, dim: int) -> None:
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from stub_servers import StubServer, mirror_embedding_app

    schedule = json.loads(schedule_path.read_text(encoding="utf-8"))
    app = ChatApp(schedule, latency_s, mirror_embedding_app(dim))
    server = StubServer(app)
    out = sys.stdout
    out.write(json.dumps({"url": server.url}) + "\n")
    out.flush()
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "counts":
                with app.lock:
                    reply = {"counts": dict(app.counts)}
            elif command == "reset":
                app.reset()
                with server.httpd.lock:
                    server.httpd.requests.clear()
                reply = {"ok": True}
            elif command == "prompts":
                reply = {
                    "prompts": [
                        app._message_text(r["body"], "user")
                        for r in server.requests
                        if r["path"] == CHAT_PATH
                    ]
                }
            elif command == "quit":
                break
            else:
                reply = {"error": f"unknown command {command!r}"}
            out.write(json.dumps(reply) + "\n")
            out.flush()
    finally:
        server.close()


class Stub:
    """Parent-side handle: starts the child, sends commands, stops it."""

    def __init__(self, root: Path, schedule_path: Path, latency_s: float, dim: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(root),
             str(schedule_path), repr(latency_s), str(dim)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.url = self._read()["url"]

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"stub exited with code {self.proc.wait()}")
        return json.loads(line)

    def command(self, name: str):
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._read()

    def counts(self) -> Counter:
        return Counter(self.command("counts")["counts"])

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    _serve(Path(sys.argv[1]), Path(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4]))
