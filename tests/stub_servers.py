"""Local HTTP stubs for the embedding service and the chat-completion endpoint.

Each stub runs a ThreadingHTTPServer on an ephemeral port and records every
request body it sees, so tests can assert on wire traffic (attempt counts,
prompt contents, leakage scans).
"""

import base64
import json
import struct
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ragrade.embedding import EmbedderConfig, embed_texts


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        with self.server.lock:
            self.server.requests.append({"path": self.path, "body": body})
        status, payload, *extra = self.server.app(self.path, body)
        # bytes go out verbatim, so apps can send bodies that are not JSON
        raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        try:
            self.end_headers()
            self.wfile.write(raw)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client stopped waiting, as a timeout test's client does

    def log_message(self, *args):
        pass


class StubServer:
    """Runs ``app(path, body) -> (status, payload[, headers])`` on a background thread."""

    def __init__(self, app):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self.httpd.app = app
        self.httpd.requests = []
        self.httpd.lock = threading.Lock()
        # a short poll lets close() return within 0.05 s instead of up to 0.5 s
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.httpd.server_port}"

    @property
    def requests(self):
        with self.httpd.lock:
            return list(self.httpd.requests)

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


# ---------------------------------------------------------------------------
# embedding service stubs
# ---------------------------------------------------------------------------


def mirror_embedding_app(dimension: int = 32):
    """Serves the deterministic embedder over the wire protocol.

    Each request is embedded in one ``embed_texts`` call. Its matrices go out
    as base64 of little-endian float64 when the request asks for
    ``"encoding_format": "base64"``, and as lists of numbers otherwise.
    """
    cfg = EmbedderConfig(dimension=dimension)

    def app(path, body):
        matrices = embed_texts(body.get("texts", []), cfg)
        if body.get("encoding_format") == "base64":
            embeddings = [
                base64.b64encode(m.vectors.astype("<f8").tobytes()).decode("ascii")
                for m in matrices
            ]
        else:
            embeddings = [m.vectors.tolist() for m in matrices]
        return 200, {"embeddings": embeddings, "tokens": [m.tokens for m in matrices]}

    return app


def fixed_embedding_app(payload_by_text):
    """Serves hand-written (tokens, vectors) payloads keyed by input text; each
    text's rows go out as one base64 run of their values, so ragged rows
    arrive with the wrong byte count."""

    def app(path, body):
        embeddings = []
        token_lists = []
        for text in body.get("texts", []):
            tokens, vectors = payload_by_text[text]
            token_lists.append(tokens)
            values = [value for row in vectors for value in row]
            raw = struct.pack(f"<{len(values)}d", *values)
            embeddings.append(base64.b64encode(raw).decode("ascii"))
        return 200, {"embeddings": embeddings, "tokens": token_lists}

    return app


# ---------------------------------------------------------------------------
# chat-completion stubs
# ---------------------------------------------------------------------------


def _chat_payload(text: str):
    return {"choices": [{"message": {"content": text}}]}


def fixed_chat_app(text: str):
    def app(path, body):
        return 200, _chat_payload(text)

    return app


def fail_n_then(n: int, app, status: int = 500, headers=None):
    """First ``n`` requests fail with ``status`` (and ``headers``); later ones go to ``app``."""
    state = {"count": 0, "lock": threading.Lock()}

    def wrapped(path, body):
        with state["lock"]:
            state["count"] += 1
            if state["count"] <= n:
                return status, {"error": "injected failure"}, headers or {}
        return app(path, body)

    return wrapped


def rate_limit_once_app(answers, app):
    """The first request for each live answer in ``answers`` gets a 429; the rest go to ``app``."""
    lock = threading.Lock()
    limited = set()

    def wrapped(path, body):
        answer = _find_live_answer(_message_text(body, "user"), answers)
        with lock:
            first = answer is not None and answer not in limited
            limited.add(answer)
        return (429, {"error": "rate limited"}) if first else app(path, body)

    return wrapped


def always_status_app(status: int):
    def app(path, body):
        return status, {"error": f"injected {status}"}

    return app


def _message_text(body, role):
    for message in body.get("messages", []):
        if message.get("role") == role:
            return message.get("content", "")
    return ""


def _is_relaxed(body) -> bool:
    return "Respond in plain text" in _message_text(body, "system")


def _wants_reasoning(body) -> bool:
    return '"reasoning"' in _message_text(body, "system")


def _find_live_answer(user_text, answers):
    """The live item renders last, so its student answer sits deepest in the prompt."""
    best = None
    best_pos = -1
    for answer in answers:
        pos = user_text.rfind(answer)
        if pos > best_pos:
            best_pos = pos
            best = answer
    return best


def echo_gold_chat_app(gold_by_answer, malform_answers=frozenset(), malform_every=None):
    """Answers every prompt with the live item's gold fields.

    ``gold_by_answer`` maps a student answer to {"score", "label", "feedback"}.
    Strict-format requests for answers in ``malform_answers`` (or every
    ``malform_every``-th strict request) return unparseable prose instead;
    relaxed requests always succeed, so the fallback can recover.
    """
    state = {"strict_count": 0, "lock": threading.Lock()}
    default = {"score": 0.0, "label": "incorrect", "feedback": "no answer provided"}

    def app(path, body):
        user_text = _message_text(body, "user")
        answer = _find_live_answer(user_text, gold_by_answer.keys())
        gold = gold_by_answer.get(answer, default)

        if _is_relaxed(body):
            lines = []
            if _wants_reasoning(body):
                lines.append("Reasoning: graded against the reference answer")
            lines += [
                f"Score: {gold['score']}",
                f"Label: {gold['label']}",
                f"Feedback: {gold['feedback']}",
            ]
            return 200, _chat_payload("\n".join(lines))

        with state["lock"]:
            state["strict_count"] += 1
            malformed = (answer in malform_answers) or (
                malform_every is not None and state["strict_count"] % malform_every == 0
            )
        if malformed:
            return 200, _chat_payload("The grade seems fine to me overall.")

        obj = {}
        if _wants_reasoning(body):
            obj["reasoning"] = "graded against the reference answer"
        obj.update(
            {"score": gold["score"], "label": gold["label"], "feedback": gold["feedback"]}
        )
        return 200, _chat_payload(json.dumps(obj))

    return app


def schema_chat_app():
    """Answers a typed request with a JSON object of the output fields its
    system text lists, whatever their names: 1.0 for a number, "correct" for
    a label and "ok" for text."""

    def app(path, body):
        system = _message_text(body, "system")
        keys = system.rsplit("in this order: ", 1)[-1].rstrip(".")
        answer = {}
        for name in json.loads(f"[{keys}]"):
            hint = system.rsplit(f"\n- {name} (", 1)[-1]
            answer[name] = (
                1.0 if hint.startswith("a number") else
                "correct" if hint.startswith("one of") else "ok"
            )
        return 200, _chat_payload(json.dumps(answer))

    return app


def copy_first_demo_chat_app(fallback_text='{"score": 0.5, "label": "partially_correct", "feedback": "mid"}'):
    """Returns the first demo's rendered output JSON; fixed JSON when no demo."""

    def app(path, body):
        user_text = _message_text(body, "user")
        marker = "output: {"
        start = user_text.find(marker)
        if start == -1:
            return 200, _chat_payload(fallback_text)
        decoder = json.JSONDecoder()
        obj, _ = decoder.raw_decode(user_text, start + len("output: "))
        return 200, _chat_payload(json.dumps(obj))

    return app


def instruction_sensitive_chat_app(gold_by_answer, magic_demo_answer):
    """Echoes gold only when a chosen demo answer is present; else returns junk.

    Used to plant an optimum the random search must find.
    """
    echo = echo_gold_chat_app(gold_by_answer)

    def app(path, body):
        user_text = _message_text(body, "user")
        demos_section = user_text.split("Grade the following item.")[0]
        if magic_demo_answer in demos_section:
            return echo(path, body)
        return 200, _chat_payload('{"score": 0.0, "label": "incorrect", "feedback": "junk"}')

    return app


def outcome_chat_app(gold_by_answer, outcome):
    """Grades each item as ``outcome(instruction, demos, answer)`` says.

    ``instruction`` is the system text's first paragraph and ``demos`` the
    number of demos before the live item. ``"right"`` replies with the live
    item's gold label, ``"wrong"`` with another label, and ``"fail"`` with
    prose that neither the typed nor the relaxed parser reads.
    """

    def app(path, body):
        instruction = _message_text(body, "system").split("\n\n")[0]
        user_text = _message_text(body, "user")
        demos = user_text.count("student_answer: ") - 1  # the live item's is the last
        answer = _find_live_answer(user_text, gold_by_answer.keys())
        verdict = outcome(instruction, demos, answer)
        if verdict == "fail":
            return 200, _chat_payload("never valid output")
        label = gold_by_answer[answer]["label"]
        if verdict == "wrong":
            label = "incorrect" if label != "incorrect" else "correct"
        return 200, _chat_payload(json.dumps({"score": 0.5, "label": label, "feedback": "ok"}))

    return app
