"""Pinned bytes of a whole CLI scenario, from `ingest` to `report`.

One small corpus goes through every command and mode against in-process
stubs: `ingest`; `index` with the local and the remote embedder; `grade` in
zero-shot (predict and chain-of-thought), rag (over each index), vote with
same-question exclusion and optimized mode; `optimize` with a proposal
endpoint; `evaluate` with and without text metrics; and `report`. The chat
stub picks each reply from the request's content alone, so the outputs do
not depend on the order in which requests arrive. Its replies give typed,
fallback and failed items.

Every output file is compared byte for byte with ``tests/golden/scenario/``,
after three masks: each manifest's ``created_at``, the stubs' URLs (their
ports), and the remote index's fingerprint, which hashes the embedding URL.
Regenerate with ``PYTHONPATH=src python tests/test_scenario_golden.py`` after
a deliberate change to an output, and say which bytes changed and why.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).parent))

from ragrade.cli import main

from stub_servers import (
    StubServer,
    _chat_payload,
    _find_live_answer,
    _is_relaxed,
    _message_text,
    _wants_reasoning,
    mirror_embedding_app,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "scenario"

_QUESTIONS = {
    "q1": ("Why are IPv6 extension headers optional?",
           "They sit between the fixed header and the payload and are added only when needed."),
    "q2": ("Why is a spanning tree used for broadcast?",
           "A spanning tree has no loops, so each packet reaches every node exactly once."),
    "q3": ("What does a congestion window limit?",
           "The amount of unacknowledged data a sender may have in flight."),
    "q4": ("What does a checksum detect?",
           "Bit errors introduced while a segment travels through the network."),
}
# An answer with "hedging" gets prose from the strict prompt and labelled
# lines from the relaxed one (fallback); one with "mumbling" gets prose from
# both (failed). Every other answer is typed.
_ROWS = [  # id, question, answer, score, label, split
    ("t01", "q1", "they are added only when needed after the fixed header", 1.0, "correct", "train"),
    ("t02", "q1", "they replace the payload entirely", 0.0, "incorrect", "train"),
    ("t03", "q1", "optional but only one may appear", 0.5, "partially_correct", "train"),
    ("t04", "q1", "extra headers keep the fixed header small", 0.75, "partially_correct", "train"),
    ("t05", "q2", "no loops so every node gets one copy", 1.0, "correct", "train"),
    ("t06", "q2", "trees are cheap to compute", 0.0, "incorrect", "train"),
    ("t07", "q2", "one path to each node but routers still flood", 0.5, "partially_correct", "train"),
    ("t08", "q2", "loop free delivery of each packet", 1.0, "correct", "train"),
    ("t09", "q3", "data in flight that is not yet acknowledged", 1.0, "correct", "train"),
    ("t10", "q3", "the receiver buffer size", 0.0, "incorrect", "train"),
    ("t11", "q3", "how fast the link is", 0.0, "incorrect", "train"),
    ("t12", "q3", "unacknowledged bytes but per connection only", 0.5, "partially_correct", "train"),
    ("a01", "q1", "optional headers between the header and the payload", 1.0, "correct", "test_ua"),
    ("a02", "q1", "hedging a little they are sometimes optional", 0.5, "partially_correct", "test_ua"),
    ("a03", "q2", "spanning trees avoid loops in broadcast", 1.0, "correct", "test_ua"),
    ("a04", "q2", "mumbling something about cables", 0.0, "incorrect", "test_ua"),
    ("a05", "q3", "it limits unacknowledged data from the sender", 1.0, "correct", "test_ua"),
    ("a06", "q3", "", 0.0, "incorrect", "test_ua"),
    ("u01", "q4", "bit errors picked up in transit", 1.0, "correct", "test_uq"),
    ("u02", "q4", "hedging it finds some errors maybe", 0.5, "partially_correct", "test_uq"),
    ("u03", "q4", "lost packets", 0.0, "incorrect", "test_uq"),
]
_GOLD = {
    answer: (score, label, f"Gold feedback for {rid}: the answer is {label.replace('_', ' ')}.")
    for rid, _, answer, score, label, _ in _ROWS
    if answer
}
_PROPOSALS = "1. Grade the answer strictly.\n2. Grade the answer against the reference.\n"
_WRONG = {"correct": "incorrect", "incorrect": "correct", "partially_correct": "correct"}


def _corpus_jsonl() -> str:
    lines = []
    for rid, qid, answer, score, label, split in _ROWS:
        question, reference = _QUESTIONS[qid]
        lines.append(json.dumps({
            "id": rid, "question": question, "question_id": qid,
            "reference_answer": reference, "student_answer": answer, "score": score,
            "label": label, "feedback": _GOLD.get(answer, (0, 0, ""))[2], "split": split,
        }))
    return "\n".join(lines) + "\n"


def chat_app(path, body):
    """A reply chosen from the request's content alone."""
    system, user = _message_text(body, "system"), _message_text(body, "user")
    if system.startswith("You rewrite task instructions"):
        return 200, _chat_payload(_PROPOSALS)
    answer = _find_live_answer(user, _GOLD.keys())
    score, label, feedback = _GOLD.get(answer, (0.0, "incorrect", "No answer was given."))
    # about one reply in three is wrong; which one depends on the whole prompt
    if hashlib.sha256((system + user).encode("utf-8")).digest()[0] % 3 == 0:
        score, label, feedback = 1.0 - score, _WRONG[label], "The key point is missing."
    reasoning = "graded against the reference answer"
    if _is_relaxed(body):
        if answer is not None and "mumbling" in answer:
            return 200, _chat_payload("I cannot tell.")
        lines = [f"Reasoning: {reasoning}"] if _wants_reasoning(body) else []
        lines += [f"Score: {score}", f"Label: {label}", f"Feedback: {feedback}"]
        return 200, _chat_payload("\n".join(lines))
    if answer is not None and ("hedging" in answer or "mumbling" in answer):
        return 200, _chat_payload("The grade seems fine to me overall.")
    obj = {"reasoning": reasoning} if _wants_reasoning(body) else {}
    obj.update(score=score, label=label, feedback=feedback)
    return 200, _chat_payload(json.dumps(obj))


def _commands(work: Path, chat: str, embed: str) -> List[List[str]]:
    out = ["--out-dir", str(work / "out")]
    remote = ["--embed-backend", "remote", "--embed-endpoint", embed]
    model = ["--endpoint", chat, "--model", "stub-model"]

    def grade(name, *flags):
        return ["grade", *flags, *out, "--out", str(work / f"{name}.json")]

    manifests = [str(work / f"{name}.json") for name in
                 ("zero_shot", "zero_shot_cot", "rag", "rag_remote", "vote", "optimized")]
    return [
        ["ingest", str(work / "corpus.jsonl"), *out],
        ["index", "--split", "train", *out],
        ["index", "--split", "train", *remote, "--index-path", str(work / "remote.rgix"), *out],
        grade("zero_shot", "--mode", "zero-shot", *model),
        grade("zero_shot_cot", "--mode", "zero-shot", "--style", "chain_of_thought",
              "--split", "test_uq", *model),
        grade("rag", "--mode", "rag", "--k", "3", *model),
        grade("rag_remote", "--mode", "rag", "--k", "2", "--split", "test_uq",
              "--index-path", str(work / "remote.rgix"), *remote, *model),
        grade("vote", "--mode", "vote", "--k", "3", "--exclude-same-question"),
        ["optimize", "--budget", "8", "--k-max", "3", "--dev-count", "6", "--seed", "3",
         "--proposal-endpoint", chat, "--proposal-model", "stub-proposer", *model, *out,
         "--out", str(work / "program.json")],
        grade("optimized", "--mode", "optimized", "--program", str(work / "program.json"),
              *model),
        ["evaluate", manifests[0], "--out-dir", str(work / "evaluate_plain")],
        ["evaluate", manifests[2], "--with-text-metrics", "--out-dir",
         str(work / "evaluate_text")],
        ["report", *manifests, "--with-text-metrics", "--out-dir", str(work / "report")],
    ]


def render(work: Path) -> Dict[str, bytes]:
    """Run the scenario in ``work``; golden name -> masked bytes."""
    (work / "corpus.jsonl").write_text(_corpus_jsonl(), encoding="utf-8")
    chat, embed = StubServer(chat_app), StubServer(mirror_embedding_app(32))
    stdout = io.StringIO()
    try:
        for argv in _commands(work, chat.url, embed.url):
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            assert code == 0, (argv, code)
    finally:
        chat.close()
        embed.close()

    outputs = {name: work / "out" / name for name in ("corpus.cache", "index.rgix")}
    outputs.update((p.name, p) for p in [work / "remote.rgix", *work.glob("*.json")])
    for folder in ("evaluate_plain", "evaluate_text", "report"):
        outputs.update((f"{folder}.{p.name}", p) for p in (work / folder).iterdir())
    rendered = {name: path.read_bytes() for name, path in outputs.items()}
    rendered["stdout.txt"] = stdout.getvalue().encode("utf-8")

    # the remote index's fingerprint, as the remote `index` command printed it
    remote_print = next(line for line in stdout.getvalue().splitlines()
                        if line.endswith(str(work / "remote.rgix")))
    remote_fp = re.search(r"fingerprint=(\w+)", remote_print).group(1)
    masks = {
        str(work): "<work>",
        chat.url: "<chat-stub>",
        embed.url: "<embed-stub>",
        remote_fp: "<remote-index-fingerprint>",
    }
    for name, data in rendered.items():
        # longest first, so one stub URL that is a prefix of the other is not cut
        for old in sorted(masks, key=len, reverse=True):
            data = data.replace(old.encode(), masks[old].encode())
        rendered[name] = re.sub(rb'"created_at": "[^"]*"', b'"created_at": "<masked>"', data)
    return rendered


def _golden() -> Dict[str, bytes]:
    if not GOLDEN_DIR.exists():
        return {}
    return {p.name: p.read_bytes() for p in sorted(GOLDEN_DIR.iterdir())}


def test_scenario_outputs_byte_stable(tmp_path):
    golden = _golden()
    assert golden, "golden files missing; regenerate with tests/test_scenario_golden.py"
    rendered = render(tmp_path)
    assert sorted(rendered) == sorted(golden)
    for name in golden:
        assert rendered[name] == golden[name], f"{name} differs from its golden"


def test_scenario_covers_every_parse_path_and_mode():
    golden = _golden()
    paths = set()
    modes = set()
    for name, data in golden.items():
        if name.endswith(".json") and name[:-5] in (
            "zero_shot", "zero_shot_cot", "rag", "rag_remote", "vote", "optimized"
        ):
            manifest = json.loads(data)
            modes.add(manifest["config"]["mode"])
            paths.update(item["judgment"]["parse_path"] for item in manifest["items"])
    assert paths == {"typed", "fallback", "failed"}
    assert modes == {"zero_shot", "rag", "votegrader", "optimized"}
    program = json.loads(golden["program.json"])
    assert any(entry.get("stopped") for entry in program["trace"])
    assert {entry["instruction"] for entry in program["trace"]} - {program["trace"][0]["instruction"]}


if __name__ == "__main__":  # regenerate golden files after a deliberate change
    with tempfile.TemporaryDirectory() as work:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for old in GOLDEN_DIR.iterdir():
            old.unlink()
        for name, data in render(Path(work)).items():
            (GOLDEN_DIR / name).write_bytes(data)
            print(f"wrote {GOLDEN_DIR / name}")
