"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q`` from the repo root."""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import chat_requests  # noqa: E402
from corpus import Shape, generate, write_corpus  # noqa: E402
from spans import ATTRS, NAME  # noqa: E402
from stub import CHAT_PATH, Stub  # noqa: E402
from workloads import WORKLOADS, run_command  # noqa: E402

from ragrade.dataset import load_corpus, split_view  # noqa: E402

SMALL_FAULTY = Shape(
    train=30, train_questions=5, test_ua=5, test_uq=40, test_uq_questions=4,
    vocab=300, zipf_s=1.0,
    fault_rates={"test_uq": {"recover": 0.2, "hard": 0.1, "429": 0.05}},
)


def _write(tmp_path, shape, seed, name="small"):
    rows = generate(shape, seed, name)
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(rows, corpus)
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({r["student_answer"]: [r["fault"], r["stub_score"]] for r in rows}))
    return rows, corpus, schedule


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_valid(tmp_path, name):
    shape = WORKLOADS[name].shape
    write_corpus(generate(shape, 7, name), tmp_path / "a.jsonl")
    write_corpus(generate(shape, 7, name), tmp_path / "b.jsonl")
    write_corpus(generate(shape, 8, name), tmp_path / "c.jsonl")
    a = (tmp_path / "a.jsonl").read_bytes()
    assert a == (tmp_path / "b.jsonl").read_bytes()
    assert a != (tmp_path / "c.jsonl").read_bytes()

    corpus = load_corpus(tmp_path / "a.jsonl")  # validates split invariants
    sizes = {s: len(split_view(corpus, s)) for s in ("train", "test_ua", "test_uq")}
    assert sizes == {"train": shape.train, "test_ua": shape.test_ua, "test_uq": shape.test_uq}
    answers = [r.student_answer for r in corpus.records]
    assert len(set(answers)) == len(answers)
    assert all(12 <= len(a.split()) <= 28 for a in answers)


def test_fault_quotas_are_exact_per_split():
    for seed in (1, 2, 3):
        faults = Counter(r["fault"] for r in generate(SMALL_FAULTY, seed, "small") if r["split"] == "test_uq")
        assert faults == {"ok": 26, "recover": 8, "hard": 4, "429": 2}


def test_layout_does_not_depend_on_the_seed():
    # ragrade picks the optimizer's dev items by position, so a fixed layout
    # keeps the number of faulty dev items the same for every seed
    layout = lambda seed: [(r["fault"], len(r["student_answer"].split()))  # noqa: E731
                           for r in generate(WORKLOADS["optimized-faulty"].shape, seed, "optimized-faulty")]
    assert layout(1) == layout(2) == layout(3)


def _grade(tmp_path, stub, corpus, concurrency):
    out = tmp_path / f"c{concurrency}"
    stub.command("reset")
    manifest = out / "manifest.json"
    run_command(ROOT, tmp_path, ["grade", "--mode", "zero-shot", "--split", "test_uq",
                                 "--corpus", str(corpus), "--endpoint", stub.url,
                                 "--concurrency", str(concurrency), "--out", str(manifest),
                                 "--out-dir", str(out)], traced=concurrency == 2)
    return json.loads(manifest.read_text()), stub.counts()


def test_fault_schedule_counts_do_not_depend_on_concurrency(tmp_path):
    rows, corpus, schedule = _write(tmp_path, SMALL_FAULTY, 3)
    with Stub(ROOT, schedule, 0.0, 32) as stub:
        one, one_counts = _grade(tmp_path, stub, corpus, 1)
        two, two_counts = _grade(tmp_path, stub, corpus, 2)
    paths = lambda m: [it["judgment"]["parse_path"] for it in m["items"]]  # noqa: E731
    assert paths(one) == paths(two)
    assert one["ledger"] == two["ledger"]
    assert one_counts == two_counts
    assert Counter(paths(one)) == {"typed": 28, "fallback": 8, "failed": 4}
    assert one_counts[f"{CHAT_PATH} 429"] == 2
    assert chat_requests(one_counts) == 40 + 8 + 4 + 2


def test_stub_counts_equal_client_http_attempts(tmp_path):
    rows, corpus, schedule = _write(tmp_path, SMALL_FAULTY, 4)
    with Stub(ROOT, schedule, 0.0, 32) as stub:
        stub.command("reset")
        out = tmp_path / "run"
        result = run_command(ROOT, tmp_path, ["grade", "--mode", "zero-shot", "--split", "test_uq",
                                              "--corpus", str(corpus), "--endpoint", stub.url,
                                              "--concurrency", "2", "--out-dir", str(out),
                                              "--out", str(out / "m.json")], traced=True).result
        counts = stub.counts()
    attempts = [s for s in result["spans"] if s[NAME] == "http.post" and s[ATTRS]["chat"]]
    assert len(attempts) == chat_requests(counts) > 40
    assert Counter(str(s[ATTRS]["status"]) for s in attempts) == Counter(
        {k.split()[1]: n for k, n in counts.items() if k.startswith(CHAT_PATH)}
    )


def test_benchmark_json_names_the_workloads_of_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rag-1k", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
