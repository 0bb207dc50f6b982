"""Output checks: any failure fails the run, which then prints no numbers."""

from collections import Counter
from typing import Dict, List, Sequence

from corpus import FAULT_429, FAULT_HARD, FAULT_RECOVER
from stub import CHAT_PATH, EMBED_PATH, live_answer
from workloads import CheckFailed, Rep, Workload

# brute-force and index scores may differ in the last float32 digits; an item
# whose top k+1 scores are closer than this cannot be compared label for label
NEAR_TIE = 1e-4


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def chat_requests(counts: Dict[str, int]) -> int:
    return sum(n for key, n in counts.items() if key.startswith(CHAT_PATH + " "))


def embed_requests(counts: Dict[str, int]) -> int:
    return sum(n for key, n in counts.items() if key.startswith(EMBED_PATH + " "))


def check_rep(wl: Workload, rows: Sequence[Dict], rep: Rep, first: Rep) -> None:
    """Per-repetition checks; cheap enough to run on every repetition."""
    split_rows = [r for r in rows if r["split"] == wl.split]
    items = rep.manifest["items"]
    require(len(items) == len(split_rows),
            f"manifest has {len(items)} items, split {wl.split} has {len(split_rows)}")
    require([it["record_id"] for it in items] == [r["id"] for r in split_rows],
            "manifest items are not the split's records in input order")

    paths = Counter(it["judgment"]["parse_path"] for it in items)
    require(set(paths) <= {"typed", "fallback", "failed"}, f"unknown parse paths {paths}")
    ledger = rep.manifest["ledger"]
    require(len(ledger) == 1, f"expected one ledger stratum, got {sorted(ledger)}")
    (entry,) = ledger.values()
    recomputed = {
        "total_calls": len(items),
        "fallback_successes": paths["fallback"],
        "hard_failures": paths["failed"],
        "typed_failures": paths["fallback"] + paths["failed"],
    }
    require(entry == recomputed, f"ledger {entry} != recomputed from items {recomputed}")

    for it, row in zip(items, split_rows):
        want = {FAULT_RECOVER: "fallback", FAULT_HARD: "failed"}.get(row["fault"], "typed")
        require(it["judgment"]["parse_path"] == want,
                f"{row['id']} (fault {row['fault']}) took path {it['judgment']['parse_path']}")

    faults = Counter(r["fault"] for r in split_rows)
    calls = chat_requests(rep.stub_grade)
    if wl.chat:
        # one typed call per item, one relaxed re-ask per typed failure, one re-send per 429
        predicted = entry["total_calls"] + entry["typed_failures"] + faults[FAULT_429]
        require(calls == predicted, f"stub saw {calls} chat requests, the ledger and schedule predict {predicted}")
        rate_limited = rep.stub_grade.get(f"{CHAT_PATH} 429", 0)
        require(rate_limited == faults[FAULT_429],
                f"stub sent {rate_limited} 429s, schedule predicts {faults[FAULT_429]}")
    else:
        require(calls == 0, f"{wl.name} has no chat endpoint but the stub saw {calls} requests")

    report = rep.report
    require(report["n_evaluated"] + report["n_excluded"] == len(items)
            and report["n_excluded"] == paths["failed"],
            f"evaluate counted {report['n_evaluated']}+{report['n_excluded']} of {len(items)} items")
    require("bleu" in report and "embedsim_f1" in report, "evaluate wrote no text metrics")

    mask = lambda m: {k: v for k, v in m.items() if k != "created_at"}  # noqa: E731
    require(mask(rep.manifest) == mask(first.manifest),
            "manifest differs from the first repetition's (determinism)")


def check_prompts(wl: Workload, rows: Sequence[Dict], prompts: List[str]) -> None:
    """rag: every prompt carries exactly k demos and never the live record's gold feedback."""
    by_answer = {r["student_answer"]: r for r in rows}
    split_ids = {r["id"] for r in rows if r["split"] == wl.split}
    require(len(prompts) == len(split_ids), f"{len(prompts)} prompts for {len(split_ids)} items")
    seen = set()
    for prompt in prompts:
        live = by_answer.get(live_answer(prompt))
        require(live is not None and live["id"] in split_ids, "prompt for an unknown live item")
        seen.add(live["id"])
        demos = sum(part.startswith("Example ") for part in prompt.split("\n\n"))
        require(demos == wl.k, f"prompt for {live['id']} has {demos} demos, not {wl.k}")
        require(live["feedback"] not in prompt, f"prompt for {live['id']} leaks its gold feedback")
    require(seen == split_ids, "some items were never prompted")


def check_votes(wl: Workload, rows: Sequence[Dict], manifest: Dict, sample: int = 8) -> int:
    """vote: labels equal vote_classify over a brute-force exact top-k.

    The oracle embeds every train answer with ``embed_texts`` and scores it
    with ``maxsim_score``, so a retrieval rewrite that changes rankings is
    caught. Returns how many sampled items were compared.
    """
    from ragrade.dataset import AnswerRecord
    from ragrade.embedding import ROLE_DOCUMENT, ROLE_QUERY, EmbedderConfig, embed_texts
    from ragrade.retrieval import RetrievedExample, maxsim_score
    from ragrade.votegrader import vote_classify

    def record(r):
        return AnswerRecord(
            id=r["id"], question=r["question"], question_id=r["question_id"],
            reference_answer=r["reference_answer"], student_answer=r["student_answer"],
            gold_score=r["score"], gold_label=r["label"], gold_feedback=r["feedback"],
        )

    cfg = EmbedderConfig(dimension=32)
    train = [record(r) for r in rows if r["split"] == "train"]
    docs = embed_texts([r.student_answer for r in train], cfg, role=ROLE_DOCUMENT)
    items = manifest["items"]
    by_id = {r["id"]: r for r in rows}
    compared = 0
    for item in items[:: max(1, len(items) // sample)][:sample]:
        query = embed_texts([by_id[item["record_id"]]["student_answer"]], cfg, role=ROLE_QUERY)[0]
        scored = sorted(
            ((maxsim_score(query, doc), rec.id, rec) for doc, rec in zip(docs, train) if doc.n_tokens),
            key=lambda t: (-t[0], t[1]),
        )[: wl.k + 1]
        gaps = [a[0] - b[0] for a, b in zip(scored, scored[1:])]
        if any(0 < gap < NEAR_TIE for gap in gaps):
            continue
        vote = vote_classify([RetrievedExample(record=rec, relevance=score, rank=rank)
                              for rank, (score, _, rec) in enumerate(scored[: wl.k], 1)])
        judgment = item["judgment"]
        require(judgment["label"] == vote.label and abs(judgment["score"] - vote.score) < 1e-12,
                f"{item['record_id']}: grade voted {judgment['label']}/{judgment['score']}, "
                f"brute-force top-{wl.k} votes {vote.label}/{vote.score}")
        compared += 1
    require(compared * 2 >= sample, f"only {compared} of {sample} sampled items were unambiguous")
    return compared
