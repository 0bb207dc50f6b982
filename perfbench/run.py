"""ragrade benchmark: seeded workloads through the real CLI flow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a ragrade checkout. For each workload it generates the
corpus from the seed, starts the stub peer, and repeats the flow
``ingest -> index | optimize -> grade -> evaluate`` (every command in a
fresh process) until S seconds have passed, checking every repetition's
outputs. It prints each metric by name with its unit, then, as the last
line, one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Untraced runs report the end-to-end metrics (medians over repetitions);
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics. A failed check prints no numbers and exits 1.

``attempted`` counts graded items over all repetitions; ``failed`` counts
items whose outcome differs from the fault schedule's prediction (the
scheduled hard failures of optimized-faulty are the correct outcome).
"""

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_prompts, check_rep, check_votes, chat_requests  # noqa: E402
from corpus import generate, write_corpus  # noqa: E402
from layers import evaluate_items_per_s, layer_table, per_layer_metrics  # noqa: E402
from stub import Stub  # noqa: E402
from workloads import EMBED_DIM, RUN_LIMIT_S, WORKLOADS, CheckFailed, run_rep  # noqa: E402


def metric_units(section: str) -> dict:
    """name -> unit of every metric BENCHMARK.json lists in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _with_units(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise RuntimeError(f"the code computes {sorted(set(values) - set(units))} beyond BENCHMARK.json "
                           f"and misses {sorted(set(units) - set(values))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _e2e(rep, n_items: int) -> dict:
    """One repetition's end-to-end figures."""
    return {
        "setup_s": rep.setup_s,
        "grade_items_per_s": n_items / rep.commands["grade"].wall_s,
        "peak_rss_mb": rep.commands["grade"].maxrss_kb / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rows = generate(wl.shape, seed, name)
        corpus = work / "corpus.jsonl"
        write_corpus(rows, corpus)
        schedule = work / "schedule.json"
        schedule.write_text(json.dumps({r["student_answer"]: [r["fault"], r["stub_score"]] for r in rows}),
                            encoding="utf-8")
        stub = Stub(ROOT, schedule, wl.chat_latency_s, EMBED_DIM) if (wl.chat or wl.remote_embed) else None
        try:
            if stub and wl.remote_embed:
                _warm_embedding_service(stub, rows)
            reps = _measure(wl, rows, corpus, work, stub, seconds, trace, deadline)
        finally:
            if stub:
                stub.close()
        if wl.mode == "vote":
            check_votes(wl, rows, reps[-1].manifest)
        return _summarize(wl, rows, reps, trace, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _warm_embedding_service(stub, rows) -> None:
    """A deployed embedding service is warm; fill the stub's embedder cache once."""
    import requests

    texts = [r["student_answer"] for r in rows]
    for start in range(0, len(texts), 256):
        resp = requests.post(stub.url + "/embed", json={"texts": texts[start:start + 256]}, timeout=60)
        resp.raise_for_status()


def _measure(wl, rows, corpus, work, stub, seconds, trace, deadline):
    """Repetitions until ``seconds`` have passed, give or take half a repetition."""
    start = time.monotonic()
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(wl, ROOT, corpus, work / f"rep{len(reps)}", stub, traced,
                      want_prompts=wl.mode == "rag" and not reps, deadline=deadline)
        check_rep(wl, rows, rep, reps[0] if reps else rep)
        if rep.prompts is not None:
            check_prompts(wl, rows, rep.prompts)
        reps.append(rep)
        shutil.rmtree(work / f"rep{len(reps) - 2}", ignore_errors=True)
        now = time.monotonic()
        # a traced run needs an untraced repetition after its first traced one
        if len(reps) >= (3 if trace else 1) and now + (now - start) / len(reps) / 2 >= start + seconds:
            return reps


def _summarize(wl, rows, reps, trace: bool, seed: int):
    """(report lines, result); the lines are printed only once every check passed."""
    lines = []
    n_items = sum(r["split"] == wl.split for r in rows)
    plain_reps = [r for r in reps if not r.traced]
    plain = [_e2e(r, n_items) for r in plain_reps]
    paths = [it["judgment"]["parse_path"] for it in reps[-1].manifest["items"]]
    hard = paths.count("failed")
    chat_calls = chat_requests(reps[-1].stub_grade)
    attempted = n_items * len(reps)
    lines.append(f"== {wl.name} seed={seed}: {len(reps)} repetitions ({len(plain)} untraced), "
                 f"{n_items} items each")
    lines.append(f"   items attempted={attempted} succeeded={attempted} failed=0 "
                 f"(per repetition: typed={paths.count('typed')} fallback={paths.count('fallback')} "
                 f"scheduled hard failures={hard})")
    lines.append(f"   chat_calls_per_item {chat_calls / n_items} calls/item ({chat_calls} of {n_items})")
    lines.append(f"   failed_item_frac {hard / n_items} ratio ({hard} of {n_items})")
    evaluate = evaluate_items_per_s(plain_reps)
    lines.append(f"   evaluate_items_per_s {evaluate:.6g} items/s (over {len(plain_reps)} evaluate calls)")
    metrics = _with_units({name: statistics.median(p[name] for p in plain) for name in plain[0]},
                          metric_units("end_to_end"))
    for name, m in metrics.items():
        lines.append(f"   {name} {m['value']:.6g} {m['unit']} "
                     f"(per repetition: {', '.join(f'{p[name]:.4g}' for p in plain)})")
    if trace:
        lines += layer_table(reps)
        traced = [r for r in reps if r.traced][-1]
        dump = ROOT / ".perfbench_work" / "spans" / f"{wl.name}-seed{seed}.json"
        dump.parent.mkdir(parents=True, exist_ok=True)
        dump.write_text(json.dumps({n: c.result["spans"] for n, c in traced.commands.items()}),
                        encoding="utf-8")
        lines.append(f"   spans of the last traced repetition -> {dump.relative_to(ROOT)}")
        metrics = _with_units(per_layer_metrics(reps), metric_units("per_layer"))
        for name, m in metrics.items():
            lines.append(f"   {name} {m['value']:.6g} {m['unit']}")
    return lines, {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/ragrade/cli.py", "tests/stub_servers.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a ragrade checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports, results = [], {}
    try:
        for name in names:
            lines, results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            reports += lines
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    print("\n".join(reports))
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": True,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": 0,
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
