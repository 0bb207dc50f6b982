"""Per-layer metrics from the spans of traced repetitions.

Span ids are unique within one command's process, so self times are worked
out per command. Times are medians over the traced repetitions; counts are
the same in every repetition.
"""

import statistics
from collections import Counter
from typing import Dict, List

from checks import chat_requests, embed_requests
from spans import ATTRS, END, ERROR, ID, NAME, START, layer_self_table, percentile, self_times
from stub import CHAT_PATH
from workloads import EMBED_DIM

COMMANDS = ("ingest", "index", "optimize", "grade", "evaluate")
LAYERS = ("cli", "dataset", "embedding", "retrieval", "promptkit", "llmclient",
          "votegrader", "pipelines", "metrics", "http")

def _rep_metrics(rep) -> Dict[str, float]:
    spans = {n: [tuple(s) for s in c.result["spans"]] for n, c in rep.commands.items()}
    selfs = {n: self_times(s) for n, s in spans.items()}

    def named(name, commands=COMMANDS):
        return [(s, selfs[c][s[ID]]) for c in commands if c in spans for s in spans[c] if s[NAME] == name]

    def durations(name, commands=COMMANDS):
        return [s[END] - s[START] for s, _ in named(name, commands)]

    def total(name, commands=COMMANDS):
        return sum(durations(name, commands))

    m: Dict[str, float] = {}
    top_k = named("retrieval.top_k")
    embeds = named("embedding.embed_texts")
    doc_tokens = sum(s[ATTRS]["tokens"] for s, _ in named("embedding.embed_texts", ("index",)))
    m["retrieval.top_k_ms.p50"] = percentile([d * 1e3 for d in durations("retrieval.top_k")], 50)
    m["retrieval.top_k_ms.p99"] = percentile([d * 1e3 for d in durations("retrieval.top_k")], 99)
    m["retrieval.top_k.calls"] = len(top_k)
    m["retrieval.top_k.flops"] = (
        sum(2 * s[ATTRS]["q"] * doc_tokens * EMBED_DIM for s, _ in top_k) / len(top_k) if top_k else 0
    )
    m["retrieval.doc_tokens"] = doc_tokens
    m["retrieval.build_index_s"] = total("retrieval.build_index")
    m["retrieval.save_index_s"] = total("retrieval.save_index")
    m["retrieval.load_index_s"] = total("retrieval.load_index")
    m["retrieval.index_file_bytes"] = rep.index_bytes

    m["embedding.embed_texts_s"] = sum(self for _, self in embeds)
    m["embedding.embed_texts.calls"] = len(embeds)
    m["embedding.embed_texts.texts"] = sum(s[ATTRS]["texts"] for s, _ in embeds)
    m["embedding.tokens"] = sum(s[ATTRS]["tokens"] for s, _ in embeds)
    m["embedding.tokenize_s"] = total("embedding.tokenize")
    det_calls = sum(c.result["det_calls"] for c in rep.commands.values())
    det_distinct = sum(c.result["det_distinct"] for c in rep.commands.values())
    m["embedding.det_embed.calls"] = det_calls
    m["embedding.det_embed.distinct"] = det_distinct
    m["embedding.det_embed.hit_ratio"] = 1 - det_distinct / det_calls if det_calls else 0.0
    posts = named("http.post")
    m["embedding.remote.requests"] = sum(not s[ATTRS]["chat"] for s, _ in posts if s[ATTRS])

    renders = named("promptkit.render_prompt")
    m["promptkit.render_prompt_us.p50"] = percentile([d * 1e6 for d in durations("promptkit.render_prompt")], 50)
    m["promptkit.prompt_chars.mean"] = (
        statistics.fmean(s[ATTRS]["chars"] for s, _ in renders) if renders else 0.0
    )
    m["promptkit.compile_signature.calls"] = len(named("promptkit.compile_signature"))
    m["promptkit.demo_from_record.calls"] = len(named("promptkit.demo_from_record"))

    completes = named("llmclient.complete")
    chat_posts = [s for s, _ in posts if s[ATTRS] is None or s[ATTRS]["chat"]]
    fallbacks = named("llmclient.fallback_parse")
    m["llmclient.complete.typed"] = sum(not (s[ATTRS] or {}).get("relaxed") for s, _ in completes)
    m["llmclient.complete.relaxed"] = sum(bool((s[ATTRS] or {}).get("relaxed")) for s, _ in completes)
    m["llmclient.http_attempts"] = len(chat_posts)
    m["llmclient.retries"] = len(chat_posts) - len(completes)
    m["llmclient.complete_ms.p50"] = percentile([d * 1e3 for d in durations("llmclient.complete")], 50)
    m["llmclient.complete_ms.p99"] = percentile([d * 1e3 for d in durations("llmclient.complete")], 99)
    m["llmclient.judge_ms.p50"] = percentile([d * 1e3 for d in durations("llmclient.judge")], 50)
    m["llmclient.judge_ms.p99"] = percentile([d * 1e3 for d in durations("llmclient.judge")], 99)
    m["llmclient.parse_typed_us.p50"] = percentile([d * 1e6 for d in durations("llmclient.parse_typed")], 50)
    m["llmclient.parse_typed.failures"] = sum(s[ERROR] for s, _ in named("llmclient.parse_typed"))
    m["llmclient.fallback.calls"] = len(fallbacks)
    m["llmclient.fallback_recovery_ratio"] = (
        sum(bool(s[ATTRS] and s[ATTRS]["ok"]) for s, _ in fallbacks) / len(fallbacks) if fallbacks else 0.0
    )
    m["llmclient.chat_clients_created"] = sum(c.result["chat_clients"] for c in rep.commands.values())

    items = durations("pipelines.grade_item", ("grade",))
    m["pipelines.grade_item_ms.p50"] = percentile([d * 1e3 for d in items], 50)
    m["pipelines.grade_item_ms.p99"] = percentile([d * 1e3 for d in items], 99)
    m["pipelines.run_split.calls"] = len(named("pipelines.run_split"))
    trials = len(named("pipelines.run_split", ("optimize",)))
    m["pipelines.optimize.trials"] = trials
    m["pipelines.optimize.distinct_candidates"] = len(
        {(t["instruction"], tuple(sorted(t["demo_record_ids"]))) for t in (rep.program or {}).get("trace", [])}
    )
    optimize_chat = sum(1 for s in spans.get("optimize", ()) if s[NAME] == "http.post")
    m["pipelines.optimize.chat_calls_per_trial"] = optimize_chat / trials if trials else 0.0
    m["pipelines.write_manifest_s"] = total("pipelines.write_manifest")
    m["pipelines.manifest_bytes"] = rep.manifest_bytes

    m["votegrader.vote_classify_us.p50"] = percentile([d * 1e6 for d in durations("votegrader.vote_classify")], 50)
    m["metrics.text_metrics_report_s"] = total("metrics.text_metrics_report")
    m["metrics.bleu_s"] = total("metrics.bleu")
    m["metrics.rouge2_s"] = total("metrics.rouge2")
    m["metrics.embed_sim_f1_s"] = total("metrics.embed_sim_f1")
    m["dataset.load_corpus_s"] = total("dataset.load_corpus")
    loads = named("dataset.load_corpus", ("ingest",))
    m["dataset.records"] = loads[0][0][ATTRS]["records"] if loads else 0

    for c in COMMANDS:
        roots = named(f"cli.{c}", (c,))
        m[f"cli.{c}_s"] = roots[0][0][END] - roots[0][0][START] if roots else 0.0
        m[f"cli.{c}.self_s"] = roots[0][1] if roots else 0.0
    table = layer_self_table(spans)
    for layer in LAYERS:
        m[f"self_s.{layer}"] = table.get(layer, 0.0)

    n_items = len(rep.manifest["items"])
    failed = sum(it["judgment"]["parse_path"] == "failed" for it in rep.manifest["items"])
    stub_all = Counter(rep.stub_setup) + Counter(rep.stub_grade)
    m["stub.chat.requests"] = chat_requests(stub_all)
    m["stub.chat.non200"] = sum(n for k, n in stub_all.items() if k.startswith(CHAT_PATH + " ") and not k.endswith(" 200"))
    m["stub.embed.requests"] = embed_requests(stub_all)
    m["grade.items"] = n_items
    m["grade.failed_items"] = failed
    m["chat_calls_per_item"] = chat_requests(rep.stub_grade) / n_items
    m["failed_item_frac"] = failed / n_items
    return m


def evaluate_items_per_s(reps) -> float:
    """Items per second over every untraced ``evaluate`` call of the run.

    Nearly all of evaluate's time is the ``metrics`` layer. It is pooled
    rather than a median: one call takes 35-250 ms, short enough for host
    noise to swamp a single sample.
    """
    plain = [r for r in reps if not r.traced]
    return len(plain[0].manifest["items"]) * len(plain) / sum(r.commands["evaluate"].wall_s for r in plain)


def trace_overhead_frac(reps) -> float:
    """Median over traced repetitions of their grade wall time ÷ that of their untraced neighbours, − 1.

    Neighbours on both sides keep the host's drift out of the ratio. The
    first repetition is left out: it runs a few percent slower than the rest
    while caches warm up. A run holds only two or three such ratios, so the
    figure resolves the cost of tracing no better than the host's
    repetition-to-repetition noise of a few percent.
    """
    ratios = []
    for i, rep in enumerate(reps):
        plain = [reps[j].commands["grade"].wall_s for j in (i - 1, i + 1) if 0 < j < len(reps)]
        if rep.traced and plain:
            ratios.append(rep.commands["grade"].wall_s / statistics.fmean(plain))
    return statistics.median(ratios) - 1


def per_layer_metrics(reps) -> Dict[str, float]:
    """Every per-layer metric by name; times are medians over the traced repetitions."""
    traced = [_rep_metrics(r) for r in reps if r.traced]
    values = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    values["trace.overhead_frac"] = trace_overhead_frac(reps)
    values["evaluate_items_per_s"] = evaluate_items_per_s(reps)
    return values


def layer_table(reps) -> List[str]:
    """Self time by layer and command, from the last traced repetition."""
    traced = [r for r in reps if r.traced][-1]
    per_cmd = {c: layer_self_table({c: [tuple(s) for s in cmd.result["spans"]]})
               for c, cmd in traced.commands.items()}
    lines = ["   self time by layer and command (s):",
             "   " + "layer".ljust(11) + "".join(c.rjust(10) for c in per_cmd)]
    for layer in LAYERS:
        lines.append("   " + layer.ljust(11) + "".join(f"{t.get(layer, 0.0):10.4f}" for t in per_cmd.values()))
    return lines
