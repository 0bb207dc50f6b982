"""Call-site tracing for traced benchmark runs, and the per-layer table.

``install`` wraps ragrade's public functions where they are *called*: a
module that did ``from .retrieval import top_k`` is patched as
``ragrade.pipelines.top_k``, one that calls ``retrieval.build_index`` as
``ragrade.retrieval.build_index``. Nothing under ``src/`` changes.

Each span records (id, name, start, end, parent, trace, error, attrs).
Parents come from a thread-local stack. ``pipelines.grade_item`` is the root
of its item's trace: it starts a fresh stack, and its parent is the
``run_split`` span that launched it, whichever thread that ran on, so
run_split's self time excludes the items. Spans stay in memory until the
worker writes them out when its command ends.
"""

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, Sequence

ID, NAME, START, END, PARENT, TRACE, ERROR, ATTRS = range(8)


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.distinct: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._group = None  # innermost open run_split span, for item roots

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None, root=False, group=False):
        """``fn`` timed as span ``name``; ``attrs(args, kwargs, result)`` adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            stack = self._stack()
            if root:
                saved, parent, trace = list(stack), self._group, sid
                stack.clear()
            else:
                parent = stack[-1][0] if stack else None
                trace = stack[-1][1] if stack else sid
            stack.append((sid, trace))
            outer_group = self._group
            if group:
                self._group = sid
            error, extra = False, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                if group:
                    self._group = outer_group
                stack.pop()
                if root:
                    stack[:] = saved
                if attrs is not None and not error:
                    extra = attrs(args, kwargs, result)
                self.spans.append((sid, name, start, end, parent, trace, error, extra))

        return traced

    def count_calls(self, fn):
        """Counts calls and distinct argument tuples, without a span."""

        @functools.wraps(fn)
        def counted(*args):
            with self._lock:
                self.counts["calls"] += 1
                self.distinct.add(args)
            return fn(*args)

        return counted


def install(tracer: Tracer) -> None:
    """Patch every call site the per-layer metrics need."""
    import requests

    from ragrade import dataset, embedding, llmclient, metrics, pipelines, retrieval

    raw_tokenize = embedding.tokenize

    def patch(module, attr, name, **kw):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), **kw))

    # cli -> dataset, retrieval, pipelines, metrics (module-attribute calls)
    patch(dataset, "load_corpus", "dataset.load_corpus",
          attrs=lambda a, k, r: {"records": len(r.records)})
    patch(dataset, "save_corpus", "dataset.save_corpus")
    patch(retrieval, "build_index", "retrieval.build_index")
    patch(retrieval, "save_index", "retrieval.save_index")
    patch(retrieval, "load_index", "retrieval.load_index")
    patch(pipelines, "write_manifest", "pipelines.write_manifest")
    patch(pipelines, "build_manifest", "pipelines.build_manifest")
    patch(pipelines, "load_manifest", "pipelines.load_manifest")
    patch(pipelines, "optimize_few_shot", "pipelines.optimize_few_shot")
    patch(metrics, "manifest_metrics", "metrics.manifest_metrics")
    # pipelines -> its own globals and its from-imports
    patch(pipelines, "run_split", "pipelines.run_split", group=True)
    patch(pipelines, "grade_item", "pipelines.grade_item", root=True)
    patch(pipelines, "top_k", "retrieval.top_k",
          attrs=lambda a, k, r: {"q": len(raw_tokenize(a[1]))})
    patch(pipelines, "vote_classify", "votegrader.vote_classify")
    patch(pipelines, "render_prompt", "promptkit.render_prompt",
          attrs=lambda a, k, r: {"chars": len(r.system_text) + len(r.user_text)})
    patch(pipelines, "compile_signature", "promptkit.compile_signature")
    patch(pipelines, "demo_from_record", "promptkit.demo_from_record")
    patch(pipelines, "judge", "llmclient.judge")
    # llmclient.judge -> its globals and the client's methods
    patch(llmclient, "parse_typed", "llmclient.parse_typed")
    patch(llmclient, "fallback_parse", "llmclient.fallback_parse",
          attrs=lambda a, k, r: {"ok": r.parse_path != llmclient.PARSE_FAILED})
    patch(llmclient, "parse_relaxed", "llmclient.parse_relaxed")
    llmclient.ChatClient.complete = tracer.wrap(
        "llmclient.complete", llmclient.ChatClient.complete,
        attrs=lambda a, k, r: {"relaxed": bool(k.get("relaxed", a[2] if len(a) > 2 else False))},
    )
    base_client = pipelines.ChatClient

    class CountingChatClient(base_client):
        def __init__(self, *args, **kwargs):
            with tracer._lock:
                tracer.counts["chat_clients"] += 1
            super().__init__(*args, **kwargs)

    pipelines.ChatClient = CountingChatClient
    # retrieval/metrics -> embedding; embedding -> its own globals
    for module in (retrieval, embedding):
        patch(module, "embed_texts", "embedding.embed_texts",
              attrs=lambda a, k, r: {"texts": len(r), "tokens": sum(m.n_tokens for m in r)})
    for module in (embedding, metrics):
        patch(module, "tokenize", "embedding.tokenize")
    embedding.deterministic_embed = tracer.count_calls(embedding.deterministic_embed)
    patch(metrics, "text_metrics_report", "metrics.text_metrics_report")
    patch(metrics, "bleu", "metrics.bleu")
    patch(metrics, "rouge2", "metrics.rouge2")
    patch(metrics, "embed_sim_f1", "metrics.embed_sim_f1")
    # every HTTP request ragrade sends, chat or embedding
    requests.Session.post = tracer.wrap(
        "http.post", requests.Session.post,
        attrs=lambda a, k, r: {"chat": a[1].endswith("/chat/completions"), "status": r.status_code},
    )


# ---------------------------------------------------------------------------
# aggregation (parent side)
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Sequence]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s[START]
        for start, end in sorted(children.get(s[ID], ())):
            start, end = max(start, cursor), min(end, s[END])
            if end > start:
                covered += end - start
                cursor = end
        out[s[ID]] = (s[END] - s[START]) - covered
    return out


def layer_self_table(commands: Dict[str, Sequence[Sequence]]) -> Dict[str, float]:
    """Layer (span-name prefix) -> summed self time over every command."""
    table: Dict[str, float] = defaultdict(float)
    for spans in commands.values():
        selfs = self_times(spans)
        for s in spans:
            table[s[NAME].split(".")[0]] += selfs[s[ID]]
    return dict(table)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
