"""Grading pipelines: zero-shot, retrieval-augmented k-shot, majority vote,
and offline instruction/demo search.

Every run over a split produces one judgment per record (input order
preserved regardless of execution order) and can be serialized into a
manifest that is sufficient to reproduce and re-evaluate the run. rag and
vote retrieve the whole split's neighbours in one ``top_k_batch`` call before
any item is graded. ``PipelineConfig`` settles what a mode takes, and
``build_manifest`` writes that config into the manifest, whose error ledger
is tallied from the judgments' parse paths.
"""

import json
import logging
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .dataset import AnswerRecord, atomic_write
from .embedding import EmbedderConfig
from .errors import RagradeError, Stopped, TransportError
from .llmclient import (
    ChatClient,
    Judgment,
    LedgerEntry,
    ModelConfig,
    PARSE_FAILED,
    judge,
    stop_when,
)
from .promptkit import (
    Demo,
    PromptTemplate,
    STYLE_PREDICT,
    Signature,
    compile_signature,
    demo_from_record,
    record_inputs,
    render_prompt,
)
# top_k is imported only so that perfbench/spans.py can patch pipelines.top_k
from .retrieval import MaxSimIndex, RetrievedExample, top_k, top_k_batch
from .votegrader import vote_classify

logger = logging.getLogger(__name__)

MANIFEST_VERSION = 1

MODE_ZERO_SHOT = "zero_shot"
MODE_RAG = "rag"
MODE_VOTE = "votegrader"
MODE_OPTIMIZED = "optimized"
# every name a mode goes by, and the mode it names
MODE_ALIASES = {
    "zero-shot": MODE_ZERO_SHOT,
    MODE_ZERO_SHOT: MODE_ZERO_SHOT,
    MODE_RAG: MODE_RAG,
    "vote": MODE_VOTE,
    MODE_VOTE: MODE_VOTE,
    MODE_OPTIMIZED: MODE_OPTIMIZED,
}


@dataclass
class PipelineConfig:
    """What one grading run takes, checked when built: ``k`` defaults to 5
    for rag and vote and to 0 otherwise; zero_shot takes k=0, rag and vote
    k >= 1. vote calls no model, so its ``model`` is always ``None``; every
    other mode needs one."""

    mode: str
    k: Optional[int] = None
    style: str = STYLE_PREDICT
    model: Optional[ModelConfig] = None
    proposal_model: Optional[ModelConfig] = None
    exclude_same_question: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODE_ALIASES:
            raise ValueError(f"unknown mode {self.mode!r}")
        self.mode = MODE_ALIASES[self.mode]
        if self.k is None:
            self.k = 5 if self.mode in (MODE_RAG, MODE_VOTE) else 0
        if self.mode == MODE_ZERO_SHOT and self.k != 0:
            raise ValueError("zero_shot requires k=0")
        if self.mode in (MODE_RAG, MODE_VOTE) and self.k < 1:
            raise ValueError(f"{self.mode} requires k >= 1")
        if self.mode == MODE_VOTE:
            self.model = None
        elif self.model is None:
            raise ValueError(f"{self.mode} calls a model; pass --endpoint (and --model)")

    @property
    def model_id(self) -> str:
        return self.model.model if self.model else "vote"


@dataclass
class OptimizedProgram:
    instruction: str
    demo_record_ids: List[str]
    dev_accuracy: float
    trace: List[Dict] = field(default_factory=list)

    def __post_init__(self):
        # programs are read back from JSON files, so OptimizedProgram(**data) checks types
        if not isinstance(self.instruction, str) or not isinstance(self.demo_record_ids, list):
            raise TypeError("instruction must be a string and demo_record_ids a list")

    def to_dict(self) -> Dict:
        return asdict(self)


def _exclusions(
    records: Sequence[AnswerRecord], cfg: PipelineConfig, index: MaxSimIndex
) -> List[Set[str]]:
    """Each record's exclusion set: its own id and, with
    ``exclude_same_question``, the ids of the index's answers to its question."""
    same: Dict[str, Set[str]] = {}
    if cfg.exclude_same_question:
        for rec in index.records:
            same.setdefault(rec.question_id, set()).add(rec.id)
    return [{r.id, *same.get(r.question_id, ())} for r in records]


def _vote(record: AnswerRecord, hits: Optional[List[RetrievedExample]]) -> Judgment:
    """The majority vote of ``hits``; a failed judgment when retrieval failed
    or found no neighbours, as for an empty or whitespace-only answer, which
    has no tokens."""
    if hits is None:
        return Judgment(None, None, None, parse_path=PARSE_FAILED)
    if not hits and not record.student_answer.strip():
        logger.warning("vote failed for %s: the answer has no tokens", record.id)
        return Judgment(None, None, None, parse_path=PARSE_FAILED)
    try:
        return vote_classify(hits)
    except RagradeError as exc:
        logger.warning("vote failed for %s: %s", record.id, exc)
        return Judgment(None, None, None, parse_path=PARSE_FAILED)


def grade_item(
    record: AnswerRecord, template: PromptTemplate, client: ChatClient, demos: Sequence[Demo]
) -> Judgment:
    """Grade one record with the ``demos`` that ``run_split`` picked for it.

    The record's gold fields are never placed in the live item; demos carry
    only other records' gold outputs.
    """
    if any(demo.source_record_id == record.id for demo in demos):
        raise RagradeError(f"live record {record.id} selected as its own demo")
    return judge(render_prompt(template, record_inputs(record), demos), client)


def run_split(
    records: Sequence[AnswerRecord],
    cfg: PipelineConfig,
    index: Optional[MaxSimIndex] = None,
    *,
    signature: Optional[Signature] = None,
    demo_records: Sequence[AnswerRecord] = (),
    client: Optional[ChatClient] = None,
    gate: Optional[Callable[[AnswerRecord, Callable[[], Judgment]], Optional[Judgment]]] = None,
) -> List[Optional[Judgment]]:
    """Grade a whole split view; output order equals input order.

    Each item's demos are picked here: its neighbours in rag mode, the fixed
    ``demo_records`` in optimized mode (whose ``signature`` carries the
    program's instruction), none in zero-shot. vote calls no model; else
    ``client``, when given, sends every chat request, or the run builds one.
    ``gate``, when given, grades each item instead: it is called with the
    record and a function that grades it, and returns that function's
    judgment, or ``None`` for an item it does not send; that item's entry in
    the returned list is ``None``. ``optimize_few_shot``'s gate (``_Race``)
    stops an item once its trial has lost, at the next chat slot the item is
    granted. Without a gate no entry is ``None``.
    """
    sig = signature or Signature()
    # retrieval for the whole split, before any item; the items of a group
    # whose retrieval fails are failed judgments, with no request of their own
    neighbors: List[Optional[List[RetrievedExample]]] = [[]] * len(records)
    if cfg.mode in (MODE_RAG, MODE_VOTE):
        if index is None:
            raise ValueError(f"{cfg.mode} mode requires an index")
        answers = [r.student_answer for r in records]
        neighbors = top_k_batch(index, answers, cfg.k, _exclusions(records, cfg, index))
    if cfg.mode == MODE_VOTE:
        return [_vote(record, hits) for record, hits in zip(records, neighbors)]

    template = compile_signature(sig, cfg.style)
    if cfg.mode == MODE_OPTIMIZED:
        leaked = sorted({r.id for r in demo_records} & {r.id for r in records})
        if leaked:
            raise RagradeError(f"records {leaked} are graded and also demos")
        fixed = [demo_from_record(r, sig) for r in demo_records]
        demos: List[Optional[List[Demo]]] = [fixed] * len(records)
    else:
        # an answer without tokens has no neighbours: it is graded zero-shot style
        demos = [
            None if hits is None else [demo_from_record(n.record, sig) for n in hits]
            for hits in neighbors
        ]
    client = client or ChatClient(cfg.model)

    def one(record: AnswerRecord, item_demos: Optional[List[Demo]]) -> Optional[Judgment]:
        if item_demos is None:
            return Judgment(None, None, None, parse_path=PARSE_FAILED)
        if gate is not None:
            return gate(record, lambda: grade_item(record, template, client, item_demos))
        return grade_item(record, template, client, item_demos)

    # twice the client's slots in threads keep them busy through retry backoffs
    with ThreadPoolExecutor(max_workers=2 * client.cfg.concurrency) as pool:
        return list(pool.map(one, records, demos))


# ---------------------------------------------------------------------------
# Offline instruction/demo search
# ---------------------------------------------------------------------------

_PROPOSAL_SYSTEM = (
    "You rewrite task instructions. Respond with one rewritten instruction per "
    "line and no other text."
)
# a list marker opening a proposal line: "1.", "2)", "-" or "*", then whitespace
_LIST_MARKER = re.compile(r"^(?:\d+[.)]|[-*])(?:\s+|$)")


def propose_instructions(
    base: str, proposal_client: ChatClient, n: int = 4
) -> List[str]:
    """Ask the proposal model for instruction paraphrases; best effort."""
    messages = [
        {"role": "system", "content": _PROPOSAL_SYSTEM},
        {"role": "user", "content": f"Rewrite this instruction {n} different ways:\n{base}"},
    ]
    try:
        raw = proposal_client.complete_messages(messages)
    except TransportError as exc:
        logger.warning("proposal model unavailable (%s); using base instruction", exc)
        return []
    lines = []
    for line in raw.splitlines():
        line = _LIST_MARKER.sub("", line.strip(), count=1)
        if line:
            lines.append(line)
    return lines[:n]


class _Race:
    """One trial's stop rule, as ``run_split``'s gate.

    With c correct of s scored items and r not yet finished, the trial can
    reach at most (c+r)/(s+r). A failed item is not scored, and leaving it
    out cannot lift the accuracy above that bound. Once the bound is at or
    below the incumbent's accuracy (compared as integers), the trial cannot
    win: each of its requests granted a chat slot from then on, first asks,
    relaxed re-asks and re-sends alike, goes unsent (``llmclient.stop_when``),
    and its item is not graded. The bound never rises, so whether a trial
    ``lost`` at its end does not depend on thread timing.
    """

    def __init__(self, items: int, incumbent: Optional[Tuple[int, int]]):
        self.scored = 0
        self.left = items
        self.right: Set[str] = set()  # ids of the items graded correctly
        self.incumbent = incumbent  # (correct, scored), or None: nothing to beat
        self._lock = threading.Lock()

    def lost(self) -> bool:
        if self.incumbent is None:
            return False
        correct, scored = self.incumbent
        with self._lock:
            return (len(self.right) + self.left) * scored <= correct * (self.scored + self.left)

    def __call__(self, record: AnswerRecord, grade: Callable[[], Judgment]) -> Optional[Judgment]:
        token = stop_when.set(self.lost)
        try:
            judgment = grade()
        except Stopped:
            return None
        finally:
            stop_when.reset(token)
        with self._lock:
            self.left -= 1
            if judgment.parse_path != PARSE_FAILED:
                self.scored += 1
                if judgment.label == record.gold_label:
                    self.right.add(record.id)
        return judgment


def optimize_few_shot(
    train: Sequence[AnswerRecord],
    dev: Sequence[AnswerRecord],
    sig: Signature,
    budget: int,
    k_max: int,
    cfg: PipelineConfig,
    instructions: Optional[Sequence[str]] = None,
) -> OptimizedProgram:
    """Budgeted random search over (instruction, demo subset) candidates.

    Each candidate pairs an instruction (the base one, a supplied one, which
    is stripped and dropped if blank, or a proposal-model paraphrase) with a
    random train-only demo subset of size <= k_max, and is scored by label
    accuracy on the dev items. Only a strictly better trial replaces the
    incumbent, so trials are raced: once a trial cannot beat the incumbent
    (``_Race``), none of its requests granted a chat slot from then on is
    sent. A trial sends the incumbent's misses (wrong or failed dev items)
    first, then the rest, each in dev order. A trial that cannot win is
    traced as ``stopped``, without an accuracy. Deterministic given the seed
    and fixed model responses.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if not dev:
        raise ValueError("dev set must be non-empty")
    if not train:
        raise ValueError("train pool must be non-empty")
    if cfg.mode != MODE_OPTIMIZED:
        raise ValueError("optimize_few_shot needs an optimized-mode config")

    client = ChatClient(cfg.model)  # one client for every trial
    candidates = [sig.task_description]
    supplied = [i for i in map(str.strip, instructions or ()) if i]
    if supplied:
        candidates += supplied
    elif cfg.proposal_model is not None:
        proposer = client if cfg.proposal_model == cfg.model else ChatClient(cfg.proposal_model)
        candidates += propose_instructions(sig.task_description, proposer)

    rng = random.Random(cfg.seed)
    pool = list(train)

    best: Optional[Tuple[int, int, str, List[str]]] = None  # correct, scored, instruction, demo ids
    order = list(dev)  # send order: the incumbent's misses first
    trace: List[Dict] = []
    for trial in range(budget):
        instruction = candidates[rng.randrange(len(candidates))]
        size = rng.randint(0, min(k_max, len(train)))
        demo_records = rng.sample(pool, size)
        demo_ids = [r.id for r in demo_records]
        entry: Dict = {"trial": trial, "instruction": instruction, "demo_record_ids": demo_ids}
        trace.append(entry)
        race = _Race(len(dev), best and best[:2])
        run_split(
            order,
            cfg,
            signature=replace(sig, task_description=instruction),
            demo_records=demo_records,
            client=client,
            gate=race,
        )
        if race.lost():
            entry["stopped"] = True
            continue
        # not lost: every item was sent, and the trial beats the incumbent if any
        entry["dev_accuracy"] = len(race.right) / race.scored if race.scored else None
        if not race.scored:
            continue
        best = (len(race.right), race.scored, instruction, demo_ids)
        order = sorted(dev, key=lambda r: r.id in race.right)

    if best is None:
        raise RagradeError(
            f"all {budget} candidates failed on every dev item"
        )
    correct, scored, instruction, demo_ids = best
    return OptimizedProgram(
        instruction=instruction,
        demo_record_ids=demo_ids,
        dev_accuracy=correct / scored,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


def build_manifest(
    cfg: PipelineConfig,
    split: str,
    embed_cfg: EmbedderConfig,
    records: Sequence[AnswerRecord],
    judgments: Sequence[Judgment],
    index_fingerprint: Optional[str] = None,
    created_at: Optional[str] = None,
) -> Dict:
    """The manifest of the run ``cfg`` made over ``split``: its settings, one
    item per record and the ledger of the judgments' parse paths."""
    items = [
        {
            "record_id": rec.id,
            "question_id": rec.question_id,
            "gold_score": rec.gold_score,
            "gold_label": rec.gold_label,
            "gold_feedback": rec.gold_feedback,
            "judgment": judgment.to_dict(),
        }
        for rec, judgment in zip(records, judgments)
    ]
    return {
        "manifest_version": MANIFEST_VERSION,
        "created_at": created_at
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": {
            "mode": cfg.mode,
            "k": cfg.k,
            "split": split,
            "style": cfg.style,
            "model_id": cfg.model_id,
            "endpoint": cfg.model.endpoint if cfg.model else None,
            "temperature": cfg.model.temperature if cfg.model else None,
            "seed": cfg.seed,
            "exclude_same_question": cfg.exclude_same_question,
            "embed_backend": embed_cfg.backend,
            "embed_dim": embed_cfg.dimension,
        },
        "index_fingerprint": index_fingerprint,
        "items": items,
        "ledger": {f"{cfg.model_id}|{cfg.mode}|{cfg.k}": asdict(LedgerEntry.of(judgments))},
    }


def write_manifest(manifest: Dict, path) -> None:
    text = json.dumps(manifest, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


def load_manifest(path) -> Dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
