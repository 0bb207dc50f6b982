"""Grading pipelines: zero-shot, retrieval-augmented k-shot, majority vote,
and offline instruction/demo search.

Every run over a split produces one judgment per record (input order
preserved regardless of execution order) and can be serialized into a
manifest that is sufficient to reproduce and re-evaluate the run. rag and
vote retrieve the whole split's neighbours in one batch pass before any item
is graded. The manifest's error ledger is tallied from the judgments' parse
paths.
"""

import json
import logging
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .dataset import AnswerRecord, atomic_write
from .errors import (
    BackendUnavailable,
    BudgetExhaustedWithoutValidCandidate,
    DimensionMismatch,
    GoldLeakage,
    InvalidEmbedding,
    RagradeError,
    Stopped,
    TransportError,
)
from .llmclient import (
    ChatClient,
    Judgment,
    LedgerEntry,
    ModelConfig,
    PARSE_FAILED,
    PARSE_TYPED,
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
    render_prompt,
)
# top_k is imported only so that perfbench/spans.py can patch pipelines.top_k
from .retrieval import MaxSimIndex, RetrievedExample, query_group_size, top_k, top_k_batch
from .votegrader import vote_classify

logger = logging.getLogger(__name__)

MANIFEST_VERSION = 1

MODE_ZERO_SHOT = "zero_shot"
MODE_RAG = "rag"
MODE_VOTE = "votegrader"
MODE_OPTIMIZED = "optimized"
_MODES = (MODE_ZERO_SHOT, MODE_RAG, MODE_VOTE, MODE_OPTIMIZED)
# what retrieval raises when the embedding backend is down or replies garbage
_RETRIEVAL_FAILURES = (BackendUnavailable, DimensionMismatch, InvalidEmbedding)


@dataclass
class PipelineConfig:
    mode: str
    k: int = 0
    style: str = STYLE_PREDICT
    model: Optional[ModelConfig] = None
    proposal_model: Optional[ModelConfig] = None
    exclude_same_question: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_ZERO_SHOT and self.k != 0:
            raise ValueError("zero_shot requires k=0")
        if self.mode in (MODE_RAG, MODE_VOTE) and self.k < 1:
            raise ValueError(f"{self.mode} requires k >= 1")
        if self.mode != MODE_VOTE and self.model is None:
            raise ValueError(f"{self.mode} requires a model config")

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


def _exclusions(record: AnswerRecord, cfg: PipelineConfig, index: MaxSimIndex) -> Set[str]:
    exclude: Set[str] = {record.id}
    if cfg.exclude_same_question:
        rows = index.question_rows.get(record.question_id, ())
        exclude.update(index.record_ids[row] for row in rows)
    return exclude


def _batch_neighbors(
    records: Sequence[AnswerRecord], cfg: PipelineConfig, index: MaxSimIndex
) -> List[Optional[List[RetrievedExample]]]:
    """Every record's neighbours, one ``top_k_batch`` per query group; ``None``
    for each record of a group whose retrieval fails after its retries."""
    out: List[Optional[List[RetrievedExample]]] = []
    step = query_group_size(index)
    for first in range(0, len(records), step):
        group = records[first : first + step]
        try:
            out += top_k_batch(
                index,
                [r.student_answer for r in group],
                cfg.k,
                [_exclusions(r, cfg, index) for r in group],
            )
        except _RETRIEVAL_FAILURES as exc:
            logger.warning("batch retrieval failed (%s); its %d items fail", exc, len(group))
            out += [None] * len(group)
    return out


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
        vote = vote_classify(hits)
    except RagradeError as exc:
        logger.warning("vote failed for %s: %s", record.id, exc)
        return Judgment(None, None, None, parse_path=PARSE_FAILED)
    return Judgment(score=vote.score, label=vote.label, feedback="", parse_path=PARSE_TYPED)


def grade_item(
    record: AnswerRecord, template: PromptTemplate, client: ChatClient, demos: Sequence[Demo]
) -> Judgment:
    """Grade one record with the ``demos`` that ``run_split`` picked for it.

    The record's gold fields are never placed in the live item; demos carry
    only other records' gold outputs.
    """
    if any(demo.source_record_id == record.id for demo in demos):
        raise GoldLeakage(f"live record {record.id} selected as its own demo")
    inputs = {
        "question": record.question,
        "reference_answer": record.reference_answer,
        "student_answer": record.student_answer,
    }
    return judge(render_prompt(template, inputs, demos), client)


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
    cfg.validate()
    sig = signature or Signature()
    # retrieval for the whole split, before any item; the items of a group
    # whose retrieval fails are failed judgments, with no request of their own
    neighbors: List[Optional[List[RetrievedExample]]] = [[]] * len(records)
    if cfg.mode in (MODE_RAG, MODE_VOTE):
        if index is None:
            raise ValueError(f"{cfg.mode} mode requires an index")
        neighbors = _batch_neighbors(records, cfg, index)
    if cfg.mode == MODE_VOTE:
        return [_vote(record, hits) for record, hits in zip(records, neighbors)]

    template = compile_signature(sig, cfg.style)
    if cfg.mode == MODE_OPTIMIZED:
        leaked = sorted({r.id for r in demo_records} & {r.id for r in records})
        if leaked:
            raise GoldLeakage(f"records {leaked} are graded and also demos")
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
        line = line.strip().lstrip("0123456789.)- ").strip()
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
        self.correct = self.scored = 0
        self.left = items
        self.right: Set[str] = set()  # ids of the items graded correctly
        self.incumbent = incumbent  # (correct, scored), or None: nothing to beat
        self._lock = threading.Lock()

    def lost(self) -> bool:
        if self.incumbent is None:
            return False
        correct, scored = self.incumbent
        with self._lock:
            return (self.correct + self.left) * scored <= correct * (self.scored + self.left)

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
                    self.correct += 1
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

    Each candidate pairs an instruction (the base one, a supplied one, or a
    proposal-model paraphrase) with a random train-only demo subset of size
    <= k_max, and is scored by label accuracy on the dev items. Only a
    strictly better trial replaces the incumbent, so trials are raced: once
    a trial cannot beat the incumbent (``_Race``), none of its requests
    granted a chat slot from then on is sent. A trial sends the incumbent's
    misses (wrong or failed dev items) first, then the rest, each in dev
    order. A trial that cannot win is traced as ``stopped``, without an
    accuracy. Deterministic given the seed and fixed model responses.
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
    cfg.validate()

    client = ChatClient(cfg.model)  # one client for every trial
    candidates = [sig.task_description]
    if instructions:
        candidates += [i for i in instructions if i.strip()]
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
        entry["dev_accuracy"] = race.correct / race.scored if race.scored else None
        if not race.scored:
            continue
        best = (race.correct, race.scored, instruction, demo_ids)
        order = sorted(dev, key=lambda r: r.id in race.right)

    if best is None:
        raise BudgetExhaustedWithoutValidCandidate(
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
    run_config: Dict,
    records: Sequence[AnswerRecord],
    judgments: Sequence[Judgment],
    index_fingerprint: Optional[str] = None,
    created_at: Optional[str] = None,
) -> Dict:
    ledger_key = f"{run_config['model_id']}|{run_config['mode']}|{run_config['k']}"
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
        "config": dict(run_config),
        "index_fingerprint": index_fingerprint,
        "items": items,
        "ledger": {ledger_key: asdict(LedgerEntry.of(judgments))},
    }


def write_manifest(manifest: Dict, path) -> None:
    text = json.dumps(manifest, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


def load_manifest(path) -> Dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
