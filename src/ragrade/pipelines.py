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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .dataset import AnswerRecord
from .errors import (
    BackendUnavailable,
    BudgetExhaustedWithoutValidCandidate,
    DimensionMismatch,
    GoldLeakage,
    InvalidEmbedding,
    RagradeError,
    TransportError,
)
from .llmclient import (
    ChatClient,
    Judgment,
    LedgerEntry,
    ModelConfig,
    PARSE_FAILED,
    PARSE_TYPED,
    WorkSlots,
    judge,
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
_RETRIEVAL_FAILURES = (TransportError, BackendUnavailable, DimensionMismatch, InvalidEmbedding)


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


def grade_item(
    record: AnswerRecord,
    cfg: PipelineConfig,
    template: Optional[PromptTemplate],
    client: Optional[ChatClient],
    demos: Sequence[Demo] = (),
    neighbors: Sequence[RetrievedExample] = (),
) -> Judgment:
    """Grade one record under the configured pipeline mode.

    The record's gold fields are never placed in the live item; demos carry
    only other records' gold outputs. rag and vote take the record's
    ``neighbors`` from ``run_split``'s split-wide retrieval; optimized mode
    renders the fixed ``demos``. vote needs no template and no client.
    """
    if cfg.mode == MODE_VOTE:
        try:
            vote = vote_classify(neighbors)
        except RagradeError as exc:
            logger.warning("vote failed for %s: %s", record.id, exc)
            return Judgment(None, None, None, parse_path=PARSE_FAILED)
        return Judgment(
            score=vote.score, label=vote.label, feedback="", parse_path=PARSE_TYPED
        )

    if cfg.mode == MODE_RAG:
        # an answer without tokens has no neighbours: it is graded zero-shot style
        demos = [demo_from_record(n.record, template.signature) for n in neighbors]
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
) -> List[Judgment]:
    """Grade a whole split view; output order equals input order.

    ``signature`` defaults to ``Signature()``; optimized mode passes one that
    carries the program's instruction, and renders ``demo_records`` as the
    fixed demos of every item. ``client``, when given, sends every chat
    request; else the run builds one.
    """
    cfg.validate()
    sig = signature or Signature()
    template = compile_signature(sig, cfg.style) if cfg.mode != MODE_VOTE else None
    demos: List[Demo] = []
    if cfg.mode == MODE_OPTIMIZED:
        demos = [demo_from_record(r, sig) for r in demo_records]
    if client is None and cfg.model is not None:
        client = ChatClient(cfg.model)

    # retrieval for the whole split, before the pool; the items of a group
    # whose retrieval fails are failed judgments, with no request of their own
    neighbors: List[Optional[List[RetrievedExample]]] = [[]] * len(records)
    if cfg.mode in (MODE_RAG, MODE_VOTE):
        if index is None:
            raise ValueError(f"{cfg.mode} mode requires an index")
        neighbors = _batch_neighbors(records, cfg, index)

    # the only bound on chat requests in flight: an item holds a slot while
    # it works and gives it up while it waits out a retry, so twice as many
    # threads keep the slots busy during backoffs
    concurrency = cfg.model.concurrency if cfg.model else 1
    slots = WorkSlots(concurrency)

    def one(record: AnswerRecord, hits: Optional[List[RetrievedExample]]) -> Judgment:
        if hits is None:
            return Judgment(None, None, None, parse_path=PARSE_FAILED)
        with slots:
            return grade_item(record, cfg, template, client, demos, hits)

    with ThreadPoolExecutor(max_workers=2 * concurrency) as pool:
        return list(pool.map(one, records, neighbors))


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
    <= k_max, and is scored by label accuracy on the dev items. Deterministic
    given the seed and fixed model responses.
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

    client = ChatClient(cfg.model)  # one session for every trial
    candidates = [sig.task_description]
    if instructions:
        candidates += [i for i in instructions if i.strip()]
    elif cfg.proposal_model is not None:
        proposer = client if cfg.proposal_model == cfg.model else ChatClient(cfg.proposal_model)
        candidates += propose_instructions(sig.task_description, proposer)

    rng = random.Random(cfg.seed)
    pool = list(train)
    dev_golds = [r.gold_label for r in dev]
    dev_ids = {r.id for r in dev}

    best: Optional[Tuple[float, int, str, List[str]]] = None
    trace: List[Dict] = []
    for trial in range(budget):
        instruction = candidates[rng.randrange(len(candidates))]
        size = rng.randint(0, min(k_max, len(train)))
        demo_records = rng.sample(pool, size)
        demo_ids = [r.id for r in demo_records]
        assert not dev_ids.intersection(demo_ids), "demo drawn from dev"
        judgments = run_split(
            dev,
            cfg,
            signature=replace(sig, task_description=instruction),
            demo_records=demo_records,
            client=client,
        )

        scored = [
            (j.label, gold)
            for j, gold in zip(judgments, dev_golds)
            if j.parse_path != PARSE_FAILED
        ]
        accuracy = (
            sum(p == g for p, g in scored) / len(scored) if scored else None
        )
        trace.append(
            {
                "trial": trial,
                "instruction": instruction,
                "demo_record_ids": demo_ids,
                "dev_accuracy": accuracy,
            }
        )
        if accuracy is None:
            continue
        if best is None or accuracy > best[0]:
            best = (accuracy, trial, instruction, demo_ids)

    if best is None:
        raise BudgetExhaustedWithoutValidCandidate(
            f"all {budget} candidates failed on every dev item"
        )
    accuracy, _, instruction, demo_ids = best
    return OptimizedProgram(
        instruction=instruction,
        demo_record_ids=demo_ids,
        dev_accuracy=accuracy,
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
    Path(path).write_text(
        json.dumps(manifest, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def load_manifest(path) -> Dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
