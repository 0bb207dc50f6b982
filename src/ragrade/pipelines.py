"""Grading pipelines: zero-shot, retrieval-augmented k-shot, majority vote,
and offline instruction/demo search.

Every run over a split produces one judgment per record (input order
preserved regardless of execution order) plus an error ledger, and can be
serialized into a manifest that is sufficient to reproduce and re-evaluate
the run.
"""

import json
import logging
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .dataset import AnswerRecord
from .errors import (
    BackendUnavailable,
    BudgetExhaustedWithoutValidCandidate,
    EmptyMatrix,
    GoldLeakage,
    RagradeError,
    TransportError,
)
from .llmclient import (
    ChatClient,
    ErrorLedger,
    Judgment,
    ModelConfig,
    PARSE_FAILED,
    PARSE_TYPED,
    judge,
)
from .promptkit import (
    CompiledPrompt,
    Demo,
    PromptTemplate,
    STYLE_PREDICT,
    Signature,
    compile_signature,
    demo_from_record,
    render_prompt,
)
from .retrieval import MaxSimIndex, RetrievedExample, same_question_ids, top_k
from .votegrader import vote_classify

logger = logging.getLogger(__name__)

MANIFEST_VERSION = 1

MODE_ZERO_SHOT = "zero_shot"
MODE_RAG = "rag"
MODE_VOTE = "votegrader"
MODE_OPTIMIZED = "optimized"
_MODES = (MODE_ZERO_SHOT, MODE_RAG, MODE_VOTE, MODE_OPTIMIZED)


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

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "OptimizedProgram":
        return cls(
            instruction=data["instruction"],
            demo_record_ids=list(data["demo_record_ids"]),
            dev_accuracy=float(data["dev_accuracy"]),
            trace=list(data.get("trace", [])),
        )


def _retrieve_neighbors(
    record: AnswerRecord, cfg: PipelineConfig, index: MaxSimIndex
) -> List[RetrievedExample]:
    exclude: Set[str] = {record.id}
    if cfg.exclude_same_question:
        exclude |= same_question_ids(index, record.question_id)
    return top_k(index, record.student_answer, cfg.k, exclude=exclude)


def _build_demos(
    record: AnswerRecord, cfg: PipelineConfig, index: MaxSimIndex, sig: Signature
) -> List[Demo]:
    neighbors = _retrieve_neighbors(record, cfg, index)
    demos = [demo_from_record(n.record, sig) for n in neighbors]
    for demo in demos:
        if demo.source_record_id == record.id:
            raise GoldLeakage(f"live record {record.id} selected as its own demo")
    return demos


def _prompt_for(
    record: AnswerRecord,
    template: PromptTemplate,
    demos: Sequence[Demo],
) -> CompiledPrompt:
    inputs = {
        "question": record.question,
        "reference_answer": record.reference_answer,
        "student_answer": record.student_answer,
    }
    return render_prompt(template, inputs, demos)


def grade_item(
    record: AnswerRecord,
    cfg: PipelineConfig,
    index: Optional[MaxSimIndex] = None,
    *,
    signature: Optional[Signature] = None,
    template: Optional[PromptTemplate] = None,
    client: Optional[ChatClient] = None,
    ledger: Optional[ErrorLedger] = None,
    fixed_demos: Optional[Sequence[Demo]] = None,
) -> Judgment:
    """Grade one record under the configured pipeline mode.

    The record's gold fields are never placed in the live item; demos carry
    only other records' gold outputs.
    """
    cfg.validate()
    sig = signature or Signature()
    ledger = ledger if ledger is not None else ErrorLedger()
    key = (cfg.model_id, cfg.mode, cfg.k)

    if cfg.mode == MODE_VOTE:
        if index is None:
            raise ValueError("votegrader mode requires an index")
        ledger.record_call(key)
        try:
            vote = vote_classify(_retrieve_neighbors(record, cfg, index))
        except RagradeError as exc:
            logger.warning("vote failed for %s: %s", record.id, exc)
            ledger.record_typed_failure(key)
            ledger.record_hard_failure(key)
            return Judgment(None, None, None, parse_path=PARSE_FAILED)
        return Judgment(
            score=vote.score, label=vote.label, feedback="", parse_path=PARSE_TYPED
        )

    if cfg.mode == MODE_RAG:
        if index is None:
            raise ValueError("rag mode requires an index")
        try:
            demos = _build_demos(record, cfg, index, sig)
        except EmptyMatrix:
            # no-response answers cannot be embedded; grade them zero-shot style
            demos = []
    elif cfg.mode == MODE_OPTIMIZED:
        demos = list(fixed_demos or [])
    else:
        demos = []

    template = template or compile_signature(sig, cfg.style)
    client = client or ChatClient(cfg.model)
    prompt = _prompt_for(record, template, demos)
    return judge(prompt, client, ledger, key)


def run_split(
    records: Sequence[AnswerRecord],
    cfg: PipelineConfig,
    index: Optional[MaxSimIndex] = None,
    *,
    signature: Optional[Signature] = None,
    program: Optional[OptimizedProgram] = None,
    demo_pool: Optional[Sequence[AnswerRecord]] = None,
) -> Tuple[List[Judgment], ErrorLedger]:
    """Grade a whole split view; output order equals input order."""
    cfg.validate()
    sig = signature or Signature()
    ledger = ErrorLedger()

    fixed_demos: Optional[List[Demo]] = None
    if cfg.mode == MODE_OPTIMIZED:
        if program is None or demo_pool is None:
            raise ValueError("optimized mode requires a program and its demo pool")
        sig = Signature(
            task_description=program.instruction,
            scoring_criteria=sig.scoring_criteria,
            input_fields=sig.input_fields,
            output_fields=sig.output_fields,
        )
        by_id = {r.id: r for r in demo_pool}
        fixed_demos = [demo_from_record(by_id[rid], sig) for rid in program.demo_record_ids]

    template = compile_signature(sig, cfg.style) if cfg.mode != MODE_VOTE else None
    client = ChatClient(cfg.model) if cfg.model is not None else None

    key = (cfg.model_id, cfg.mode, cfg.k)

    def one(record: AnswerRecord) -> Judgment:
        try:
            return grade_item(
                record,
                cfg,
                index,
                signature=sig,
                template=template,
                client=client,
                ledger=ledger,
                fixed_demos=fixed_demos,
            )
        except (TransportError, BackendUnavailable) as exc:
            # judge() absorbs client errors per item; this guards the
            # retrieval path (e.g. embedding backend down mid-run)
            logger.warning("item %s failed: %s", record.id, exc)
            ledger.record_call(key)
            ledger.record_typed_failure(key)
            ledger.record_hard_failure(key)
            return Judgment(None, None, None, parse_path=PARSE_FAILED)

    # the only bound on requests in flight, chat and embedding alike
    workers = cfg.model.concurrency if cfg.model else 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        judgments = list(pool.map(one, records))

    ledger.check_conservation()
    return judgments, ledger


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
    if not dev:
        raise ValueError("dev set must be non-empty")
    if not train:
        raise ValueError("train pool must be non-empty")
    cfg.validate()

    candidates = [sig.task_description]
    if instructions:
        candidates += [i for i in instructions if i.strip()]
    elif cfg.proposal_model is not None:
        candidates += propose_instructions(
            sig.task_description, ChatClient(cfg.proposal_model)
        )

    rng = random.Random(cfg.seed)
    dev_golds = [r.gold_label for r in dev]
    dev_ids = {r.id for r in dev}

    best: Optional[Tuple[float, int, str, List[str]]] = None
    trace: List[Dict] = []
    for trial in range(budget):
        instruction = candidates[rng.randrange(len(candidates))]
        size = rng.randint(0, min(k_max, len(train)))
        demo_records = rng.sample(list(train), size)
        assert not (dev_ids & {r.id for r in demo_records}), "demo drawn from dev"

        trial_cfg = PipelineConfig(
            mode=MODE_OPTIMIZED,
            k=size,
            style=cfg.style,
            model=cfg.model,
            seed=cfg.seed,
        )
        program = OptimizedProgram(
            instruction=instruction,
            demo_record_ids=[r.id for r in demo_records],
            dev_accuracy=0.0,
        )
        judgments, _ = run_split(
            dev, trial_cfg, signature=sig, program=program, demo_pool=list(train)
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
                "demo_record_ids": [r.id for r in demo_records],
                "dev_accuracy": accuracy,
            }
        )
        if accuracy is None:
            continue
        if best is None or accuracy > best[0]:
            best = (accuracy, trial, instruction, [r.id for r in demo_records])

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
    ledger: ErrorLedger,
    index_fingerprint: Optional[str] = None,
    created_at: Optional[str] = None,
) -> Dict:
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
        "ledger": ledger.to_dict(),
    }


def write_manifest(manifest: Dict, path) -> None:
    Path(path).write_text(
        json.dumps(manifest, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def load_manifest(path) -> Dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
