"""Scoring and feedback-text metrics, plus report tables over run manifests.

Scoring metrics: label accuracy, macro-averaged F1 (over labels present in
golds or predictions), and RMSE of the numeric score. Feedback metrics:
corpus-level smoothed BLEU-4, ROUGE-2, and a greedy token-cosine F1 computed
over the pluggable embedder (reported as "embedsim"; not comparable to
published BERTScore numbers).
"""

import csv
import io
import math
from collections import Counter, namedtuple
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .embedding import EmbedderConfig, embed_tokens, tokenize
from .errors import (
    AllEmptyReferences,
    EmptyEvaluationSet,
    LengthMismatch,
    SchemaMismatch,
)

BLEU_SIGNATURE = "bleu-4|tok:punct-split-lower|smooth:exp|bp:closest-ratio"


@dataclass
class ScoreReport:
    accuracy: float
    macro_f1: float
    rmse: float
    n_evaluated: int
    n_excluded: int


@dataclass
class TextReport:
    bleu: float  # 0..100
    rouge2_f1: float
    embed_sim_f1: float
    rouge2_precision: float = 0.0
    rouge2_recall: float = 0.0


def text_metrics_report(
    candidates: Sequence[str],
    references: Sequence[str],
    cfg: Optional["EmbedderConfig"] = None,
) -> TextReport:
    """Corpus BLEU plus mean per-pair ROUGE-2 and embedding-similarity F1."""
    cfg = cfg or EmbedderConfig()
    rouge_scores = [rouge2(c, r) for c, r in zip(candidates, references)]
    sims = [embed_sim_f1(c, r, cfg) for c, r in zip(candidates, references)]
    n = len(rouge_scores)
    return TextReport(
        bleu=bleu(candidates, references),
        rouge2_f1=sum(s.f1 for s in rouge_scores) / n,
        rouge2_precision=sum(s.precision for s in rouge_scores) / n,
        rouge2_recall=sum(s.recall for s in rouge_scores) / n,
        embed_sim_f1=sum(sims) / n,
    )


Rouge2 = namedtuple("Rouge2", ["precision", "recall", "f1"])


def scoring_metrics(
    judgments: Sequence, golds: Sequence[Tuple[str, float]], n_excluded: int = 0
) -> ScoreReport:
    """Accuracy, macro-F1, and RMSE for aligned (judgment, gold) lists.

    ``golds`` holds (label, score) pairs. Failed judgments must already be
    filtered out and counted in ``n_excluded``.
    """
    if len(judgments) != len(golds):
        raise LengthMismatch(f"{len(judgments)} judgments vs {len(golds)} golds")
    if not judgments:
        raise EmptyEvaluationSet("no evaluable judgments")

    pred_labels = [j.label for j in judgments]
    gold_labels = [g[0] for g in golds]
    accuracy = sum(p == g for p, g in zip(pred_labels, gold_labels)) / len(golds)

    labels = sorted(set(gold_labels) | set(pred_labels))
    f1s = []
    for label in labels:
        tp = sum(p == label and g == label for p, g in zip(pred_labels, gold_labels))
        fp = sum(p == label and g != label for p, g in zip(pred_labels, gold_labels))
        fn = sum(p != label and g == label for p, g in zip(pred_labels, gold_labels))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    macro_f1 = sum(f1s) / len(f1s)

    sq_errors = [(j.score - g[1]) ** 2 for j, g in zip(judgments, golds)]
    rmse = math.sqrt(sum(sq_errors) / len(sq_errors))

    return ScoreReport(
        accuracy=accuracy,
        macro_f1=macro_f1,
        rmse=rmse,
        n_evaluated=len(judgments),
        n_excluded=n_excluded,
    )


def _ngram_counts(tokens: List[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidates: Sequence[str], references: Sequence[str]) -> float:
    """Corpus-level BLEU-4 on a 0..100 scale.

    Modified n-gram precisions are pooled over the corpus; a zero match count
    at order n is smoothed to 1/(2^z * total_n) where z counts the zero orders
    so far; brevity penalty exp(1 - r/c) applies when the candidate corpus is
    shorter than the reference corpus.
    """
    if len(candidates) != len(references):
        raise LengthMismatch(f"{len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise LengthMismatch("empty corpus")

    correct = [0] * 5
    total = [0] * 5
    cand_len = 0
    ref_len = 0
    any_ref_tokens = False
    for cand, ref in zip(candidates, references):
        cand_tokens = tokenize(cand)
        ref_tokens = tokenize(ref)
        any_ref_tokens = any_ref_tokens or bool(ref_tokens)
        cand_len += len(cand_tokens)
        ref_len += len(ref_tokens)
        for n in range(1, 5):
            cand_grams = _ngram_counts(cand_tokens, n)
            ref_grams = _ngram_counts(ref_tokens, n)
            total[n] += sum(cand_grams.values())
            correct[n] += sum(min(c, ref_grams.get(g, 0)) for g, c in cand_grams.items())
    if not any_ref_tokens:
        raise AllEmptyReferences("every reference tokenized to nothing")
    if cand_len == 0:
        return 0.0

    smooth = 1.0
    log_sum = 0.0
    for n in range(1, 5):
        if total[n] == 0:
            return 0.0  # candidate corpus shorter than n tokens everywhere
        if correct[n] == 0:
            smooth *= 2.0
            precision = 1.0 / (smooth * total[n])
        else:
            precision = correct[n] / total[n]
        log_sum += math.log(precision)

    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * bp * math.exp(log_sum / 4.0)


def rouge2(candidate: str, reference: str) -> Rouge2:
    """Bigram-overlap precision/recall/F1; degenerate inputs yield zeros."""
    cand_grams = _ngram_counts(tokenize(candidate), 2)
    ref_grams = _ngram_counts(tokenize(reference), 2)
    if not cand_grams or not ref_grams:
        return Rouge2(0.0, 0.0, 0.0)
    overlap = sum(min(c, ref_grams.get(g, 0)) for g, c in cand_grams.items())
    precision = overlap / sum(cand_grams.values())
    recall = overlap / sum(ref_grams.values())
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Rouge2(precision, recall, f1)


def embed_sim_f1(candidate: str, reference: str, cfg: EmbedderConfig) -> float:
    """Greedy token-level cosine F1 over the embedder; empty text scores 0."""
    cand = embed_tokens(candidate, cfg)
    ref = embed_tokens(reference, cfg)
    if cand.n_tokens == 0 or ref.n_tokens == 0:
        return 0.0
    sims = cand.vectors @ ref.vectors.T
    precision = float(np.mean(np.max(sims, axis=1)))
    recall = float(np.mean(np.max(sims, axis=0)))
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# Report tables over run manifests
# ---------------------------------------------------------------------------

_CSV_FIELDS = (
    "model",
    "mode",
    "k",
    "split",
    "acc",
    "f1",
    "rmse",
    "bleu",
    "rouge2",
    "embedsim",
    "n",
    "excluded",
)

# metric column -> (text-table format, whether a larger value is better)
_METRIC_COLUMNS = {
    "acc": ("%.3f", True),
    "f1": ("%.3f", True),
    "rmse": ("%.3f", False),
    "bleu": ("%.2f", True),
    "rouge2": ("%.3f", True),
    "embedsim": ("%.3f", True),
}

_JudgmentView = namedtuple("_JudgmentView", ["label", "score"])


@dataclass
class ReportRow:
    model: str
    mode: str
    k: int
    split: str
    acc: float
    f1: float
    rmse: float
    n: int
    excluded: int
    bleu: Optional[float] = None
    rouge2: Optional[float] = None
    embedsim: Optional[float] = None
    rouge2_precision: Optional[float] = None
    rouge2_recall: Optional[float] = None


def manifest_metrics(
    manifest: Dict,
    text_metrics: bool = False,
    embed_cfg: Optional[EmbedderConfig] = None,
) -> ReportRow:
    """Recompute the metric row for one run manifest."""
    items = manifest.get("items")
    config = manifest.get("config")
    if items is None or config is None:
        raise SchemaMismatch("manifest missing items/config sections")

    evaluable = [it for it in items if it["judgment"]["parse_path"] != "failed"]
    excluded = len(items) - len(evaluable)
    if not evaluable:
        raise EmptyEvaluationSet("manifest has no evaluable items")

    judgments = [
        _JudgmentView(it["judgment"]["label"], float(it["judgment"]["score"]))
        for it in evaluable
    ]
    golds = [(it["gold_label"], float(it["gold_score"])) for it in evaluable]
    score_report = scoring_metrics(judgments, golds, n_excluded=excluded)

    row = ReportRow(
        model=config.get("model_id", "-"),
        mode=config["mode"],
        k=int(config.get("k", 0)),
        split=config.get("split", "-"),
        acc=score_report.accuracy,
        f1=score_report.macro_f1,
        rmse=score_report.rmse,
        n=score_report.n_evaluated,
        excluded=score_report.n_excluded,
    )
    if text_metrics:
        cands = [it["judgment"]["feedback"] or "" for it in evaluable]
        refs = [it["gold_feedback"] or "" for it in evaluable]
        text = text_metrics_report(cands, refs, embed_cfg)
        row.bleu = text.bleu
        row.rouge2 = text.rouge2_f1
        row.rouge2_precision = text.rouge2_precision
        row.rouge2_recall = text.rouge2_recall
        row.embedsim = text.embed_sim_f1
    return row


def build_report(
    manifests: Sequence[Dict],
    text_metrics: bool = False,
    embed_cfg: Optional[EmbedderConfig] = None,
) -> List[ReportRow]:
    if not manifests:
        raise SchemaMismatch("need at least one manifest")
    versions = {m.get("manifest_version") for m in manifests}
    if len(versions) != 1:
        raise SchemaMismatch(f"mixed manifest versions: {sorted(map(str, versions))}")
    return [manifest_metrics(m, text_metrics, embed_cfg) for m in manifests]


def report_to_csv(rows: Sequence[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(_CSV_FIELDS), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        # csv writes None as "" and a float as its repr
        writer.writerow({name: getattr(row, name) for name in _CSV_FIELDS})
    return buf.getvalue()


def _mark(value: Optional[float], fmt: str, best: bool, second: bool) -> str:
    if value is None:
        return "-"
    text = fmt % value
    if best:
        return f"*{text}*"
    if second:
        return f"_{text}_"
    return text


def report_to_text(rows: Sequence[ReportRow]) -> str:
    """Aligned table grouped by split; best value per column starred, second underlined."""
    metrics = ["acc", "f1", "rmse"]
    if any(r.bleu is not None for r in rows):
        metrics += ["bleu", "rouge2", "embedsim"]

    splits = sorted({r.split for r in rows})
    # rank values per (split, metric) to mark best / second best
    marks: Dict[Tuple[str, str, int], Tuple[bool, bool]] = {}
    for split in splits:
        for metric in metrics:
            scored = [
                (i, getattr(r, metric))
                for i, r in enumerate(rows)
                if r.split == split and getattr(r, metric) is not None
            ]
            scored.sort(key=lambda p: p[1], reverse=_METRIC_COLUMNS[metric][1])
            for pos, (i, _) in enumerate(scored):
                marks[(split, metric, i)] = (pos == 0, pos == 1)

    header = ["model", "mode", "k", "split"] + metrics + ["n", "excluded"]
    table = [header]
    for split in splits:
        for i, row in enumerate(rows):
            if row.split != split:
                continue
            cells = [row.model, row.mode, str(row.k), row.split]
            for metric in metrics:
                best, second = marks.get((split, metric, i), (False, False))
                cells.append(_mark(getattr(row, metric), _METRIC_COLUMNS[metric][0], best, second))
            cells += [str(row.n), str(row.excluded)]
            table.append(cells)

    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(r)).rstrip() for r in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def write_report_files(rows: Sequence[ReportRow], out_dir, stem: str) -> Tuple[str, str]:
    from pathlib import Path

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    txt_path = out_dir / f"{stem}.txt"
    csv_path.write_text(report_to_csv(rows), encoding="utf-8")
    txt_path.write_text(
        report_to_text(rows) + f"\nbleu signature: {BLEU_SIGNATURE}\n", encoding="utf-8"
    )
    return str(csv_path), str(txt_path)


def export_manifest_report(row: ReportRow) -> Dict:
    """JSON-friendly dict of one report row, with the pinned BLEU signature."""
    payload = {
        "model": row.model,
        "mode": row.mode,
        "k": row.k,
        "split": row.split,
        "accuracy": row.acc,
        "macro_f1": row.f1,
        "rmse": row.rmse,
        "n_evaluated": row.n,
        "n_excluded": row.excluded,
        "macro_f1_convention": "labels present in golds or predictions",
    }
    if row.bleu is not None:
        payload.update(
            {
                "bleu": row.bleu,
                "bleu_signature": BLEU_SIGNATURE,
                "rouge2_f1": row.rouge2,
                "rouge2_precision": row.rouge2_precision,
                "rouge2_recall": row.rouge2_recall,
                "embedsim_f1": row.embedsim,
            }
        )
    return payload
