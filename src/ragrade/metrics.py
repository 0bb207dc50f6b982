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
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dataset import atomic_write
from .embedding import EmbedderConfig, TokenEmbeddingMatrix, embed_texts, tokenize
from .errors import (
    AllEmptyReferences,
    EmptyEvaluationSet,
    LengthMismatch,
    SchemaMismatch,
)
from .llmclient import Judgment

BLEU_SIGNATURE = "bleu-4|tok:punct-split-lower|smooth:exp|bp:closest-ratio"
MACRO_F1_CONVENTION = "labels present in golds or predictions"


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
    embedsim_f1: float
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
    # one embedding call for every text: rows do not depend on the batch
    embedded = embed_texts([*candidates, *references], cfg)
    split = len(candidates)
    sims = [_greedy_f1(c, r) for c, r in zip(embedded[:split], embedded[split:])]
    n = len(rouge_scores)
    return TextReport(
        bleu=bleu(candidates, references),
        rouge2_f1=sum(s.f1 for s in rouge_scores) / n,
        rouge2_precision=sum(s.precision for s in rouge_scores) / n,
        rouge2_recall=sum(s.recall for s in rouge_scores) / n,
        embedsim_f1=sum(sims) / n,
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
    """Greedy token-level cosine F1 over the embedder, in [0, 1]: empty text,
    or a greedy precision or recall at or below 0, scores 0."""
    return _greedy_f1(*embed_texts([candidate, reference], cfg))


def _greedy_f1(cand: TokenEmbeddingMatrix, ref: TokenEmbeddingMatrix) -> float:
    if cand.n_tokens == 0 or ref.n_tokens == 0:
        return 0.0
    sims = cand.vectors @ ref.vectors.T
    precision = float(np.mean(np.max(sims, axis=1)))
    recall = float(np.mean(np.max(sims, axis=0)))
    if precision <= 0.0 or recall <= 0.0:  # 2PR/(P+R) is unbounded there
        return 0.0
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# Report tables over run manifests
# ---------------------------------------------------------------------------

_IDENTITY = ("model", "mode", "k", "split")

# report column, its JSON key (a ScoreReport or TextReport field), text-table
# format, and whether a larger value is better (None: a count, never ranked)
_COLUMNS = (
    ("acc", "accuracy", "%.3f", True),
    ("f1", "macro_f1", "%.3f", True),
    ("rmse", "rmse", "%.3f", False),
    ("bleu", "bleu", "%.2f", True),
    ("rouge2", "rouge2_f1", "%.3f", True),
    ("embedsim", "embedsim_f1", "%.3f", True),
    ("n", "n_evaluated", "%d", None),
    ("excluded", "n_excluded", "%d", None),
)


@dataclass
class ReportRow:
    model: str
    mode: str
    k: int
    split: str
    scores: ScoreReport
    text: Optional[TextReport] = None

    def to_dict(self) -> Dict:
        """Evaluate's JSON: every metric under its field name, plus conventions."""
        payload = {name: getattr(self, name) for name in _IDENTITY}
        payload.update(asdict(self.scores), macro_f1_convention=MACRO_F1_CONVENTION)
        if self.text is not None:
            payload.update(asdict(self.text), bleu_signature=BLEU_SIGNATURE)
        return payload


def manifest_metrics(
    manifest: Dict,
    text_metrics: bool = False,
    embed_cfg: Optional[EmbedderConfig] = None,
) -> ReportRow:
    """Recompute the metric row for one run manifest."""
    if not isinstance(manifest, dict):
        raise SchemaMismatch("manifest is not a JSON object")
    items = manifest.get("items")
    config = manifest.get("config")
    if items is None or config is None:
        raise SchemaMismatch("manifest missing items/config sections")

    try:
        evaluable = [it for it in items if it["judgment"]["parse_path"] != "failed"]
        judgments = [Judgment(**it["judgment"]) for it in evaluable]
        for j in judgments:
            if isinstance(j.score, bool) or not isinstance(j.score, (int, float)):
                raise TypeError(f"judgment score {j.score!r} is not a number")
            if not isinstance(j.label, str):
                raise TypeError(f"judgment label {j.label!r} is not a string")
        golds = [(it["gold_label"], float(it["gold_score"])) for it in evaluable]
        refs = [it["gold_feedback"] or "" for it in evaluable] if text_metrics else None
        mode = config["mode"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"malformed manifest item or config: {exc!r}") from exc
    excluded = len(items) - len(evaluable)
    if not evaluable:
        raise EmptyEvaluationSet("manifest has no evaluable items")

    text = None
    if text_metrics:
        cands = [j.feedback or "" for j in judgments]
        text = text_metrics_report(cands, refs, embed_cfg)
    return ReportRow(
        model=config.get("model_id", "-"),
        mode=mode,
        k=int(config.get("k", 0)),
        split=config.get("split", "-"),
        scores=scoring_metrics(judgments, golds, n_excluded=excluded),
        text=text,
    )


def build_report(
    manifests: Sequence[Dict],
    text_metrics: bool = False,
    embed_cfg: Optional[EmbedderConfig] = None,
) -> List[ReportRow]:
    if not manifests:
        raise SchemaMismatch("need at least one manifest")
    # a manifest that is not an object is left to manifest_metrics to reject
    versions = {m.get("manifest_version") for m in manifests if isinstance(m, dict)}
    if len(versions) > 1:
        raise SchemaMismatch(f"mixed manifest versions: {sorted(map(str, versions))}")
    return [manifest_metrics(m, text_metrics, embed_cfg) for m in manifests]


def report_to_csv(rows: Sequence[ReportRow]) -> str:
    keys = _IDENTITY + tuple(key for _, key, _, _ in _COLUMNS)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_IDENTITY + tuple(column for column, _, _, _ in _COLUMNS))
    for row in rows:
        values = row.to_dict()
        # csv writes None as "" and a float as its repr
        writer.writerow([values.get(key) for key in keys])
    return buf.getvalue()


def report_line(row: ReportRow) -> str:
    """One-line summary: identity, the scoring columns, then any text columns."""
    parts = [row.model, f"mode={row.mode}", f"k={row.k}", f"split={row.split}"]
    for report in (row.scores, row.text):
        if report is not None:
            values = asdict(report)
            parts += [f"{c}={fmt % values[key]}" for c, key, fmt, _ in _COLUMNS if key in values]
    return " ".join(parts)


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
    values = [row.to_dict() for row in rows]
    columns = [c for c in _COLUMNS if any(c[1] in v for v in values)]

    splits = sorted({r.split for r in rows})
    # rank values per (split, column) to mark best / second best
    marks: Dict[Tuple[str, str, int], Tuple[bool, bool]] = {}
    for split in splits:
        for _, key, _, higher in columns:
            if higher is None:
                continue
            scored = [
                (i, v[key])
                for i, v in enumerate(values)
                if v["split"] == split and v.get(key) is not None
            ]
            scored.sort(key=lambda p: p[1], reverse=higher)
            for pos, (i, _) in enumerate(scored):
                marks[(split, key, i)] = (pos == 0, pos == 1)

    header = list(_IDENTITY) + [column for column, _, _, _ in columns]
    table = [header]
    for split in splits:
        for i, v in enumerate(values):
            if v["split"] != split:
                continue
            cells = [str(v[name]) for name in _IDENTITY]
            for _, key, fmt, _ in columns:
                best, second = marks.get((split, key, i), (False, False))
                cells.append(_mark(v.get(key), fmt, best, second))
            table.append(cells)

    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(r)).rstrip() for r in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def write_report_files(rows: Sequence[ReportRow], out_dir, stem: str) -> Tuple[str, str]:
    from pathlib import Path

    out_dir = Path(out_dir)
    csv_path = out_dir / f"{stem}.csv"
    txt_path = out_dir / f"{stem}.txt"
    with atomic_write(csv_path) as fh:
        fh.write(report_to_csv(rows).encode("utf-8"))
    with atomic_write(txt_path) as fh:
        fh.write((report_to_text(rows) + f"\nbleu signature: {BLEU_SIGNATURE}\n").encode("utf-8"))
    return str(csv_path), str(txt_path)
