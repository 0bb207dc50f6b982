"""Pinned bytes of `evaluate` and `report` output over fixed manifests.

Two manifests per split, one of each pair holding a failed item, so the
report table shows both the best (``*``) and second-best (``_``) marks and a
non-zero excluded count. Regenerate with
``PYTHONPATH=src python tests/test_report_golden.py`` after a deliberate change
to a report format.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from typing import Dict

import pytest

from ragrade.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden" / "report"
VARIANTS = {"plain": [], "text": ["--with-text-metrics"]}
EVALUATED = ("ua_zero", "ua_rag")


def _item(rid, qid, gold_score, gold_label, gold_feedback, judgment=None):
    """One manifest item; ``judgment`` is (score, label, feedback) or None for failed."""
    if judgment is None:
        judged = {"score": None, "label": None, "feedback": None, "parse_path": "failed"}
    else:
        score, label, feedback = judgment
        judged = {"score": score, "label": label, "feedback": feedback, "parse_path": "typed"}
    judged.update(raw_text=None, fallback_raw_text=None)
    return {
        "record_id": rid,
        "question_id": qid,
        "gold_score": gold_score,
        "gold_label": gold_label,
        "gold_feedback": gold_feedback,
        "judgment": judged,
    }


def _manifest(model, mode, k, split, items):
    return {
        "manifest_version": 1,
        "created_at": "2026-01-01T00:00:00+00:00",
        "config": {"model_id": model, "mode": mode, "k": k, "split": split},
        "index_fingerprint": None,
        "items": items,
        "ledger": {},
    }


_UA = [
    ("a1", "q1", 1.0, "correct", "The answer names both optional headers and their position."),
    ("a2", "q1", 0.0, "incorrect", "Headers do not replace the payload; revisit the layout."),
    ("a3", "q2", 0.5, "partially_correct", "A unique path is right, but tables are still needed."),
    ("a4", "q2", 1.0, "correct", "Correct: a spanning tree has no loops."),
]
_UQ = [
    ("b1", "q3", 1.0, "correct", "Correct: the window caps unacknowledged data in flight."),
    ("b2", "q3", 0.0, "incorrect", "The window limits the sender, not the receiver."),
    ("b3", "q3", 0.25, "partially_correct", "It limits data, but the limit is per connection."),
]

MANIFESTS = {
    "ua_zero": _manifest("m-alpha", "zero_shot", 0, "test_ua", [
        _item(*_UA[0], (1.0, "correct", "The answer names both optional headers.")),
        _item(*_UA[1], (0.5, "partially_correct", "Headers sit before the payload.")),
        _item(*_UA[2], None),
        _item(*_UA[3], (1.0, "correct", "Correct: a spanning tree has no loops.")),
    ]),
    "ua_rag": _manifest("m-beta", "rag", 3, "test_ua", [
        _item(*_UA[0], (0.75, "partially_correct", "Both headers are named; the position is vague.")),
        _item(*_UA[1], (0.0, "incorrect", "Headers do not replace the payload.")),
        _item(*_UA[2], (0.5, "partially_correct", "A unique path is right, but tables are needed.")),
        _item(*_UA[3], (0.0, "incorrect", "Trees can still loop.")),
    ]),
    "uq_zero": _manifest("m-alpha", "zero_shot", 0, "test_uq", [
        _item(*_UQ[0], (1.0, "correct", "Correct: the window caps data in flight.")),
        _item(*_UQ[1], (0.0, "incorrect", "The window limits the sender.")),
        _item(*_UQ[2], (0.5, "partially_correct", "It limits data per connection.")),
    ]),
    "uq_rag": _manifest("m-beta", "rag", 3, "test_uq", [
        _item(*_UQ[0], (1.0, "correct", "The window caps unacknowledged data in flight.")),
        _item(*_UQ[1], None),
        _item(*_UQ[2], (0.25, "partially_correct", "It limits data, but per connection.")),
    ]),
}


def render(work: Path, variant: str) -> Dict[str, bytes]:
    """Run evaluate and report over the fixed manifests; golden name -> bytes."""
    paths = {}
    for name, manifest in MANIFESTS.items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(manifest), encoding="utf-8")
    out_dir = work / variant
    flags = [*VARIANTS[variant], "--out-dir", str(out_dir)]

    summaries = []
    for name in EVALUATED:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["evaluate", str(paths[name]), *flags]) == 0
        summaries.append(stdout.getvalue().splitlines()[0])  # the next line names paths
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report", *map(str, paths.values()), *flags]) == 0

    rendered = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    rendered["evaluate.stdout"] = ("\n".join(summaries) + "\n").encode("utf-8")
    return rendered


def _golden(variant: str) -> Dict[str, bytes]:
    folder = GOLDEN_DIR / variant
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())} if folder.exists() else {}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_report_outputs_byte_stable(variant, tmp_path):
    golden = _golden(variant)
    assert golden, "golden files missing; regenerate with tests/test_report_golden.py"
    assert render(tmp_path, variant) == golden


def test_golden_table_shows_both_marks_and_an_exclusion():
    table = _golden("text")["report.txt"].decode("utf-8")
    assert "*" in table and "_0." in table
    assert json.loads(_golden("plain")["ua_zero.report.json"])["n_excluded"] == 1


if __name__ == "__main__":  # regenerate golden files after a deliberate change
    for variant in VARIANTS:
        with tempfile.TemporaryDirectory() as work:
            folder = GOLDEN_DIR / variant
            folder.mkdir(parents=True, exist_ok=True)
            for name, data in render(Path(work), variant).items():
                (folder / name).write_bytes(data)
                print(f"wrote {folder / name}")
