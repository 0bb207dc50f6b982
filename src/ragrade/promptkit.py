"""Declarative prompt compilation for grading tasks.

A signature lists input and output fields instead of a hand-written prompt;
compiling it produces a ``PromptTemplate`` with deterministic system text,
and rendering an item fills in the template's user text. Few-shot demos
render before the live item in retrieval-rank order and show their gold
outputs in the same shape the model is asked to produce. Every prompt also
carries a relaxed plain-text variant used by the fallback predictor.
``judgment_fields`` alone decides, by type, which output fields hold a
judgment's score, label and feedback.
"""

import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .dataset import AnswerRecord, LABELS, read_json
from .errors import RagradeError

STYLE_PREDICT = "predict"
STYLE_CHAIN_OF_THOUGHT = "chain_of_thought"
STYLES = (STYLE_PREDICT, STYLE_CHAIN_OF_THOUGHT)

TYPE_REAL01 = "real01"
TYPE_LABEL3 = "label3"
TYPE_FREETEXT = "freetext"
_TYPE_TAGS = (TYPE_REAL01, TYPE_LABEL3, TYPE_FREETEXT)

DEFAULT_TASK_DESCRIPTION = "Score a student answer and generate feedback."
DEFAULT_SCORING_CRITERIA = (
    "A fully correct answer scores 1.0 and is labelled correct. "
    "An answer that is wrong or missing scores 0.0 and is labelled incorrect. "
    "An answer that covers part of the reference answer scores strictly between "
    "0.0 and 1.0 and is labelled partially_correct."
)


@dataclass(frozen=True)
class Signature:
    task_description: str = DEFAULT_TASK_DESCRIPTION
    scoring_criteria: str = DEFAULT_SCORING_CRITERIA
    input_fields: Tuple[Tuple[str, str], ...] = (
        ("question", "the question posed to the student"),
        ("reference_answer", "the reference answer the grading is based on"),
        ("student_answer", "the student answer to grade"),
    )
    output_fields: Tuple[Tuple[str, str, str], ...] = (
        ("score", TYPE_REAL01, "correctness score between 0.0 and 1.0"),
        ("label", TYPE_LABEL3, "categorical grade"),
        ("feedback", TYPE_FREETEXT, "elaborated feedback explaining the score"),
    )

    def validate(self) -> None:
        if not self.input_fields or not self.output_fields:
            raise RagradeError("need at least one input and one output field")
        names = [n for n, _ in self.input_fields] + [n for n, _, _ in self.output_fields]
        if len(names) != len(set(names)):
            raise RagradeError(f"duplicate field names in {names}")
        for _, tag, _ in self.output_fields:
            if tag not in _TYPE_TAGS:
                raise ValueError(f"unknown output type tag {tag!r}")
        judgment_fields(self.output_fields)

    def input_names(self) -> List[str]:
        return [n for n, _ in self.input_fields]

    def output_names(self) -> List[str]:
        return [n for n, _, _ in self.output_fields]


def signature_from_dict(data: Dict) -> Signature:
    """Build a signature from a JSON-style dict (see README for the schema); a
    malformed one is refused with a ``ValueError`` that names its key."""

    def fields(key, *strings):
        entries = data.get(key)
        if not isinstance(entries, list) or not all(
            isinstance(f, dict) and all(isinstance(f.get(k), str) for k in strings)
            and isinstance(f.get("description", ""), str)
            for f in entries
        ):
            raise ValueError(f"signature {key!r} must be a list of objects, each with a "
                             f"string {' and '.join(map(repr, strings))} and, optionally, "
                             "a string 'description'")
        return entries

    for key in ("task_description", "scoring_criteria"):
        if not isinstance(data.get(key, ""), str):
            raise ValueError(f"signature {key!r} must be a string, not {data[key]!r}")
    sig = Signature(
        task_description=data.get("task_description", DEFAULT_TASK_DESCRIPTION),
        scoring_criteria=data.get("scoring_criteria", DEFAULT_SCORING_CRITERIA),
        input_fields=tuple(
            (f["name"], f.get("description", "")) for f in fields("input_fields", "name")
        ),
        output_fields=tuple(
            (f["name"], f["type"], f.get("description", ""))
            for f in fields("output_fields", "name", "type")
        ),
    )
    sig.validate()
    return sig


def load_signature(path) -> Signature:
    return signature_from_dict(read_json(path, "signature file"))


@dataclass(frozen=True)
class Demo:
    inputs: Tuple[Tuple[str, str], ...]  # (field, text) in signature order
    outputs: Tuple[Tuple[str, str], ...]
    source_record_id: str

    def output_map(self) -> Dict[str, str]:
        return dict(self.outputs)


def record_inputs(record: AnswerRecord) -> Dict[str, str]:
    """A record's values for the input fields a signature may name; never its
    gold fields."""
    return {
        "question": record.question,
        "reference_answer": record.reference_answer,
        "student_answer": record.student_answer,
    }


def demo_from_record(record: AnswerRecord, sig: Optional[Signature] = None) -> Demo:
    """Turn a retrieved training record into a fully worked few-shot example:
    the signature's score, label and feedback fields (``judgment_fields``)
    show the record's gold values."""
    sig = sig or Signature()
    score, label, feedback = judgment_fields(sig.output_fields)
    inputs = record_inputs(record)
    gold = {
        score: repr(float(record.gold_score)),
        label: record.gold_label,
        feedback: record.gold_feedback,
    }
    try:
        return Demo(
            inputs=tuple((name, inputs[name]) for name in sig.input_names()),
            outputs=tuple((name, gold[name]) for name in sig.output_names()),
            source_record_id=record.id,
        )
    except KeyError as exc:
        raise RagradeError(f"record has no value for field {exc}") from exc


@dataclass(frozen=True)
class PromptTemplate:
    """A compiled signature; ``render_prompt`` fills in the two user texts."""

    signature: Signature
    system_text: str
    relaxed_system_text: str
    output_schema: Tuple[Tuple[str, str], ...]  # (field, type tag), prompt order
    user_text: str = ""
    relaxed_user_text: str = ""


_REASONING_FIELD = (
    "reasoning",
    TYPE_FREETEXT,
    "step-by-step reasoning about the grading, written before the other fields",
)


def judgment_fields(schema) -> Tuple[str, str, str]:
    """The names of a judgment's score, label and feedback fields: the first
    ``real01``, ``label3`` and ``freetext`` field of ``schema``, whose entries
    are (name, type tag, ...), the reasoning field aside."""
    first: Dict[str, str] = {}
    for name, tag, *_ in schema:
        if (name, tag) != _REASONING_FIELD[:2]:
            first.setdefault(tag, name)
    missing = [tag for tag in _TYPE_TAGS if tag not in first]
    if missing:
        raise ValueError(
            f"the output fields have no {' or '.join(missing)} field; a judgment needs "
            f"a score ({TYPE_REAL01}), a label ({TYPE_LABEL3}) and feedback ({TYPE_FREETEXT})"
        )
    return first[TYPE_REAL01], first[TYPE_LABEL3], first[TYPE_FREETEXT]


def _type_hint(tag: str) -> str:
    if tag == TYPE_REAL01:
        return "a number between 0.0 and 1.0 inclusive"
    if tag == TYPE_LABEL3:
        return "one of " + ", ".join(f'"{label}"' for label in LABELS)
    return "a string"


def _schema_fields(sig: Signature, style: str) -> Tuple[Tuple[str, str, str], ...]:
    fields = sig.output_fields
    if style == STYLE_CHAIN_OF_THOUGHT:
        fields = (_REASONING_FIELD,) + fields
    return fields


def compile_signature(sig: Signature, style: str = STYLE_PREDICT) -> PromptTemplate:
    """Expand a signature into deterministic prompt text for the chosen style."""
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}")
    sig.validate()
    schema = _schema_fields(sig, style)

    lines = [sig.task_description, "", "Scoring criteria: " + sig.scoring_criteria, ""]
    lines.append("Input fields:")
    for name, desc in sig.input_fields:
        lines.append(f"- {name}: {desc}")
    lines.append("")
    lines.append("Output fields:")
    for name, tag, desc in schema:
        lines.append(f"- {name} ({_type_hint(tag)}): {desc}")
    lines.append("")

    key_list = ", ".join(f'"{name}"' for name, _, _ in schema)
    strict = list(lines)
    strict.append(
        "Respond with exactly one JSON object and no other text. "
        f"The object must contain exactly these keys, in this order: {key_list}."
    )

    relaxed = list(lines)
    relaxed.append(
        "Respond in plain text with exactly one labelled line per output field, "
        "in this order, and nothing else:"
    )
    for name, tag, _ in schema:
        relaxed.append(f"{_label_word(name)}: <{_type_hint(tag)}>")

    return PromptTemplate(
        signature=sig,
        system_text="\n".join(strict),
        relaxed_system_text="\n".join(relaxed),
        output_schema=tuple((name, tag) for name, tag, _ in schema),
    )


def _label_word(name: str) -> str:
    return name[:1].upper() + name[1:]


def _render_output_json(schema, output_map: Dict[str, str]) -> str:
    parts = []
    for name, tag in schema:
        if name not in output_map:
            continue  # demos never carry the style-injected reasoning field
        value = output_map[name]
        if tag == TYPE_REAL01:
            parts.append(f'"{name}": {float(value)!r}')
        else:
            parts.append(f'"{name}": {json.dumps(value, ensure_ascii=False)}')
    return "{" + ", ".join(parts) + "}"


def _render_output_relaxed(schema, output_map: Dict[str, str]) -> List[str]:
    lines = []
    for name, _ in schema:
        if name in output_map:
            lines.append(f"{_label_word(name)}: {output_map[name]}")
    return lines


def render_prompt(
    template: PromptTemplate,
    inputs: Dict[str, str],
    demos: Sequence[Demo] = (),
) -> PromptTemplate:
    """The template with the live item (and any demos) rendered as its user texts.

    Pure function: identical arguments produce byte-identical prompts.
    """
    sig = template.signature
    for name in sig.input_names():
        if name not in inputs:
            raise RagradeError(f"missing input field {name!r}")

    expected_inputs = tuple(sig.input_names())
    expected_outputs = tuple(sig.output_names())
    for demo in demos:
        if tuple(n for n, _ in demo.inputs) != expected_inputs:
            raise RagradeError(
                f"demo inputs {[n for n, _ in demo.inputs]} != signature {list(expected_inputs)}"
            )
        if tuple(n for n, _ in demo.outputs) != expected_outputs:
            raise RagradeError(
                f"demo outputs {[n for n, _ in demo.outputs]} != signature {list(expected_outputs)}"
            )

    strict_parts: List[str] = []
    relaxed_parts: List[str] = []
    for i, demo in enumerate(demos, start=1):
        body = [f"Example {i}"]
        for name, value in demo.inputs:
            body.append(f"{name}: {value}")
        strict_parts.append(
            "\n".join(body + ["output: " + _render_output_json(template.output_schema, demo.output_map())])
        )
        relaxed_parts.append(
            "\n".join(body + _render_output_relaxed(template.output_schema, demo.output_map()))
        )

    live = ["Grade the following item."]
    for name in sig.input_names():
        live.append(f"{name}: {inputs[name]}")
    strict_parts.append("\n".join(live + ["output:"]))
    relaxed_parts.append("\n".join(live))

    return replace(
        template,
        user_text="\n\n".join(strict_parts),
        relaxed_user_text="\n\n".join(relaxed_parts),
    )
