import json
from pathlib import Path

import pytest

from ragrade.dataset import AnswerRecord
from ragrade.errors import RagradeError
from ragrade.promptkit import (
    Demo,
    Signature,
    compile_signature,
    demo_from_record,
    judgment_fields,
    load_signature,
    record_inputs,
    render_prompt,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _record(rid, answer, score, label):
    return AnswerRecord(
        id=rid,
        question="What is the main advantage of extension headers?",
        question_id="q1",
        reference_answer=(
            "Extension headers are optional and sit between the fixed header "
            "and the payload."
        ),
        student_answer=answer,
        gold_score=score,
        gold_label=label,
        gold_feedback=f"SENTINEL-FEEDBACK-{rid}-x93k the answer is {label}.",
    )


_LIVE_INPUTS = {
    "question": "What is the main advantage of extension headers?",
    "reference_answer": (
        "Extension headers are optional and sit between the fixed header "
        "and the payload."
    ),
    "student_answer": "optional headers between header and payload puffin",
}


def _demos(sig):
    return [
        demo_from_record(_record("r01", "headers are optional kingfisher", 1.0, "correct"), sig),
        demo_from_record(_record("r03", "optional but only one allowed heron", 0.5, "partially_correct"), sig),
        demo_from_record(_record("r02", "they sit after the payload osprey", 0.0, "incorrect"), sig),
    ]


def golden_cases():
    sig = Signature()
    predict = compile_signature(sig, "predict")
    cot = compile_signature(sig, "chain_of_thought")
    return {
        "prompt_zero_shot_predict.txt": render_prompt(predict, _LIVE_INPUTS),
        "prompt_rag_k3_predict.txt": render_prompt(predict, _LIVE_INPUTS, _demos(sig)),
        "prompt_zero_shot_cot.txt": render_prompt(cot, _LIVE_INPUTS),
    }


def _golden_bytes(prompt) -> bytes:
    return (
        prompt.system_text
        + "\n<<<USER>>>\n"
        + prompt.user_text
        + "\n<<<RELAXED-SYSTEM>>>\n"
        + prompt.relaxed_system_text
        + "\n<<<RELAXED-USER>>>\n"
        + prompt.relaxed_user_text
        + "\n"
    ).encode("utf-8")


def test_default_signature_schema_order():
    template = compile_signature(Signature(), "predict")
    assert [name for name, _ in template.output_schema] == ["score", "label", "feedback"]


def test_chain_of_thought_prepends_reasoning():
    template = compile_signature(Signature(), "chain_of_thought")
    assert [name for name, _ in template.output_schema] == [
        "reasoning",
        "score",
        "label",
        "feedback",
    ]


def test_compile_deterministic():
    a = compile_signature(Signature(), "predict")
    b = compile_signature(Signature(), "predict")
    assert a == b
    assert a.system_text == b.system_text


def test_duplicate_field_rejected():
    sig = Signature(
        input_fields=(("question", "q"), ("question", "again")),
    )
    with pytest.raises(RagradeError, match="duplicate field names in"):
        compile_signature(sig, "predict")


def test_empty_signature_rejected():
    with pytest.raises(RagradeError, match="need at least one input and one output field"):
        compile_signature(Signature(input_fields=()), "predict")


def test_zero_shot_has_no_demo_block():
    prompt = render_prompt(compile_signature(Signature(), "predict"), _LIVE_INPUTS)
    assert "Example" not in prompt.user_text


def test_k3_renders_three_demos_in_rank_order():
    sig = Signature()
    prompt = render_prompt(compile_signature(sig, "predict"), _LIVE_INPUTS, _demos(sig))
    assert prompt.user_text.count("Example ") == 3
    assert (
        prompt.user_text.index("kingfisher")
        < prompt.user_text.index("heron")
        < prompt.user_text.index("osprey")
    )
    # demos precede the live item
    assert prompt.user_text.index("Example 3") < prompt.user_text.index("Grade the following item.")


def test_render_deterministic():
    sig = Signature()
    template = compile_signature(sig, "predict")
    first = render_prompt(template, _LIVE_INPUTS, _demos(sig))
    second = render_prompt(template, _LIVE_INPUTS, _demos(sig))
    assert _golden_bytes(first) == _golden_bytes(second)


def test_missing_input():
    template = compile_signature(Signature(), "predict")
    with pytest.raises(RagradeError, match="missing input field 'reference_answer'"):
        render_prompt(template, {"question": "q"})


def test_demo_schema_mismatch():
    template = compile_signature(Signature(), "predict")
    bad = Demo(inputs=(("question", "q"),), outputs=(("score", "1.0"),), source_record_id="x")
    with pytest.raises(RagradeError, match=r"demo inputs \['question'\] != signature"):
        render_prompt(template, _LIVE_INPUTS, [bad])


def test_demo_output_schema_mismatch():
    sig = Signature()
    template = compile_signature(sig, "predict")
    inputs = tuple((name, _LIVE_INPUTS[name]) for name in sig.input_names())
    bad = Demo(inputs=inputs, outputs=(("score", "1.0"),), source_record_id="x")
    with pytest.raises(RagradeError, match=r"demo outputs \['score'\] != signature"):
        render_prompt(template, _LIVE_INPUTS, [bad])


def test_demo_fidelity_score_round_trips():
    sig = Signature()
    prompt = render_prompt(compile_signature(sig, "predict"), _LIVE_INPUTS, _demos(sig))
    lines = [l for l in prompt.user_text.splitlines() if l.startswith("output: {")]
    scores = [json.loads(l[len("output: ") :])["score"] for l in lines]
    assert scores == [1.0, 0.5, 0.0]


def test_schema_closure_every_field_in_prompt():
    for style in ("predict", "chain_of_thought"):
        template = compile_signature(Signature(), style)
        for name, _ in template.output_schema:
            assert f'"{name}"' in template.system_text


def test_signature_from_json_file(tmp_path):
    spec = {
        "task_description": "Grade a translation.",
        "scoring_criteria": "Full marks for faithful translations.",
        "input_fields": [
            {"name": "source", "description": "source text"},
            {"name": "translation", "description": "student translation"},
        ],
        "output_fields": [
            {"name": "score", "type": "real01", "description": "quality"},
            {"name": "label", "type": "label3", "description": "grade"},
            {"name": "feedback", "type": "freetext", "description": "notes"},
        ],
    }
    path = tmp_path / "sig.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    sig = load_signature(path)
    template = compile_signature(sig, "predict")
    assert "Grade a translation." in template.system_text
    prompt = render_prompt(template, {"source": "a", "translation": "b"})
    assert "source: a" in prompt.user_text


_CUSTOM_OUTPUTS = (
    ("grade", "real01", "correctness"),
    ("category", "label3", "verdict"),
    ("comment", "freetext", "notes for the student"),
)


def test_judgment_fields_are_the_first_of_each_type_reasoning_aside():
    schema = (
        ("reasoning", "freetext"), ("grade", "real01"), ("note", "freetext"),
        ("category", "label3"), ("second_grade", "real01"), ("comment", "freetext"),
    )
    assert judgment_fields(schema) == ("grade", "category", "note")
    assert judgment_fields(_CUSTOM_OUTPUTS) == ("grade", "category", "comment")
    with pytest.raises(ValueError, match="no freetext field"):  # reasoning is not feedback
        Signature(output_fields=_CUSTOM_OUTPUTS[:2] + (("reasoning", "freetext", "why"),)).validate()


@pytest.mark.parametrize("missing", ["real01", "label3", "freetext"])
def test_signature_without_a_judgment_field_is_refused(missing, tmp_path):
    outputs = [f for f in _CUSTOM_OUTPUTS if f[1] != missing]
    with pytest.raises(ValueError, match=f"no {missing} field"):
        compile_signature(Signature(output_fields=tuple(outputs)), "predict")
    spec = {
        "input_fields": [{"name": "student_answer"}],
        "output_fields": [{"name": n, "type": t} for n, t, _ in outputs],
    }
    path = tmp_path / "sig.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    with pytest.raises(ValueError, match=f"no {missing} field"):
        load_signature(path)


def test_demo_from_record_shows_gold_under_the_signature_own_names():
    sig = Signature(output_fields=_CUSTOM_OUTPUTS)
    record = _record("r03", "optional but only one allowed heron", 0.5, "partially_correct")
    demo = demo_from_record(record, sig)
    assert demo.inputs == tuple(record_inputs(record).items())
    assert demo.outputs == (
        ("grade", "0.5"), ("category", "partially_correct"), ("comment", record.gold_feedback),
    )
    extra = Signature(output_fields=_CUSTOM_OUTPUTS + (("hint", "freetext", "a hint"),))
    with pytest.raises(RagradeError, match="record has no value for field 'hint'"):
        demo_from_record(record, extra)


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_golden_files_byte_stable(name):
    prompt = golden_cases()[name]
    golden = GOLDEN_DIR / name
    assert golden.exists(), f"golden file missing; regenerate with python tests/test_promptkit.py"
    assert _golden_bytes(prompt) == golden.read_bytes()


if __name__ == "__main__":  # regenerate golden files after a deliberate change
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, prompt in golden_cases().items():
        (GOLDEN_DIR / name).write_bytes(_golden_bytes(prompt))
        print(f"wrote {GOLDEN_DIR / name}")
