"""Seeded synthetic corpus generator for the ragrade benchmark.

Answers are 12-28 tokens: question-specific key words (how many sets the
gold score) mixed with filler drawn from a Zipf-distributed shared
vocabulary, so MaxSim neighbours really cluster by question and by grade.
The same (workload shape, seed) always yields byte-identical JSONL, and
every corpus passes ragrade's own ``load_corpus`` validation: test_ua
questions all have train records and test_uq questions never appear in
train.

Answer lengths, and each record's fault class for the chat stub (see
``stub.py``), are dealt from shuffled decks with exact quotas per split.
The shuffle depends on the workload only, never on the seed: the record at
a given position of the file always has the same length and fault class,
and the seed changes only the words. ragrade picks the optimizer's dev
items by position with its own fixed seed, so this keeps the number of
faulty dev items, and with it the optimizer's set-up time, the same for
every seed.
"""

import bisect
import json
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List

SPLITS = ("train", "test_ua", "test_uq")
SCORES = (0.0, 0.25, 0.5, 0.75, 1.0)
SCORE_WEIGHTS = (2, 1, 2, 1, 2)

FAULT_OK = "ok"
FAULT_RECOVER = "recover"  # typed reply malformed, relaxed re-ask parses
FAULT_HARD = "hard"  # malformed on both the typed and the relaxed path
FAULT_429 = "429"  # first attempt answered 429 without Retry-After
FAULT_CLASSES = (FAULT_OK, FAULT_RECOVER, FAULT_HARD, FAULT_429)
STUB_FIELDS = ("fault", "stub_score")

_ONSETS = "b c d f g h j k l m n p r s t v w z br ch cl dr fl gr kr pl sh st tr".split()
_VOWELS = "a e i o u ai ea io ou".split()
_CODAS = ["", "", "n", "r", "s", "l", "m", "x", "nd", "st"]


@dataclass(frozen=True)
class Shape:
    """Fixed properties of one workload's corpus; only the seed varies."""

    train: int
    train_questions: int
    test_ua: int
    test_uq: int
    test_uq_questions: int
    vocab: int
    zipf_s: float
    key_words: int = 8
    min_len: int = 12
    max_len: int = 28
    # fraction of each split per fault class; a split's counts are rounded once
    fault_rates: Dict[str, Dict[str, float]] = None


def label_for(score: float) -> str:
    if score == 1.0:
        return "correct"
    if score == 0.0:
        return "incorrect"
    return "partially_correct"


def _words(rng: random.Random, n: int, taken: set) -> List[str]:
    out = []
    while len(out) < n:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 3))
        ) + rng.choice(_CODAS)
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


class _Generator:
    def __init__(self, shape: Shape, seed: int, name: str):
        self.shape = shape
        self.rng = random.Random(f"{name}:{seed}")
        self.layout = random.Random(f"{name}:layout")
        taken: set = set()
        self.vocab = _words(self.rng, shape.vocab, taken)
        self.cum = list(accumulate(1.0 / (r ** shape.zipf_s) for r in range(1, shape.vocab + 1)))
        n_questions = shape.train_questions + shape.test_uq_questions
        self.keys = [_words(self.rng, shape.key_words, taken) for _ in range(n_questions)]
        self.feedback_seen: set = set()

    def filler(self, n: int) -> List[str]:
        total = self.cum[-1]
        return [
            self.vocab[bisect.bisect_left(self.cum, self.rng.random() * total)]
            for _ in range(n)
        ]

    def question(self, q: int) -> Dict[str, str]:
        keys = self.keys[q]
        return {
            "question_id": f"q{q:04d}",
            "question": f"question {q}: how do " + " and ".join(keys[:3]) + " relate?",
            "reference_answer": " ".join(keys + self.filler(6)) + ".",
        }

    def answer(self, q: int, length: int) -> "tuple[str, float]":
        rng = self.rng
        score = rng.choices(SCORES, weights=SCORE_WEIGHTS)[0]
        n_keys = round(score * min(len(self.keys[q]), length // 2))
        words = rng.sample(self.keys[q], n_keys) + self.filler(length - n_keys)
        rng.shuffle(words)
        return " ".join(words), score

    def feedback(self, q: int, answer: str, score: float) -> str:
        """About 25 tokens, unique per record so leakage scans are exact."""
        said = set(answer.split())
        keys = self.keys[q]
        hit = [k for k in keys if k in said] or ["the", "basics"]
        missed = [k for k in keys if k not in said] or ["any", "gap"]
        while True:
            text = (
                f"the answer earns {score} because it explains {' '.join(hit[:3])} "
                f"but it does not mention {' '.join(missed[:3])} ; review "
                + " ".join(self.filler(8))
                + "."
            )
            if text not in self.feedback_seen:
                self.feedback_seen.add(text)
                return text

    def rows(self) -> List[Dict[str, object]]:
        shape = self.shape
        plan = []  # (split, question index)
        for i in range(shape.train):
            plan.append(("train", i % shape.train_questions))
        for i in range(shape.test_ua):
            plan.append(("test_ua", self.rng.randrange(shape.train_questions)))
        for i in range(shape.test_uq):
            plan.append(("test_uq", shape.train_questions + i % shape.test_uq_questions))

        questions = [self.question(q) for q in range(len(self.keys))]
        faults = self.deal(plan, self.fault_deck)
        lengths = self.deal(plan, self.length_deck)
        rows = []
        seen_answers = set()
        rng = self.rng
        for n, ((split, q), fault, length) in enumerate(zip(plan, faults, lengths)):
            answer, score = self.answer(q, length)
            while answer in seen_answers:  # the stub keys replies on the live answer
                answer, score = self.answer(q, length)
            seen_answers.add(answer)
            rows.append(
                {
                    "id": f"{split}-{n:05d}",
                    **questions[q],
                    "student_answer": answer,
                    "score": score,
                    "label": label_for(score),
                    "feedback": self.feedback(q, answer, score),
                    "split": split,
                    "fault": fault,
                    # the stub model's verdict: right about two times in three
                    "stub_score": score if rng.random() < 0.67 else rng.choice(SCORES),
                }
            )
        return rows

    def fault_deck(self, split: str, n: int) -> List[str]:
        rates = (self.shape.fault_rates or {}).get(split, {})
        deck: List[str] = []
        for fault in FAULT_CLASSES[1:]:
            deck += [fault] * round(rates.get(fault, 0.0) * n)
        return deck + [FAULT_OK] * (n - len(deck))

    def length_deck(self, split: str, n: int) -> List[int]:
        span = self.shape.max_len - self.shape.min_len + 1
        return [self.shape.min_len + i % span for i in range(n)]

    def deal(self, plan, make_deck) -> list:
        """Per split, a deck of exact quotas, shuffled the same way for every seed."""
        out: list = [None] * len(plan)
        for split in SPLITS:
            positions = [i for i, (s, _) in enumerate(plan) if s == split]
            deck = make_deck(split, len(positions))
            self.layout.shuffle(deck)
            for pos, value in zip(positions, deck):
                out[pos] = value
        return out


def generate(shape: Shape, seed: int, name: str) -> List[Dict[str, object]]:
    """Corpus rows, each with the stub's ``fault`` class and ``stub_score`` added."""
    return _Generator(shape, seed, name).rows()


def write_corpus(rows: List[Dict[str, object]], path) -> None:
    """Write the rows ragrade sees; the stub's fields stay with the benchmark."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps({k: v for k, v in row.items() if k not in STUB_FIELDS}) + "\n")
