"""Majority-vote grading over retrieved neighbors.

The label is the mode of the neighbors' gold labels and the numeric score is
the mean of their gold scores. A tie on the mode resolves to the label of
the highest-relevance neighbor among the tied labels. The vote is the item's
typed ``Judgment``, with empty feedback.
"""

from collections import Counter
from typing import Sequence

from .errors import RagradeError
from .llmclient import PARSE_TYPED, Judgment
from .retrieval import RetrievedExample


def vote_classify(neighbors: Sequence[RetrievedExample]) -> Judgment:
    if not neighbors:
        raise RagradeError("vote requires at least one neighbor")

    support = Counter(n.record.gold_label for n in neighbors)
    best_count = max(support.values())
    tied = {label for label, count in support.items() if count == best_count}
    if len(tied) == 1:
        label = tied.pop()
    else:
        # neighbors arrive in rank order; the first one carrying a tied label wins
        label = next(n.record.gold_label for n in neighbors if n.record.gold_label in tied)

    score = sum(n.record.gold_score for n in neighbors) / len(neighbors)
    return Judgment(score=score, label=label, feedback="", parse_path=PARSE_TYPED)
