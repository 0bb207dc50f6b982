"""Retrieval-augmented short-answer grading with feedback."""

import os

# One OpenBLAS thread: the exact MaxSim scan makes many small matmuls, which
# a second thread does not speed up and which, in a fresh process, sometimes
# stall for about a second. This must run before numpy is first imported; a
# value the user set wins, and a host that imported numpy first keeps its pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .dataset import AnswerRecord, Corpus, load_corpus, save_corpus, split_view
from .embedding import EmbedderConfig, TokenEmbeddingMatrix, deterministic_embed, tokenize
from .llmclient import ChatClient, Judgment, LedgerEntry, ModelConfig
from .pipelines import OptimizedProgram, PipelineConfig, grade_item, optimize_few_shot, run_split
from .promptkit import Demo, PromptTemplate, Signature, compile_signature, render_prompt
from .retrieval import MaxSimIndex, RetrievedExample, build_index, load_index, maxsim_score, save_index, top_k, top_k_batch
from .votegrader import VoteResult, vote_classify

__all__ = [
    "AnswerRecord",
    "ChatClient",
    "Corpus",
    "Demo",
    "EmbedderConfig",
    "Judgment",
    "LedgerEntry",
    "MaxSimIndex",
    "ModelConfig",
    "OptimizedProgram",
    "PipelineConfig",
    "PromptTemplate",
    "RetrievedExample",
    "Signature",
    "TokenEmbeddingMatrix",
    "VoteResult",
    "build_index",
    "compile_signature",
    "deterministic_embed",
    "grade_item",
    "load_corpus",
    "load_index",
    "maxsim_score",
    "optimize_few_shot",
    "render_prompt",
    "run_split",
    "save_corpus",
    "save_index",
    "split_view",
    "tokenize",
    "top_k",
    "top_k_batch",
    "vote_classify",
]
