"""Command-line entry point: ingest, index, grade, evaluate, optimize, report.

Configuration can come from a JSON file (--config); any explicit flag
overrides the file, which overrides built-in defaults. Exit codes: 0 on
success, 1 on usage/validation errors, 2 on runtime errors.
"""

import argparse
import dataclasses
import json
import logging
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import dataset, metrics, pipelines, promptkit, retrieval
from .embedding import EmbedderConfig
from .errors import BackendUnavailable, RagradeError, TransportError
from .llmclient import ModelConfig

logger = logging.getLogger(__name__)

_MODE_ALIASES = {
    "zero-shot": pipelines.MODE_ZERO_SHOT,
    "zero_shot": pipelines.MODE_ZERO_SHOT,
    "rag": pipelines.MODE_RAG,
    "vote": pipelines.MODE_VOTE,
    "votegrader": pipelines.MODE_VOTE,
    "optimized": pipelines.MODE_OPTIMIZED,
}

_DEFAULTS = {
    "out_dir": "runs",
    "seed": 0,
    "split": "test_ua",
    "mode": "zero-shot",
    "style": "predict",
    "model": "mistral:7b",
    "endpoint": None,
    "exclude_same_question": False,
    "budget": 16,
    "k_max": 5,
    "dev_count": 16,
}


# written by `ingest` into the out dir, read by `index`, `grade` and `optimize`
CORPUS_CACHE = "corpus.cache"

# the numeric keys and their types; flags are typed by argparse, a config
# file's values by _number
_NUMBERS = {
    "embed_dim": int, "seed": int, "k": int, "temperature": float, "max_tokens": int,
    "timeout": float, "max_retries": int, "concurrency": int, "budget": int,
    "k_max": int, "dev_count": int,
}

# the keys that set EmbedderConfig's and ModelConfig's fields; a key that no
# flag and no config file sets leaves its field at the class's default
_EMBED_KEYS = {"embed_backend": "backend", "embed_endpoint": "endpoint", "embed_dim": "dimension"}
_MODEL_KEYS = ("temperature", "max_tokens", "timeout", "max_retries", "concurrency")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _timestamp() -> str:
    return time.strftime("%Y%m%dT%H%M%S")


def _run_config(args: argparse.Namespace, **defaults) -> Dict:
    """Built-in defaults, then a command's own ``defaults``, overridden by the
    config file, overridden by explicit flags."""
    file_cfg: Dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise RagradeError(f"config file {args.config} must hold a JSON object")
        for key in _NUMBERS.keys() & file_cfg.keys():
            file_cfg[key] = _number(key, file_cfg[key])
    flags = {key: value for key, value in vars(args).items() if value is not None}
    return {**_DEFAULTS, **defaults, **file_cfg, **flags}


def _number(key: str, value):
    """A config file's ``value`` as ``key``'s type; anything else exits 1."""
    kind = _NUMBERS[key]
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = kind(value)
        except (ValueError, OverflowError):
            pass
        else:
            if isinstance(value, str) or number == value:  # 2.5 is not an int
                return number
    raise RagradeError(f"config key {key!r} must be {kind.__name__}, not {value!r}")


def _embedder_config(cfg: Dict) -> EmbedderConfig:
    return EmbedderConfig(**{field: cfg[key] for key, field in _EMBED_KEYS.items() if key in cfg})


def _model_config(cfg: Dict) -> Optional[ModelConfig]:
    endpoint = cfg.get("endpoint")
    if not endpoint:
        return None
    settings = {key: cfg[key] for key in _MODEL_KEYS if key in cfg}
    return ModelConfig(endpoint=endpoint, model=cfg.get("model"), **settings)


def _load_corpus(cfg: Dict) -> dataset.Corpus:
    corpus_path = cfg.get("corpus")
    if not corpus_path:
        out_dir = Path(cfg.get("out_dir"))
        cached = out_dir / CORPUS_CACHE
        if cached.exists():
            return dataset.load_corpus(cached, "cache")
        old = out_dir / "corpus.jsonl"  # what ingest wrote before the cache
        if old.exists():
            raise RagradeError(
                f"{old} is not a current corpus cache; re-run `ragrade ingest`"
            )
        raise RagradeError(
            "no corpus given; pass --corpus or run `ragrade ingest <path>` first"
        )
    return dataset.load_corpus(corpus_path, cfg.get("format"))


def _signature(cfg: Dict) -> promptkit.Signature:
    sig_path = cfg.get("signature")
    if sig_path:
        return promptkit.load_signature(sig_path)
    return promptkit.Signature()


def _cmd_ingest(args) -> int:
    cfg = _run_config(args)
    corpus = dataset.load_corpus(args.path, cfg.get("format"))
    cache = Path(cfg.get("out_dir")) / CORPUS_CACHE
    dataset.save_corpus(corpus, cache)
    counts = {
        split: len(dataset.split_view(corpus, split)) for split in dataset.SPLITS
    }
    print(f"ingested {len(corpus.records)} records -> {cache}")
    print(
        "splits: "
        + ", ".join(f"{split}={count}" for split, count in counts.items())
    )
    return 0


def _cmd_index(args) -> int:
    cfg = _run_config(args)
    corpus = _load_corpus(cfg)
    # the index is built over --split (train by default); a config file's
    # "split" names the grading split and does not apply here
    records = dataset.split_view(corpus, args.split or "train")
    embed_cfg = _embedder_config(cfg)
    index = retrieval.build_index(records, embed_cfg)
    index_path = cfg.get("index_path") or (Path(cfg.get("out_dir")) / "index.rgix")
    retrieval.save_index(index, index_path)
    print(
        f"indexed {len(index)} records (skipped {index.skipped_empty} empty) "
        f"dim={index.dim} fingerprint={index.fingerprint} -> {index_path}"
    )
    return 0


def _resolve_k(cfg: Dict, mode: str) -> int:
    k = cfg.get("k")
    if k is not None:
        return k
    if mode in (pipelines.MODE_RAG, pipelines.MODE_VOTE):
        return 5
    return 0


def _cmd_grade(args) -> int:
    cfg = _run_config(args)
    mode_name = cfg.get("mode")
    mode = _MODE_ALIASES.get(str(mode_name))
    if mode is None:
        raise RagradeError(f"unknown mode {mode_name!r}")
    k = _resolve_k(cfg, mode)
    embed_cfg = _embedder_config(cfg)
    split = cfg.get("split")
    corpus = _load_corpus(cfg)
    records = dataset.split_view(corpus, split)
    if not records:
        raise RagradeError(f"split {split!r} has no records")

    index = None
    if mode in (pipelines.MODE_RAG, pipelines.MODE_VOTE):
        index_path = cfg.get("index_path") or (Path(cfg.get("out_dir")) / "index.rgix")
        if not Path(index_path).exists():
            raise RagradeError(
                f"mode {mode_name!r} needs a retrieval index but {index_path} does "
                "not exist; build one with `ragrade index --split train`"
            )
        index = retrieval.load_index(
            index_path, corpus.records, embed_cfg, force=bool(args.force)
        )

    model_cfg = _model_config(cfg)
    if mode != pipelines.MODE_VOTE and model_cfg is None:
        raise RagradeError(
            f"mode {mode_name!r} calls a model; pass --endpoint (and --model)"
        )

    signature = _signature(cfg)
    demo_records: List[dataset.AnswerRecord] = []
    if mode == pipelines.MODE_OPTIMIZED:
        if not args.program:
            raise RagradeError("optimized mode needs --program from `ragrade optimize`")
        data = json.loads(Path(args.program).read_text(encoding="utf-8"))
        try:
            program = pipelines.OptimizedProgram(**data)
        except TypeError as exc:
            raise RagradeError(f"malformed program file {args.program}: {exc}") from exc
        by_id = {r.id: r for r in dataset.split_view(corpus, "train")}
        missing = [rid for rid in program.demo_record_ids if rid not in by_id]
        if missing:
            raise RagradeError(f"program demo ids not in the train pool: {missing}")
        demo_records = [by_id[rid] for rid in program.demo_record_ids]
        signature = dataclasses.replace(signature, task_description=program.instruction)
        k = len(demo_records)

    pipe_cfg = pipelines.PipelineConfig(
        mode=mode,
        k=k,
        style=cfg.get("style"),
        model=model_cfg,
        exclude_same_question=bool(cfg.get("exclude_same_question")),
        seed=cfg.get("seed"),
    )
    judgments = pipelines.run_split(
        records, pipe_cfg, index, signature=signature, demo_records=demo_records
    )

    run_config = {
        "mode": mode,
        "k": k,
        "split": split,
        "style": cfg.get("style"),
        "model_id": pipe_cfg.model_id,
        "endpoint": model_cfg.endpoint if model_cfg else None,
        "temperature": model_cfg.temperature if model_cfg else None,
        "seed": pipe_cfg.seed,
        "exclude_same_question": pipe_cfg.exclude_same_question,
        "embed_backend": embed_cfg.backend,
        "embed_dim": embed_cfg.dimension,
    }
    manifest = pipelines.build_manifest(
        run_config,
        records,
        judgments,
        index_fingerprint=index.fingerprint if index else None,
    )

    out_path = args.out or (
        Path(cfg.get("out_dir")) / f"manifest_{mode}_k{k}_{split}_{_timestamp()}.json"
    )
    pipelines.write_manifest(manifest, out_path)
    failed = sum(1 for j in judgments if j.parse_path == "failed")
    print(f"graded {len(judgments)} records ({failed} failed) -> {out_path}")
    if failed == len(judgments):
        print(
            "error: every item failed (endpoint down or misconfigured?); "
            "manifest kept for inspection",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_evaluate(args) -> int:
    manifest_path = Path(args.manifest)
    # reports go next to the manifest unless a flag or the config file says otherwise
    cfg = _run_config(args, out_dir=manifest_path.parent)
    manifest = pipelines.load_manifest(args.manifest)
    embed_cfg = _embedder_config(cfg)
    row = metrics.manifest_metrics(
        manifest, text_metrics=bool(args.with_text_metrics), embed_cfg=embed_cfg
    )

    out_dir = Path(cfg["out_dir"])
    stem = manifest_path.stem + ".report"
    with dataset.atomic_write(out_dir / f"{stem}.json") as fh:
        fh.write((json.dumps(row.to_dict(), sort_keys=True, indent=2) + "\n").encode("utf-8"))
    with dataset.atomic_write(out_dir / f"{stem}.csv") as fh:
        fh.write(metrics.report_to_csv([row]).encode("utf-8"))

    print(metrics.report_line(row))
    print(f"reports -> {out_dir / stem}.json, {out_dir / stem}.csv")
    return 0


def _cmd_optimize(args) -> int:
    cfg = _run_config(args)
    corpus = _load_corpus(cfg)
    train = dataset.split_view(corpus, "train")
    if len(train) < 2:
        raise RagradeError("optimizer needs at least 2 train records")

    seed = cfg.get("seed")
    rng = random.Random(seed)
    shuffled = list(train)
    rng.shuffle(shuffled)
    dev_count = min(cfg.get("dev_count"), len(shuffled) - 1)
    if dev_count < 1:  # train has >= 2 records, so only a flag below 1 gets here
        raise RagradeError("--dev-count must be >= 1")
    dev, train_pool = shuffled[:dev_count], shuffled[dev_count:]

    model_cfg = _model_config(cfg)
    if model_cfg is None:
        raise RagradeError("optimize calls a model; pass --endpoint (and --model)")
    proposal_cfg = None
    if args.proposal_endpoint:
        proposal_cfg = dataclasses.replace(
            model_cfg,
            endpoint=args.proposal_endpoint,
            model=args.proposal_model or model_cfg.model,
        )

    instructions = None
    if args.instructions_file:
        text = Path(args.instructions_file).read_text(encoding="utf-8")
        instructions = [line.strip() for line in text.splitlines() if line.strip()]

    pipe_cfg = pipelines.PipelineConfig(
        mode=pipelines.MODE_OPTIMIZED,
        k=0,
        style=cfg.get("style"),
        model=model_cfg,
        proposal_model=proposal_cfg,
        seed=seed,
    )
    program = pipelines.optimize_few_shot(
        train_pool,
        dev,
        _signature(cfg),
        budget=cfg.get("budget"),
        k_max=cfg.get("k_max"),
        cfg=pipe_cfg,
        instructions=instructions,
    )

    out_path = args.out or (Path(cfg.get("out_dir")) / f"program_{_timestamp()}.json")
    with dataset.atomic_write(out_path) as fh:
        fh.write((json.dumps(program.to_dict(), sort_keys=True, indent=2) + "\n").encode("utf-8"))
    print(
        f"best dev accuracy {program.dev_accuracy:.3f} with "
        f"{len(program.demo_record_ids)} demos -> {out_path}"
    )
    return 0


def _cmd_report(args) -> int:
    cfg = _run_config(args)
    manifests = [pipelines.load_manifest(p) for p in args.manifests]
    embed_cfg = _embedder_config(cfg)
    rows = metrics.build_report(
        manifests, text_metrics=bool(args.with_text_metrics), embed_cfg=embed_cfg
    )
    csv_path, txt_path = metrics.write_report_files(rows, cfg.get("out_dir"), "report")
    print(metrics.report_to_text(rows), end="")
    print(f"reports -> {csv_path}, {txt_path}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")
    parser.add_argument("--seed", type=int, help="seed for all randomness")
    parser.add_argument("--verbose", action="store_true")


def _add_embed_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--embed-backend",
        dest="embed_backend",
        choices=["deterministic_test", "remote"],
    )
    parser.add_argument("--embed-endpoint", dest="embed_endpoint")
    parser.add_argument("--embed-dim", dest="embed_dim", type=int)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--endpoint", help="OpenAI-compatible base URL")
    parser.add_argument("--model", help="model id, e.g. mistral:7b")
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--max-tokens", dest="max_tokens", type=int)
    parser.add_argument("--timeout", type=float)
    parser.add_argument("--max-retries", dest="max_retries", type=int)
    parser.add_argument("--concurrency", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ragrade", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a corpus file and cache it")
    p.add_argument("path")
    p.add_argument("--format", choices=["jsonl", "csv"])
    _add_common(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("index", help="build the retrieval index over a split")
    p.add_argument("--corpus")
    p.add_argument("--format", choices=["jsonl", "csv"])
    p.add_argument("--split", choices=list(dataset.SPLITS))
    p.add_argument("--index-path", dest="index_path")
    _add_embed_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("grade", help="run a grading pipeline over a split")
    p.add_argument("--corpus")
    p.add_argument("--format", choices=["jsonl", "csv"])
    p.add_argument("--mode", choices=sorted(_MODE_ALIASES))
    p.add_argument("--k", type=int)
    p.add_argument("--split", choices=list(dataset.SPLITS))
    p.add_argument("--style", choices=["predict", "chain_of_thought"])
    p.add_argument("--index-path", dest="index_path")
    p.add_argument("--force", action="store_true", help="load index despite fingerprint mismatch")
    p.add_argument("--exclude-same-question", dest="exclude_same_question", action="store_true", default=None)
    p.add_argument("--signature", help="JSON signature file")
    p.add_argument("--program", help="optimized-program JSON (mode=optimized)")
    p.add_argument("--out", help="explicit manifest path")
    _add_embed_flags(p)
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_grade)

    p = sub.add_parser("evaluate", help="compute metrics for one manifest")
    p.add_argument("manifest")
    p.add_argument("--with-text-metrics", action="store_true")
    _add_embed_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("optimize", help="search instructions and demo subsets")
    p.add_argument("--corpus")
    p.add_argument("--format", choices=["jsonl", "csv"])
    p.add_argument("--budget", type=int)
    p.add_argument("--k-max", dest="k_max", type=int)
    p.add_argument("--dev-count", dest="dev_count", type=int)
    p.add_argument("--style", choices=["predict", "chain_of_thought"])
    p.add_argument("--signature", help="JSON signature file")
    p.add_argument("--instructions-file", dest="instructions_file")
    p.add_argument("--proposal-endpoint", dest="proposal_endpoint")
    p.add_argument("--proposal-model", dest="proposal_model")
    p.add_argument("--out", help="explicit program path")
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("report", help="render metric tables from manifests")
    p.add_argument("manifests", nargs="+")
    p.add_argument("--with-text-metrics", action="store_true")
    _add_embed_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (TransportError, BackendUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RagradeError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime catch-all for exit code 2
        logger.exception("unexpected failure")
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
