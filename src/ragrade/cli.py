"""Command-line entry point: ingest, index, grade, evaluate, optimize, report.

Each setting is one row of SETTINGS, from which the flags, the check of a
JSON config file (--config) and the config classes are derived. An explicit
flag overrides the file, which overrides the default. A file key that no
command knows exits 1; a key of another command is ignored, so one file can
serve every command. Exit codes: 0 on success, 1 on usage/validation errors,
2 on runtime errors.
"""

import argparse
import dataclasses
import difflib
import logging
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import dataset, metrics, pipelines, promptkit, retrieval
from .embedding import BACKENDS, EmbedderConfig
from .errors import BackendUnavailable, RagradeError, TransportError
from .llmclient import PARSE_FAILED, ModelConfig
from .pipelines import PipelineConfig

logger = logging.getLogger(__name__)

# written by `ingest` into the out dir, read by `index`, `grade` and `optimize`
CORPUS_CACHE = "corpus.cache"
# the index `index` writes into the out dir and `grade` reads, unless --index-path
INDEX_FILE = "index.rgix"

# each command: its help line and its positional argument (name, nargs), if any
_COMMANDS = {
    "ingest": ("validate a corpus file and cache it", ("path", None)),
    "index": ("build the retrieval index over a split", None),
    "grade": ("run a grading pipeline over a split", None),
    "evaluate": ("compute metrics for one manifest", ("manifest", None)),
    "optimize": ("search instructions and demo subsets", None),
    "report": ("render metric tables from manifests", ("manifests", "+")),
}
_ALL = tuple(_COMMANDS)
_CORPUS = ("index", "grade", "optimize")
_EMBED = ("index", "grade", "evaluate", "report")
_MODEL = ("grade", "optimize")


@dataclasses.dataclass(frozen=True)
class Setting:
    """One setting: ``kind`` types its flag and a config file's value (a
    ``bool`` is a switch), and only the ``commands`` that read it take it."""

    key: str
    kind: type
    commands: Tuple[str, ...]
    choices: Optional[Tuple[str, ...]] = None  # the flag's; their module checks a file's value
    default: object = None  # the CLI's own settings only: a config class keeps its defaults
    file: bool = True  # whether a config file may set it
    feeds: Optional[Tuple[type, str]] = None  # the config class and field it sets
    flag: str = ""  # "--" and the key, dashed, unless given
    help: Optional[str] = None

    def __post_init__(self):
        if not self.flag:
            object.__setattr__(self, "flag", "--" + self.key.replace("_", "-"))


SETTINGS = (
    Setting("config", str, _ALL, file=False, help="JSON config file; flags override it"),
    Setting("verbose", bool, _ALL, file=False),
    Setting("out_dir", str, _ALL, default="runs", help="output directory"),
    Setting("corpus", str, _CORPUS),
    Setting("format", str, ("ingest", *_CORPUS), dataset.FORMATS),
    # `index` builds over its own --split; a config file's split names the grading split
    Setting("index_split", str, ("index",), dataset.SPLITS, "train", file=False, flag="--split"),
    Setting("split", str, ("grade",), dataset.SPLITS, "test_ua"),
    Setting("index_path", str, ("index", "grade")),
    Setting("mode", str, ("grade",), tuple(sorted(pipelines.MODE_ALIASES)), "zero-shot",
            feeds=(PipelineConfig, "mode")),
    Setting("k", int, ("grade",), feeds=(PipelineConfig, "k")),
    Setting("style", str, _MODEL, promptkit.STYLES, feeds=(PipelineConfig, "style")),
    Setting("seed", int, _MODEL, feeds=(PipelineConfig, "seed"), help="seed for all randomness"),
    Setting("exclude_same_question", bool, ("grade",),
            feeds=(PipelineConfig, "exclude_same_question")),
    Setting("force", bool, ("grade",), file=False, help="load index despite fingerprint mismatch"),
    Setting("signature", str, _MODEL, help="JSON signature file"),
    Setting("program", str, ("grade",), help="optimized-program JSON (mode=optimized)"),
    Setting("out", str, _MODEL, file=False, help="explicit manifest or program path"),
    Setting("with_text_metrics", bool, ("evaluate", "report")),
    Setting("embed_backend", str, _EMBED, BACKENDS, feeds=(EmbedderConfig, "backend")),
    Setting("embed_endpoint", str, _EMBED, feeds=(EmbedderConfig, "endpoint")),
    Setting("embed_dim", int, _EMBED, feeds=(EmbedderConfig, "dimension")),
    Setting("endpoint", str, _MODEL, feeds=(ModelConfig, "endpoint"),
            help="OpenAI-compatible base URL"),
    Setting("model", str, _MODEL, default="mistral:7b", feeds=(ModelConfig, "model"),
            help="model id, e.g. mistral:7b"),
    Setting("temperature", float, _MODEL, feeds=(ModelConfig, "temperature")),
    Setting("max_tokens", int, _MODEL, feeds=(ModelConfig, "max_tokens")),
    Setting("timeout", float, _MODEL, feeds=(ModelConfig, "timeout")),
    Setting("max_retries", int, _MODEL, feeds=(ModelConfig, "max_retries")),
    Setting("concurrency", int, _MODEL, feeds=(ModelConfig, "concurrency")),
    Setting("budget", int, ("optimize",), default=16),
    Setting("k_max", int, ("optimize",), default=5),
    Setting("dev_count", int, ("optimize",), default=16),
    Setting("instructions_file", str, ("optimize",)),
    Setting("proposal_endpoint", str, ("optimize",)),
    Setting("proposal_model", str, ("optimize",)),
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # a flag's prefix is an unknown flag, not the flag
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _timestamp() -> str:
    return time.strftime("%Y%m%dT%H%M%S")


def _run_config(args: argparse.Namespace, **defaults) -> Dict:
    """The settings of ``args.command``: each row's default or the command's
    own ``defaults``, overridden by the config file, overridden by flags."""
    rows = [row for row in SETTINGS if args.command in row.commands]
    cfg = {row.key: defaults.get(row.key, row.default) for row in rows}
    if args.config:
        file_cfg = _config_file(args.config)
        cfg.update((row.key, _typed(row, file_cfg[row.key])) for row in rows if row.key in file_cfg)
    cfg.update((row.key, vars(args)[row.key]) for row in rows if vars(args)[row.key] is not None)
    return cfg


def _config_file(path: str) -> Dict:
    """The JSON object at ``path``; every key must be one a config file may set."""
    file_cfg = dataset.read_json(path, "config file")
    rows = {row.key: row for row in SETTINGS}
    for key in file_cfg:
        if key in rows and not rows[key].file:
            raise RagradeError(f"config key {key!r} is set by its flag only, {rows[key].flag}")
        if key not in rows:
            known = [row.key for row in SETTINGS if row.file]
            close = difflib.get_close_matches(key, known, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise RagradeError(f"unknown config key {key!r} in {path}{hint}")
    return file_cfg


def _typed(row: Setting, value):
    """A config file's ``value`` as ``row``'s type; anything else exits 1. A
    number may also come as a string of its type."""
    kind = row.kind
    if kind in (int, float):
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            try:
                number = kind(value)
            except (ValueError, OverflowError):
                pass
            else:
                if isinstance(value, str) or number == value:  # 2.5 is not an int
                    return number
    elif isinstance(value, kind):
        return value
    raise RagradeError(f"config key {row.key!r} must be {kind.__name__}, not {value!r}")


def _build(cls, cfg: Dict, **given):
    """``cls`` from the settings in ``cfg`` that feed it, and ``given``; a
    setting left unset leaves its field at the class's default."""
    fields = {
        row.feeds[1]: cfg[row.key]
        for row in SETTINGS
        if row.feeds and row.feeds[0] is cls and cfg.get(row.key) is not None
    }
    return cls(**{**fields, **given})


def _model_config(cfg: Dict) -> Optional[ModelConfig]:
    return _build(ModelConfig, cfg) if cfg["endpoint"] else None


def _load_corpus(cfg: Dict) -> dataset.Corpus:
    if not cfg["corpus"]:
        cached = Path(cfg["out_dir"]) / CORPUS_CACHE
        if cached.exists():
            return dataset.load_corpus(cached, "cache")
        raise RagradeError(
            "no corpus given; pass --corpus or run `ragrade ingest <path>` first"
        )
    return dataset.load_corpus(cfg["corpus"], cfg["format"])


def _signature(cfg: Dict) -> promptkit.Signature:
    if cfg["signature"]:
        return promptkit.load_signature(cfg["signature"])
    return promptkit.Signature()


def _index_path(cfg: Dict):
    return cfg["index_path"] or Path(cfg["out_dir"]) / INDEX_FILE


def _cmd_ingest(args) -> int:
    cfg = _run_config(args)
    corpus = dataset.load_corpus(args.path, cfg["format"])
    cache = Path(cfg["out_dir"]) / CORPUS_CACHE
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
    records = dataset.split_view(corpus, cfg["index_split"])
    index = retrieval.build_index(records, _build(EmbedderConfig, cfg))
    index_path = _index_path(cfg)
    retrieval.save_index(index, index_path)
    print(
        f"indexed {len(index)} records (skipped {index.skipped_empty} empty) "
        f"dim={index.config.dimension} fingerprint={index.fingerprint} -> {index_path}"
    )
    return 0


def _cmd_grade(args) -> int:
    cfg = _run_config(args)
    # vote calls no model, so its model settings are neither built nor checked
    vote = pipelines.MODE_ALIASES.get(cfg["mode"]) == pipelines.MODE_VOTE
    pipe_cfg = _build(PipelineConfig, cfg, model=None if vote else _model_config(cfg))
    embed_cfg = _build(EmbedderConfig, cfg)
    split = cfg["split"]
    corpus = _load_corpus(cfg)
    records = dataset.split_view(corpus, split)
    if not records:
        raise RagradeError(f"split {split!r} has no records")

    index = None
    if pipe_cfg.mode in (pipelines.MODE_RAG, pipelines.MODE_VOTE):
        index_path = _index_path(cfg)
        if not Path(index_path).exists():
            raise RagradeError(
                f"mode {cfg['mode']!r} needs a retrieval index but {index_path} does "
                "not exist; build one with `ragrade index --split train`"
            )
        index = retrieval.load_index(
            index_path, corpus.records, embed_cfg, force=bool(cfg["force"])
        )

    signature = _signature(cfg)
    demo_records: List[dataset.AnswerRecord] = []
    if pipe_cfg.mode == pipelines.MODE_OPTIMIZED:
        program_path = cfg["program"]
        if not program_path:
            raise RagradeError("optimized mode needs --program from `ragrade optimize`")
        data = dataset.read_json(program_path, "program file")
        try:
            program = pipelines.OptimizedProgram(**data)
        except TypeError as exc:
            raise RagradeError(f"malformed program file {program_path}: {exc}") from exc
        by_id = {r.id: r for r in dataset.split_view(corpus, "train")}
        missing = [rid for rid in program.demo_record_ids if rid not in by_id]
        if missing:
            raise RagradeError(f"program demo ids not in the train pool: {missing}")
        demo_records = [by_id[rid] for rid in program.demo_record_ids]
        signature = dataclasses.replace(signature, task_description=program.instruction)
        pipe_cfg = dataclasses.replace(pipe_cfg, k=len(demo_records))

    judgments = pipelines.run_split(
        records, pipe_cfg, index, signature=signature, demo_records=demo_records
    )
    manifest = pipelines.build_manifest(
        pipe_cfg,
        split,
        embed_cfg,
        records,
        judgments,
        index_fingerprint=index.fingerprint if index else None,
    )

    name = f"manifest_{pipe_cfg.mode}_k{pipe_cfg.k}_{split}_{_timestamp()}.json"
    out_path = cfg["out"] or (Path(cfg["out_dir"]) / name)
    pipelines.write_manifest(manifest, out_path)
    failed = sum(1 for j in judgments if j.parse_path == PARSE_FAILED)
    print(f"graded {len(judgments)} records ({failed} failed) -> {out_path}")
    if failed == len(judgments):
        print(
            "error: every item failed (endpoint down or misconfigured?); "
            "manifest kept for inspection",
            file=sys.stderr,
        )
        return 2
    return 0


def _text_metrics_embedder(cfg: Dict) -> Optional[EmbedderConfig]:
    # only text metrics embed, so only they build and check the embedder's settings
    return _build(EmbedderConfig, cfg) if cfg["with_text_metrics"] else None


def _cmd_evaluate(args) -> int:
    manifest_path = Path(args.manifest)
    # reports go next to the manifest unless a flag or the config file says otherwise
    cfg = _run_config(args, out_dir=manifest_path.parent)
    manifest = pipelines.load_manifest(args.manifest)
    row = metrics.manifest_metrics(
        manifest,
        text_metrics=bool(cfg["with_text_metrics"]),
        embed_cfg=_text_metrics_embedder(cfg),
    )

    out_dir = Path(cfg["out_dir"])
    stem = manifest_path.stem + ".report"
    dataset.write_json(out_dir / f"{stem}.json", row.to_dict())
    with dataset.atomic_write(out_dir / f"{stem}.csv") as fh:
        fh.write(metrics.report_to_csv([row]).encode("utf-8"))

    print(metrics.report_line(row))
    print(f"reports -> {out_dir / stem}.json, {out_dir / stem}.csv")
    return 0


def _cmd_optimize(args) -> int:
    cfg = _run_config(args)
    model_cfg = _model_config(cfg)
    proposal_cfg = None
    if cfg["proposal_endpoint"] and model_cfg:
        proposal_cfg = dataclasses.replace(
            model_cfg,
            endpoint=cfg["proposal_endpoint"],
            model=cfg["proposal_model"] or model_cfg.model,
        )
    pipe_cfg = _build(
        PipelineConfig, cfg, mode=pipelines.MODE_OPTIMIZED, model=model_cfg,
        proposal_model=proposal_cfg,
    )
    corpus = _load_corpus(cfg)
    train = dataset.split_view(corpus, "train")
    if len(train) < 2:
        raise RagradeError("optimizer needs at least 2 train records")

    rng = random.Random(pipe_cfg.seed)
    shuffled = list(train)
    rng.shuffle(shuffled)
    dev_count = min(cfg["dev_count"], len(shuffled) - 1)
    if dev_count < 1:  # train has >= 2 records, so only a setting below 1 gets here
        raise RagradeError("--dev-count must be >= 1")
    dev, train_pool = shuffled[:dev_count], shuffled[dev_count:]

    instructions = None
    if cfg["instructions_file"]:
        instructions = Path(cfg["instructions_file"]).read_text(encoding="utf-8").splitlines()

    program = pipelines.optimize_few_shot(
        train_pool,
        dev,
        _signature(cfg),
        budget=cfg["budget"],
        k_max=cfg["k_max"],
        cfg=pipe_cfg,
        instructions=instructions,
    )

    out_path = cfg["out"] or (Path(cfg["out_dir"]) / f"program_{_timestamp()}.json")
    dataset.write_json(out_path, program.to_dict())
    print(
        f"best dev accuracy {program.dev_accuracy:.3f} with "
        f"{len(program.demo_record_ids)} demos -> {out_path}"
    )
    return 0


def _cmd_report(args) -> int:
    cfg = _run_config(args)
    manifests = [pipelines.load_manifest(p) for p in args.manifests]
    rows = metrics.build_report(
        manifests,
        text_metrics=bool(cfg["with_text_metrics"]),
        embed_cfg=_text_metrics_embedder(cfg),
    )
    csv_path, txt_path = metrics.write_report_files(rows, cfg["out_dir"], "report")
    print(metrics.report_to_text(rows), end="")
    print(f"reports -> {csv_path}, {txt_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ragrade", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, positional) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if positional:
            p.add_argument(positional[0], nargs=positional[1])
        for row in SETTINGS:
            if command not in row.commands:
                continue
            if row.kind is bool:
                p.add_argument(row.flag, dest=row.key, action="store_true", default=None,
                               help=row.help)
            else:
                p.add_argument(row.flag, dest=row.key, type=row.kind, choices=row.choices,
                               help=row.help)
        p.set_defaults(func=globals()[f"_cmd_{command}"])
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
    except (RagradeError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError, PermissionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime catch-all for exit code 2
        logger.exception("unexpected failure")
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
