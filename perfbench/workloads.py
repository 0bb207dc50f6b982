"""The three benchmark workloads and one repetition of the CLI flow.

Load shape: one grading process at a time, in a closed loop (``run_split``
keeps ``--concurrency 2`` requests outstanding; vote is sequential by
design), against one stub child process. The baseline host has 2 cores, so
a wider grid would measure the scheduler, not ragrade.
"""

import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from corpus import Shape

HERE = Path(__file__).resolve().parent
EMBED_DIM = 32
# a run must end within 180 s, so a hung command is killed before that
RUN_LIMIT_S = 170


class CheckFailed(Exception):
    """An output of ragrade was wrong; the run prints no numbers."""


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    setup: str  # "index" or "optimize"
    grade_flags: Tuple[str, ...]
    split: str
    chat: bool
    remote_embed: bool
    k: int = 0
    chat_latency_s: float = 0.0  # the stub model's fixed reply latency

    @property
    def mode(self) -> str:
        return self.grade_flags[self.grade_flags.index("--mode") + 1]


OPTIMIZE_FLAGS = ("--budget", "8", "--k-max", "4", "--dev-count", "16", "--concurrency", "2")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="vote-5k",
            shape=Shape(train=5000, train_questions=100, test_ua=40, test_uq=10,
                        test_uq_questions=2, vocab=20000, zipf_s=1.0),
            setup="index",
            grade_flags=("--mode", "vote", "--k", "5"),
            split="test_ua",
            chat=False,
            remote_embed=False,
            k=5,
        ),
        Workload(
            name="rag-1k",
            shape=Shape(train=1000, train_questions=40, test_ua=120, test_uq=10,
                        test_uq_questions=2, vocab=8000, zipf_s=1.0),
            setup="index",
            grade_flags=("--mode", "rag", "--k", "3", "--concurrency", "2"),
            split="test_ua",
            chat=True,
            remote_embed=True,
            k=3,
            # an item costs about 28 ms of the grader's CPU, retrieval most of it;
            # at 20 or 40 ms the two workers were CPU-bound or at the knee, and
            # throughput followed the host's speed swings (ten-seed spreads to 0.32)
            chat_latency_s=0.100,
        ),
        Workload(
            name="optimized-faulty",
            shape=Shape(
                train=1000, train_questions=40, test_ua=10, test_uq=200,
                test_uq_questions=10, vocab=8000, zipf_s=1.0,
                # no 429s in train: the optimizer replays its 16 dev items in every
                # trial, so one 0.5 s backoff item there would make set-up bimodal
                fault_rates={
                    "train": {"recover": 0.20, "hard": 0.05},
                    "test_uq": {"recover": 0.20, "hard": 0.05, "429": 0.03},
                },
            ),
            setup="optimize",
            grade_flags=("--mode", "optimized", "--concurrency", "2"),
            split="test_uq",
            chat=True,
            remote_embed=False,
            chat_latency_s=0.020,
        ),
    )
}


@dataclass
class Command:
    wall_s: float
    maxrss_kb: int
    result: Dict


@dataclass
class Rep:
    traced: bool
    commands: Dict[str, Command] = field(default_factory=dict)
    stub_setup: Dict[str, int] = field(default_factory=dict)
    stub_grade: Dict[str, int] = field(default_factory=dict)
    prompts: Optional[List[str]] = None
    manifest: Optional[Dict] = None
    report: Optional[Dict] = None
    index_bytes: int = 0
    manifest_bytes: int = 0
    program: Optional[Dict] = None

    @property
    def setup_s(self) -> float:
        return sum(c.wall_s for n, c in self.commands.items() if n in ("ingest", "index", "optimize"))


def run_command(root: Path, rep_dir: Path, argv: List[str], traced: bool,
                deadline: Optional[float] = None) -> Command:
    """One ``ragrade`` command in a fresh worker process, killed at ``deadline``."""
    result_path = rep_dir / f"{argv[0]}.result.json"
    timeout = RUN_LIMIT_S if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(root), str(result_path),
             "1" if traced else "0", "--", *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"`ragrade {argv[0]}` did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not result_path.exists():
        raise CheckFailed(f"worker for `ragrade {argv[0]}` exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["rc"] != 0:
        raise CheckFailed(f"`ragrade {' '.join(argv)}` exited {result['rc']}: "
                          f"{proc.stdout.strip()[-500:]} {proc.stderr.strip()[-2000:]}")
    expected = (root / "src" / "ragrade" / "__init__.py").resolve()
    if Path(result["ragrade"]) != expected:
        raise CheckFailed(f"worker imported ragrade from {result['ragrade']}, not {expected}")
    return Command(result["wall_s"], result["maxrss_kb"], result)


def run_rep(wl: Workload, root: Path, corpus: Path, rep_dir: Path, stub, traced: bool,
            want_prompts: bool, deadline: float) -> Rep:
    """ingest -> index | optimize -> grade -> evaluate, each command timed."""
    rep_dir.mkdir(parents=True)
    rep = Rep(traced=traced)
    common = ["--out-dir", str(rep_dir)]
    embed = ["--embed-backend", "remote", "--embed-endpoint", stub.url + "/embed"] if wl.remote_embed else []
    model = ["--endpoint", stub.url, "--model", "stub"] if wl.chat else []
    program = rep_dir / "program.json"
    manifest = rep_dir / "manifest.json"

    def run(argv):
        rep.commands[argv[0]] = run_command(root, rep_dir, argv, traced, deadline)

    if stub:
        stub.command("reset")
    run(["ingest", str(corpus), *common])
    if wl.setup == "index":
        run(["index", "--split", "train", *embed, *common])
        rep.index_bytes = (rep_dir / "index.rgix").stat().st_size
    else:
        run(["optimize", *OPTIMIZE_FLAGS, "--out", str(program), *model, *common])
        rep.program = json.loads(program.read_text(encoding="utf-8"))
    if stub:
        rep.stub_setup = dict(stub.counts())
        stub.command("reset")
    grade = ["grade", *wl.grade_flags, "--split", wl.split, "--out", str(manifest), *embed, *model, *common]
    if wl.setup == "optimize":
        grade += ["--program", str(program)]
    run(grade)
    if stub:
        rep.stub_grade = dict(stub.counts())
        if want_prompts:
            rep.prompts = stub.command("prompts")["prompts"]
    rep.manifest_bytes = manifest.stat().st_size
    rep.manifest = json.loads(manifest.read_text(encoding="utf-8"))
    run(["evaluate", str(manifest), "--with-text-metrics"])
    rep.report = json.loads((rep_dir / "manifest.report.json").read_text(encoding="utf-8"))
    return rep
