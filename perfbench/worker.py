"""Runs one ragrade CLI command in a fresh process and reports on it.

Usage: python3 worker.py ROOT RESULT_JSON TRACE -- COMMAND ARGS...

A CLI user starts every command with empty module caches (the
deterministic embedder's, the remote-client table), so the benchmark runs
each command in its own process too. Only ``ragrade.cli.main`` is timed;
interpreter start and imports are not. With TRACE=1 the call-site spans
of ``spans.install`` are recorded and written out with the result.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    root, result_path, trace = Path(argv[0]), Path(argv[1]), argv[2] == "1"
    cli_argv = argv[argv.index("--") + 1 :]
    sys.path.insert(0, str(root / "src"))
    from ragrade import cli

    result = {}
    if trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
        run = tracer.wrap(f"cli.{cli_argv[0]}", cli.main)
    else:
        run = cli.main

    start = time.perf_counter()
    rc = run(cli_argv)
    result["wall_s"] = time.perf_counter() - start
    result["rc"] = rc
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["ragrade"] = str(Path(sys.modules["ragrade"].__file__).resolve())
    if trace:
        result["spans"] = tracer.spans
        result["det_calls"] = tracer.counts["calls"]
        result["det_distinct"] = len(tracer.distinct)
        result["chat_clients"] = tracer.counts["chat_clients"]
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
