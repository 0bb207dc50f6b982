#!/usr/bin/env python3
"""Report the lines of src/ragrade that the tier-1 tests never run.

Standard library only (``coverage`` is not a dependency):

    python scripts/linecov.py [extra pytest arguments]

It runs tier-1 (``python -m pytest -q --continue-on-collection-errors``, plus
any extra arguments) with a ``sitecustomize`` module first on ``PYTHONPATH``.
Every Python process that the tests start, subprocesses included, imports it
and records each line of ``src/ragrade`` it executes, in every thread
(``sys.settrace`` and ``threading.settrace``), into one file per process. A
process that ends without running ``atexit`` handlers (``os._exit``, a kill)
records nothing. The executable lines of a file are the line starts of its
compiled code objects. The report prints each file's never-run lines, then
one last line with the count. It always exits 0: it reports, it does not gate.
"""

import dis
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ragrade"

# written as sitecustomize.py into a temporary directory that leads PYTHONPATH
_SITECUSTOMIZE = r'''
import atexit, os, sys, threading

_package = os.environ["LINECOV_PACKAGE"] + os.sep
_out = os.environ["LINECOV_OUT"]
_hit = set()
_ours = {}


def _local(frame, event, arg):
    if event == "line":
        _hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    ours = _ours.get(filename)
    if ours is None:
        ours = _ours[filename] = os.path.realpath(filename).startswith(_package)
    if not ours:
        return None
    _hit.add((filename, frame.f_lineno))
    return _local


def _dump():
    sys.settrace(None)
    path = os.path.join(_out, f"{os.getpid()}-{os.urandom(4).hex()}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        for filename, line in _hit:
            fh.write(f"{os.path.realpath(filename)}\t{line}\n")


atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
'''


def executable_lines(path: Path) -> set:
    """The line starts of every code object compiled from ``path``."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # 0: no line
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def _ranges(lines) -> str:
    """[1, 2, 3, 7] -> "1-3, 7"."""
    runs = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "hits")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(_SITECUSTOMIZE, encoding="utf-8")
        env = dict(os.environ, LINECOV_PACKAGE=str(PACKAGE), LINECOV_OUT=str(out))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", *argv]
        tests = subprocess.run(cmd, cwd=ROOT, env=env)
        hit = set()
        for dump in out.iterdir():
            for record in dump.read_text(encoding="utf-8").splitlines():
                filename, line = record.split("\t")
                hit.add((filename, int(line)))

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = lines - {line for filename, line in hit if filename == str(path.resolve())}
        total, missed = total + len(lines), missed + len(never)
        if never:
            print(f"{path.relative_to(ROOT)}: {len(never)} never run: {_ranges(never)}")
    print(f"tier-1 exited {tests.returncode}")
    print(f"{missed} of {total} executable lines never run")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
