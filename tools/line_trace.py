"""Count the lines of ``src/zeno_limits`` that a test run never executes.

Usage, from the repository root::

    python tools/line_trace.py            # traces the tier-1 suite (``pytest -q tests``)
    python tools/line_trace.py tests/test_read.py -x   # any pytest arguments instead

The executable lines of a source file are the line numbers that the
``co_lines`` of its code objects (the module's and every nested one)
name.  The suite runs in this process under a ``sys.settrace`` tracer
that records each line event in those files, so no coverage package is
needed; tracing roughly doubles the suite's wall time.  The tool prints
every executable line that never ran and exits 1 when one of them is
not in ``ALLOWED``, or with pytest's own code when the suite fails
(a failed run proves nothing about its lines).

``ALLOWED`` names each line by its file and its stripped source text,
so that it survives edits elsewhere in the file, and gives the reason
the suite cannot reach it.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zeno_limits"

#: (file name, stripped source line) -> why the test suite never runs that line
ALLOWED = {
    ("cli.py", "raise SystemExit(main())"):
        "the body of the __main__ guard runs only in a `python -m zeno_limits.cli` process, "
        "which an in-process tracer does not see",
}


def executable_lines(path: Path) -> set[int]:
    """The line numbers named by the ``co_lines`` of every code object compiled from ``path``."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None: no line; 0: a module's RESUME
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def run_traced(paths, run) -> dict[Path, set[int]]:
    """Call ``run()`` with a line tracer on; return the lines it executed in each of ``paths``.

    Files are matched by resolved path, so a module imported through a
    relative ``sys.path`` entry counts too.  The previous tracers are
    restored afterwards.
    """
    wanted = {Path(p).resolve() for p in paths}
    resolved: dict[str, Path | None] = {}
    hits: dict[Path, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[resolved[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            path = Path(os.path.realpath(name))
            resolved[name] = path if path in wanted else None
        if resolved[name] is None:
            return None
        hits[resolved[name]].add(frame.f_lineno)
        return local

    old, old_thread = sys.gettrace(), threading.gettrace()
    sys.settrace(start)
    threading.settrace(start)
    try:
        run()
    finally:
        sys.settrace(old)
        threading.settrace(old_thread)
    return dict(hits)


def never_run(paths, hits: dict[Path, set[int]]) -> list[tuple[Path, int, str]]:
    """(path, line, stripped source) for every executable line of ``paths`` not in ``hits``."""
    out = []
    for path in sorted(Path(p).resolve() for p in paths):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - hits.get(path, set())):
            out.append((path, line, source[line - 1].strip()))
    return out


def report(missed, allowed, total: int, out=sys.stdout) -> int:
    """Print the never-run lines and return 1 if any is not in ``allowed``, else 0."""
    unallowed = 0
    for path, line, text in missed:
        reason = allowed.get((path.name, text))
        unallowed += reason is None
        print(f"{path.name}:{line}: {text}  [{'allowed: ' + reason if reason else 'NOT ALLOWED'}]", file=out)
    print(f"{len(missed)} of {total} executable lines never ran; {unallowed} not allowed", file=out)
    return 1 if unallowed else 0


def main(argv: list[str]) -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    status = []
    os.chdir(ROOT)
    hits = run_traced(paths, lambda: status.append(pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])))
    if status[0] != 0:
        print(f"the test run failed (pytest exit code {int(status[0])}); no line count", file=sys.stderr)
        return int(status[0])
    return report(never_run(paths, hits), ALLOWED, sum(len(executable_lines(p)) for p in paths))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
