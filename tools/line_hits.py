"""List the executable lines of src/collatzlab that no test runs.

Runs pytest in this process under sys.settrace (and threading.settrace),
recording each executed line of src/collatzlab/*.py and nothing else.  The
executable lines of a module are those of its compiled code objects, read
with `co_lines`.  Every executable line that no test ran is printed as
`module:line  source`, followed by a count per module and the total.

A line that runs only in a worker process counts as not run: the tracer
sees this process alone, so the spans that `verify_range(threads=2)` hands
to its process pool are missed.

Uses the standard library and pytest only; any arguments are passed to
pytest.  Tracing makes the suite several times slower, so a slow test may
be worth deselecting:

    python tools/line_hits.py -q -k "not primegame_fifty"

The exit status is pytest's.
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "collatzlab"


def executable_lines(code: types.CodeType) -> set[int]:
    """The line numbers of code and of every code object nested in it."""
    lines = set()
    stack = [code]
    while stack:
        c = stack.pop()
        lines.update(line for _, _, line in c.co_lines() if line)
        stack.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return lines


def main(args: list[str]) -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    hits = {str(p): set() for p in paths}
    owner = {}  # co_filename -> its set in hits, or None outside the package

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            owner[name] = hits.get(os.path.realpath(name))
        return None if owner[name] is None else trace_lines

    def trace_lines(frame, event, arg):
        if event == "line":
            owner[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    counts = {}
    for path in paths:
        source = path.read_text()
        code = compile(source, str(path), "exec")
        missed = sorted(executable_lines(code) - hits[str(path)])
        text = source.splitlines()
        for line in missed:
            print(f"{path.stem}:{line}  {text[line - 1].strip()}")
        counts[path.stem] = len(missed)
    print()
    for name, n in counts.items():
        print(f"{name:<12}{n:>6}")
    print(f"{'total':<12}{sum(counts.values()):>6}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
