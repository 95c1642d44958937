"""The executable lines of `src/` that a pytest run never reaches.

    python tests/line_probe.py [pytest arguments]

Run from the repository root. It runs pytest in this process (by default
`-q -p no:cacheprovider`, the tier-1 suite) under a `sys.settrace` line
collector that follows frames of `src/` only, then prints each line that
never ran as `path:line` and, last, how many there are out of how many.
Executable lines are those the compiled module maps an instruction to.
The run takes several times as long as the suite. Pytest does not collect
this file: its name does not start with `test_`."""

import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ran = set()


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(f"{SRC}{os.sep}"):
        return None  # no line events for frames outside src/
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return trace


def executable(source, path):
    """The line numbers of every instruction in the module and its nested code objects."""
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack += [c for c in code.co_consts if isinstance(c, type(code))]
    return lines


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.settrace(trace)
    status = pytest.main(sys.argv[1:] or ["-q", "-p", "no:cacheprovider"])
    sys.settrace(None)
    total = unrun = 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = executable(source, path)
        missed = sorted(lines - {line for f, line in ran if f == str(path)})
        total, unrun = total + len(lines), unrun + len(missed)
        for line in missed:
            print(f"{path.relative_to(SRC.parent)}:{line}: {source.splitlines()[line - 1].strip()}")
    print(f"{unrun} of {total} executable lines in src/ never ran (pytest exit {int(status)})")
