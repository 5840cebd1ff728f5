"""List the statements of src/entroprod that a test run never executes.

    python tools/uncovered.py                 # Tier-1, every statement
    python tools/uncovered.py --raises        # only `raise` statements
    python tools/uncovered.py -- tests/test_core.py -k thermal

Runs pytest in this process under a standard-library line tracer
(`sys.settrace`, and `threading.settrace` for the CLI's worker threads),
then prints each statement of the package that never ran as
`path:line: source`, file by file, and a count.  A statement is a line that
holds bytecode (`co_lines` of every code object of the compiled module).
The arguments after `--` go to pytest (default: the Tier-1 suite under
tests/).  A traced run takes about six times as long as Tier-1 itself, so
it is not part of Tier-1.  Exit status is pytest's.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entroprod"


def statement_lines(path: Path) -> set[int]:
    """The lines of `path` that hold bytecode, in any of its code objects."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace_run(pytest_args) -> tuple[int, dict]:
    """pytest's exit status and the lines executed per file of the package."""
    seen: dict[str, set[int]] = {}
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--raises", action="store_true", help="list only raise statements")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = parser.parse_args(argv)
    status, seen = trace_run(args.pytest_args or [str(ROOT / "tests")])
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = sorted(statement_lines(path))
        if args.raises:
            lines = [n for n in lines if source[n - 1].lstrip().startswith("raise ")]
        never = [n for n in lines if n not in seen.get(str(path), ())]
        total, missed = total + len(lines), missed + len(never)
        for n in never:
            print(f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}")
    kind = "raise statements" if args.raises else "statements"
    print(f"{missed} of {total} {kind} in {PACKAGE.relative_to(ROOT)} never ran")
    return status


if __name__ == "__main__":
    sys.exit(main())
