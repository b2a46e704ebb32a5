"""List the lines of the package that no tier-1 test executes.

Runs the test suite in this process under `sys.settrace`, recording the
lines executed in the files of `src/eulerpoisson`, then prints every
executable line (from the compiled code objects' `co_lines`) that never
ran, one `file:line: source` per line.  Tests that run the CLI in a fresh
process are not traced, so a line that only they reach is listed too.  It
also lists every call site of `errors.raise_where` in the package that ran
but never raised, one `file:line: source never raised` per site: the tracer
records the caller's file and line on each call, and again when
`raise_where` reaches its `raise`.

    python tools/untested_lines.py              # the whole suite
    python tools/untested_lines.py tests/test_ode.py -k Trajectory

Arguments are passed to pytest.  Tracing roughly doubles the suite's wall
time, so the suite holds its bounds of a few milliseconds of wall time only
when `sys.gettrace()` is None; under this tool those tests check their
behaviour alone, and the result does not depend on the host's load.

It exits 0 exactly when it lists no line or site and every test passes: 1
when one is listed, else pytest's exit code.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eulerpoisson"


def executable_lines(code: types.CodeType) -> set[int]:
    """Line numbers of every instruction of `code` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def raise_line(path: Path) -> int:
    """The line of the `raise` in `raise_where` of the module at `path`."""
    tree = ast.parse(path.read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "raise_where")
    return next(n.lineno for n in ast.walk(fn) if isinstance(n, ast.Raise))


def main(argv: list[str]) -> int:
    import pytest  # imported before tracing starts, so its own import is not traced

    sources = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in sources}
    errors, raise_at = str(PACKAGE / "errors.py"), raise_line(PACKAGE / "errors.py")
    called: set[tuple[str, int]] = set()  # the raise_where call sites that ran
    raised: set[tuple[str, int]] = set()  # and those that raised

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def in_raise_where(frame, event, arg):
        if event == "line":
            ran[errors].add(frame.f_lineno)
            if frame.f_lineno == raise_at:
                raised.add((frame.f_back.f_code.co_filename, frame.f_back.f_lineno))
        return in_raise_where

    def tracer(frame, event, arg):
        code = frame.f_code
        lines = ran.get(code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # a call event stands on the def (or decorator) line
        if code.co_name == "raise_where" and code.co_filename == errors:
            called.add((frame.f_back.f_code.co_filename, frame.f_back.f_lineno))
            return in_raise_where
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)

    listed = False
    for name, path in sources.items():
        text = path.read_text()
        src_lines = text.splitlines()
        missed = executable_lines(compile(text, name, "exec")) - ran[name]
        quiet = sorted(line for file, line in called - raised if file == name)
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}: {src_lines[line - 1].strip()}")
        for line in quiet:
            print(f"{path.relative_to(ROOT)}:{line}: {src_lines[line - 1].strip()} never raised")
        listed = listed or bool(missed or quiet)
    return 1 if listed else int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
