"""List the lines of the package that no tier-1 test executes.

Runs the test suite in this process under `sys.settrace`, recording the
lines executed in the files of `src/eulerpoisson`, then prints every
executable line (from the compiled code objects' `co_lines`) that never
ran, one `file:line: source` per line.  Tests that run the CLI in a fresh
process are not traced, so a line that only they reach is listed too.

    python tools/untested_lines.py              # the whole suite
    python tools/untested_lines.py tests/test_ode.py -k Trajectory

Arguments are passed to pytest.  Tracing roughly doubles the suite's wall
time, so the suite holds its bounds of a few milliseconds of wall time only
when `sys.gettrace()` is None; under this tool those tests check their
behaviour alone, and the result does not depend on the host's load.

It exits 0 exactly when it lists no line and every test passes: 1 when a
line is listed, else pytest's exit code.
"""

from __future__ import annotations

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


def main(argv: list[str]) -> int:
    import pytest  # imported before tracing starts, so its own import is not traced

    sources = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in sources}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # a call event stands on the def (or decorator) line
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
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}: {src_lines[line - 1].strip()}")
        listed = listed or bool(missed)
    return 1 if listed else int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
