"""List the lines of the package that no task of the benchmark's pools reaches.

Runs every task of the `orbits`, `profiles` and `verify` pools of each seed
(`perfbench/workloads.py`, sized from --seconds as `perfbench/run.py` sizes
them) through `cli.main` in-process, as `tools/pool_digest.py` does, under
`sys.settrace`, recording the lines executed in the files of
`src/eulerpoisson` (the package is imported under the tracer, so its
module-level lines count).  Then it prints every executable line
(`tools/untested_lines.py::executable_lines`) that no task ran, one
`file:line: source` per line, and a last line counting them.  A line listed
here is one that no benchmark workload justifies.  The systems' bodies that
`ode.integrate` pastes into its generated run are not lines of a package
file, so they are not counted either way.

    python tools/pool_lines.py                        # seeds 20261017 555 1, 30 s pools
    python tools/pool_lines.py --seeds 555 --seconds 10

It writes only to a temporary directory, and exits 0.  Tracing slows the
pools about fourfold.  No part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eulerpoisson"
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]

from pool_digest import WORKLOADS, _run_task  # noqa: E402
from untested_lines import executable_lines  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[20261017, 555, 1])
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="pool size as the benchmark's --seconds sets it")
    args = ap.parse_args(argv)
    import workloads

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
    tasks = 0
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(tracer)
        try:
            from eulerpoisson import cli

            for workload in WORKLOADS:
                for seed in args.seeds:
                    size = workloads.pool_size(workload, args.seconds)
                    for task in workloads.make_pool(workload, seed, size):
                        outdir = Path(tmp) / f"{workload}-{seed}-{tasks}"
                        outdir.mkdir()
                        _run_task(cli, task.argvs, outdir, hashlib.sha256())
                        tasks += 1
        finally:
            sys.settrace(None)

    listed = total = 0
    for name, path in sources.items():
        text = path.read_text()
        src_lines = text.splitlines()
        lines = executable_lines(compile(text, name, "exec"))
        for line in sorted(lines - ran[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {src_lines[line - 1].strip()}")
        listed, total = listed + len(lines - ran[name]), total + len(lines)
    print(f"{listed} of {total} executable lines reached by no task of {tasks} "
          f"(seeds {args.seeds}, --seconds {args.seconds})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
