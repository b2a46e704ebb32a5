"""One digest per benchmark workload of everything the `perfbench` pools write,
and one over a fixed list of single commands the pools do not run.

Runs every task of the `orbits`, `profiles` and `verify` pools of each seed
(`perfbench/workloads.py`, sized from --seconds as `perfbench/run.py` sizes
them) through `cli.main` in-process, as `run_task` does: a task's commands in
order, each in one fresh temporary directory, stopping at the first nonzero
exit.  Prints, per workload, the tasks, the output files and one sha256 over,
task by task, each command's exit code (or the exception it let through),
its stderr lines but the wall-time line, and every output file's name and
bytes.  The last line hashes `SINGLES` the same way, each command a task of
its own: every command at its defaults, `verify` with and without the
injected control, and `fields` on each of its five families.  Two source
trees that print the same lines wrote the same files.

    python tools/pool_digest.py                       # seeds 20261017 555 1, 30 s pools
    python tools/pool_digest.py --src ../parent --seeds 555 --seconds 10

The pools come from this tree's `perfbench/workloads.py`, which it only
reads, and the package from `<src>/src`.  It writes only to a temporary
directory.  No part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("orbits", "profiles", "verify")
WALL_LINE = re.compile(r"\S+: \d+\.\d+s wall")  # the one volatile line `cli.main` prints
SINGLES = [["emden"], ["liouville"], ["period"], ["verify"], ["verify", "--inject-corruption"],
           *(["fields", "--family", family]
             for family in ("rotational", "yuen", "zz-inner", "zz-outer", "gw"))]


def _run_task(cli, argvs: list[list[str]], outdir: Path, h) -> int:
    """Run one task's commands into the empty `outdir`, hash what they left, and
    return the number of output files."""
    for argv in argvs:
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(argv + ["--outdir", str(outdir)])
        except Exception as exc:  # a traceback the CLI let through
            code = f"raised {type(exc).__name__}: {exc}"
        h.update(f"{argv}\nexit {code}\n".encode())
        for line in err.getvalue().splitlines():
            if not WALL_LINE.fullmatch(line):
                h.update(f"stderr {line}\n".encode())
        if code != 0:
            break
    files = sorted(outdir.iterdir())
    for path in files:
        data = path.read_bytes()
        h.update(f"file {path.name} {len(data)}\n".encode())
        h.update(data)
    return len(files)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[20261017, 555, 1])
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="pool size as the benchmark's --seconds sets it")
    ap.add_argument("--src", type=Path, default=ROOT,
                    help="the source tree whose package runs the pools (default: this one)")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve() / "src"), str(ROOT / "perfbench")]
    from eulerpoisson import cli
    import workloads

    print(f"package {Path(cli.__file__).parent}, seeds {args.seeds}, --seconds {args.seconds}")
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            h, tasks, files = hashlib.sha256(), 0, 0
            for seed in args.seeds:
                pool = workloads.make_pool(workload, seed,
                                           workloads.pool_size(workload, args.seconds))
                for task in pool:
                    outdir = Path(tmp) / f"{workload}-{seed}-{tasks}"
                    outdir.mkdir()
                    files += _run_task(cli, task.argvs, outdir, h)
                    tasks += 1
            print(f"{workload:9s} tasks {tasks:4d}  files {files:4d}  sha256 {h.hexdigest()}")
        h, files = hashlib.sha256(), 0
        for i, argv in enumerate(SINGLES):
            outdir = Path(tmp) / f"single-{i}"
            outdir.mkdir()
            files += _run_task(cli, [argv], outdir, h)
        print(f"{'singles':9s} tasks {len(SINGLES):4d}  files {files:4d}  sha256 {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
