"""Peak-RSS rise of one run against the bytes of the arrays it keeps.

Runs either the reference run of a long scale factor,
`integrate_scale(EmdenParams(1, 1, 1, 1), t_end)` (t_end 20000 by default,
about 130,000 nodes), or one command of the `eulerpoisson` CLI, and prints
how far the run raised the peak resident set (`resource.getrusage`'s
`ru_maxrss`, read after the package is imported and before the run) beside
the bytes of the arrays of the largest trajectory built during the run
(`ts`, `ys`, `fs` and `cont`).  The package is imported and the run made
in a child forked before the import: Linux carries `ru_maxrss` across
`exec`, so a process started by a larger one (a test suite, say) begins
with that one's peak and would report no rise at all, while a forked
child's peak starts at its own size.

    python tools/peak_memory.py                      # the reference run
    python tools/peak_memory.py --t-end 4600         # the same orbit, about 30,000 nodes
    python tools/peak_memory.py -- fields --family rotational --t1 1e10

A CLI command writes its files into a temporary directory: `--outdir` and
that directory go right after the command's name, so an `--outdir` of its
own, which comes later, wins.  The output is one `name value` pair per line,
sizes in MiB: `peak_rss_rise_mb`, `kept_arrays_mb`, `nodes` (of the largest
trajectory), `trajectories` and `exit` (the command's exit code, 0 for the
reference run).  The spy wraps `Trajectory.__init__`, so `trajectories`
counts every trajectory constructed, those built outside `integrate` too,
such as the lone start node of `period`.  Linux only: `ru_maxrss` is read in
KiB.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MIB = 1024 * 1024


def _peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def measure(argv: list[str] | None, t_end: float = 20000.0) -> dict[str, float]:
    """The peak-RSS rise of one run (the CLI on `argv`, or the reference run to
    `t_end` when `argv` is None) and the arrays of its largest trajectory."""
    sys.path.insert(0, str(SRC))
    from eulerpoisson import cli, ode
    from eulerpoisson.emden import EmdenParams, integrate_scale

    built = []
    init = ode.Trajectory.__init__

    def spy(traj, *args, **kwargs):
        init(traj, *args, **kwargs)
        built.append((sum(a.nbytes for a in (traj.ts, traj.ys, traj.fs, traj.cont)), traj.n_nodes))

    ode.Trajectory.__init__ = spy
    try:
        with tempfile.TemporaryDirectory() as out:
            before = _peak_rss()
            code = 0
            if argv is None:
                integrate_scale(EmdenParams(1.0, 1.0, 1.0, 1.0), t_end)
            else:
                code = cli.main([argv[0], "--outdir", out, *argv[1:]])
            rise = _peak_rss() - before
    finally:
        ode.Trajectory.__init__ = init
    kept, nodes = max(built, default=(0, 0))
    return {"peak_rss_rise_mb": rise / MIB, "kept_arrays_mb": kept / MIB, "nodes": nodes,
            "trajectories": len(built), "exit": code}


def measure_forked(argv: list[str] | None, t_end: float = 20000.0) -> dict[str, float]:
    """`measure` in a child forked from this small process, so that its peak
    RSS starts at its own size, not at a peak inherited across `exec`."""
    read, write = os.pipe()
    pid = os.fork()
    if not pid:  # the child reports through the pipe and never returns
        os.close(read)
        code = 1
        try:
            with os.fdopen(write, "w") as out:
                json.dump(measure(argv, t_end), out)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as result:
        text = result.read()
    if os.waitpid(pid, 0)[1]:
        raise SystemExit("the measured run failed")
    return json.loads(text)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t-end", type=float, default=20000.0,
                        help="end time of the reference run (default 20000)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="a CLI argv after `--`; none runs the reference run")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    result = measure_forked(command or None, args.t_end)
    for name, value in result.items():
        print(f"{name} {value:.1f}" if isinstance(value, float) else f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
