#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the eulerpoisson CLI.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 35 --trace 0

One process, one closed-loop client: `eulerpoisson.cli.main(argv)` is called
in-process on one task after another, and every task's outputs are checked.
The pool of tasks is generated from --seed and sized from --seconds (see
workloads.py); one pass over it is the timed run.

--trace 0 prints the end-to-end metrics of the timed run, with its times
converted to the host's nominal speed (see hostspeed.py).  --trace 1 runs
the first few tasks of the pool untraced and then again under span tracing,
and prints the per-layer metrics of the traced replay only.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when a result is printed,
1 when no task completed, and 2 when the package source is missing or the
arguments are bad.
"""

import os

# single-threaded numerics, pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import hostspeed  # sibling module; imports numpy, so after the pinning above

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("orbits", "profiles", "verify")
# Seed kept out of tuning, for confirming a claim made on other seeds.
CONFIRM_SEED = 20261017
SETUP_REPEATS = 7
DOMAIN_EXIT = 2  # the CLI's documented exit code for domain/range errors


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# running and checking one task
# ----------------------------------------------------------------------


def _normalise(msg: str) -> str:
    return re.sub(r"[-+]?\d[\d.eE+-]*", "#", msg.strip())


def run_task(cli, task, outdir: Path):
    """Run a task's commands, then its check.

    Returns (wall seconds of the commands, failure reason or None, wrong),
    where wrong marks an outcome that is not a documented, typed error:
    a failed output check, an escaped exception or an exit code other
    than the domain/range code.
    """
    for old in outdir.iterdir():
        old.unlink()
    err = io.StringIO()
    code = 0
    t0 = perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            for argv in task.argvs:
                code = cli.main(argv + ["--outdir", str(outdir)])
                if code != 0:
                    break
    except Exception as exc:  # a traceback the CLI let through
        return perf_counter() - t0, f"raised {type(exc).__name__}", True
    dt = perf_counter() - t0
    if code != 0:
        lines = [ln for ln in err.getvalue().splitlines() if "error:" in ln]
        msg = lines[-1].split("error:", 1)[1] if lines else ""
        return dt, f"exit {code}:{_normalise(msg)}", code != DOMAIN_EXIT
    try:
        reason = task.check(task, outdir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        reason = f"unreadable output ({type(exc).__name__}: {exc})"
    if reason is not None:
        return dt, f"check: {_normalise(reason)}", True
    return dt, None, False


class Tally:
    """Completed-task wall times and failures by reason."""

    def __init__(self):
        self.times: list[float] = []
        self.failures: Counter = Counter()
        self.wrong = 0

    def add(self, dt, failure, wrong) -> None:
        if failure is None:
            self.times.append(dt)
        else:
            self.failures[failure] += 1
            self.wrong += wrong

    @property
    def attempted(self) -> int:
        return len(self.times) + sum(self.failures.values())


def run_pass(cli, tasks, outdir, probes=None):
    """Run the tasks in order; returns the tally and their wall time.

    With a probes list, the host speed probe runs after every task and its
    times are appended there; they are left out of the wall time.
    """
    tally = Tally()
    wall = 0.0
    for task in tasks:
        t0 = perf_counter()
        tally.add(*run_task(cli, task, outdir))
        wall += perf_counter() - t0
        if probes is not None:
            probes.append(hostspeed.probe())
    return tally, wall


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least 10 samples beyond it, and its
    percentile.  With 10 samples or fewer the smallest is returned."""
    xs = sorted(times)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * (i + 1) / len(xs)


def measure_setup(probes: list[float]) -> list[float]:
    """Fresh interpreter until `import eulerpoisson.cli` returns, repeated,
    with the host speed probe after every launch.

    One unmeasured launch first writes the bytecode cache, which a CLI user
    pays once, not per command.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import eulerpoisson.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
        probes.append(hostspeed.probe())
    return times


def end_to_end(cli, pool, outdir, report):
    """Times of the untraced pass, converted to the host's nominal speed.

    Times are multiplied, and the rate divided, by hostspeed.factor of the
    probes taken between launches and tasks; the measured values are kept
    in the record line.
    """
    probes: list[float] = []
    setup = measure_setup(probes)
    run_task(cli, pool[0], outdir)  # warm-up, not counted
    tally, wall = run_pass(cli, pool, outdir, probes)
    if not tally.times:
        return tally, None
    f = hostspeed.factor(probes)
    tail_s, tail_pct = tail(tally.times)
    measured = {
        "tasks_per_s": len(tally.times) / wall,
        "task_p50_s": statistics.median(tally.times),
        "task_tail_s": tail_s,
        "setup_s": statistics.median(setup),
    }
    report["task_tail"] = {"percentile": tail_pct, "completed": len(tally.times)}
    report["setup_runs_s"] = setup
    report["host_speed"] = {"factor": f, "probes": len(probes),
                            "probe_median_s": statistics.median(probes),
                            "nominal_s": hostspeed.NOMINAL_S}
    report["measured"] = measured
    metrics = {
        "tasks_per_s": (measured["tasks_per_s"] / f, "1/s"),
        "task_p50_s": (measured["task_p50_s"] * f, "s"),
        "task_tail_s": (measured["task_tail_s"] * f, "s"),
        "completed_share": (len(tally.times) / tally.attempted, "ratio"),
        "setup_s": (measured["setup_s"] * f, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return tally, metrics


# ----------------------------------------------------------------------
# per-layer metrics from a traced replay
# ----------------------------------------------------------------------


def stencil_points(outdir: Path) -> int:
    """Stencil centres behind the residual checks in verify.json: for each
    convergence check, n_points per step size.  Counted from the report, so
    the count holds however the checks share their field samples."""
    path = outdir / "verify.json"
    if not path.is_file():
        return 0
    rep = json.loads(path.read_text())
    return sum(rep["n_points"] * len(c["h_list"])
               for c in rep["checks"] if c["kind"] == "convergence")


def per_layer(cli, workload, pool, outdir):
    import tracing
    import workloads

    tasks = pool[: workloads.TRACED_TASKS[workload]]
    run_task(cli, tasks[0], outdir)  # warm-up, not counted
    _, untraced_wall = run_pass(cli, tasks, outdir)

    tracer = tracing.Tracer()
    tally = Tally()
    bytes_written = points = 0
    tracer.install()
    try:
        root = tracer.intern(tracing.TASK)
        t0 = perf_counter()
        for task in tasks:
            idx = tracer.begin(root)
            tally.add(*run_task(cli, task, outdir))
            bytes_written += sum(p.stat().st_size for p in outdir.iterdir())
            points += stencil_points(outdir)
            tracer.finish(idx)
        traced_wall = perf_counter() - t0
    finally:
        tracer.uninstall()

    s = tracer.summary()
    c = tracer.counts

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    integ_total = get("ode.integrate", "total_s")
    steps = c["steps"]
    rhs_calls = get(tracing.RHS, "calls")
    panels = c["quad_evals"] / 15.0
    us = 1e6
    m = {
        "ode.integrate.calls": (get("ode.integrate", "calls"), "count"),
        "ode.integrate.steps": (steps, "count"),
        "ode.integrate.rhs_calls": (rhs_calls, "count"),
        "ode.integrate.rhs_per_step": (per(rhs_calls, steps), "ratio"),
        "ode.integrate.self_s": (get("ode.integrate", "self_s"), "s"),
        "ode.integrate.us_per_step": (per(integ_total, steps, us), "us"),
        "ode.rhs.us_per_call": (per(get(tracing.RHS, "total_s"), rhs_calls, us), "us"),
        "ode.state_at.calls": (get(tracing.STATE_AT, "calls"), "count"),
        "ode.state_at.us_per_call": (
            per(get(tracing.STATE_AT, "total_s"), get(tracing.STATE_AT, "calls"), us), "us"),
        "ode.detect_events.calls": (get("ode.detect_events", "calls"), "count"),
        "ode.detect_events.segments": (c["segments"], "count"),
        "ode.detect_events.us_per_segment": (
            per(get("ode.detect_events", "total_s"), c["segments"], us), "us"),
        "ode.quad.calls": (get("ode.quad", "calls"), "count"),
        "ode.quad.panels": (panels, "count"),
        "ode.quad.us_per_panel": (per(get("ode.quad", "total_s"), panels, us), "us"),
        "emden.period_by_simulation.self_s": (get("emden.period_by_simulation", "self_s"), "s"),
        "emden.period_by_simulation.chunks": (
            tracer.child_calls("ode.integrate", "emden.period_by_simulation"), "count"),
        "emden.period_by_quadrature.total_s": (get("emden.period_by_quadrature", "total_s"), "s"),
        "emden.integrate_scale.total_s": (get("emden.integrate_scale", "total_s"), "s"),
        "liouville.solve_profile.total_s": (get("liouville.solve_profile", "total_s"), "s"),
        "liouville.solve_profile.nodes": (c["profile_nodes"], "count"),
        "liouville.enclosed_mass.calls": (get("liouville.enclosed_mass", "calls"), "count"),
        "liouville.enclosed_mass.us_per_call": (
            per(get("liouville.enclosed_mass", "total_s"),
                get("liouville.enclosed_mass", "calls"), us), "us"),
        "goldreich_weber.solve_gw_profile.total_s": (
            get("goldreich_weber.solve_gw_profile", "total_s"), "s"),
        "goldreich_weber.solve_gw_profile.nodes": (c["gw_nodes"], "count"),
        "goldreich_weber.gw_density.calls": (get("goldreich_weber.gw_density", "calls"), "count"),
        "goldreich_weber.gw_density.us_per_call": (
            per(get("goldreich_weber.gw_density", "total_s"),
                get("goldreich_weber.gw_density", "calls"), us), "us"),
        "fields.build_rotational.total_s": (get("fields.build_rotational", "total_s"), "s"),
        "fields.eval_rotational.calls": (get("fields.eval_rotational", "calls"), "count"),
        "fields.eval_rotational.self_us_per_call": (
            per(get("fields.eval_rotational", "self_s"),
                get("fields.eval_rotational", "calls"), us), "us"),
        "fields.eval_gravity_radial.us_per_call": (
            per(get("fields.eval_gravity_radial", "total_s"),
                get("fields.eval_gravity_radial", "calls"), us), "us"),
        "fields.eval_zz.calls": (get("fields.eval_zz", "calls"), "count"),
        "fields.eval_zz.us_per_call": (
            per(get("fields.eval_zz", "total_s"), get("fields.eval_zz", "calls"), us), "us"),
        "residuals.convergence_study.calls": (
            get("residuals.convergence_study", "calls"), "count"),
        "residuals.points": (points, "count"),
        "residuals.field_samples": (c["field_samples"], "count"),
        "residuals.samples_per_point": (per(c["field_samples"], points), "ratio"),
        "residuals.us_per_point": (
            per(get("residuals.convergence_study", "total_s"), points, us), "us"),
        "cli.main.total_s": (get("cli.main", "total_s"), "s"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "cli.bytes_written": (bytes_written, "B"),
        "trace.tasks": (len(tasks), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.self_share": (per(sum(v["self_s"] for v in s.values()), traced_wall), "ratio"),
    }
    return tally, m


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eulerpoisson" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy

    import eulerpoisson
    import workloads
    from eulerpoisson import cli

    if Path(eulerpoisson.__file__).resolve().parent != SRC / "eulerpoisson":
        print(f"perfbench: imported eulerpoisson from {eulerpoisson.__file__}", file=sys.stderr)
        return 2

    pool = workloads.make_pool(
        args.workload, args.seed, workloads.pool_size(args.workload, args.seconds))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "confirm_seed": CONFIRM_SEED,
        "trace": args.trace,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "pool": len(pool),
        "argv": [[" ".join(a) for a in t.argvs] for t in pool],
    }
    outdir = WORK / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tally, metrics = per_layer(cli, args.workload, pool, outdir)
        else:
            tally, metrics = end_to_end(cli, pool, outdir, report)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    report["failures"] = dict(sorted(tally.failures.items()))
    print("record " + json.dumps(report, sort_keys=True))
    if metrics is None:
        print("perfbench: no task completed", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        line = f"{name:42s} {value:.6g} {unit}"
        if name == "task_tail_s":
            t = report["task_tail"]
            line += f"  (p{t['percentile']:.1f} of {t['completed']} completed tasks)"
        print(line)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": sum(tally.failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
