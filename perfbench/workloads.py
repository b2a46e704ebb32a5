"""Seeded task pools and output checks for the three benchmark workloads.

A task is one `eulerpoisson` CLI command, or for `profiles` a pair of
commands, given as argv lists without `--outdir` (the runner appends it).
Each task carries the parameters its check needs, so a check can be fed a
wrong reference to prove that it fails.

Parameters come from Latin hypercube samples of each workload's box: every
axis is cut into as many strata as the pool has tasks and each stratum is
drawn once.  Each point is uniform on the box, so the seed draws from all of
it, while the pools of different seeds stay alike.  Rotating orbits are
also stratified on their width (see `_by_width`), which decides whether the
period solvers give up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Pool size per second of --seconds: one pass over the pool takes about
# --seconds on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4).  The pool
# is fixed by seed and --seconds alone, so every run of a seed does the same
# work and fails the same tasks.
TASKS_PER_SECOND = {"orbits": 1.7, "profiles": 1.9, "verify": 0.8}
MIN_POOL = {"orbits": 8, "profiles": 2, "verify": 1}
# Tasks replayed under tracing; the first 8 orbits include one collapse.
TRACED_TASKS = {"orbits": 8, "profiles": 4, "verify": 2}

PERIOD_RTOL = 1e-6
TOUCHDOWN_RTOL = 1e-6
BRACKET_ATOL = 1e-8
ORDER_BAND = (1.8, 2.2)  # second-order convergence, as the verify bundle uses
EMDEN_SAMPLES = 1001  # the emden command's default --samples


@dataclass
class Task:
    """CLI argv lists run in order, and the check of their outputs.

    check(task, outdir) returns None when the outputs are right, else the
    reason they are wrong.
    """

    argvs: list[list[str]]
    expect: dict
    check: Callable[["Task", Path], str | None] = field(repr=False)


def pool_size(workload: str, seconds: float) -> int:
    return max(MIN_POOL[workload], round(TASKS_PER_SECOND[workload] * seconds))


def make_pool(workload: str, seed: int, size: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    return {"orbits": _orbits, "profiles": _profiles, "verify": _verify}[workload](rng, size)


def _lhs(rng: np.random.Generator, n: int, d: int) -> list[list[float]]:
    """n points in [0, 1)^d with one point in each 1/n stratum of every axis."""
    u = (np.arange(n)[:, None] + rng.random((n, d))) / n
    for j in range(d):
        u[:, j] = rng.permutation(u[:, j])
    return u.tolist()


def _log_uniform(u, lo, hi):
    return lo * (hi / lo) ** u


def _opt(name: str, value) -> str:
    """`--name=value`; the joined form keeps argparse from reading a negative
    number in exponent notation as an option."""
    return f"--{name}={value!r}"


# ----------------------------------------------------------------------
# orbits: `eulerpoisson emden` at its defaults
# ----------------------------------------------------------------------


def _orbits(rng, size):
    collapse_idx = {i for i in range(size) if i % 8 == 7}
    periodic = iter(_by_width(rng, size - len(collapse_idx)))
    collapse = iter(_lhs(rng, len(collapse_idx), 2))
    tasks = []
    for i in range(size):
        if i in collapse_idx:
            u = next(collapse)
            lam, xi, a0, a1 = _log_uniform(u[0], 0.25, 4.0), 0.0, 0.5 + 1.5 * u[1], 0.0
        else:
            lam, xi, a0, a1 = next(periodic)
        argv = ["emden", _opt("lam", lam), _opt("xi", xi), _opt("a0", a0), _opt("a1", a1)]
        tasks.append(Task([argv], {"lam": lam, "xi": xi, "a0": a0, "a1": a1}, check_orbit))
    return tasks


_CANDIDATES = 8


def _by_width(rng, n):
    """n rotating orbits from the box, stratified on orbit width.

    In u = ln(a / abar) the potential is lam * (u + e^(-2u)/2) + const, so the
    orbit's shape, and with it a_max/a_min, is a monotone function of
    (theta - V(abar)) / lam alone.  Out of 8n orbits drawn from the box, one
    is taken at random from each run of 8 in order of that energy: each pick
    is still uniform on the box, and every pool holds about the box's share
    of the wide orbits, where the period solvers give up.  Without this the
    failed count of a 60-task pool ranged 7-14 over five seeds.
    """
    cands = []
    for u in _lhs(rng, _CANDIDATES * n, 4):
        lam, xi = _log_uniform(u[0], 0.25, 4.0), _log_uniform(u[1], 0.25, 4.0)
        a0, a1 = 0.5 + 1.5 * u[2], -2.5 + 5.0 * u[3]
        theta = a1 * a1 / 2 + lam * math.log(a0) + xi * xi / (2 * a0 * a0)
        energy = theta / lam - 0.5 * math.log(xi * xi / lam) - 0.5
        cands.append((energy, (lam, xi, a0, a1)))
    cands.sort()
    picks = [cands[_CANDIDATES * k + int(rng.integers(_CANDIDATES))][1] for k in range(n)]
    return [picks[i] for i in rng.permutation(n)]


def check_orbit(task: Task, outdir: Path) -> str | None:
    e = task.expect
    report = json.loads((outdir / "emden_report.json").read_text())
    with open(outdir / "emden.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != EMDEN_SAMPLES:
        return f"emden.csv has {rows} rows, expected {EMDEN_SAMPLES}"
    # every orbit in the box has lam > 0: rotating ones are periodic, the
    # others collapse
    want = "periodic" if e["xi"] != 0 else "finite_time_blowup"
    if report["classification"] != want:
        return f"classified {report['classification']}, expected {want}"
    if want == "periodic":
        tq, ts = report["T_quadrature"], report["T_simulation"]
        if tq is None or ts is None:
            return "periodic orbit without both periods"
        rel = abs(tq - ts) / tq
        if not rel <= PERIOD_RTOL:
            return f"periods disagree by {rel:.3e}"
        return None
    # closed form for a'' = -lam/a from rest: a0 * sqrt(pi / (2 lam))
    ref = e["a0"] * math.sqrt(math.pi / (2.0 * e["lam"]))
    td = report["touchdown_time"]
    if td is None:
        return "collapse without touchdown time"
    rel = abs(td - ref) / ref
    if not rel <= TOUCHDOWN_RTOL:
        return f"touchdown off the closed form by {rel:.3e}"
    return None


# ----------------------------------------------------------------------
# profiles: `eulerpoisson liouville` then `eulerpoisson fields --family gw`
# ----------------------------------------------------------------------


def _profiles(rng, size):
    tasks = []
    for row in _lhs(rng, size, 6):
        n = 3 + min(int(4 * row[5]), 3)
        K, lam, alpha = 0.5 + 1.5 * row[0], 0.5 + 1.5 * row[1], -1.0 + 2.0 * row[2]
        gw_lam, gw_alpha = -0.5 * row[3], 0.5 + 1.5 * row[4]
        argvs = [
            ["liouville", _opt("K", K), _opt("lam", lam), _opt("alpha", alpha)],
            ["fields", "--family", "gw", _opt("N", n), _opt("lam", gw_lam), _opt("alpha", gw_alpha)],
        ]
        tasks.append(Task(argvs, {"K": K, "lam": lam}, check_profile))
    return tasks


def check_profile(task: Task, outdir: Path) -> str | None:
    e = task.expect
    cols = np.loadtxt(outdir / "liouville.csv", delimiter=",", skiprows=1, ndmin=2)
    s, fdot, mass = cols[:, 0], cols[:, 2], cols[:, 3]
    # the radial momentum balance, recomputed from the quadrature mass column
    bracket = np.max(np.abs(-e["lam"] * s + e["K"] * fdot + mass / s))
    if not bracket <= BRACKET_ATOL:
        return f"momentum bracket {bracket:.3e} from the liouville.csv columns"
    with open(outdir / "fields.csv") as fh:
        next(fh)
        rho = [float(line.split(",")[3]) for line in fh]
    if not rho:
        return "fields.csv has no samples"
    if not all(math.isfinite(r) and r >= 0.0 for r in rho):
        return "GW density negative or not finite"
    return None


# ----------------------------------------------------------------------
# verify: `eulerpoisson verify --inject-corruption --seed <derived>`
# ----------------------------------------------------------------------

# the as-printed spiral plus the three corrupted-field studies
NEGATIVE_CONTROLS = 4


def _verify(rng, size):
    seeds = rng.integers(0, 2**31 - 1, size)
    return [
        Task([["verify", "--inject-corruption", _opt("seed", int(s))]], {}, check_verify)
        for s in seeds
    ]


def check_verify(task: Task, outdir: Path) -> str | None:
    report = json.loads((outdir / "verify.json").read_text())
    if report["all_passed"] is not True:
        return "verify.json reports all_passed false"
    studies = [c for c in report["checks"] if c["kind"] == "convergence"]
    controls = [c for c in studies if c["expected"] == "fails"]
    if len(controls) < NEGATIVE_CONTROLS:
        return f"{len(controls)} negative controls, expected {NEGATIVE_CONTROLS}"
    for c in studies:
        # order refitted from the recorded norms, not taken from the report
        pos = [(h, n) for h, n in zip(c["h_list"], c["norms"]) if n > 0]
        order = None
        if len(pos) >= 2:
            order = float(np.polyfit(np.log([h for h, _ in pos]), np.log([n for _, n in pos]), 1)[0])
        converges = c["at_floor"] or (order is not None and ORDER_BAND[0] <= order <= ORDER_BAND[1])
        if converges != (c["expected"] == "converges"):
            return f"{c['name']}: converges={converges}, expected {c['expected']}"
    return None
