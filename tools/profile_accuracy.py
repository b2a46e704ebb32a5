"""Steps and accuracy of the radial profiles of one `profiles` benchmark pool.

Solves the Liouville and Goldreich-Weber profile of every task in one seed's
`profiles` pool (`perfbench/workloads.py`, the same pool the benchmark times)
with the parameters and defaults of its `liouville` and `fields --family gw`
commands, and compares each against scipy's DOP853 at atol 1e-22 and rtol
2.3e-14 on the unscaled (f, f') (`tests/conftest.py::radial_reference`).
Prints one line per family: profiles, mean nodes, total and largest
rejections, the core radius s_core (where the Taylor core hands over to the
run) as a fraction of the solved radius (min, median, max), the largest
errors of f and f' inside the core (32 equal steps on [0, s_core]) and at
the run's nodes, of s_mu (relative) and of the Liouville momentum bracket at
the nodes.

    python tools/profile_accuracy.py                     # seed 20261017, 57 tasks
    python tools/profile_accuracy.py --seed 555 --seconds 10

It reads only the profiles' public API (`f`, `fdot`, `f_at`, `fdot_at`, `grid`,
`s_mu`, `traj`) and `s_core` with a default of 0 (no core), so it runs on older
trees too; there the core columns read "-".  Needs scipy.  No part of the test suite.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from conftest import radial_reference  # noqa: E402
from eulerpoisson import cli  # noqa: E402
from eulerpoisson.goldreich_weber import S_CAP_DEFAULT, GWParams, solve_gw_profile  # noqa: E402
from eulerpoisson.liouville import LiouvilleParams, node_brackets, solve_profile  # noqa: E402
import workloads  # noqa: E402


def _errors(prof, s_end: float, zero: bool) -> dict[str, float]:
    ref, s_mu = radial_reference(prof.params.law, s_end, zero)
    s_core = getattr(prof, "s_core", 0.0)
    out = {"core": s_core / prof.s_max}
    if s_core > 0:
        s = np.linspace(0.0, s_core, 33)[:-1]
        f, fdot = ref(s)
        out["f_core"] = np.abs(prof.f_at(s) - f).max()
        out["fdot_core"] = np.abs(prof.fdot_at(s) - fdot).max()
    f, fdot = ref(prof.grid)
    out["f_run"], out["fdot_run"] = np.abs(prof.f - f).max(), np.abs(prof.fdot - fdot).max()
    if zero:
        out["s_mu"] = abs(prof.s_mu - s_mu) / s_mu
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=20261017)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="pool size as the benchmark's --seconds sets it")
    args = ap.parse_args(argv)
    parser = cli.build_parser()
    pool = workloads.make_pool("profiles", args.seed,
                               workloads.pool_size("profiles", args.seconds))
    rows = {"liouville": [], "gw": []}
    for task in pool:
        lv, gw = (parser.parse_args(argv) for argv in task.argvs)
        prof = solve_profile(LiouvilleParams(lv.K, lv.lam, lv.alpha), lv.s_max)
        errs = _errors(prof, lv.s_max, False)
        errs["bracket"] = np.abs(node_brackets(prof)[2]).max()
        rows["liouville"].append((prof.traj, errs))
        prof = solve_gw_profile(GWParams(gw.N, gw.K, gw.lam, gw.alpha, gw.a0, gw.a1))
        rows["gw"].append((prof.traj, _errors(prof, S_CAP_DEFAULT, True)))
    print(f"seed {args.seed}, {len(pool)} tasks")
    for family, runs in rows.items():
        rejected = [traj.stats.rejected for traj, _ in runs]
        line = [f"{family:9s} profiles {len(runs)}",
                f"nodes {np.mean([traj.n_nodes for traj, _ in runs]):.1f}",
                f"rejected {sum(rejected)} (max {max(rejected)})"]
        core = [errs["core"] for _, errs in runs]
        line.append(f"core {min(core):.3f}/{np.median(core):.3f}/{max(core):.3f} of the radius")
        for key in ("f_core", "fdot_core", "f_run", "fdot_run", "s_mu", "bracket"):
            errs = [e[key] for _, e in runs if key in e]
            if errs or key.endswith("_core"):
                line.append(f"max_err_{key} " + (f"{max(errs):.2e}" if errs else "-"))
        print("  ".join(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
