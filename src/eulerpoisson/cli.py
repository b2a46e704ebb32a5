"""Command-line front end emitting reproducible CSV/JSON artifacts.

Commands: emden (scale-factor orbit data), liouville (radial profile and
mass-identity bracket), fields (sampled spacetime fields of a family, in at
most two evaluator calls: `_sample_columns`), period (two-way period comparison),
verify (residual bundle, `verify.run_bundle`).

Artifacts are byte-identical for identical configuration and version:
numbers are written with 17 significant digits, JSON keys are sorted, line
endings are '\\n', and nothing volatile (wall time, paths, timestamps) goes
into an output file.  Wall time is logged to stderr.

Each value comes from its flag alone; `--outdir` defaults to the current
directory.  Exit codes: 0 success, 1 usage error, 2 package error (any
`errors.EulerPoissonError`), 3 verification failure.  A usage error is an
unknown or abbreviated flag, a missing or invalid value, a `fields` flag its
family does not read, or an `--outdir` that cannot be made or written to.  The
integrator flags exist only on emden, liouville and period and replace only the
named fields of the base config, `ode.TIGHT_CONFIG` for liouville and the
`IntegratorConfig` defaults otherwise; emden's flags govern both its CSV and
its simulated period.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, emden, fields, goldreich_weber, liouville, verify
from .errors import DomainError, EulerPoissonError, OutOfRange, naming, raise_where
from .ode import TIGHT_CONFIG, IntegratorConfig


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write the header and one row per entry of `columns`, equal-length float columns,
    with 17 significant digits; a None column is empty in every row.  The whole text is
    one `%` on the row template repeated, formatted before the file is opened."""
    rows = np.column_stack([c for c in columns if c is not None])
    row = ",".join("" if c is None else "%.17g" for c in columns) + "\n"
    text = ",".join(header) + "\n" + row * len(rows) % tuple(rows.ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_json(path: Path, command: str, report: dict) -> None:
    obj = {"command": command, "version": __version__, **report}
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _outdir(args) -> Path:
    path = Path(args.outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _integrator_config(args, base: IntegratorConfig) -> IntegratorConfig:
    """The solver's default `base` with only the fields the user supplied replaced."""
    names = (f.name for f in dataclasses.fields(IntegratorConfig))
    overrides = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    return dataclasses.replace(base, **overrides)


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # one spelling per flag: a prefix such as --sam is an unknown flag, not --samples
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # a value such as -1e300 or -.5e3 is a negative number, not an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (a ValueError reads "invalid positive_int value")."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def finite_float(text: str) -> float:
    """argparse type: a finite float (nan and +-inf are usage errors)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    if not finite_float(text) > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return float(text)


def step_list(text: str) -> list[float]:
    """argparse type: comma-separated positive finite step sizes."""
    steps = [float(v) for v in text.split(",")]
    if not all(0 < h < math.inf for h in steps):
        raise argparse.ArgumentTypeError(f"steps must be positive and finite, got {text!r}")
    return steps


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--outdir", default=".", help="output directory (default: .)")


def _add_orbit(sp: argparse.ArgumentParser) -> None:
    for name in ("lam", "xi", "a0", "a1"):
        sp.add_argument(f"--{name}", type=finite_float, default=1.0)


def _add_integrator(sp: argparse.ArgumentParser) -> None:
    """One flag per `IntegratorConfig` field, in the help's "integrator" group."""
    group = sp.add_argument_group("integrator")
    group.add_argument("--rtol", type=finite_float, help="relative tolerance")
    group.add_argument("--atol", type=finite_float, help="absolute tolerance")
    group.add_argument("--max-steps", dest="max_steps", type=int, help="step budget")


@functools.cache
def build_parser() -> _Parser:
    """The parser, built on first use and never modified."""
    parser = _Parser(prog="eulerpoisson", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # defaults reproduce the rotating-orbit example configuration
    p = sub.add_parser("emden", help="integrate the scale factor, emit orbit CSV")
    _add_orbit(p)
    p.add_argument("--t-end", dest="t_end", type=finite_float, default=50.0)
    p.add_argument("--samples", type=positive_int, default=1001)
    _add_common(p)
    _add_integrator(p)

    p = sub.add_parser("liouville", help="solve the radial profile, emit CSV")
    p.add_argument("--lam", type=finite_float, default=1.0)
    p.add_argument("--K", type=finite_float, default=1.0)
    p.add_argument("--alpha", type=finite_float, default=0.0)
    p.add_argument("--s-max", dest="s_max", type=finite_float, default=20.0)
    _add_common(p)
    _add_integrator(p)

    p = sub.add_parser("fields", help="sample spacetime fields of a family")
    p.add_argument("--family", choices=list(_FIELD_FAMILIES), default="rotational")
    for name, defaults in _FIELDS_ONLY.items():  # None until `_family_flags` sets it
        p.add_argument(f"--{name}", type=int if name == "N" else finite_float,
                       help="default " + ", ".join(f"{v} for {k}" for k, v in defaults.items()))
    p.add_argument("--K", type=finite_float, default=1.0)
    p.add_argument("--t0", type=finite_float, default=0.5)
    p.add_argument("--t1", type=finite_float, default=2.0)
    p.add_argument("--nt", type=positive_int, default=3)
    p.add_argument("--rmax", type=positive_float, default=2.0, help="disk radius of the xy grid")
    p.add_argument("--nx", type=positive_int, default=9)
    p.add_argument("--ny", type=positive_int, default=9)
    _add_common(p)

    p = sub.add_parser("period", help="compare quadrature and simulation periods")
    _add_orbit(p)
    _add_common(p)
    _add_integrator(p)

    p = sub.add_parser("verify", help="run the residual convergence bundle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=positive_int, default=20)
    p.add_argument(
        "--h-list",
        dest="h_list",
        type=step_list,
        default="1e-2,5e-3,2.5e-3",
        help="comma-separated decreasing stencil steps",
    )
    p.add_argument(
        "--inject-corruption",
        dest="inject_corruption",
        metavar="DELTA",
        type=finite_float,
        nargs="?",
        const=0.01,
        help="self-test: add DELTA (0.01 if bare) to the exact rotating density and "
             "require the oracle to flag it",
    )
    _add_common(p)

    return parser


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_emden(args) -> int:
    p = emden.EmdenParams(lam=args.lam, xi=args.xi, a0=args.a0, a1=args.a1)
    cfg = _integrator_config(args, IntegratorConfig())
    traj = emden.integrate_scale(p, args.t_end, cfg)

    theta = emden.energy_level(p)  # raises if it overflows, before the energy column does
    times = np.linspace(0.0, traj.t_end, args.samples)
    a, adot = traj.evaluate(times).T
    # a loose run's interpolant can dip to a <= 0 between nodes that keep a > 0
    with naming(f"on the dense output of the run at {cfg}"):
        energy = adot * adot / 2 + emden.potential(a, p)

    cls = emden.classify(p)
    report = {
        "params": {"lam": p.lam, "xi": p.xi, "a0": p.a0, "a1": p.a1, "t_end": args.t_end},
        "classification": cls.value,
        "theta": theta,
        "abar": None,
        "a_min": None,
        "a_max": None,
        "T_quadrature": None,
        "T_simulation": None,
        "touchdown_time": traj.t_end if traj.t_end < args.t_end else None,
        "integrator": traj.stats._asdict(),
    }
    if cls in (emden.OrbitClass.STEADY, emden.OrbitClass.PERIODIC):
        report["abar"] = emden.equilibrium_radius(p)
    if cls is emden.OrbitClass.PERIODIC:
        tp = emden.turning_points(p)
        report["a_min"], report["a_max"] = tp.a_min, tp.a_max
        tq, ts, _ = _periods(args.command, p, cfg, traj)
        report["T_quadrature"], report["T_simulation"] = tq.T, ts.T

    out = _outdir(args)
    _write_csv(out / "emden.csv", ["t", "a", "adot", "energy"], [times, a, adot, energy])
    _write_json(out / "emden_report.json", args.command, report)
    return 0


def cmd_liouville(args) -> int:
    p = liouville.LiouvilleParams(K=args.K, lam=args.lam, alpha=args.alpha)
    cfg = _integrator_config(args, TIGHT_CONFIG)
    prof = liouville.solve_profile(p, args.s_max, cfg)

    with np.errstate(all="ignore"):  # a non-finite cell raises below
        s, mass, bracket = liouville.node_brackets(prof)
    raise_where(~(np.isfinite(mass) & np.isfinite(bracket)), DomainError,
                "non-finite enclosed mass or bracket", s=s)
    report = {
        "params": {"K": p.K, "lam": p.lam, "alpha": p.alpha, "s_max": args.s_max},
        "n_nodes": int(prof.traj.n_nodes),
        "integrator": prof.traj.stats._asdict(),
        "max_abs_bracket": float(np.max(np.abs(bracket))),
    }
    out = _outdir(args)
    _write_csv(out / "liouville.csv", ["s", "f", "fdot", "enclosed_mass", "bracket"],
               [s, prof.f, prof.fdot, mass, bracket])
    _write_json(out / "liouville_report.json", args.command, report)
    return 0


def _sample_columns(args, times, ev):
    """CSV columns of ev(t, x, y) -> FieldSample on the nx-by-ny grid of [-rmax, rmax]^2
    inside the disk, in one call ev(times[:, None], x, y).  If that raises OutOfRange, the
    points its `where` marks (with no field) are dropped and the rest take one more
    call.  A grid with no point in the disk, or in the region at any time, and a
    non-finite sample raise here."""
    grid = np.meshgrid(np.linspace(-args.rmax, args.rmax, args.nx),
                       np.linspace(-args.rmax, args.rmax, args.ny), indexing="ij")
    x, y = (g[np.hypot(*grid) <= args.rmax] for g in grid)
    if not x.size:
        raise DomainError(f"no point of the {args.nx}x{args.ny} grid lies in the disk "
                          f"of radius {args.rmax}")
    t = times[:, None]
    with np.errstate(all="ignore"):  # a non-finite sample raises below
        try:
            s = ev(t, x, y)
        except OutOfRange as exc:
            keep = ~np.broadcast_to(exc.where, (times.size, x.size))
            if not keep.any():
                raise DomainError(f"no point of the {args.nx}x{args.ny} grid lies in the "
                                  f"{args.family} region at any time")
            t, x, y = (np.broadcast_to(v, keep.shape)[keep] for v in (t, x, y))
            s = ev(t, x, y)
    # the t, x, y, rho, u1, u2, phi_r columns, flattened over the points' shape
    shape = np.broadcast_shapes(t.shape, x.shape)
    columns = [None if v is None else np.broadcast_to(v, shape).ravel()
               for v in (t, x, y, s.rho, s.u1, s.u2, s.phi_r)]
    finite = np.isfinite([c for c in columns[3:] if c is not None]).all(axis=0)
    raise_where(~finite, DomainError, f"non-finite {args.family} sample",
                t=columns[0], x=columns[1], y=columns[2])
    return columns


def _t_max(args) -> float:
    """t1, where a solved family's scale factor, which starts at t = 0, is run to."""
    if args.t1 > 0:
        return args.t1
    raise DomainError(f"t1={args.t1} must exceed 0, where the {args.family} scale factor starts")


def _times(args, scale) -> np.ndarray:
    """nt times from t0 to t1, or to the scale factor's touchdown if that comes sooner (but
    not at t0), checked against its solved range; a family with no scale factor (None)
    takes t0 to t1."""
    if scale is None:
        return np.linspace(args.t0, args.t1, args.nt)
    times = np.linspace(args.t0, min(args.t1, scale.t_end), args.nt)
    with naming(f"in the scale factor of the {args.family} family"):
        scale.evaluate(times)  # a time outside the solved range raises DomainError
        if args.t0 == scale.t_end < args.t1:
            raise DomainError(f"the window from t0={args.t0} to t1={args.t1} is the touchdown")
    return times


def _fields_rotational(args, xi: float):
    """The member of `fields.build_rotational` on one scale-factor solve: the window
    (`_times`) is placed on it, then the profile is solved to the window's
    `fields.profile_reach`."""
    t_max, scale_p = _t_max(args), emden.EmdenParams(lam=args.lam, xi=xi, a0=args.a0, a1=args.a1)
    scale = emden.integrate_scale(scale_p, t_max, TIGHT_CONFIG)
    times = _times(args, scale)
    with naming(f"in the {args.family} family"):
        profile = liouville.solve_profile(
            liouville.LiouvilleParams(K=args.K, lam=args.lam, alpha=args.alpha),
            fields.profile_reach(scale, t_max, times, args.rmax))
    sol = fields.RotSolution2D(scale_p, profile, scale)
    return times, functools.partial(fields.eval_rotational, sol)


def _fields_gw(args):
    p = goldreich_weber.GWParams(N=args.N, K=args.K, lam=args.lam, alpha_center=args.alpha,
                                 a0=args.a0, a1=args.a1)
    prof = goldreich_weber.solve_gw_profile(p)  # first, so a run failing both names it
    scale = emden.integrate_scale(p, _t_max(args))
    return _times(args, scale), functools.partial(fields.eval_gw, prof, scale)


# each family by name (the --family choices): the fields-only flags it reads, with their
# defaults, and its sample times (`_times`) and evaluator
_FIELD_FAMILIES = {
    "rotational": ({"lam": 1.0, "xi": 1.0, "a0": 1.0, "a1": 1.0, "alpha": 0.0},
                   lambda args: _fields_rotational(args, xi=args.xi)),
    "yuen": ({"lam": 1.0, "a0": 1.0, "a1": 1.0, "alpha": 0.0},
             lambda args: _fields_rotational(args, xi=0.0)),
    "zz-inner": ({"rho0": 0.5}, lambda args: (_times(args, None), functools.partial(
        fields.eval_zz_inner, fields.ZZSolution(K=args.K, rho0=args.rho0)))),
    "zz-outer": ({"rho0": 0.5}, lambda args: (_times(args, None), functools.partial(
        fields.eval_zz_outer, fields.ZZSolution(K=args.K, rho0=args.rho0)))),
    "gw": ({"lam": 1.0, "a0": 1.0, "a1": 1.0, "alpha": 1.0, "N": 3}, _fields_gw),
}
# each fields-only flag by name, with its default in each family that reads it
_FIELDS_ONLY = {name: {family: flags[name] for family, (flags, _) in _FIELD_FAMILIES.items()
                       if name in flags} for name in ("lam", "xi", "a0", "a1", "alpha", "rho0", "N")}


def _family_flags(args) -> None:
    """Set each fields-only flag left unset to its family's default; one given that the
    family does not read is a usage error (exit 1), naming both."""
    own = _FIELD_FAMILIES[args.family][0]
    unread = [f"--{k}" for k in _FIELDS_ONLY if k not in own and getattr(args, k) is not None]
    if unread:
        build_parser().exit(1, f"eulerpoisson fields: error: the {args.family} family does "
                               f"not read {', '.join(unread)}\n")
    vars(args).update({k: v for k, v in own.items() if getattr(args, k) is None})


def cmd_fields(args) -> int:
    """The family's times (`_times`) and evaluator, sampled by `_sample_columns`."""
    times, ev = _FIELD_FAMILIES[args.family][1](args)
    columns = _sample_columns(args, times, ev)
    _write_csv(_outdir(args) / "fields.csv", ["t", "x", "y", "rho", "u1", "u2", "phi_r"], columns)
    return 0


# relative difference of the two periods above which a command warns on stderr
_PERIOD_WARN_RTOL = 1e-6


def _periods(command: str, p: emden.EmdenParams, cfg: IntegratorConfig, run=None):
    """The quadrature and simulated `PeriodEstimate`s of p, the simulated one searched on
    `run` first, and their relative difference |T_q - T_s|/T_q, with one stderr line when
    that passes _PERIOD_WARN_RTOL: both periods are written anyway."""
    tq = emden.period_by_quadrature(p)
    ts = emden.period_by_simulation(p, cfg, run)
    rel_diff = abs(tq.T - ts.T) / tq.T
    if rel_diff > _PERIOD_WARN_RTOL:
        print(f"eulerpoisson {command}: warning: the periods disagree: T_quadrature "
              f"{tq.T!r}, T_simulation {ts.T!r}, relative difference "
              f"{rel_diff:.3g}", file=sys.stderr)
    return tq, ts, rel_diff


def cmd_period(args) -> int:
    p = emden.EmdenParams(lam=args.lam, xi=args.xi, a0=args.a0, a1=args.a1)
    tq, ts, rel_diff = _periods(args.command, p, _integrator_config(args, IntegratorConfig()))
    report = {
        "params": {"lam": p.lam, "xi": p.xi, "a0": p.a0, "a1": p.a1},
        "T_quadrature": tq.T,
        "T_simulation": ts.T,
        "rel_diff": rel_diff,
        "simulation": {"integrator": ts.stats._asdict()},
    }
    _write_json(_outdir(args) / "period.json", args.command, report)
    return 0


def cmd_verify(args) -> int:
    checks = verify.run_bundle(args.seed, args.points, args.h_list, args.inject_corruption)
    all_passed = all(c["passed"] for c in checks)
    report = {
        "seed": args.seed,
        "n_points": args.points,
        "h_list": args.h_list,
        "inject_corruption": args.inject_corruption is not None,
        "checks": checks,
        "all_passed": all_passed,
    }
    _write_json(_outdir(args) / "verify.json", args.command, report)
    for c in checks:
        print(f"  [{'ok' if c['passed'] else 'FAIL'}] {c['name']}", file=sys.stderr)
    return 0 if all_passed else 3


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "fields":
            _family_flags(args)
    except SystemExit as exc:
        return int(exc.code or 0)

    t0 = time.perf_counter()
    try:
        # an --outdir at or below a file fails before the command computes; the first
        # write makes the directory
        path = Path(args.outdir).absolute()
        if not next(p for p in (path, *path.parents) if p.exists()).is_dir():
            raise NotADirectoryError(errno.ENOTDIR, "Not a directory", args.outdir)
        # looked up per call, so the cached parser holds no command functions
        code = globals()[f"cmd_{args.command}"](args)
    except EulerPoissonError as exc:
        print(f"eulerpoisson {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the output directory cannot be made or written to
        print(f"eulerpoisson {args.command}: error: unusable --outdir: {exc}", file=sys.stderr)
        return 1
    print(f"{args.command}: {time.perf_counter() - t0:.2f}s wall", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
