"""Command-line front end emitting reproducible CSV/JSON artifacts.

Commands: emden (scale-factor orbit data), liouville (radial profile and
mass-identity bracket), fields (sampled spacetime fields of a family, in at
most two evaluator calls: `_sample_columns`), period (two-way period comparison),
verify (residual bundle, `verify.run_bundle`).

Artifacts are byte-identical for identical configuration and version:
numbers are written with 17 significant digits, JSON keys are sorted, line
endings are '\\n', and nothing volatile (wall time, paths, timestamps) goes
into an output file.  Wall time is logged to stderr.

Exit codes: 0 success, 1 usage error, 2 package error (any
`errors.EulerPoissonError`), 3 verification failure.  The integrator flags
exist only on emden, liouville and period and replace only the named fields
of the base config, `ode.TIGHT_CONFIG` for liouville and the `IntegratorConfig`
defaults otherwise; emden's flags govern both its CSV and its simulated period.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, emden, fields, goldreich_weber, liouville, verify
from .errors import (DomainError, EulerPoissonError, NoCompactSupport, OutOfRange,
                     OutsideRegion, raise_where)
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


def _write_json(path: Path, obj) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _outdir(args) -> Path:
    out = args.outdir or os.environ.get("EULERPOISSON_OUTDIR") or "."
    path = Path(out)
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
        super().__init__(*args, **kwargs)
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
    sp.add_argument("--config", help="key=value file; flags override file values")
    sp.add_argument("--outdir", help="output directory (default: . or $EULERPOISSON_OUTDIR)")


def _add_integrator(sp: argparse.ArgumentParser) -> None:
    """One flag per `IntegratorConfig` field, in the help's "integrator" group."""
    group = sp.add_argument_group("integrator")
    group.add_argument("--rtol", type=finite_float, help="relative tolerance")
    group.add_argument("--atol", type=finite_float, help="absolute tolerance")
    group.add_argument("--max-steps", dest="max_steps", type=int, help="step budget")


@functools.cache
def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    """The parser and the subcommand parsers by name, built on first use and never modified."""
    parser = _Parser(prog="eulerpoisson", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    # defaults reproduce the rotating-orbit example configuration
    p = sub.add_parser("emden", help="integrate the scale factor, emit orbit CSV")
    p.add_argument("--lam", type=finite_float, default=1.0)
    p.add_argument("--xi", type=finite_float, default=1.0)
    p.add_argument("--a0", type=finite_float, default=1.0)
    p.add_argument("--a1", type=finite_float, default=1.0)
    p.add_argument("--t-end", dest="t_end", type=finite_float, default=50.0)
    p.add_argument("--samples", type=positive_int, default=1001)
    _add_common(p)
    _add_integrator(p)
    subparsers["emden"] = p

    p = sub.add_parser("liouville", help="solve the radial profile, emit CSV")
    p.add_argument("--lam", type=finite_float, default=1.0)
    p.add_argument("--K", type=finite_float, default=1.0)
    p.add_argument("--alpha", type=finite_float, default=0.0)
    p.add_argument("--s-max", dest="s_max", type=finite_float, default=20.0)
    _add_common(p)
    _add_integrator(p)
    subparsers["liouville"] = p

    p = sub.add_parser("fields", help="sample spacetime fields of a family")
    p.add_argument("--family", choices=list(_FIELD_FAMILIES), default="rotational")
    p.add_argument("--lam", type=finite_float, default=1.0)
    p.add_argument("--xi", type=finite_float, default=1.0)
    p.add_argument("--K", type=finite_float, default=1.0)
    p.add_argument("--alpha", type=finite_float, default=0.0)
    p.add_argument("--a0", type=finite_float, default=1.0)
    p.add_argument("--a1", type=finite_float, default=1.0)
    p.add_argument("--rho0", type=finite_float, default=0.5, help="outer density (zz families)")
    p.add_argument("--N", type=int, default=3, help="dimension (gw family)")
    p.add_argument("--t0", type=finite_float, default=0.5)
    p.add_argument("--t1", type=finite_float, default=2.0)
    p.add_argument("--nt", type=positive_int, default=3)
    p.add_argument("--rmax", type=positive_float, default=2.0, help="disk radius of the xy grid")
    p.add_argument("--nx", type=positive_int, default=9)
    p.add_argument("--ny", type=positive_int, default=9)
    _add_common(p)
    subparsers["fields"] = p

    p = sub.add_parser("period", help="compare quadrature and simulation periods")
    p.add_argument("--lam", type=finite_float, default=1.0)
    p.add_argument("--xi", type=finite_float, default=1.0)
    p.add_argument("--a0", type=finite_float, default=1.0)
    p.add_argument("--a1", type=finite_float, default=1.0)
    _add_common(p)
    _add_integrator(p)
    subparsers["period"] = p

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
        action="store_true",
        help="self-test: corrupt the exact field and require the oracle to flag it",
    )
    p.add_argument(
        "--corruption-delta",
        dest="corruption_delta",
        type=finite_float,
        default=0.01,
        help="density offset used by --inject-corruption",
    )
    _add_common(p)
    subparsers["verify"] = p

    return parser, subparsers


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _load_config_file(path: str, sp: argparse.ArgumentParser) -> dict:
    """Parse KEY=VALUE lines, validating keys against the subcommand's options."""
    actions = {
        a.dest: a
        for a in sp._actions
        if a.dest not in ("help", "config") and a.option_strings
    }
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in actions:
                raise _ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            action = actions[key]
            if isinstance(action, argparse._StoreTrueAction):
                if val.lower() not in _BOOLEANS:
                    raise _ConfigError(f"{path}:{lineno}: bad value for {key}: expected "
                                       f"1/0/true/false/yes/no, got {val!r}")
                values[key] = _BOOLEANS[val.lower()]
            elif action.type is not None:
                try:
                    values[key] = action.type(val)
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise _ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
            else:
                values[key] = val
            if action.choices is not None and values[key] not in action.choices:
                raise _ConfigError(f"{path}:{lineno}: bad value for {key}: expected one of "
                                   f"{', '.join(action.choices)}, got {val!r}")
    return values


class _ConfigError(Exception):
    pass


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_emden(args) -> int:
    p = emden.EmdenParams(lam=args.lam, xi=args.xi, a0=args.a0, a1=args.a1)
    cfg = _integrator_config(args, IntegratorConfig())
    run = emden.integrate_scale(p, args.t_end, cfg)
    traj = run.trajectory

    times = np.linspace(0.0, traj.t_end, args.samples)
    a, adot = traj.evaluate(times).T
    energy = adot * adot / 2 + emden.potential(a, p)

    cls = emden.classify(p)
    report = {
        "command": "emden",
        "version": __version__,
        "params": {"lam": p.lam, "xi": p.xi, "a0": p.a0, "a1": p.a1, "t_end": args.t_end},
        "classification": cls.value,
        "theta": emden.energy_level(p),
        "abar": None,
        "a_min": None,
        "a_max": None,
        "T_quadrature": None,
        "T_simulation": None,
        "touchdown_time": run.touchdown_time,
        "integrator": traj.stats._asdict(),
    }
    if p.lam > 0 and p.xi != 0:
        report["abar"] = emden.equilibrium_radius(p)
    if cls is emden.OrbitClass.PERIODIC:
        tp = emden.turning_points(p)
        report["a_min"], report["a_max"] = tp.a_min, tp.a_max
        report["T_quadrature"] = emden.period_by_quadrature(p).T
        report["T_simulation"] = emden.period_by_simulation(p, cfg, traj).T

    out = _outdir(args)
    _write_csv(out / "emden.csv", ["t", "a", "adot", "energy"], [times, a, adot, energy])
    _write_json(out / "emden_report.json", report)
    return 0


def cmd_liouville(args) -> int:
    p = liouville.LiouvilleParams(K=args.K, lam=args.lam, alpha=args.alpha)
    cfg = _integrator_config(args, TIGHT_CONFIG)
    prof = liouville.solve_profile(p, args.s_max, cfg)

    s, mass, bracket = liouville.node_brackets(prof)

    report = {
        "command": "liouville",
        "version": __version__,
        "params": {"K": p.K, "lam": p.lam, "alpha": p.alpha, "s_max": args.s_max},
        "n_nodes": int(prof.traj.n_nodes),
        "integrator": prof.traj.stats._asdict(),
        "max_abs_bracket": float(np.max(np.abs(bracket))),
    }
    out = _outdir(args)
    _write_csv(out / "liouville.csv", ["s", "f", "fdot", "enclosed_mass", "bracket"],
               [s, prof.f[1:], prof.fdot[1:], mass, bracket])
    _write_json(out / "liouville_report.json", report)
    return 0


def _sample_columns(args, times, ev, skip):
    """CSV columns of ev(t, x, y) -> FieldSample on the nx-by-ny grid of [-rmax, rmax]^2
    inside the disk, in one call ev(times[:, None], x, y).  If that raises `skip`, the
    points its `where` marks (outside the family's region) are dropped and the rest take
    one more call.  A grid with no point in the disk, or in the region at any time, and
    a non-finite sample raise here."""
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
        except skip as exc:
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


def _solved_columns(args, scale, ev, skip):
    """`_sample_columns` at nt times from t0 to t1, or to the end of `scale` if sooner."""
    times = np.linspace(args.t0, min(args.t1, scale.t_end), args.nt)
    scale.evaluate(times)  # a time outside the solved range raises DomainError here
    return _sample_columns(args, times, ev, skip)


def _fields_columns_rotational(args, xi: float):
    sol = fields.build_rotational(
        lam=args.lam, xi=xi, K=args.K, alpha=args.alpha, a0=args.a0, a1=args.a1,
        t_max=args.t1, samples=(np.linspace(args.t0, args.t1, args.nt), args.rmax),
    )
    ev = functools.partial(fields.eval_rotational, sol)
    return _solved_columns(args, sol.scale, ev, OutOfRange)


def _fields_columns_zz(args, inner: bool):
    zz = fields.ZZSolution(K=args.K, rho0=args.rho0)
    ev = functools.partial(fields.eval_zz_inner if inner else fields.eval_zz_outer, zz)
    times = np.linspace(args.t0, args.t1, args.nt)
    return _sample_columns(args, times, ev, OutsideRegion)


def _fields_columns_gw(args):
    p = goldreich_weber.GWParams(
        N=args.N, K=args.K, lam=args.lam, alpha_center=args.alpha,
        a0=args.a0, a1=args.a1,
    )
    prof = goldreich_weber.solve_gw_profile(p)
    scale = emden.integrate_scale(p, args.t1).trajectory
    ev = functools.partial(fields.eval_gw, prof, scale)
    return _solved_columns(args, scale, ev, NoCompactSupport)


# the columns of each family by name; these names are the --family choices
_FIELD_FAMILIES = {
    "rotational": lambda args: _fields_columns_rotational(args, xi=args.xi),
    "yuen": lambda args: _fields_columns_rotational(args, xi=0.0),
    "zz-inner": lambda args: _fields_columns_zz(args, inner=True),
    "zz-outer": lambda args: _fields_columns_zz(args, inner=False),
    "gw": _fields_columns_gw,
}


def cmd_fields(args) -> int:
    columns = _FIELD_FAMILIES[args.family](args)
    out = _outdir(args)
    _write_csv(out / "fields.csv", ["t", "x", "y", "rho", "u1", "u2", "phi_r"], columns)
    return 0


def cmd_period(args) -> int:
    p = emden.EmdenParams(lam=args.lam, xi=args.xi, a0=args.a0, a1=args.a1)
    cfg = _integrator_config(args, IntegratorConfig())
    tq = emden.period_by_quadrature(p)
    ts = emden.period_by_simulation(p, cfg)
    report = {
        "command": "period",
        "version": __version__,
        "params": {"lam": p.lam, "xi": p.xi, "a0": p.a0, "a1": p.a1},
        "T_quadrature": tq.T,
        "T_simulation": ts.T,
        "rel_diff": abs(tq.T - ts.T) / tq.T,
        "simulation": {"integrator": ts.stats._asdict()},
    }
    _write_json(_outdir(args) / "period.json", report)
    return 0


def cmd_verify(args) -> int:
    checks = verify.run_bundle(args.seed, args.points, args.h_list,
                               args.inject_corruption, args.corruption_delta)
    all_passed = all(c["passed"] for c in checks)
    report = {
        "command": "verify",
        "version": __version__,
        "seed": args.seed,
        "n_points": args.points,
        "h_list": args.h_list,
        "inject_corruption": bool(args.inject_corruption),
        "checks": checks,
        "all_passed": all_passed,
    }
    _write_json(_outdir(args) / "verify.json", report)
    for c in checks:
        print(f"  [{'ok' if c['passed'] else 'FAIL'}] {c['name']}", file=sys.stderr)
    return 0 if all_passed else 3


def _parse(argv: list[str]) -> argparse.Namespace:
    """Arguments of one run.  With --config, the file's values pre-fill a
    namespace that the subcommand parser then fills from its part of the
    command line, so an explicit flag wins over the file."""
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    sub = subparsers[args.command]
    prefilled = argparse.Namespace(command=args.command, **_load_config_file(args.config, sub))
    return sub.parse_args(argv[argv.index(args.command) + 1:], prefilled)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (_ConfigError, OSError) as exc:
        print(f"eulerpoisson: config error: {exc}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    try:
        # looked up per call, so the cached parser holds no command functions
        code = globals()[f"cmd_{args.command}"](args)
    except EulerPoissonError as exc:
        print(f"eulerpoisson {args.command}: error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command}: {time.perf_counter() - t0:.2f}s wall", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
