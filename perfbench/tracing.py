"""Span tracing of the eulerpoisson layers, patched in from outside.

`Tracer.install()` replaces each listed public function in every
`eulerpoisson` module that binds it (for example `integrate` is bound in
`ode`, `emden`, `liouville`, `goldreich_weber` and the package root) with a
wrapper that records a span: name, start, end and parent span.  The rhs
passed into `integrate` is wrapped as its own span, and the integrands of
`quad_adaptive` and the fields sampled by `convergence_study` are counted.
`uninstall()` restores the originals.

A span's self time is its duration minus the durations of its children, so
the self times of all spans add up to the durations of the root spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

from eulerpoisson import errors, ode

# (span name, defining module, attribute)
LAYERS = [
    ("ode.integrate", "eulerpoisson.ode", "integrate"),
    ("ode.detect_events", "eulerpoisson.ode", "detect_events"),
    ("ode.quad", "eulerpoisson.ode", "quad_adaptive"),
    ("emden.period_by_simulation", "eulerpoisson.emden", "period_by_simulation"),
    ("emden.period_by_quadrature", "eulerpoisson.emden", "period_by_quadrature"),
    ("emden.integrate_scale", "eulerpoisson.emden", "integrate_scale"),
    ("liouville.solve_profile", "eulerpoisson.liouville", "solve_profile"),
    ("liouville.enclosed_mass", "eulerpoisson.liouville", "enclosed_mass"),
    ("goldreich_weber.solve_gw_profile", "eulerpoisson.goldreich_weber", "solve_gw_profile"),
    ("goldreich_weber.gw_density", "eulerpoisson.goldreich_weber", "gw_density"),
    ("fields.build_rotational", "eulerpoisson.fields", "build_rotational"),
    ("fields.eval_rotational", "eulerpoisson.fields", "eval_rotational"),
    ("fields.eval_gravity_radial", "eulerpoisson.fields", "eval_gravity_radial"),
    ("fields.eval_zz", "eulerpoisson.fields", "eval_zz_inner"),
    ("fields.eval_zz", "eulerpoisson.fields", "eval_zz_outer"),
    ("residuals.convergence_study", "eulerpoisson.residuals", "convergence_study"),
    ("cli.main", "eulerpoisson.cli", "main"),
]
STATE_AT = "ode.state_at"
RHS = "ode.rhs"
TASK = "bench.task"


class Tracer:
    """Spans in flat arrays plus the counters the wrappers keep."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {"steps": 0, "segments": 0, "quad_evals": 0, "field_samples": 0,
                       "profile_nodes": 0, "gw_nodes": 0}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------

    def intern(self, name: str) -> int:
        """Integer id of a span name."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def spanned(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(args, kwargs) may replace the arguments,
        after(args, result_or_exception) sees the outcome."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.finish(idx)
                if after is not None:
                    after(args, exc)
                raise
            self.finish(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- patching -----------------------------------------------------

    def install(self) -> None:
        hooks = {
            "ode.integrate": (self._wrap_rhs, self._count_steps),
            "ode.detect_events": (self._count_segments, None),
            "ode.quad": (self._wrap_integrand, None),
            "liouville.solve_profile": (None, self._nodes("profile_nodes")),
            "goldreich_weber.solve_gw_profile": (None, self._nodes("gw_nodes")),
            "residuals.convergence_study": (self._wrap_field, None),
        }
        for name, module, attr in LAYERS:
            original = getattr(sys.modules[module], attr)
            before, after = hooks.get(name, (None, None))
            self._patch_everywhere(original, self.spanned(name, original, before, after))
        state_at = ode.Trajectory.state_at
        self._patched.append((ode.Trajectory, "state_at", state_at))
        ode.Trajectory.state_at = self.spanned(STATE_AT, state_at)

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("eulerpoisson"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- hooks ----------------------------------------------------------

    def _wrap_rhs(self, args, kwargs):
        if args:
            args = (self.spanned(RHS, args[0]),) + args[1:]
        else:
            kwargs = dict(kwargs, rhs=self.spanned(RHS, kwargs["rhs"]))
        return args, kwargs

    def _count_steps(self, args, outcome):
        traj = outcome
        if isinstance(outcome, errors.IntegrationHalted):
            traj = outcome.trajectory
        if isinstance(traj, ode.Trajectory):
            self.counts["steps"] += traj.n_nodes - 1

    def _count_segments(self, args, kwargs):
        traj = args[0] if args else kwargs["traj"]
        self.counts["segments"] += traj.n_nodes - 1
        return args, kwargs

    def _wrap_integrand(self, args, kwargs):
        if args:
            args = (self.counted("quad_evals", args[0]),) + args[1:]
        else:
            kwargs = dict(kwargs, f=self.counted("quad_evals", kwargs["f"]))
        return args, kwargs

    def _wrap_field(self, args, kwargs):
        if len(args) > 1:
            args = (args[0], self.counted("field_samples", args[1])) + args[2:]
        else:
            kwargs = dict(kwargs, field=self.counted("field_samples", kwargs["field"]))
        return args, kwargs

    def _nodes(self, key):
        def after(args, outcome):
            if not isinstance(outcome, Exception):
                self.counts[key] += outcome.traj.n_nodes

        return after

    # -- summary ------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return name, parent, dur

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        name, parent, dur = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def child_calls(self, child: str, parent: str) -> int:
        """Spans named child whose parent span is named parent."""
        if child not in self._ids or parent not in self._ids:
            return 0
        name, parents, _ = self._arrays()
        has_parent = parents >= 0
        parent_name = name[parents[has_parent]]
        return int(np.sum((name[has_parent] == self._ids[child])
                          & (parent_name == self._ids[parent])))
