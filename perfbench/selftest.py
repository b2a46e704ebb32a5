#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, that an output check fed a wrong reference fails its task, that
the failure count of an `orbits` run repeats exactly for one seed, and that
the harness refuses to run without the package source.
"""

import contextlib
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (sibling module; pins threads before numpy)
import workloads  # noqa: E402
from eulerpoisson import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = "1"  # pools of 8 orbits, 2 profiles, 1 verify


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def check_run(self, workload, trace, spec_key):
        proc = bench("--workload", workload, "--seed", "1", "--seconds", TINY_SECONDS,
                     "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result_of(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(res["correct"], True)
        self.assertGreaterEqual(res["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in res["metrics"].items():
            self.assertTrue(math.isfinite(v["value"]), name)
            # the human-readable line carries the same name and unit
            self.assertRegex(proc.stdout, rf"(?m)^{name}\s+\S+ {v['unit']}")
        return res, proc

    def test_end_to_end_every_workload(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                res, proc = self.check_run(w, 0, "end_to_end")
                m = {k: v["value"] for k, v in res["metrics"].items()}
                for name in ("tasks_per_s", "task_p50_s", "setup_s"):
                    self.assertGreater(m[name], 0.0)
                # every time is the measured one at the host's nominal speed
                (line,) = [ln for ln in proc.stdout.splitlines() if ln.startswith("record ")]
                rec = json.loads(line[len("record "):])
                f = rec["host_speed"]["factor"]
                self.assertGreater(rec["host_speed"]["probes"], run.SETUP_REPEATS)
                for name, measured in rec["measured"].items():
                    want = measured / f if name == "tasks_per_s" else measured * f
                    self.assertAlmostEqual(m[name], want, delta=1e-12 * want)

    def test_per_layer_every_workload(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                res, _ = self.check_run(w, 1, "per_layer")
                m = {k: v["value"] for k, v in res["metrics"].items()}
                self.assertGreater(m["ode.integrate.steps"], 0)
                self.assertAlmostEqual(m["trace.self_share"], 1.0, delta=0.01)


class WrongReference(unittest.TestCase):
    def setUp(self):
        self.out = ROOT / ".perfbench_work" / "selftest-wrong-ref"
        self.out.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def outcome(self, task):
        tally = run.Tally()
        tally.add(*run.run_task(cli, task, self.out))
        return tally

    def test_collapse_touchdown(self):
        task = workloads.make_pool("orbits", 1, 8)[7]
        self.assertEqual(task.expect["xi"], 0.0)
        self.assertEqual(len(self.outcome(task).times), 1)
        task.expect = dict(task.expect, lam=task.expect["lam"] * 1.001)
        tally = self.outcome(task)
        self.assertEqual((len(tally.times), tally.attempted, tally.wrong), (0, 1, 1))
        (reason,) = tally.failures
        self.assertTrue(reason.startswith("check: touchdown"), reason)

    def test_profile_bracket(self):
        task = workloads.make_pool("profiles", 1, 1)[0]
        self.assertEqual(len(self.outcome(task).times), 1)
        task.expect = dict(task.expect, K=task.expect["K"] * (1 + 1e-6))
        tally = self.outcome(task)
        self.assertEqual((len(tally.times), tally.wrong), (0, 1))
        (reason,) = tally.failures
        self.assertTrue(reason.startswith("check: momentum bracket"), reason)


class Repeatable(unittest.TestCase):
    def test_orbit_failures_repeat(self):
        runs = [result_of(bench("--workload", "orbits", "--seed", "1",
                                "--seconds", TINY_SECONDS, "--trace", "0"))
                for _ in range(2)]
        counts = [(r["attempted"], r["failed"], r["metrics"]["completed_share"]["value"])
                  for r in runs]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0][1], 0, "seed 1 should include a failing orbit")


class NoSource(unittest.TestCase):
    def test_refuses_without_package(self):
        bare = ROOT / ".perfbench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = bench("--workload", "orbits", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


def tearDownModule():
    with contextlib.suppress(OSError):
        (ROOT / ".perfbench_work").rmdir()


if __name__ == "__main__":
    unittest.main(verbosity=2)
