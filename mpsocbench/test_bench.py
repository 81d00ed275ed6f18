#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m unittest mpsocbench/test_bench.py

They build mpsoc_bench the same way run.py does, then check that digests are
deterministic and seed-sensitive, that the pinned digests still hold, that a
traced run's state digest equals the untraced run's, and that the metric
names printed and the names declared in BENCHMARK.json are the same sets.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = run.WORKLOADS


def bench(binary, *args):
    cmd = [binary, "--scenarios", os.path.join(run.HERE, "scenarios")]
    out = subprocess.run(cmd + list(args), cwd=run.ROOT, check=True,
                         capture_output=True, text=True).stdout
    return out


def digests(binary, workload, seed):
    out = bench(binary, "--workload", workload, "--seed", str(seed),
                "--print-digests")
    return [line for line in out.splitlines() if line]


def run_py(*args):
    out = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py")]
                         + list(args), cwd=run.ROOT, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_same_seed_same_digests_other_seed_differs(self):
        for wl in ("stbus_onchip", "dse_sweep"):
            first = digests(self.binary, wl, 1)
            self.assertEqual(first, digests(self.binary, wl, 1), wl)
            other = digests(self.binary, wl, 2)
            strip = lambda lines: [l.split()[2:] for l in lines]  # noqa: E731
            for a, b in zip(strip(first), strip(other)):
                self.assertEqual(a[0], b[0])
                self.assertNotEqual(a[1], b[1], "%s %s" % (wl, a[0]))

    def test_pinned_digests_hold(self):
        with open(os.path.join(run.HERE, "pins.txt")) as f:
            pins = sorted(l.strip() for l in f
                          if l.strip() and not l.startswith("#"))
        got = sorted(l for wl in WORKLOADS for l in digests(self.binary, wl, 1))
        self.assertEqual(pins, got)

    def test_traced_state_digest_equals_untraced(self):
        for wl in WORKLOADS:
            res = json.loads(bench(
                self.binary, "--workload", wl, "--seed", "3", "--trace", "1",
                "--out-dir", os.path.join(run.OUT, "test-trace", wl)))
            self.assertEqual(res["failed"], 0, (wl, res["errors"]))
            self.assertIn("state", res["digests"], wl)

    def test_metric_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run_py("--workload", "dse_sweep", "--seed", "1",
                         "--seconds", "0.5", "--trace", str(trace))
            self.assertTrue(res["correct"])
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            printed = {n: m["unit"] for n, m in res["metrics"].items()}
            self.assertEqual(declared, printed)


if __name__ == "__main__":
    unittest.main()
