#!/usr/bin/env python3
"""Fast smoke test of the benchmark: shrunken workloads, a few seconds each.

    python3 perfbench/tests/smoke_test.py

Checks, for every workload in BENCHMARK.json:
  - every declared end-to-end and per-layer metric is emitted with its
    declared unit, and the run reports no failed operation;
  - the simulated metrics (sim_*) and the decision hash are identical
    across two runs of one seed, and across TaskPool worker counts 0
    and 3.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# Per-workload sizes small enough for a few seconds per run.
SMALL = {
    "fleet_frag": ["--instances", "1", "--ops", "300"],
    "admit_similar": ["--instances", "1", "--ops", "5"],
    "tenant_serve": ["--instances", "1", "--iterations", "20"],
}


def run(workload, trace=0, threads=1, seed=5):
    """Run one shrunken workload; returns (result, hash48)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace),
           "--task-pool-threads", str(threads)] + SMALL[workload]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    header = re.search(r"hash48=(\d+)", lines[0])
    return json.loads(lines[-1]), int(header.group(1))


class SmokeTest(unittest.TestCase):
    def check_declared(self, result, kind):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = result["metrics"]
        declared = {d["name"]: d["unit"] for d in SPEC[kind]}
        self.assertEqual(set(got), set(declared))
        for name, unit in declared.items():
            self.assertEqual(got[name]["unit"], unit, name)
            self.assertIsInstance(got[name]["value"], (int, float), name)

    def test_workloads(self):
        for w in (x["name"] for x in SPEC["workloads"]):
            with self.subTest(workload=w):
                first, h1 = run(w)
                self.check_declared(first, "end_to_end")
                sim = {k: v for k, v in first["metrics"].items()
                       if k.startswith("sim_")}
                self.assertTrue(sim)
                for threads in (1, 0, 3):
                    again, h2 = run(w, threads=threads)
                    self.assertEqual(h1, h2, f"hash48, {threads} workers")
                    self.assertEqual(
                        sim, {k: again["metrics"][k] for k in sim},
                        f"sim_* with {threads} workers")
                traced, h3 = run(w, trace=1)
                self.check_declared(traced, "per_layer")
                self.assertEqual(h1, h3, "hash48 of the traced run")


if __name__ == "__main__":
    unittest.main()
