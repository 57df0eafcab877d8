#!/usr/bin/env python3
"""Build the benchmark driver from source, run one workload, print its metrics.

    python3 perfbench/run.py --workload fleet_frag --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The driver is built with CMake into
.bench_build/perfbench (the first run builds; later runs only check that
the build is current). The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. Lines before it list every metric with
its unit and better-direction. The exit code is 0 only when a result
line was printed.

The run environment is pinned by the options BENCHMARK.json's command
passes: the TaskPool worker count (VNPU_TASK_POOL_THREADS, which cannot
change any simulated decision), the CMake build type and the nproc the
bounds were measured with.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
# The whole run, build excluded, must end well inside 180 seconds.
RUN_DEADLINE_S = 170.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_type, jobs):
    """Configure once, then bring the driver up to date. True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             f"-DCMAKE_BUILD_TYPE={build_type}"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    b = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(jobs)],
                       stdout=sys.stderr, stderr=sys.stderr)
    return b.returncode == 0 and os.path.exists(DRIVER)


def select(metrics, declared, idle_zero):
    """The declared metrics, each checked for presence and unit.

    With idle_zero (per-layer metrics), a declared metric the driver did
    not emit belongs to a layer the workload does not exercise and reads
    0, and an emitted metric that is not declared is an error.
    """
    names = {d["name"] for d in declared}
    if idle_zero:
        extra = sorted(set(metrics) - names)
        if extra:
            raise ValueError(f"undeclared per-layer metrics {extra}")
    out = {}
    for d in declared:
        got = metrics.get(d["name"])
        if got is None and idle_zero:
            got = {"value": 0, "unit": d["unit"]}
        if got is None:
            raise ValueError(f"metric {d['name']} not emitted")
        if got["unit"] != d["unit"]:
            raise ValueError(f"metric {d['name']} has unit {got['unit']}, "
                             f"declared {d['unit']}")
        out[d["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--task-pool-threads", type=int, default=1)
    p.add_argument("--build-type", default="Release")
    p.add_argument("--nproc", type=int, default=None,
                   help="nproc of the host the bounds were measured on")
    p.add_argument("--default-seed", type=int, default=1)
    p.add_argument("--held-out-seed", type=int, default=None,
                   help="seed kept out of tuning; for confirming claims")
    # Sizing overrides for the smoke test (tests/smoke_test.py).
    p.add_argument("--instances", type=int, default=0)
    p.add_argument("--ops", type=int, default=0)
    p.add_argument("--iterations", type=int, default=0)
    a = p.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        log(f"unknown workload {a.workload}; expected one of {names}")
        return 2
    seed = a.default_seed if a.seed is None else a.seed

    nproc = os.cpu_count() or 1
    if a.nproc is not None and nproc != a.nproc:
        log(f"warning: nproc is {nproc}, the bounds were set at {a.nproc}")
    threads = a.task_pool_threads
    if threads + 1 > nproc:
        threads = max(0, nproc - 1)
        log(f"warning: TaskPool workers capped at {threads} (nproc {nproc})")

    if not build(a.build_type, max(1, min(4, nproc))):
        log("build failed")
        return 1

    cmd = [DRIVER, "--workload", a.workload, "--seed", str(seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    for flag, v in (("--instances", a.instances), ("--ops", a.ops),
                    ("--iterations", a.iterations)):
        if v > 0:
            cmd += [flag, str(v)]
    env = dict(os.environ, VNPU_TASK_POOL_THREADS=str(threads))
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           env=env, cwd=ROOT, timeout=RUN_DEADLINE_S,
                           text=True)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_DEADLINE_S:.0f} s and was killed")
        return 1
    if r.returncode != 0:
        log(f"driver exited with code {r.returncode}")
        return 1
    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    if not lines:
        log("driver printed no result")
        return 1
    result = json.loads(lines[-1])

    kind = "per_layer" if a.trace else "end_to_end"
    try:
        metrics = select(result["metrics"], spec[kind], a.trace == 1)
    except ValueError as e:
        log(str(e))
        return 1
    better = {d["name"]: d["better"] for d in spec[kind]}
    print(f"# {a.workload} seed={seed} trace={a.trace} "
          f"hash48={result['hash48']} passes={result['passes']} "
          f"workers={result['workers']} build={a.build_type} nproc={nproc} "
          f"wall={time.monotonic() - t0:.1f}s")
    samples = result["metrics"].get("sim_tail_samples")
    if samples is not None:
        print(f"# sim_p50_ticks and sim_tail_ticks rest on "
              f"{samples['value']:.0f} samples")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>20.6g} {m['unit']:8s} "
              f"{better[name]} is better")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
