#!/usr/bin/env python3
"""campkit benchmark: one command, four workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The script builds the generator (the Rust package in this directory, a
workspace of its own that depends on the repository crates by path) in
release mode, runs the workload in one generator process, and prints every
metric by name and unit. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload twice in separate processes, half of the measuring time each:
untraced, then with spans around every call into the program; it reports the
per-layer metrics of the traced process and the tracing overhead (the traced
process's wall_s over the untraced one's, minus one). A per-layer metric of a
layer the workload does not call is reported as 0.

--self-test runs the explore and adversary workloads traced under two
seeds and asserts that every metric classified deterministic in
classes.json reads the same in both, and that classes.json classifies
every metric of BENCHMARK.json exactly once.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("explore", "adversary", "broadcast-closed", "broadcast-lossy")
# Each invocation must end within 180 s; a generator gets what is left of
# this after the build.
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 880.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    td = os.environ.get("CARGO_TARGET_DIR")
    return Path(td).resolve() if td else ROOT / ".bench_build"


def build():
    """Builds the generator; returns its path."""
    if not (ROOT / "crates").is_dir() or not (HERE / "Cargo.toml").is_file():
        fail(f"{ROOT} holds no campkit sources to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_LIMIT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    exe = target_dir() / "release" / "perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def generate(exe, workload, seed, seconds, trace, deadline):
    """Runs one generator process; returns its parsed result line."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--root", str(ROOT), "--out-dir", str(target_dir() / "perfbench")]
    limit = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload}: generator still running after {limit:.0f} s; killed")
    if proc.returncode != 0:
        fail(f"{workload}: generator exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{workload}: generator printed no result")
    return json.loads(lines[-1])


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found")
    return json.loads(path.read_text())


def value(gen, name):
    """The metric's value; None when the generator did not report it."""
    entry = gen["metrics"].get(name)
    if entry is None:
        return None
    if entry["value"] is None:
        fail(f"{gen['workload']}: {name} is not a number")
    return entry["value"]


def measure(exe, bench, workload, seed, seconds, trace, deadline):
    """Returns (result dict, per-process generator outputs)."""
    if not trace:
        gens = [generate(exe, workload, seed, seconds, False, deadline)]
        wanted = bench["end_to_end"]
        source = gens[0]
        extra = {}
    else:
        half = max(1.0, seconds / 2.0)
        plain = generate(exe, workload, seed, half, False, deadline)
        traced = generate(exe, workload, seed, half, True, deadline)
        gens = [plain, traced]
        wanted = bench["per_layer"]
        source = traced
        extra = {"bench.tracing_overhead":
                 value(traced, "wall_s") / value(plain, "wall_s") - 1.0}
    attempted = sum(g["attempted"] for g in gens)
    failed = sum(g["failed"] for g in gens)
    extra["error_rate"] = failed / attempted
    metrics = {}
    for m in wanted:
        name = m["name"]
        v = extra.get(name, value(source, name))
        if v is None:
            if not trace:
                fail(f"{workload}: generator did not report {name}")
            v = 0.0  # the workload does not call this layer
        metrics[name] = {"value": v, "unit": m["unit"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, gens


def print_human(workload, seed, result, gens):
    print(f"# campkit benchmark: workload={workload} seed={seed}")
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'attempted':44s} {result['attempted']:>16d}")
    print(f"{'failed':44s} {result['failed']:>16d}")
    if "error_rate" not in result["metrics"]:
        print(f"{'error_rate':44s} {result['failed'] / result['attempted']:>16.6g} ratio")
    if "bench.host_factor" not in result["metrics"]:
        print(f"{'bench.host_factor':44s} {value(gens[0], 'bench.host_factor'):>16.6g} ratio")
    for g in gens:
        for reason in g["failures"]:
            print(f"FAILED: {reason}")


def self_test(exe, bench):
    classes = json.loads((HERE / "classes.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    seen = {}
    for cls in ("deterministic", "schedule-dependent", "wall-clock"):
        for n in classes[cls]:
            seen.setdefault(n, []).append(cls)
    problems = [f"{n}: classes {seen.get(n, [])}" for n in names if len(seen.get(n, [])) != 1]
    problems += [f"{n}: classified but not in BENCHMARK.json" for n in seen if n not in names]
    deterministic = set(classes["deterministic"]) - {"bench.seed"}
    for workload in ("explore", "adversary"):
        runs = []
        for seed in (1, 2):
            deadline = time.monotonic() + RUN_LIMIT_S
            result, _ = measure(exe, bench, workload, seed, 2, True, deadline)
            if not result["correct"]:
                problems.append(f"{workload} seed {seed}: {result['failed']} failed")
            runs.append(result["metrics"])
        for n in sorted(deterministic):
            a, b = runs[0][n]["value"], runs[1][n]["value"]
            if a != b:
                problems.append(f"{workload}: deterministic {n} read {a} then {b}")
        touched = [n for n in deterministic if runs[0][n]["value"] != 0]
        print(f"{workload}: {len(touched)} deterministic metrics repeat exactly")
    for p in problems:
        print(f"SELF-TEST: {p}")
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    bench = load_benchmark()
    exe = build()
    if args.self_test:
        sys.exit(self_test(exe, bench))
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in (0, 60]")
    # The first invocation in a checkout may spend up to 880 s building; the
    # generators' limit starts after the build.
    deadline = time.monotonic() + RUN_LIMIT_S - 5.0
    result, gens = measure(exe, bench, args.workload, args.seed, args.seconds,
                           bool(args.trace), deadline)
    print_human(args.workload, args.seed, result, gens)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
