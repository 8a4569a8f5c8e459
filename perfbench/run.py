#!/usr/bin/env python3
"""Build and run the live-cluster benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (a Cargo workspace of its own, with path
dependencies on the crates under `crates/`) in release mode, offline, into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root). Runs it
with every `PVFS_*` variable removed from its environment, so the cluster
always has the configuration the workload names, and pinned to one CPU
(see `pin_one_cpu`). Checks the result line
against `BENCHMARK.json` (metric names and units for the chosen trace mode)
and prints it as the last line of standard output, after the benchmark's own
report and a line of machine facts.

Exits non-zero without printing a result line when the build fails, the run
fails or times out, a byte read back does not match, a traced count does not
reconcile, or the result does not match `BENCHMARK.json`.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """Short sha256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "target")
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def pin_one_cpu():
    """Pin this process, and so the benchmark it starts, to one CPU.

    The cluster runs in one process with more threads than a small
    virtual machine has CPUs, and an op hands work from thread to thread.
    Spread over several virtual CPUs, every hand-off may wake an idle one
    through the hypervisor, which on a shared host is as slow as the
    host is busy: the same pass ran from 50 to 210 MB/s on two CPUs. On
    one CPU a hand-off is a plain context switch and the CPU stays busy,
    so host load slows the run only by the time it takes away. Returns
    the CPU chosen: the highest one allowed, away from CPU 0, which
    usually takes the most interrupts.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    return allowed[-1]


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def check_result(line, expected):
    """Parse the result line; return it, or a reason it is unacceptable."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return None, f"last line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None, f"result keys are not {sorted(RESULT_KEYS)}"
    if result["correct"] is not True:
        return None, "the benchmark reported incorrect output"
    attempted, failed = result["attempted"], result["failed"]
    if not all(isinstance(v, int) for v in (attempted, failed)) or attempted < 1 or failed != 0:
        return None, f"attempted={attempted} failed={failed}"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return None, f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, m in metrics.items():
        if m.get("unit") != expected[name]:
            return None, f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {expected[name]!r}"
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return None, f"{name}: value {value!r} is not a finite number"
    return result, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    metric_list = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in metric_list}

    env = {k: v for k, v in os.environ.items() if not k.startswith("PVFS_")}
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    try:
        # Build chatter goes to stderr: standard output carries the report.
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    cpu = pin_one_cpu()
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        ran = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    sys.stderr.write(ran.stderr)
    lines = ran.stdout.rstrip("\n").split("\n")
    if ran.returncode != 0:
        sys.stderr.write(ran.stdout)
        fail(f"run exited with code {ran.returncode}")
    result, problem = check_result(lines[-1], expected)
    if problem:
        sys.stderr.write(ran.stdout)
        fail(problem)

    for line in lines[:-1]:
        print(line)
    print(f"machine: nproc={os.cpu_count()} pinned_cpu={cpu} git_sha={git_sha()} source_digest={source_digest()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
