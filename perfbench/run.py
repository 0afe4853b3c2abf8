#!/usr/bin/env python3
"""Builds the benchmark harness and runs one workload (or all of them).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper-rhc, sparse-1k, gateway-observed. The harness is a
Cargo package of its own (perfbench/harness) built in release mode into
$CARGO_TARGET_DIR (default: .bench_build). Each workload runs in a fresh
process. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it are a
table of every figure with its unit and sample count. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["paper-rhc", "sparse-1k", "gateway-observed"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
# A run measures for --seconds; the traced run adds an untraced
# baseline of half that, and the gateway adds its correctness replay.
RUN_TIMEOUT_S = 170


def build():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "jocal-perfbench")


def manifest_metrics(trace):
    """The metric names BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return {m["name"] for m in manifest["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    out = done.stdout
    if done.returncode == 0:
        # Every run must report exactly the manifest's metrics; a result
        # line that misses or adds one is withheld and the run fails.
        lines = out.splitlines()
        got = set(json.loads(lines[-1])["metrics"])
        want = manifest_metrics(args.trace)
        if got != want:
            print("\n".join(lines[:-1]), flush=True)
            sys.exit(f"perfbench: {workload} reported metrics that differ from "
                     f"BENCHMARK.json: missing {sorted(want - got)}, "
                     f"extra {sorted(got - want)}")
    return done.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        code, out = run_one(binary, args.workload, args)
        sys.stdout.write(out)
        sys.exit(code)

    # One command for every workload: each in its own process, and one
    # combined result line with metrics named <workload>.<metric>.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, out = run_one(binary, workload, args)
        worst = worst or code
        lines = out.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            # A refused run prints no result line.
            print(out, end="", flush=True)
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
