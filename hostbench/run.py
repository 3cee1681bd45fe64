#!/usr/bin/env python3
"""Build and run the host benchmark.

Run one measurement (from the root of the repository):

    python3 hostbench/run.py --workload db-paper --seed 1 --seconds 20 --trace 0

The benchmark is built from source with cargo (offline, release) into
$CARGO_TARGET_DIR, `.bench_build` when unset. The last stdout line is the
JSON result; the exit code is non-zero when the build, a job or a check
fails.

Steadiness mode runs each workload once per seed and prints, for every
end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json:

    python3 hostbench/run.py --steady [--runs 10] [--seconds S] [--workload W ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build():
    """Build the benchmark; return the binary's path (None on failure)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd).returncode != 0:
        return None
    return target / "release" / "hostbench"


def run_once(binary, workload, seed, seconds, trace):
    """Run one measurement; return the parsed result (None on failure)."""
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def steady(binary, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        results = [run_once(binary, workload, seed, seconds, 0)
                   for seed in range(1, args.runs + 1)]
        if any(r is None or not r["correct"] for r in results):
            print(f"{workload}: a run failed")
            ok = False
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs of {seconds} s, "
              f"failed share {sorted(shares)}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metric["bound"]
            verdict = "ok" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
            if metric["name"] == "setup_s":
                verdict = "not gated"
            print(f"  {metric['name']:<26} median {med:<14.6g} q1 {q1:<14.6g} "
                  f"q3 {q3:<14.6g} spread {spread:7.2%} bound {bound:6.2%} {verdict}")
            print("    runs: " + " ".join(f"{v:.6g}" for v in values))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    binary = build()
    if binary is None:
        sys.exit("hostbench: build failed")
    if args.steady:
        sys.exit(0 if steady(binary, args) else 1)
    if args.workload is None or len(args.workload) != 1 or None in (
            args.seed, args.seconds, args.trace):
        sys.exit("hostbench: need --workload, --seed, --seconds and --trace")
    proc = subprocess.run(
        [str(binary), "--workload", args.workload[0], "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
