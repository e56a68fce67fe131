#!/usr/bin/env python3
r"""Build and run one workload of the repository benchmark.

    python3 nibench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

<name> is a workload of BENCHMARK.json (see README.md). Run from the
repository root. Builds nibench/ (which compiles the library
sources under src/) into .bench_build/, runs the one workload in its own
process, passes its report through, and prints as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. `metrics` holds the
BENCHMARK.json end_to_end metrics on untraced runs and its per_layer metrics
on traced runs, each as {"value", "unit"}; one the workload does not
exercise reads 0.

Exits non-zero, without a result line, when the build or the run fails;
exits 1 after printing the result when a correctness check failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "nibench")
BINARY = os.path.join(BUILD, "nibench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "nibench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--smoke", action="store_true",
                   help="tiny instances, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    spec = load_spec()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("--seed must be >= 0 and --seconds > 0")
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    results = [l for l in lines if l.startswith("RESULT ")]
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if proc.returncode not in (0, 1) or len(results) != 1:
        sys.exit(f"nibench exited {proc.returncode} without a result")
    result = json.loads(results[0][len("RESULT "):])

    # BENCHMARK.json is the one catalogue of metrics: a named metric this
    # workload does not exercise is printed and reported as 0.
    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            got = {"value": 0, "unit": m["unit"]}
            print(f"  {m['name']:<26} {0:16.6f} {m['unit']:<6} [-]  "
                  "not exercised by this workload")
        elif got["unit"] != m["unit"]:
            sys.exit(f"nibench reported {m['name']} in {got['unit']}, "
                     f"not {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    correct = (proc.returncode == 0 and result["failed"] == 0 and
               all(result["checks"].values()))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
