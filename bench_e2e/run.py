#!/usr/bin/env python3
"""Build bench_e2e from this checkout's sources and run it.

    python3 bench_e2e/run.py --workload http_topk --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py --smoke

The build lives under .bench_build/ in the checkout (or $CARGO_TARGET_DIR
when set) and is reused across runs; result files and chrome traces land in
its results/ directory. Build output goes to stderr, so the last line of
stdout is the benchmark's one-line JSON result. --smoke runs every workload
at 1/20 size plus one traced run and checks the gates and that every metric
BENCHMARK.json names is printed, with its unit.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base)


def build():
    """Configure once, then (re)build; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no program sources at %s/src" % ROOT, file=sys.stderr)
        return None
    out = os.path.join(build_dir(), "bench_e2e")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "bench_e2e", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("run.py: %s" % e, file=sys.stderr)
            return None
        if done.returncode != 0:
            return None
    return os.path.join(out, "bench_e2e")


def run(binary, args, capture=False):
    results = os.path.join(build_dir(), "results")
    try:
        return subprocess.run([binary] + args + ["--out", results],
                              stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: bench_e2e exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None


def smoke(binary):
    """Every workload at 1/20 size, then one traced run; check the result."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    cases = [(w["name"], "0") for w in spec["workloads"]]
    cases.append((spec["workloads"][0]["name"], "1"))
    failures = []
    for workload, trace in cases:
        done = run(binary, ["--workload", workload, "--seed", "1", "--seconds", "0",
                            "--trace", trace, "--smoke"], capture=True)
        label = "%s trace=%s" % (workload, trace)
        if done is None or done.returncode != 0:
            failures.append("%s: exit %s" % (label, done and done.returncode))
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            failures.append("%s: correct=%s failed=%s" %
                            (label, result["correct"], result["failed"]))
        if got != want[trace]:
            failures.append("%s: metric names/units differ from BENCHMARK.json: %s" %
                            (label, sorted(set(got.items()) ^ set(want[trace].items()))))
        print("smoke %-24s ok" % label if not failures else "smoke %s" % label)
    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", help="use this bench_e2e binary instead of building")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")

    binary = args.bin or build()
    if binary is None:
        return 2
    if args.smoke:
        return smoke(binary)
    done = run(binary, ["--workload", args.workload, "--seed", args.seed,
                        "--seconds", args.seconds, "--trace", args.trace])
    return 3 if done is None else done.returncode


if __name__ == "__main__":
    sys.exit(main())
