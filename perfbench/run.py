#!/usr/bin/env python3
"""DStore benchmark: build, run one workload, check it, print the result.

    python3 perfbench/run.py --workload kv-update --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (which compiles ../src) into
.bench_build/perfbench on first use, runs dstore_perfbench once, checks that
the store's outputs passed the oracle and that every metric BENCHMARK.json
names was printed with its unit, saves the full record (provenance, spread
across reps, errors) under .bench_build/perfbench/results/, and prints one
JSON line last:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exits non-zero, without a result line, when the build or the run fails or
an output is wrong.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dstore_perfbench")
RESULTS = os.path.join(BUILD, "results")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def source_digest():
    """sha256 over the store's and the benchmark's sources: identifies the
    code measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("corrupt-get", "drop-put"),
                    help="test hook: make the oracle fire")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # BENCHMARK.json lists the gated workloads; served-repl runs the same
    # way but is not gated (perfbench/DESIGN.md says why).
    workloads = [w["name"] for w in spec["workloads"]] + ["served-repl"]
    if args.workload not in workloads:
        log(f"unknown workload {args.workload}; expected one of {workloads}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(BUILD, "out")]
    if args.inject:
        cmd += ["--inject", args.inject]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"dstore_perfbench exited {proc.returncode} without a result")
        return proc.returncode or 1
    record = json.loads(lines[-1])

    record["provenance"].update({
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "runs": 1,
        "command": " ".join(sys.argv),
    })
    os.makedirs(RESULTS, exist_ok=True)
    out_path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    source = record["per_layer"] if args.trace else record["end_to_end"]
    metrics, problems = {}, list(record["errors"])
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} missing or not in {m['unit']}")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(record["correct"]) and proc.returncode == 0 and not problems
    for p in problems:
        log(f"FAIL: {p}")
    print(json.dumps({"provenance": record["provenance"]}, sort_keys=True))
    if not correct:
        return 1
    print(json.dumps({"correct": True, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
