#!/usr/bin/env python3
"""Check bench reports against the one result schema (bench/bench_common.h).

    check_report.py REPORT.json...          every file is {"bench": str,
                                            "provenance": {...}, "rows": [flat
                                            objects]}
    check_report.py --reps N REPORT.json... and its provenance.reps is N
    check_report.py --exit CODE -- CMD...   CMD exits with exactly CODE

Standard library only; exits 1 on the first violation.
"""
import json
import subprocess
import sys

PROVENANCE = ("git_sha", "build_type", "nproc", "latency_scale", "reps", "env")


def check(path, reps=None):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc.get("bench"), str):
        return "missing string 'bench'"
    prov = doc.get("provenance")
    if not isinstance(prov, dict):
        return "missing object 'provenance'"
    missing = [k for k in PROVENANCE if k not in prov]
    if missing:
        return f"provenance lacks {missing}"
    if reps is not None and prov["reps"] != reps:
        return f"provenance.reps is {prov['reps']}, want {reps}"
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        return "missing non-empty 'rows'"
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            return f"row {i} is not an object"
        nested = [k for k, v in row.items() if isinstance(v, (dict, list))]
        if nested:
            return f"row {i} is not flat: {nested}"
    return None


def main(argv):
    if len(argv) >= 3 and argv[0] == "--exit" and argv[2] == "--":
        rc = subprocess.call(argv[3:])
        if rc != int(argv[1]):
            print(f"{' '.join(argv[3:])}: exit {rc}, want {argv[1]}")
            return 1
        return 0
    reps = None
    if len(argv) >= 2 and argv[0] == "--reps":
        reps = int(argv[1])
        argv = argv[2:]
    if not argv:
        print(__doc__)
        return 1
    for path in argv:
        err = check(path, reps)
        if err:
            print(f"{path}: {err}")
            return 1
        print(f"{path}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
