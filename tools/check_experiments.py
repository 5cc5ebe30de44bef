#!/usr/bin/env python3
"""Check the determinism contract: every bench reproduces EXPERIMENTS.json.

Runs each bench listed in EXPERIMENTS.json at full scale with
``--jobs N --quiet --json``, merges the outputs in that file's format,
and compares each bench's parsed JSON with its recorded entry. Prints
the first differing cell of every bench that differs and exits 1 if any
does (or if a bench fails to run); exits 0 when all are identical.

    python3 tools/check_experiments.py [--build-dir build] [--jobs N]
                                       [--out merged.json]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def first_difference(expected, actual, path):
    """Path and both values of the first cell where the two differ."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in list(expected) + [k for k in actual if k not in expected]:
            if key not in expected or key not in actual:
                return (f"{path}.{key}", expected.get(key, "<absent>"),
                        actual.get(key, "<absent>"))
            diff = first_difference(expected[key], actual[key],
                                    f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = first_difference(e, a, f"{path}[{i}]")
            if diff:
                return diff
        if len(expected) != len(actual):
            return (f"{path}.length", len(expected), len(actual))
        return None
    if expected != actual or type(expected) is not type(actual):
        return (path, expected, actual)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build"),
                        help="CMake build tree holding bench/ (default: "
                             "build)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="--jobs passed to every bench (default: "
                             "nproc)")
    parser.add_argument("--out", help="also write the merged JSON here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "EXPERIMENTS.json")) as f:
        recorded = json.load(f)

    merged = {"note": recorded["note"], "benches": []}
    failures = 0
    sweep_start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        for entry in recorded["benches"]:
            name = entry["bench"]
            exe = os.path.join(args.build_dir, "bench", f"bench_{name}")
            out = os.path.join(tmp, f"{name}.json")
            start = time.monotonic()
            run = subprocess.run([exe, "--jobs", str(args.jobs),
                                  "--quiet", "--json", out],
                                 stdout=subprocess.DEVNULL)
            wall = time.monotonic() - start
            if run.returncode != 0:
                print(f"{name}: exited {run.returncode}")
                failures += 1
                continue
            with open(out) as f:
                actual = json.load(f)
            merged["benches"].append(actual)
            diff = first_difference(entry, actual, name)
            if diff:
                cell, want, got = diff
                print(f"{name}: DIFFERS at {cell}: recorded {want!r}, "
                      f"got {got!r} ({wall:.1f} s)")
                failures += 1
            else:
                print(f"{name}: identical ({wall:.1f} s)")
    print(f"sweep: {len(recorded['benches'])} benches at --jobs "
          f"{args.jobs}, {time.monotonic() - sweep_start:.1f} s wall, "
          f"{failures} differing or failed")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(merged, f, indent=2)
            f.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
