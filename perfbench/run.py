#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later runs rebuild incrementally. Each run then

  1. runs the self-test of the benchmark's metric code;
  2. runs the workload (perfbench.cc), which checks its own outputs;
  3. checks that this seed's simulated fingerprint matches every
     earlier run of the same binary and seed, traced or not;
  4. prints, as the last line of stdout, one JSON object with the
     keys correct, attempted, failed and metrics: the end_to_end
     metrics of BENCHMARK.json with --trace 0, its per_layer metrics
     with --trace 1.

Diagnostics go to stderr. A missing source tree or a failed build
exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configure once, then build incrementally; output to stderr."""
    jobs = str(min(3, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("build failed:", " ".join(cmd))
            sys.exit(1)


def binary_id(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_fingerprint(out, key, fingerprint):
    """Every run of one binary on one workload and seed must produce the
    same simulated fingerprint. Returns False on a mismatch."""
    path = os.path.join(out, "fingerprints.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    if key in seen:
        return seen[key] == fingerprint
    seen[key] = fingerprint
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload", args.workload)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    build(out)
    if subprocess.run([os.path.join(out, "perfbench_selftest")],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("self-test of the metric code failed")
        return 1

    exe = os.path.join(out, "perfbench")
    proc = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("workload run failed with code", proc.returncode)
        return 1
    res = json.loads(lines[-1])

    correct = bool(res["correct"])
    for v in res["violations"]:
        log("correctness violation:", v)
    key = "%s:%s:%d" % (binary_id(exe), args.workload, args.seed)
    if not check_fingerprint(out, key, res["fingerprint"]):
        log("fingerprint %s differs from an earlier run of this seed"
            % res["fingerprint"])
        correct = False

    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("metric %s missing or in the wrong unit" % m["name"])
            return 1
        metrics[m["name"]] = got
    log("workload %s seed %d: %d repetitions, fingerprint %s"
        % (args.workload, args.seed, res["reps"], res["fingerprint"]))
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in res["metrics"].items():
        if name not in listed:
            log("  also measured: %s = %.6g %s" % (name, m["value"],
                                                  m["unit"]))
    print(json.dumps({"correct": correct,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
