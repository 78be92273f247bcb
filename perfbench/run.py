#!/usr/bin/env python3
"""One-command end-to-end benchmark of the netqre deployment pipeline.

    python3 perfbench/run.py --workload backbone --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The script builds the benchmark binary
from the checkout's sources (perfbench/CMakeLists.txt, into
$CARGO_TARGET_DIR or .bench_build), writes the workload's inputs for the
seed, runs the pipeline for --seconds, checks the results and prints one
line per metric, then one JSON object as the last line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(README.md).  The exit status is 0 only when every correctness check
passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["backbone", "attack-mix", "tenant-churn", "voip-usage"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def check_log_repeats(out_dir, key, sha):
    """The store-rule transition log must be byte-identical across runs of
    one seed and one build: compares against the hash an earlier run
    recorded.  Returns an error message or None."""
    path = os.path.join(out_dir, "alert-logs.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    if key in seen and seen[key] != sha:
        return (f"store-rule transition log differs from an earlier run of "
                f"the same seed ({seen[key]} vs {sha})")
    seen[key] = sha
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the traces (smoke test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one result before checking (smoke test)")
    args = ap.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    out_dir = os.path.join(build_root, "perfbench-run")
    os.makedirs(out_dir, exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out", out_dir, "--scale", repr(args.scale)]
    gen = subprocess.run([binary, "gen"] + common, stdout=sys.stderr)
    if gen.returncode != 0:
        log("input generation failed")
        return 2
    cmd = [binary, "run"] + common + [
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--queries", os.path.join(ROOT, "queries"),
        "--rules", os.path.join(HERE, "rules")]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"no result from the run (exit {proc.returncode})")
        return 2
    body = lines[:-1]
    if args.workload == "attack-mix" and args.scale == 1.0:
        sha = next((l.split()[-1] for l in body if l.startswith("note: log_sha")),
                   None)
        with open(binary, "rb") as f:
            build_id = hashlib.sha256(f.read()).hexdigest()[:16]
        err = check_log_repeats(
            out_dir, f"{args.workload}/{args.seed}/{args.seconds!r}/{build_id}",
            sha)
        if err:
            body.append(f"CHECK FAILED: {err}")
            result["correct"] = False
            result["failed"] += 1
            result["attempted"] += 1
    for line in body:
        print(line)
    print(json.dumps(result))
    if proc.returncode not in (0, 1):
        return proc.returncode
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
