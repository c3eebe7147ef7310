#!/usr/bin/env python3
"""olfui end-to-end benchmark: builds the benchmark package, runs one
workload, and prints the result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the olfui library, the olfui_cli worker and the
olfui_bench driver) into $CARGO_TARGET_DIR (default .bench_build); later
runs only re-check the build. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The full record of each run (host and build record, simulated statistics,
every sample, output checks) is written under <build dir>/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sbst_stuck_at", "sbst_transition", "scan_manufacturing",
             "sbst_fleet")
# A run must end within 180 s (900 s when it also builds); leave room to
# report a timeout.
RUN_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 720


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {' '.join(cmd)}: {e}")
        return False
    return proc.returncode == 0


def build(build_dir, deadline):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
               build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, deadline - time.monotonic()):
            return False
    return run_logged(["cmake", "--build", build_dir, "-j", jobs],
                      deadline - time.monotonic())


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout is not
    always a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    tops = ["CMakeLists.txt", "src", "examples", "perfbench"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not build(build_dir, time.monotonic() + BUILD_TIMEOUT_S):
        log("perfbench: build failed")
        return 1

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record_path = stem + ".json"
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [os.path.join(build_dir, "olfui_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(build_dir, "olfui", "olfui_cli"),
           "--out", record_path]
    if args.trace:
        cmd += ["--spans", stem + "-spans.json"]
    # The run gets its own session so a timeout can stop the fleet's
    # worker processes along with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: run timed out")
        return 1
    sys.stdout.write(out)
    if not os.path.exists(record_path):
        log(f"perfbench: olfui_bench exited {proc.returncode} without a record")
        return 1

    with open(record_path) as f:
        record = json.load(f)
    record["host"]["commit"] = git_commit()
    record["host"]["source_digest"] = source_digest()
    with open(record_path, "w") as f:
        json.dump(record, f, indent=2)

    measured = record["per_layer" if args.trace else "end_to_end"]
    names = declared_metrics(args.trace)
    missing = [n for n in names if n not in measured]
    if missing:
        log(f"perfbench: metrics missing from the record: {missing}")
        return 1
    metrics = {n: measured[n] for n in names}
    attempted, failed = record["attempted"], record["failed"]
    print(f"ops_failed_ratio {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if record["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
