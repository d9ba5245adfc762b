#!/usr/bin/env python3
"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload paper_stream|tcp_solve|tcp_churn \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the harness and ingrass_serve from
source on first use (into $CARGO_TARGET_DIR, default .bench_build), runs
the workload, checks its outputs, prints one line per metric and, as the
last line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("paper_stream", "tcp_solve", "tcp_churn")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the harness and ingrass_serve."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench_harness"],
                   check=True, stdout=sys.stderr)
    harness = os.path.join(build_dir, "perfbench_harness")
    serve = os.path.join(build_dir, "ingrass", "apps", "ingrass_serve")
    for path in (harness, serve):
        if not os.access(path, os.X_OK):
            raise RuntimeError("build did not produce " + path)
    return harness, serve


def run_harness(cmd):
    """Run the harness in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("harness timed out after %d s" % HARNESS_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray server children, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError("harness exited with code %d" % proc.returncode)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("harness printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    harness, serve = build(build_dir)
    work = os.path.join(build_dir, "work", "%s-%d-%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    doc = run_harness([harness, "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", repr(args.seconds), "--trace", str(args.trace),
                       "--serve-bin", serve, "--work-dir", work])

    attempted, failed = stats.account(doc)
    for note in doc["notes"]:
        print("note: " + note)
    for what in doc["check_failures"]:
        print("CHECK FAILED: " + what)
    metrics = {}
    for m in wanted:
        value, detail = stats.metric(doc, m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-34s %14.6g %-8s %s" % (m["name"], value, m["unit"], detail))
    print("operations: attempted %d, failed %d; checks %d, failed %d"
          % (attempted, failed, doc["checks"], len(doc["check_failures"])))
    result = {"correct": failed == 0 and not doc["check_failures"],
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    except (stats.InsufficientSamples, stats.FailedPercentile) as e:
        log("run failed: " + str(e))
        sys.exit(3)
    except Exception as e:  # noqa: BLE001 - any failure ends the run without a result
        log("error: %s: %s" % (type(e).__name__, e))
        sys.exit(2)
