#!/usr/bin/env python3
"""Check that the end-to-end metrics are steady across seeds.

    python3 perfbench/steady.py --workloads tcp_churn --seeds 1-10 \\
        [--out set1.json] [--against set0.json]

Runs perfbench/run.py (trace 0) once per seed and workload, then prints for
each metric its median and its spread: the distance between the first and
third quartile as a share of the median. A spread above the metric's bound
fails; above a third of it is flagged. With --against, each median is also
compared with the same metric's median in an earlier set: getting worse
by more than the bound fails. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True, help="comma-separated")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", help="write the collected values here")
    ap.add_argument("--against", help="an earlier --out file to compare medians with")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    collected = {}
    for w in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            t0 = time.time()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if out.returncode != 0:
                print("%s seed %d: exit code %d" % (w, seed, out.returncode))
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            print("%s seed %d: correct=%s attempted=%d failed=%d (%.0f s)"
                  % (w, seed, result["correct"], result["attempted"], result["failed"],
                     time.time() - t0), flush=True)
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        collected[w] = runs
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    ok = True
    for w, runs in collected.items():
        if len(runs) < 2:
            print("%s: too few successful runs" % w)
            ok = False
            continue
        print("\n%s (%d runs)" % (w, len(runs)))
        for name, m in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            spread = stats.iqr_share(values)
            status = "ok"
            if spread > m["bound"]:
                status = "SPREAD OVER BOUND"
            elif spread > m["bound"] / 3:
                status = "spread over bound/3"
            if name == "setup_s" and spread > m["bound"]:
                status = "spread over bound (setup_s: not gated)"
            line = "  %-22s median %-12.6g spread %6.3f bound %.2f  %s" % (
                name, med, spread, m["bound"], status)
            if w in earlier:
                before = statistics.median([r[name] for r in earlier[w]])
                worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                line += "  vs earlier %+.3f%s" % (worse, " WORSE THAN BOUND" if worse > m["bound"] else "")
                ok = ok and worse <= m["bound"]
            ok = ok and (spread <= m["bound"] or name == "setup_s")
            print(line)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(collected, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
