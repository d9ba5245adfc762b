#!/usr/bin/env python3
"""Assert that the exact-repeat counts repeat exactly, and move with the seed.

    python3 perfbench/check_repeats.py [--workloads paper_stream,tcp_solve] \\
        [--seeds 1,2] [--seconds 2]

The metrics BENCHMARK.json gives the unit "count" (kappa_final,
density_final, core.*_frac, solver.outer_iters) are counts a later change
may cite: each must read exactly the same in two runs of one seed, and at
least one of them must change under another seed. End-to-end counts come
from --trace 0 runs, per-layer ones from --trace 1 runs. They do not depend
on the run length, so a short --seconds is enough. Run from the repository
root; exits 1 on any violation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def counts(workload, seed, seconds, trace, names):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {n: metrics[n]["value"] for n in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="paper_stream,tcp_solve")
    ap.add_argument("--seeds", default="1,2", help="the repeated seed, then the other one")
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    seed, other = (int(s) for s in args.seeds.split(","))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = True
    for w in args.workloads.split(","):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            names = [m["name"] for m in spec[key] if m["unit"] == "count"]
            a = counts(w, seed, args.seconds, trace, names)
            b = counts(w, seed, args.seconds, trace, names)
            c = counts(w, other, args.seconds, trace, names)
            for n in names:
                same = a[n] == b[n]
                print("%-12s %-26s seed %d: %r / %r %s; seed %d: %r"
                      % (w, n, seed, a[n], b[n], "repeats" if same else "DIFFERS", other, c[n]))
                ok = ok and same
            moved = [n for n in names if a[n] != c[n]]
            print("%-12s trace %d: %d of %d counts change under seed %d"
                  % (w, trace, len(moved), len(names), other))
            ok = ok and bool(moved)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
