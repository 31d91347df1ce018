#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py [--workload galaxy-dual ...]

For each workload, runs the harness with a planted wrong force and expects the
gate to reject the run (correct false, every step counted as failed):

  theta    the simulations run at twice the workload's opening angle;
  perturb  the accelerations of 2% of the bodies (id % 50 == 0) flip sign;
  nan      the first step leaves a NaN acceleration behind.

Then runs clean on the workload's default seed and on the held-out seed and
expects the gate to pass. Exits 0 only when every expectation holds.
"""
import argparse
import sys
import time

import run

DEFAULT_SEEDS = {"galaxy-dual": 42, "plummer-group": 7, "cube-dfs": 3}
HELD_OUT_SEED = 9001
PLANTS = ("theta", "perturb", "nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="*", default=list(run.WORKLOADS), choices=run.WORKLOADS)
    args = ap.parse_args()
    binary = run.build()
    cases = []
    for w in args.workload:
        cases += [(w, DEFAULT_SEEDS[w], p, False) for p in PLANTS]
        cases += [(w, DEFAULT_SEEDS[w], "none", True), (w, HELD_OUT_SEED, "none", True)]
    bad = 0
    for w, seed, plant, want in cases:
        res = run.run_harness(binary, ["--workload", w, "--seed", str(seed), "--mode", "timed",
                                       "--seconds", "1", "--plant", plant],
                              run.pool_size(), time.monotonic() + 600)
        ok = res["correct"] == want and (want or res["failed"] == res["attempted"])
        bad += not ok
        print("%-4s %-14s seed %-5d plant %-8s correct=%-5s gate: %s" % (
            "ok" if ok else "FAIL", w, seed, plant, res["correct"], res["gate"]))
    print("%d of %d cases as expected" % (len(cases) - bad, len(cases)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
