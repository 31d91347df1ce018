#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload galaxy-dual --seed 42 --seconds 20 --trace 0

Builds perfbench/nbody_perfbench (Release, from the checkout's sources) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs it:

  --trace 0  one timed process: prints every end-to-end metric.
  --trace 1  one traced process at the benchmark's pool size plus one scale
             process per smaller pool size (1 with policy seq, then 2):
             prints every per-layer metric.

The last line of stdout is the result object; the line before it is the
run's record: fingerprint, gate details and phase tables. The record is also
written to <build dir>/results/. Exits non-zero without a result when the
build or the harness fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("galaxy-dual", "plummer-group", "cube-dfs")
MAX_POOL = 4
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds the harness; returns the binary's path."""
    bdir = build_dir()
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "--target", "nbody_perfbench", "-j", str(pool_size())]]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=BUILD_TIMEOUT_S)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "nbody_perfbench")


def pool_size():
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(MAX_POOL, cpus))


def harness_env(threads):
    env = dict(os.environ)
    for var in ("NBODY_FAULTS", "NBODY_METRICS_JSON", "NBODY_TRACE_OUT"):
        env.pop(var, None)
    env["NBODY_THREADS"] = str(threads)
    return env


def run_harness(binary, args, threads, deadline):
    """Runs the harness and returns its JSON result (its last stdout line)."""
    timeout = max(1.0, deadline - time.monotonic())
    res = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                         env=harness_env(threads), timeout=timeout)
    if res.returncode != 0:
        raise RuntimeError("harness exited with %d: %s" % (res.returncode, " ".join(args)))
    return json.loads(res.stdout.strip().splitlines()[-1])


def source_digest():
    """sha256 over the library sources, the root build file and the benchmark."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def ratio(num, den):
    return num / den if den > 0 else 0.0


def traced_metrics(binary, workload, seed, seconds, deadline):
    """The traced process plus the scaling rows at smaller pool sizes."""
    pool = pool_size()
    base_args = ["--workload", workload, "--seed", str(seed)]
    trace_path = os.path.join(build_dir(), "results", "trace-%s-seed%d.json" % (workload, seed))
    traced = run_harness(binary, base_args + ["--mode", "traced", "--seconds", str(seconds),
                                              "--trace-out", trace_path], pool, deadline)
    rows = {pool: traced["phases"]}
    runs = [traced]
    for k in (1, 2):
        if k < pool:
            row = run_harness(binary, base_args + ["--mode", "scale", "--seconds",
                                                   str(seconds / 2)], k, deadline)
            rows[k] = row["phases"]
            runs.append(row)
    m = dict(traced["metrics"])
    top = rows[pool]
    for tree, phases in (("octree", ("build", "multipole", "force")),
                         ("bvh", ("sort", "build", "force"))):
        for k, name in ((2, "speedup_2t"), (MAX_POOL, "speedup_4t")):
            row = rows.get(min(k, pool), top)
            m["%s.%s" % (tree, name)] = ratio(rows.get(1, top)[tree + ".step"], row[tree + ".step"])
        for ph in phases:
            m["%s.%s_speedup_4t" % (tree, ph)] = ratio(rows.get(1, top).get("%s.%s" % (tree, ph), 0),
                                                       top.get("%s.%s" % (tree, ph), 0))
    record = {"run": {k: v for k, v in traced.items()
                              if k not in ("metrics", "phases", "correct", "attempted", "failed")},
              "scaling_rows": {str(k): v for k, v in sorted(rows.items())},
              "trace_file": trace_path}
    correct = all(r["correct"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs) if correct else attempted
    return m, record, correct, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        binary = build()
        deadline = time.monotonic() + RUN_BUDGET_S
        os.makedirs(os.path.join(build_dir(), "results"), exist_ok=True)
        if args.trace:
            metrics, record, correct, attempted, failed = traced_metrics(
                binary, args.workload, args.seed, args.seconds, deadline)
        else:
            res = run_harness(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                       "--mode", "timed", "--seconds", str(args.seconds)],
                              pool_size(), deadline)
            metrics, correct = res["metrics"], res["correct"]
            attempted, failed = res["attempted"], res["failed"]
            record = {"run": {k: v for k, v in res.items()
                                      if k not in ("metrics", "correct", "attempted", "failed")}}
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1

    missing = [w["name"] for w in wanted if metrics.get(w["name"]) is None]
    if missing:
        log("perfbench: harness did not report %s" % ", ".join(missing))
        return 1
    record["run"].update(source_sha256=source_digest(), git_commit=git_commit())
    result = {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
              "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]}
                          for w in wanted}}
    record["result"] = result
    out = os.path.join(build_dir(), "results", "%s-seed%d-trace%d.json" %
                       (args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
    print("run: " + json.dumps(record["run"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
