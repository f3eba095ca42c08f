#!/usr/bin/env python3
"""Builds bench_e2e and runs the end-to-end benchmark of the XML store.

One run of one workload, as a regression gate calls it:

    python3 bench/e2e/run.py --workload query --seed 3 --seconds 15 --trace 0

prints `workload metric value unit` lines and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. A
traced run runs the workload three times, untraced, traced and untraced
again, and reports the traced run's ops_s loss against the mean of the two
untraced runs as harness.trace_overhead_frac; the loss counts as unresolved
unless it exceeds the difference between the two untraced runs. Its Chrome
trace lands in build-e2e/traces/.

Without --workload every workload runs, each in its own process, and the
results go to a JSON file with a machine fingerprint (compare two such files
with compare.py):

    python3 bench/e2e/run.py                          # each workload once
    python3 bench/e2e/run.py --seeds 1,1,1,1,1,2 --out a.json
    python3 bench/e2e/run.py --smoke                  # tiny inputs, all oracles

The exit code is non-zero when the build fails or any correctness check
fails. Everything is built and written under build-e2e/ at the root of the
checkout; stores live in a scratch directory below it.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
HERE = os.path.join(ROOT, "bench", "e2e")
BUILD_ROOT = os.path.join(ROOT, "build-e2e")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2e")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
SCRATCH = os.path.join(BUILD_ROOT, "tmp")
WORKLOADS = ("ingest", "query", "update", "mixed")
DEFAULT_SECONDS = 15
SMOKE_SECONDS = 0.5
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_e2e; returns False on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                  "-j", jobs])
    with open(log_path, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                log(f"build failed; see {log_path}")
                with open(log_path) as f:
                    log("".join(f.readlines()[-20:]))
                return False
    return True


def run_bench(workload, seed, seconds, smoke, trace_file=None):
    """Runs one bench_e2e process; returns (parsed result or None, lines)."""
    os.makedirs(SCRATCH, exist_ok=True)
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if smoke:
        cmd.append("--smoke")
    if trace_file:
        cmd.append(f"--trace={trace_file}")
    env = dict(os.environ, TMPDIR=SCRATCH)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None, []
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        log(f"{workload}: exited {proc.returncode} without a result")
        return None, lines
    return json.loads(lines[-1]), lines[:-1]


def run_workload(workload, seed, seconds, smoke, trace):
    """One untraced run or, with `trace`, a traced run between two untraced
    ones; returns a record, or None when a run gave no result."""
    result, lines = run_bench(workload, seed, seconds, smoke)
    if result is None:
        return None
    print("\n".join(lines), flush=True)
    record = {k: result[k] for k in ("workload", "seed", "seconds", "smoke",
                                     "correct", "attempted", "failed",
                                     "fingerprint", "e2e", "info")}
    record["trace"] = 0
    record["layers"] = {}
    if trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(trace_dir, f"{workload}-{seed}.json")
        traced, lines = run_bench(workload, seed, seconds, smoke, trace_file)
        if traced is None:
            return None
        print("\n".join(lines), flush=True)
        again, _ = run_bench(workload, seed, seconds, smoke)
        if again is None:
            return None
        first, second = (r["e2e"]["ops_s"]["value"] for r in (result, again))
        base = (first + second) / 2
        loss = base - traced["e2e"]["ops_s"]["value"]
        overhead = loss / base if base else 0.0
        layers = dict(traced["layers"])
        layers["harness.trace_overhead_frac"] = {
            "value": overhead, "unit": "ratio", "samples": 3}
        # Tracing only adds work, so a gain is noise as well.
        verdict = ("" if loss > abs(first - second) else
                   "; unresolved: the untraced runs differ by more")
        print(f"{workload} harness.trace_overhead_frac {overhead:.6g} ratio "
              f"(traced ops_s {traced['e2e']['ops_s']['value']:.6g}, untraced "
              f"{first:.6g} and {second:.6g}{verdict})")
        print(f"{workload} trace written to {trace_file}")
        record["trace"] = 1
        record["traced_e2e"] = traced["e2e"]
        record["layers"] = layers
        for r in (traced, again):
            record["correct"] = record["correct"] and r["correct"]
            record["attempted"] += r["attempted"]
            record["failed"] += r["failed"]
    return record


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def gate_line(record, trace):
    """The one-line result of a single run, restricted to BENCHMARK.json's
    metrics; None when the run lacks one of them."""
    bench = load_benchmark()
    names = bench["per_layer"] if trace else bench["end_to_end"]
    source = record["layers"] if trace else record["e2e"]
    metrics = {}
    for m in names:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or in the wrong unit")
            return None
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(record["correct"]), "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def file_system_of(path):
    """Type of the file system holding `path`, from /proc/mounts."""
    best, fs = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mount = parts[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, fs = mount, parts[2]
    except OSError:
        pass
    return fs


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(records):
    fp = dict(records[0]["fingerprint"]) if records else {}
    os.makedirs(SCRATCH, exist_ok=True)
    fp.update({"nproc": os.cpu_count(), "cpu_model": cpu_model(),
               "kernel": platform.release(),
               "scratch_file_system": file_system_of(os.path.realpath(SCRATCH))})
    return fp


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this workload once and print the gate line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", help="comma-separated seeds; every workload "
                        "runs once per listed seed (all-workload mode)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed window per run (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a short window; every oracle runs")
    parser.add_argument("--out", help="results file (all-workload mode)")
    args = parser.parse_args()
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)

    if not build():
        return 1

    if args.workload:
        record = run_workload(args.workload, args.seed, seconds, args.smoke,
                              args.trace)
        if record is None:
            return 1
        line = gate_line(record, args.trace)
        if line is None:
            return 1
        print(json.dumps(line))
        return 0 if line["correct"] and line["failed"] == 0 else 1

    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    records = []
    ok = True
    for seed in seeds:
        for workload in WORKLOADS:
            record = run_workload(workload, seed, seconds, args.smoke, args.trace)
            if record is None:
                ok = False
                continue
            ok = ok and record["correct"] and record["failed"] == 0
            records.append(record)
    out = args.out or os.path.join(
        BUILD_ROOT, "results",
        "e2e-" + datetime.datetime.now().strftime("%Y%m%d-%H%M%S") + ".json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"fingerprint": fingerprint(records),
                   "argv": sys.argv[1:], "runs": records}, f, indent=1)
        f.write("\n")
    log(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
