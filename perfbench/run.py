#!/usr/bin/env python3
"""Builds and runs the gyo benchmark from the root of a source checkout.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload serve_execute --seed 1 --seconds 20 --trace 0

builds the library, gyo_serve and the load generator (Release, under
.bench_build/perfbench), runs one workload, checks every answer, and prints
a host stamp, the exact counts and, as the last line, the result JSON. With
--trace 1 the result carries the per-layer metrics and the spans are written
to .bench_build/perfbench/traces/.

Steadiness report over several runs (median, quartiles, relative IQR per
metric, saved with the host stamp under .bench_build/perfbench/results/),
over seeds 1..10, or over seed 1 ten times with --same-seed:

    python3 perfbench/run.py --workload serve_execute --repeat 10 --seed 1
    python3 perfbench/run.py --workload serve_execute --repeat 10 --seed 1 --same-seed

Every workload once, each metric printed by name and unit (exit code 1 if
any answer was wrong):

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Compare two saved reports of the same workload, run length and seed list
(refused across host classes, and when either has a failed run):

    python3 perfbench/run.py --compare OLD.json NEW.json

See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ["serve_execute", "serve_replay", "serve_plan_churn", "inproc_parallel"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
LOADGEN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the load generator and gyo_serve; returns paths."""
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        raise RuntimeError("run from the root of a gyo source checkout "
                           "(CMakeLists.txt and src/ not found)")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # Configured on every run (quick once cached), so targets added to the
    # build files since the last run are known to the build.
    subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    "perfbench_loadgen", "gyo_serve"],
                   check=True, stdout=sys.stderr, env=env)
    loadgen = os.path.join(BUILD_DIR, "perfbench_loadgen")
    serve = os.path.join(BUILD_DIR, "gyo", "examples", "gyo_serve")
    for path in (loadgen, serve):
        if not os.access(path, os.X_OK):
            raise RuntimeError("build did not produce " + path)
    return loadgen, serve


def source_digest():
    """SHA-256 over every source file the benchmark builds from (notes and
    other Markdown files left out)."""
    h = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", "examples", "perfbench"]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames)
                         if not f.endswith(".md"))
    for path in files:
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def host_stamp():
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler, build_type = "unknown", "unknown"
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    out = subprocess.run([path, "--version"], capture_output=True,
                                         text=True).stdout
                    compiler = out.splitlines()[0] if out else path
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    commit = "none"
    if os.path.isdir(".git"):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "compiler": compiler,
        "build_type": build_type,
        "commit": commit,
        "source_digest": source_digest(),
    }


def host_class(stamp):
    """Results compare only within one class: same core count and CPU."""
    return (stamp["nproc"], stamp["cpu_model"])


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    if not os.path.isfile("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(loadgen, serve, workload, seed, seconds, trace):
    """Runs the load generator once; returns (extra stdout lines, result dict)."""
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    proc = subprocess.run(
        [loadgen, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace), "--serve-bin", serve,
         "--out-dir", trace_dir],
        stdout=subprocess.PIPE, text=True, timeout=LOADGEN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("load generator failed with exit code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        raise RuntimeError("malformed load generator result: " + lines[-1])
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        raise RuntimeError("metrics differ from BENCHMARK.json: %s" %
                           sorted(set(result["metrics"]) ^ want))
    return lines[:-1], result


def spread_table(runs):
    """Median, quartiles and relative IQR of every metric over `runs`."""
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (values[0],) * 3
        median = statistics.median(values)
        table[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "rel_iqr": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return table


def load_spec():
    with open("BENCHMARK.json") as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def repeat(loadgen, serve, args):
    stamp = host_stamp()
    seeds = [args.seed if args.same_seed else args.seed + i
             for i in range(args.repeat)]
    runs = []
    for seed in seeds:
        _, result = run_once(loadgen, serve, args.workload, seed, args.seconds,
                             args.trace)
        runs.append(result)
        log("seed %d: correct=%s failed=%d" % (seed, result["correct"],
                                              result["failed"]))
    table = spread_table(runs)
    bounds = {}
    if os.path.isfile("BENCHMARK.json"):
        bounds = {name: m["bound"] for name, m in load_spec().items()}
    print("%-28s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                             "rel_iqr", "bound"))
    for name, row in table.items():
        print("%-28s %12.5g %12.5g %12.5g %8.4f %6s" % (
            name, row["median"], row["q1"], row["q3"], row["rel_iqr"],
            bounds.get(name, "")))
    os.makedirs(os.path.join(BUILD_DIR, "results"), exist_ok=True)
    path = os.path.join(BUILD_DIR, "results", "%s-trace%d-%s.json" % (
        args.workload, args.trace, time.strftime("%Y%m%dT%H%M%S")))
    with open(path, "w") as f:
        json.dump({"host": stamp, "workload": args.workload,
                   "seconds": args.seconds, "trace": args.trace,
                   "seeds": seeds,
                   "all_correct": all(r["correct"] for r in runs),
                   "metrics": table}, f, indent=1)
    print("saved " + path)
    return 0 if all(r["correct"] for r in runs) else 1


def compare(old_path, new_path):
    """Judges NEW's medians against OLD's with BENCHMARK.json's bounds.

    Exit code 0 when every end-to-end metric is within its bound, 1 when one
    is worse beyond it or its spread is above it (setup_s, whose spread is
    not bounded, excepted), 3 when the reports may not be compared.
    """
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    if host_class(old["host"]) != host_class(new["host"]):
        log("refusing to compare across host classes: %s vs %s" %
            (host_class(old["host"]), host_class(new["host"])))
        return 3
    if (old["workload"], old["seconds"], old["trace"]) != \
            (new["workload"], new["seconds"], new["trace"]):
        log("refusing to compare different workloads or run lengths")
        return 3
    if old["seeds"] != new["seeds"]:
        log("refusing to compare different seed lists: %s vs %s" %
            (old["seeds"], new["seeds"]))
        return 3
    for path, report in ((old_path, old), (new_path, new)):
        if not report["all_correct"]:
            log("refusing to compare: %s holds a run with failed or "
                "wrong-answer queries" % path)
            return 3
    spec = load_spec()
    print("source digest: old %s, new %s" % (old["host"]["source_digest"],
                                             new["host"]["source_digest"]))
    print("%-28s %12s %12s %9s %6s  %s" % ("metric", "old median", "new median",
                                           "change", "bound", "verdict"))
    status = 0
    for name, o in old["metrics"].items():
        n = new["metrics"][name]
        change = (n["median"] - o["median"]) / o["median"] if o["median"] else 0.0
        verdict = ""
        if name in spec:
            m = spec[name]
            worse = change if m["better"] == "lower" else -change
            if name != "setup_s" and \
                    max(o["rel_iqr"], n["rel_iqr"]) > m["bound"]:
                verdict = "unresolved (spread above bound)"
                status = 1
            elif worse > m["bound"]:
                verdict = "worse beyond bound"
                status = 1
            else:
                verdict = "within bound"
        print("%-28s %12.5g %12.5g %+8.2f%% %6s  %s" % (
            name, o["median"], n["median"], 100 * change,
            spec.get(name, {}).get("bound", ""), verdict))
    return status


def run_all(loadgen, serve, args):
    """Runs every workload once and prints each metric by name and unit."""
    print("host " + json.dumps(host_stamp()), flush=True)
    all_correct = True
    for workload in WORKLOADS:
        _, result = run_once(loadgen, serve, workload, args.seed, args.seconds,
                             args.trace)
        all_correct = all_correct and result["correct"]
        print("%s: correct=%s attempted=%d failed=%d" % (
            workload, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    return 0 if all_correct else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run this many times (seeds from --seed on) and "
                   "report spreads")
    p.add_argument("--same-seed", action="store_true",
                   help="with --repeat, run --seed every time")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        p.error("--workload is required")
    try:
        loadgen, serve = build()
        if args.workload == "all":
            return run_all(loadgen, serve, args)
        if args.repeat > 0:
            return repeat(loadgen, serve, args)
        print("host " + json.dumps(host_stamp()), flush=True)
        extra, result = run_once(loadgen, serve, args.workload, args.seed,
                                 args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log("error: %s" % e)
        return 1
    for line in extra:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
