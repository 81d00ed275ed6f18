#!/usr/bin/env python3
"""mpsocsim benchmark: build the library and mpsoc_bench from source, run one
workload, and print one JSON result as the last line of standard output.

    python3 mpsocbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a separate traced run.  Before the JSON line the script
prints a readable table, the host and build fingerprint and the failure
count.  A full report (fingerprint, metrics, digests, span self times) is
written under .bench_build/reports/, and the traced run's spans under
.bench_build/trace/.  Run from the root of a checkout.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "mpsocbench")
WORKLOADS = ("stbus_onchip", "axi_lmi_record", "noc_mesh", "dse_sweep")
# A run of this script must end within 180 s; stop mpsoc_bench before that.
BENCH_TIMEOUT_S = 170
OPTIMISED_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")


def fail(msg):
    print("mpsocbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring mpsoc_bench up to date.  Returns its path."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD] + gen)
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "mpsoc_bench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                if not os.path.exists(os.path.join(BUILD, "mpsoc_bench")):
                    # A failed configure leaves a cache that would skip it
                    # next time.
                    shutil.rmtree(BUILD, ignore_errors=True)
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "mpsoc_bench")


def run_bench(cmd):
    """Run mpsoc_bench; return (its JSON object, its peak RSS in MB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(BENCH_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        fail("mpsoc_bench exited with %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("mpsoc_bench printed nothing")
    # ru_maxrss is in kilobytes on Linux.
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(build_info):
    fp = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": build_info.get("compiler"),
        "CMAKE_BUILD_TYPE": build_info.get("type"),
        "optimized": build_info.get("optimized"),
        "MPSOC_VERIFY": build_info.get("MPSOC_VERIFY"),
        "MPSOC_STATECHECK": build_info.get("MPSOC_STATECHECK"),
        "MPSOC_RACECHECK": build_info.get("MPSOC_RACECHECK"),
    }
    fp["key"] = "|".join(str(fp[k]) for k in sorted(fp))
    return fp


def declared_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace_dir = os.path.join(OUT, "trace", tag)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scenarios", os.path.join(HERE, "scenarios"),
           "--pins", os.path.join(HERE, "pins.txt")]
    if args.trace:
        cmd += ["--out-dir", trace_dir]
    res, rss_mb = run_bench(cmd)

    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    names = declared_names(args.trace)
    if sorted(metrics) != sorted(names):
        fail("metric names differ from BENCHMARK.json: %s"
             % sorted(set(metrics) ^ set(names)))

    attempted, failed = res["attempted"], res["failed"]
    correct = attempted >= 1 and failed == 0
    fp = fingerprint(res["build"])

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed,
                                              args.trace))
    print("host: %d cpus, %s" % (fp["nproc"], fp["cpu_model"]))
    print("build: %s, %s, MPSOC_VERIFY=%s MPSOC_STATECHECK=%s "
          "MPSOC_RACECHECK=%s" % (fp["CMAKE_BUILD_TYPE"], fp["compiler"],
                                  fp["MPSOC_VERIFY"], fp["MPSOC_STATECHECK"],
                                  fp["MPSOC_RACECHECK"]))
    if not fp["optimized"] or fp["CMAKE_BUILD_TYPE"] not in OPTIMISED_TYPES:
        banner = "WARNING: unoptimised build; these timings are not a baseline"
        print("!" * len(banner))
        print(banner)
        print("!" * len(banner))
        print(banner, file=sys.stderr)
    for name in names:
        m = metrics[name]
        print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    print("  %-34s %16.6g ratio (%d of %d runs failed)"
          % ("failed_frac", failed / max(attempted, 1), failed, attempted))
    for err in res["errors"]:
        print("  error: " + err)
    if not correct:
        print("FAILED RUNS: this report is unusable as a baseline")
    if res["self_time_ms"]:
        print("  span self time (ms):")
        for name, st in sorted(res["self_time_ms"].items(),
                               key=lambda kv: -kv[1]["self"]):
            print("    %-30s self %12.3f  total %12.3f  n=%d"
                  % (name, st["self"], st["total"], st["count"]))

    report = {
        "schema": "mpsocbench-report-v1",
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "fingerprint": fp,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / max(attempted, 1),
        "baseline_usable": correct and bool(fp["optimized"]),
        "errors": res["errors"], "metrics": metrics,
        "digests": res["digests"], "self_time_ms": res["self_time_ms"],
        "info": res["info"],
        "trace_files": trace_dir if args.trace else None,
    }
    os.makedirs(os.path.join(OUT, "reports"), exist_ok=True)
    with open(os.path.join(OUT, "reports", tag + ".json"), "w") as f:
        json.dump(report, f, indent=1)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
