#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload tpch_suite --seed 1 --seconds 20 --trace 0

Builds the simulator and the harness from source (perfbench/CMakeLists.txt,
build directory .bench_build), runs one workload in its own single-threaded
process for --seconds of wall time, checks its answers against the digests in
perfbench/expected.json, and prints the metrics named in BENCHMARK.json: the
end-to-end ones with --trace 0, the per-layer ones with --trace 1. The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
HARNESS = BUILD_DIR / "perfbench_harness"
WORKLOADS = ("tpch_suite", "placed_batch", "serve_mix")
# Metrics a workload reports at a fixed value because it has nothing to
# compare them with: the paper has no figure for it, or (serve_mix) there
# is no baseline plan. They are printed, since every workload reports
# every metric, but cannot move.
FIXED = {"placed_batch": {"paper_err_pct"},
         "serve_mix": {"paper_err_pct", "sim_speedup"}}

# One harness process may take its --seconds plus a pass that started just
# before the deadline, plus set-up repetitions.
HARNESS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, what, timeout):
    """Run cmd with output to a log file; raise BenchError on failure."""
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / "build.log", "a") as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{what} timed out")
    if code != 0:
        raise BenchError(f"{what} failed; see {BUILD_DIR / 'build.log'}")


def build():
    """Configure once, then build (a no-op when up to date)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    "cmake configure", 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                "cmake build", 850)


def run_harness(workload, seed, seconds, trace, trace_out=None):
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: harness timed out")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: harness exited with "
                         f"{proc.returncode} (aborted process)")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: harness printed nothing")
    return json.loads(lines[-1])


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def end_to_end_values(raw):
    sim = raw["sim"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "run_s": statistics.median(raw["run_s"]),
        "rss_mb": raw["rss_mb"],
        "sim_ms": sim["sim_ms"],
        "sim_speedup": sim["sim_speedup"],
        "paper_err_pct": sim["paper_err_pct"],
        "sim_p50_ms": sim["sim_p50_ms"],
        "sim_p99_ms": sim["sim_p99_ms"],
        "max_rate_jps": sim["max_rate_jps"],
    }


def per_layer_values(raw, names):
    layer = dict(raw["layer"])
    predicted = layer.get("db.place.predicted_us", 0.0) / 1e3
    measured = layer.get("db.place.measured_us", 0.0) / 1e3
    layer["db.place.predicted_ms"] = predicted
    layer["db.place.measured_ms"] = measured
    layer["db.place.err_pct"] = (
        100.0 * abs(predicted - measured) / measured if measured else 0.0)
    values = {name: layer.get(name, 0.0) for name in names}
    traced = statistics.median(raw["traced_run_s"])
    untraced = statistics.median(raw["run_s"])
    values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return values


def check_answers(workload, raw):
    """Reference answers against the recorded digests; list mismatches."""
    with open(HERE / "expected.json") as f:
        expected = json.load(f)[workload]
    got = raw["answers"]
    return [f"{k}: got {got.get(k)!r}, recorded {v!r}"
            for k, v in sorted(expected.items()) if got.get(k) != v]


def measure(workload, seed, seconds, trace):
    """Run one workload; return (result line dict, raw harness output)."""
    spec = load_spec()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    raw = run_harness(workload, seed, seconds, trace,
                      OUT_DIR / f"spans-{tag}.json" if trace else None)
    mismatches = check_answers(workload, raw)
    for m in mismatches:
        log(f"answer mismatch: {m}")
    if not raw["consistent"]:
        log("passes of this run disagree on simulated results, "
            "counts or answers")
    correct = raw["consistent"] and not mismatches

    if trace:
        metrics_spec = spec["per_layer"]
        values = per_layer_values(raw, [m["name"] for m in metrics_spec])
    else:
        metrics_spec = spec["end_to_end"]
        values = end_to_end_values(raw)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metrics_spec}
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    with open(OUT_DIR / f"result-{tag}.json", "w") as f:
        json.dump({"result": result, "raw": raw}, f, indent=1)
    return result, raw


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        result, raw = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    fp = raw["fingerprint"]
    print(f"host: {fp['cpu']}, {fp['nproc']} cores, {fp['compiler']}, "
          f"{fp['build_type']}; {raw['passes']} passes, "
          f"{len(raw['setup_s'])} set-ups")
    for f in raw["failures"][:5]:
        print(f"failed: {f}")
    for name, m in result["metrics"].items():
        note = ("  (fixed: unvalidated)"
                if name in FIXED.get(args.workload, ()) else "")
        print(f"{name:32s} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
