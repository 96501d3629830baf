#!/usr/bin/env python3
"""Self-test and stability check of the benchmark.

    python3 perfbench/check.py selftest
        A short-form run (one untraced and one traced pass) of every
        workload, done twice: simulated metrics, count-type per-layer
        metrics, answers and failure counts must be identical, and
        tpch_suite's suite totals must equal fig10's golden transcript.

    python3 perfbench/check.py stability [--runs 10] [--workloads ...]
        Two sets of end-to-end runs, one seed per run, alternating between
        the sets one run at a time so slow drift in host speed hits both
        alike. For each metric prints each set's median and quartile spread
        (as a share of the median) and how much worse the second median is
        than the first, against the metric's bound in BENCHMARK.json, and
        exits non-zero when a spread or shift is over its bound.
"""

import argparse
import json
import re
import statistics
import sys

import run

# Per-layer metrics in these units are wall times: they vary run to run.
WALL_UNITS = {"s"}


def fig10_golden_matches(raw):
    """tpch_suite's suite totals against fig10's golden transcript."""
    golden = (run.ROOT / "bench" / "golden" / "fig10_tpch.txt").read_text()
    m = re.search(r"Conv ([0-9.]+) s vs Biscuit ([0-9.]+) s", golden)
    got = (f"{raw['sim']['sim_conv_ms'] / 1e3:.2f}",
           f"{raw['sim']['sim_ms'] / 1e3:.2f}")
    print(f"tpch_suite: Conv {got[0]} s vs Biscuit {got[1]} s; "
          f"fig10 golden: Conv {m.group(1)} s vs Biscuit {m.group(2)} s")
    return got == m.groups()


def selftest():
    spec = run.load_spec()
    deterministic = [m["name"] for m in spec["per_layer"]
                     if m["unit"] not in WALL_UNITS
                     and m["name"] != "trace.overhead_pct"]
    ok = True
    for w in run.WORKLOADS:
        res = []
        for _ in range(2):
            result, raw = run.measure(w, 1, 0, True)
            res.append((raw["sim"], raw["answers"], result["failed"],
                        result["correct"],
                        {k: result["metrics"][k]["value"]
                         for k in deterministic}))
        same = res[0] == res[1]
        diffs = [k for k in deterministic if res[0][4][k] != res[1][4][k]]
        print(f"{w}: {'identical' if same else 'DIFFERENT'}; "
              f"correct={res[0][3]}, failed={res[0][2]}"
              + (f"; differing: {diffs}" if diffs else ""))
        ok = ok and same and res[0][3]
        if w == "tpch_suite":
            ok = fig10_golden_matches(raw) and ok
    return 0 if ok else 1


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def stability(runs, workloads):
    spec = run.load_spec()
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    summary = {}
    over = False
    for w in workloads:
        sets = ([], [])
        for seed in range(1, runs + 1):
            for s in (0, 1) if seed % 2 else (1, 0):
                result, _ = run.measure(w, seed, seconds, False)
                if not result["correct"]:
                    print(f"{w} seed {seed}: incorrect result")
                sets[s].append({k: v["value"]
                                for k, v in result["metrics"].items()})
                print(f"  {w} set {s} seed {seed}: " + ", ".join(
                    f"{k}={result['metrics'][k]['value']:.4g}"
                    for k in ("setup_s", "run_s", "rss_mb")), flush=True)
        rows = {}
        print(f"\n{w}: metric, median A, spread A, spread B, "
              f"B worse than A, bound")
        for m in metrics:
            name = m["name"]
            a = [r[name] for r in sets[0]]
            b = [r[name] for r in sets[1]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (
                ma - mb) / ma
            rows[name] = {"median_a": ma, "median_b": mb,
                          "spread_a": spread(a), "spread_b": spread(b),
                          "b_worse_than_a": worse, "bound": m["bound"]}
            flag = ""
            if max(spread(a), spread(b)) > m["bound"]:
                flag = "  SPREAD OVER BOUND"
            if worse > m["bound"]:
                flag += "  SHIFT OVER BOUND"
            over = over or bool(flag)
            print(f"  {name:14s} {ma:12.6g} {spread(a):7.3f} "
                  f"{spread(b):7.3f} {worse:+7.3f} {m['bound']:5.2f}{flag}")
        summary[w] = rows
    run.OUT_DIR.mkdir(exist_ok=True)
    with open(run.OUT_DIR / "stability.json", "w") as f:
        json.dump(summary, f, indent=1)
    return 1 if over else 0


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("selftest")
    st = sub.add_parser("stability")
    st.add_argument("--runs", type=int, default=10)
    st.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS),
                    choices=run.WORKLOADS)
    args = ap.parse_args()
    try:
        run.build()
        if args.cmd == "selftest":
            return selftest()
        return stability(args.runs, args.workloads)
    except run.BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
