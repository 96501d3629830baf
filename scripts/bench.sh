#!/usr/bin/env bash
# Golden check of the paper-figure bench suite: runs the ctest cases
# labelled `golden` (bench/CMakeLists.txt), each of which runs one
# bench with its BISCUIT_* inputs pinned and compares its simulated
# output byte for byte with its transcript in bench/golden/. It does
# not time anything: wall-clock measurement lives in perfbench/run.py
# (median, spread, host/build fingerprint).
#
# Usage: scripts/bench.sh [--build-dir DIR] [--no-build] [--trace]
#
# --trace additionally re-runs fig10_tpch with BISCUIT_TRACE pointed
# at <build>/bench_out/fig10_trace.json, checks the transcript against
# the golden, and validates the emitted Chrome trace JSON.
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=build
do_build=1
do_trace=0
while [[ $# -gt 0 ]]; do
    case "$1" in
      --build-dir) build_dir="$2"; shift 2 ;;
      --no-build) do_build=0; shift ;;
      --trace) do_trace=1; shift ;;
      *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

if [[ "$do_build" == 1 ]]; then
    cmake -B "$build_dir" -S . >/dev/null
    cmake --build "$build_dir" -j "$(nproc)" >/dev/null
fi

fail=0
ctest --test-dir "$build_dir" -L golden --output-on-failure \
    -j "$(nproc)" || fail=1

# Optional trace pass: fig10 with tracing on must still match the
# golden byte-for-byte (observability is read-only w.r.t. the sim) and
# must emit loadable Chrome trace_event JSON.
if [[ "$do_trace" == 1 ]]; then
    out_dir="$build_dir/bench_out"
    mkdir -p "$out_dir"
    trace_json="$out_dir/fig10_trace.json"
    BISCUIT_TRACE="$trace_json" BISCUIT_OP_BREAKDOWN=1 \
        "$build_dir/bench/fig10_tpch" \
        > "$out_dir/fig10_tpch_traced.txt" \
        2> "$out_dir/fig10_op_breakdown.txt"
    if diff -q bench/golden/fig10_tpch.txt \
        "$out_dir/fig10_tpch_traced.txt" >/dev/null; then
        echo "fig10_tpch (BISCUIT_TRACE): golden match"
    else
        fail=1
        echo "SIMULATED OUTPUT DRIFT: fig10_tpch (BISCUIT_TRACE)" >&2
    fi
    events=$(python3 -c "import json,sys; \
print(len(json.load(open(sys.argv[1]))['traceEvents']))" \
        "$trace_json") || { echo "trace JSON invalid: $trace_json" >&2; exit 1; }
    echo "fig10_tpch (BISCUIT_TRACE): $events trace events -> $trace_json"
fi

exit $fail
