#!/usr/bin/env bash
# Golden check of the paper-figure bench suite: runs every bench and
# diffs its simulated output against its golden transcript
# (bench/golden/), then re-runs fig10_tpch on parallel lanes against
# the same golden. It does not time anything: wall-clock measurement
# lives in perfbench/run.py (median, spread, host/build fingerprint).
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

benches=(
    table2_port_latency
    table3_read_latency
    fig7_read_bandwidth
    fig8_db_filter
    fig9_power_energy
    fig10_tpch
    fig_scaleout
    fig_serve
    fig_prune
    fig_place
    fig_pipeline
    fig_hetero
    ablation_ndp
    ablation_ftl
    table4_pointer_chasing
    table5_string_search
)

out_dir="$build_dir/bench_out"
mkdir -p "$out_dir"

fail=0

# check_golden <label> <golden> <transcript>
check_golden() {
    if diff -q "$2" "$3" >/dev/null; then
        echo "$1: golden match"
    else
        fail=1
        echo "SIMULATED OUTPUT DRIFT: $1 (diff $2 $3)" >&2
    fi
}

for b in "${benches[@]}"; do
    bin="$build_dir/bench/$b"
    if [[ ! -x "$bin" ]]; then
        echo "bench missing: $bin" >&2
        exit 1
    fi
    "$bin" > "$out_dir/$b.txt"
    check_golden "$b" "bench/golden/$b.txt" "$out_dir/$b.txt"
done

# Parallel-lane rerun of the suite bench: the transcript must be the
# serial golden byte-for-byte. Honor an explicit BISCUIT_LANES.
lanes="${BISCUIT_LANES:-$(nproc)}"
BISCUIT_LANES="$lanes" "$build_dir/bench/fig10_tpch" \
    > "$out_dir/fig10_tpch_parallel.txt"
check_golden "fig10_tpch (BISCUIT_LANES=$lanes)" \
    bench/golden/fig10_tpch.txt "$out_dir/fig10_tpch_parallel.txt"

# Optional trace pass: fig10 with tracing on must still match the
# golden byte-for-byte (observability is read-only w.r.t. the sim) and
# must emit loadable Chrome trace_event JSON.
if [[ "$do_trace" == 1 ]]; then
    trace_json="$out_dir/fig10_trace.json"
    BISCUIT_TRACE="$trace_json" BISCUIT_OP_BREAKDOWN=1 \
        "$build_dir/bench/fig10_tpch" \
        > "$out_dir/fig10_tpch_traced.txt" \
        2> "$out_dir/fig10_op_breakdown.txt"
    check_golden "fig10_tpch (BISCUIT_TRACE)" \
        bench/golden/fig10_tpch.txt "$out_dir/fig10_tpch_traced.txt"
    events=$(python3 -c "import json,sys; \
print(len(json.load(open(sys.argv[1]))['traceEvents']))" \
        "$trace_json") || { echo "trace JSON invalid: $trace_json" >&2; exit 1; }
    echo "fig10_tpch (BISCUIT_TRACE): $events trace events -> $trace_json"
fi

exit $fail
