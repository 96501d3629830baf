#!/usr/bin/env bash
# Wall-clock bench harness: runs the paper-figure bench suite, checks
# every simulated output against its golden transcript (bench/golden/),
# and emits BENCH_wallclock.json recording the per-bench wall-clock
# times that the perf trajectory is held against.
#
# Usage: scripts/bench.sh [--build-dir DIR] [--out FILE] [--no-build]
#                         [--trace]
#
# --trace additionally re-runs fig10_tpch with BISCUIT_TRACE pointed
# at <build>/bench_out/fig10_trace.json, checks the transcript against
# the golden, and validates the emitted Chrome trace JSON.
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=build
out_file=BENCH_wallclock.json
do_build=1
do_trace=0
while [[ $# -gt 0 ]]; do
    case "$1" in
      --build-dir) build_dir="$2"; shift 2 ;;
      --out) out_file="$2"; shift 2 ;;
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

# The committed BENCH_wallclock.json is the wall-clock baseline this
# run is compared against (read before we overwrite it).
baseline_json=""
if [[ -f BENCH_wallclock.json ]]; then
    baseline_json=$(cat BENCH_wallclock.json)
fi

baseline_secs() {  # baseline_secs <bench-key> -> seconds or ""
    printf '%s' "$baseline_json" \
        | grep -o "\"$1\": {\"wall_clock_seconds\": [0-9.]*" \
        | head -1 | grep -o '[0-9.]*$' || true
}

speedup_note() {  # speedup_note <baseline-secs> <secs>
    local base="$1" secs="$2"
    if [[ -n "$base" ]]; then
        awk -v b="$base" -v s="$secs" \
            'BEGIN { if (s > 0) printf ", %.2fx vs %.3fs baseline", b / s, b }'
    fi
}

# JSON value for the speedup field: a number, or null when the
# baseline has no entry for this bench (first run, renamed bench).
speedup_json() {  # speedup_json <baseline-secs> <secs>
    local base="$1" secs="$2"
    if [[ -n "$base" ]]; then
        awk -v b="$base" -v s="$secs" \
            'BEGIN { if (s > 0) printf "%.3f", b / s; else printf "null" }'
    else
        printf 'null'
    fi
}

now_ms() { date +%s%3N; }

json_entries=()
fig7_ms=0
fig10_ms=0
fail=0
for b in "${benches[@]}"; do
    bin="$build_dir/bench/$b"
    if [[ ! -x "$bin" ]]; then
        echo "bench missing: $bin" >&2
        exit 1
    fi
    start=$(now_ms)
    "$bin" > "$out_dir/$b.txt"
    end=$(now_ms)
    ms=$((end - start))

    golden="bench/golden/$b.txt"
    match=true
    if [[ -f "$golden" ]]; then
        if ! diff -q "$golden" "$out_dir/$b.txt" >/dev/null; then
            match=false
            fail=1
            echo "SIMULATED OUTPUT DRIFT: $b (diff $golden $out_dir/$b.txt)" >&2
        fi
    else
        match=null
    fi

    secs=$(awk -v ms="$ms" 'BEGIN { printf "%.3f", ms / 1000.0 }')
    base=$(baseline_secs "$b")
    echo "$b: ${secs}s wall, golden match: $match$(speedup_note "$base" "$secs")"
    json_entries+=("    \"$b\": {\"wall_clock_seconds\": $secs, \"golden_match\": $match, \"speedup_vs_baseline\": $(speedup_json "$base" "$secs")}")

    [[ "$b" == fig7_read_bandwidth ]] && fig7_ms=$ms
    [[ "$b" == fig10_tpch ]] && fig10_ms=$ms
done

# Parallel-lane rerun of the suite bench: same transcript (diffed
# against the same golden), wall clock recorded separately because it
# scales with the host's core count, not with the simulator. Honor an
# explicit BISCUIT_LANES so the recorded lane count is the one the run
# actually used.
lanes="${BISCUIT_LANES:-$(nproc)}"
start=$(now_ms)
BISCUIT_LANES="$lanes" "$build_dir/bench/fig10_tpch" \
    > "$out_dir/fig10_tpch_parallel.txt"
end=$(now_ms)
par_ms=$((end - start))
par_match=true
if ! diff -q bench/golden/fig10_tpch.txt \
        "$out_dir/fig10_tpch_parallel.txt" >/dev/null; then
    par_match=false
    fail=1
    echo "SIMULATED OUTPUT DRIFT: fig10_tpch (BISCUIT_LANES=$lanes)" >&2
fi
par_secs=$(awk -v ms="$par_ms" 'BEGIN { printf "%.3f", ms / 1000.0 }')
serial_secs=$(awk -v ms="$fig10_ms" 'BEGIN { printf "%.3f", ms / 1000.0 }')
par_speedup=$(awk -v s="$fig10_ms" -v p="$par_ms" \
    'BEGIN { if (p > 0) printf "%.2f", s / p; else printf "0.00" }')
par_base=$(baseline_secs fig10_tpch_parallel)
echo "fig10_tpch (BISCUIT_LANES=$lanes): ${par_secs}s wall, golden match: $par_match, ${par_speedup}x vs ${serial_secs}s serial$(speedup_note "$par_base" "$par_secs")"
json_entries+=("    \"fig10_tpch_parallel\": {\"wall_clock_seconds\": $par_secs, \"golden_match\": $par_match, \"lanes\": $lanes, \"speedup_vs_baseline\": $(speedup_json "$par_base" "$par_secs")}")

# Optional trace pass: fig10 with tracing on must still match the
# golden byte-for-byte (observability is read-only w.r.t. the sim) and
# must emit loadable Chrome trace_event JSON.
if [[ "$do_trace" == 1 ]]; then
    trace_json="$out_dir/fig10_trace.json"
    start=$(now_ms)
    BISCUIT_TRACE="$trace_json" BISCUIT_OP_BREAKDOWN=1 \
        "$build_dir/bench/fig10_tpch" \
        > "$out_dir/fig10_tpch_traced.txt" \
        2> "$out_dir/fig10_op_breakdown.txt"
    end=$(now_ms)
    traced_ms=$((end - start))
    traced_match=true
    if ! diff -q bench/golden/fig10_tpch.txt \
            "$out_dir/fig10_tpch_traced.txt" >/dev/null; then
        traced_match=false
        fail=1
        echo "SIMULATED OUTPUT DRIFT: fig10_tpch (BISCUIT_TRACE)" >&2
    fi
    events=$(python3 -c "import json,sys; \
print(len(json.load(open(sys.argv[1]))['traceEvents']))" \
        "$trace_json") || { echo "trace JSON invalid: $trace_json" >&2; exit 1; }
    traced_secs=$(awk -v ms="$traced_ms" 'BEGIN { printf "%.3f", ms / 1000.0 }')
    echo "fig10_tpch (BISCUIT_TRACE): ${traced_secs}s wall, golden match: $traced_match, $events trace events -> $trace_json"
    json_entries+=("    \"fig10_tpch_traced\": {\"wall_clock_seconds\": $traced_secs, \"golden_match\": $traced_match, \"trace_events\": $events, \"speedup_vs_baseline\": null}")
fi

combined=$(awk -v a="$fig7_ms" -v b="$fig10_ms" \
    'BEGIN { printf "%.3f", (a + b) / 1000.0 }')

# Simulated headline figures (from the transcripts, for the record).
fig10_summary=$(grep "total suite time" "$out_dir/fig10_tpch.txt" \
    | sed 's/^ *//' || true)
table3_line=$(sed -n 3p "$out_dir/table3_read_latency.txt" \
    | sed 's/^ *//' || true)
# Per-drive-count scan time and speedup from the scale-out transcript
# (columns: drives scan_ms agg_MB/s speedup ...).
scaleout_json=$(awk '/^[0-9]+ +[0-9.]+/ {
        gsub(/x$/, "", $4);
        printf "%s\"drives_%s\": {\"scan_ms\": %s, \"sim_speedup\": %s}",
               sep, $1, $2, $4; sep=", "
    }' "$out_dir/fig_scaleout.txt")
# Throughput-under-load figures from the serving transcript's 4-drive
# section: per-tenant p99 (column 7) plus the jobs summary line.
serve_p99_json=$(awk '/^--- 4 drives ---/ { s = 1; next }
    s && /^jobs:/ { exit }
    s && $2 ~ /^[0-9]+$/ && $1 !~ /^[0-9]/ {
        printf "%s\"%s\": %s", sep, $1, $7; sep=", "
    }' "$out_dir/fig_serve.txt")
# Headline pruning figures: the most selective predicate's 1-drive
# rows (statistics off vs on) from the fig_prune transcript — pages
# touched and the simulated scan-time cut.
prune_json=$(awk '
    $1 == "1" && $2 == "off" && !off { ms_f = $3; pg_f = $4; off = 1 }
    $1 == "1" && $2 == "on"  && !on  { ms_p = $3; pg_p = $4;
                                       cut = $5; on = 1 }
    END { gsub(/x$/, "", cut);
          printf "\"scan_ms_full\": %s, \"scan_ms_pruned\": %s, ", ms_f, ms_p;
          printf "\"pages_full\": %s, \"pages_pruned\": %s, ", pg_f, pg_p;
          printf "\"sim_cut\": %s", cut
    }' "$out_dir/fig_prune.txt")
# Cost-model placement headline: the chosen placement, its simulated
# scan time and prediction, and the measured speedups over the two
# static plans (from the fig_place transcript).
place_json=$(awk '
    $1 == "cost-model" && $2 != "vs" { placement = $2; ms = $3;
                                       pred = $4 }
    /^cost-model vs all-host:/   { gsub(/x$/, "", $4); vh = $4 }
    /^cost-model vs all-device:/ { gsub(/x$/, "", $4); vd = $4 }
    END { printf "\"placement\": \"%s\", ", placement;
          printf "\"scan_ms\": %s, \"predicted_ms\": %s, ", ms, pred;
          printf "\"speedup_vs_all_host\": %s, ", vh;
          printf "\"speedup_vs_all_device\": %s", vd
    }' "$out_dir/fig_place.txt")
# Multi-stage pipeline placement headline: the searched stage->site
# assignment, its simulated scan time and prediction, and the measured
# speedups over the static plans (from the fig_pipeline transcript).
pipeline_json=$(awk '
    $1 == "pipeline" && $2 != "vs" { placement = $2; ms = $3;
                                     pred = $4 }
    /^pipeline vs all-host:/   { gsub(/x$/, "", $4); vh = $4 }
    /^pipeline vs all-device:/ { gsub(/x$/, "", $4); vd = $4 }
    END { printf "\"placement\": \"%s\", ", placement;
          printf "\"scan_ms\": %s, \"predicted_ms\": %s, ", ms, pred;
          printf "\"speedup_vs_all_host\": %s, ", vh;
          printf "\"speedup_vs_all_device\": %s", vd
    }' "$out_dir/fig_pipeline.txt")
# Heterogeneous mixed-workload headline: the jointly planned batch's
# simulated makespan, mid-flight re-plan count and the measured
# speedups over the static plans (from the fig_hetero transcript).
hetero_json=$(awk '
    $1 == "session" && $2 != "vs" { ms = $2; replans = $6 }
    /^session vs all-host:/   { gsub(/x$/, "", $4); vh = $4 }
    /^session vs all-device:/ { gsub(/x$/, "", $4); vd = $4 }
    END { printf "\"batch_ms\": %s, \"replans\": %s, ", ms, replans;
          printf "\"speedup_vs_all_host\": %s, ", vh;
          printf "\"speedup_vs_all_device\": %s", vd
    }' "$out_dir/fig_hetero.txt")
serve_jobs_json=$(awk '/^--- 4 drives ---/ { s = 1 }
    s && /^jobs:/ {
        gsub(/;/, "", $6);
        printf "\"submitted\": %s, \"completed\": %s, \"rejected\": %s, \"fairness\": %s",
               $2, $4, $6, $NF
        exit
    }' "$out_dir/fig_serve.txt")

{
    echo "{"
    echo "  \"schema\": \"biscuit-bench-wallclock-v1\","
    echo "  \"generated_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"host\": \"$(uname -sm)\","
    echo "  \"benches\": {"
    # Multi-char IFS would join on its first char only; emit the
    # comma-newline separators by hand.
    for i in "${!json_entries[@]}"; do
        if (( i + 1 < ${#json_entries[@]} )); then
            printf '%s,\n' "${json_entries[$i]}"
        else
            printf '%s\n' "${json_entries[$i]}"
        fi
    done
    echo "  },"
    echo "  \"combined_fig7_fig10_seconds\": $combined,"
    echo "  \"sim_figures\": {"
    echo "    \"table3_read_latency_us\": \"$table3_line\","
    echo "    \"fig10_suite\": \"$fig10_summary\","
    echo "    \"fig_scaleout\": {$scaleout_json},"
    echo "    \"fig_serve\": {$serve_jobs_json, \"tenant_p99_us\": {$serve_p99_json}},"
    echo "    \"fig_prune_one_day_1drive\": {$prune_json},"
    echo "    \"fig_place_skewed_4drive\": {$place_json},"
    echo "    \"fig_pipeline_skewed_4drive\": {$pipeline_json},"
    echo "    \"fig_hetero_mixed_4drive\": {$hetero_json}"
    echo "  }"
    echo "}"
} > "$out_file"

echo
echo "combined fig7+fig10 wall clock: ${combined}s"
echo "wrote $out_file"
exit $fail
