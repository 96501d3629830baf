#!/usr/bin/env bash
# Tier-1 verification: a normal build + ctest pass (unit tests plus
# the `golden` cases, which diff every bench's simulated output
# against its transcript in bench/golden/), then perf-smoke passes
# that run what the goldens do not: a trace pass (fig10 with
# BISCUIT_TRACE: golden must still match, the JSON must load, two runs
# must be byte-identical), a multi-drive pass (fig10 at
# BISCUIT_DRIVES=4 on two lanes against the 4-drive golden), a serve
# pass (two-run byte-identity and lane/drive env invariance of
# fig_serve and of the unified and pipeline serving paths), and the
# same two checks for fig_prune, fig_place, fig_pipeline and
# fig_hetero, and a one-second perfbench run of each workload (builds
# the benchmark harness, checks its answers), then sanitizer builds
# via BISCUIT_SANITIZE (ASan/UBSan ctest; TSan lane + serve-soak tests
# plus traced 2-lane fig10 runs at 1 and 4 drives so the trace buffers
# and the drive array see real thread concurrency).
#
# Usage: scripts/verify.sh [--no-sanitize] [--no-perf-smoke]
set -euo pipefail

cd "$(dirname "$0")/.."

run_sanitized=1
run_perf_smoke=1
for arg in "$@"; do
    case "$arg" in
      --no-sanitize) run_sanitized=0 ;;
      --no-perf-smoke) run_perf_smoke=0 ;;
    esac
done

echo "=== pass 1: normal build + ctest ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

if [[ "$run_perf_smoke" == 1 ]]; then
    echo
    echo "=== trace pass: fig10 with BISCUIT_TRACE ==="
    mkdir -p build/bench_out
    BISCUIT_TRACE=build/bench_out/verify_trace_a.json \
        build/bench/fig10_tpch > build/bench_out/fig10_traced.txt
    diff -q bench/golden/fig10_tpch.txt build/bench_out/fig10_traced.txt
    BISCUIT_TRACE=build/bench_out/verify_trace_b.json \
        build/bench/fig10_tpch > /dev/null
    # The trace must be loadable JSON and deterministic run to run.
    python3 -c "import json; json.load(open('build/bench_out/verify_trace_a.json'))"
    cmp build/bench_out/verify_trace_a.json \
        build/bench_out/verify_trace_b.json
    echo "trace: golden match, JSON valid, two runs byte-identical"

    echo
    echo "=== multi-drive pass: fig10 with BISCUIT_DRIVES=4 ==="
    # The sharded suite keeps its own golden (the serial run is the
    # golden.fig10_tpch_drives4 ctest case): a parallel-lane run must
    # match it byte-for-byte too (the array freeze/fork path).
    BISCUIT_DRIVES=4 BISCUIT_LANES=2 build/bench/fig10_tpch \
        > build/bench_out/fig10_drives4_lanes.txt
    diff -q bench/golden/fig10_tpch_drives4.txt \
        build/bench_out/fig10_drives4_lanes.txt
    echo "multi-drive: 2-lane run matches the 4-drive golden"

    echo
    echo "=== serve pass: open-loop serving determinism ==="
    # fig_serve fixes its own drive counts and ignores the lane/obs
    # env, so one golden (a ctest case) covers every environment; two
    # fresh runs and a BISCUIT_LANES=2 run must all be byte-identical.
    build/bench/fig_serve > build/bench_out/fig_serve_a.txt
    build/bench/fig_serve > build/bench_out/fig_serve_b.txt
    cmp build/bench_out/fig_serve_a.txt build/bench_out/fig_serve_b.txt
    BISCUIT_LANES=2 BISCUIT_DRIVES=4 build/bench/fig_serve \
        > build/bench_out/fig_serve_env.txt
    cmp build/bench_out/fig_serve_a.txt build/bench_out/fig_serve_env.txt
    # The unified and pipeline serving paths get the same checks: the
    # only end-to-end runs of session-admitted lookups and the
    # session-planned q14 join prefilter.
    for mode in unified:BISCUIT_UNIFIED_PIPELINES \
                pipeline:BISCUIT_PIPELINE_PLACE; do
        name="${mode%%:*}"
        gate="${mode#*:}"
        out="build/bench_out/fig_serve_${name}"
        env "$gate=1" build/bench/fig_serve > "${out}_a.txt"
        env "$gate=1" build/bench/fig_serve > "${out}_b.txt"
        cmp "${out}_a.txt" "${out}_b.txt"
        env "$gate=1" BISCUIT_LANES=2 BISCUIT_DRIVES=4 \
            build/bench/fig_serve > "${out}_env.txt"
        cmp "${out}_a.txt" "${out}_env.txt"
    done
    echo "serve: two runs byte-identical, env-invariant"
    echo "       (default, unified and pipeline serving paths)"

    # The placement-family benches fix their own drive counts, gates
    # and annealer seed, and each exits non-zero when its claim fails:
    #   fig_prune     statistics-driven scans return the baseline's rows
    #                 byte-identically while reading fewer pages;
    #   fig_place     cost-model placement beats both static plans with
    #                 rows byte-identical across placements and drives;
    #   fig_pipeline  the searched multi-stage plan beats both static
    #                 plans with byte-identical rows;
    #   fig_hetero    the jointly planned mixed batch (greps, word counts
    #                 and a TPC-H scan in one db::PlacementSession)
    #                 strictly beats both static plans with identical
    #                 scan rows and word counts.
    # Each transcript matches its golden (a ctest case); here it must
    # also repeat byte-for-byte and ignore the environment listed after
    # its name.
    for entry in \
        "fig_prune|BISCUIT_OBS=0 BISCUIT_LANES=2 BISCUIT_DRIVES=4" \
        "fig_place|BISCUIT_LANES=2 BISCUIT_DRIVES=4" \
        "fig_pipeline|BISCUIT_LANES=2 BISCUIT_DRIVES=4 BISCUIT_PIPELINE_PLACE=0" \
        "fig_hetero|BISCUIT_LANES=2 BISCUIT_DRIVES=4 BISCUIT_UNIFIED_PIPELINES=0"; do
        bench="${entry%%|*}"
        read -r -a bench_env <<< "${entry#*|}"
        out="build/bench_out/${bench}"
        echo
        echo "=== ${bench} pass ==="
        "build/bench/${bench}" > "${out}_a.txt"
        "build/bench/${bench}" > "${out}_b.txt"
        cmp "${out}_a.txt" "${out}_b.txt"
        env "${bench_env[@]}" "build/bench/${bench}" > "${out}_env.txt"
        cmp "${out}_a.txt" "${out}_env.txt"
        echo "${bench}: two runs byte-identical, env-invariant"
    done

    echo
    echo "=== perfbench pass: the benchmark harness builds and answers ==="
    # The ctest pass never compiles perfbench/harness.cc, which
    # includes the engine and serving headers. One short run per
    # workload builds it (into .bench_build/) and checks its answers
    # against perfbench/expected.json.
    for workload in tpch_suite placed_batch serve_mix; do
        result="$(python3 perfbench/run.py --workload "$workload" \
            --seed 1 --seconds 1 | tail -n 1)"
        python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.argv[1])["correct"] else 1)' "$result"
        echo "perfbench ${workload}: built, answers match"
    done
fi

if [[ "$run_sanitized" == 1 ]]; then
    echo
    echo "=== pass 2: ASan/UBSan build + ctest ==="
    cmake -B build-san -S . "-DBISCUIT_SANITIZE=address;undefined" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build build-san -j "$(nproc)"
    ASAN_OPTIONS=detect_leaks=0 \
        ctest --test-dir build-san --output-on-failure -j "$(nproc)"

    echo
    echo "=== pass 3: TSan build + parallel-lane tests ==="
    # The lane runner is the only code that creates OS threads; TSan
    # covers it via the snapshot/fork and lane-runner tests plus a
    # 2-lane fig10 run (fibers + threads together). BISCUIT_TRACE is
    # on for that run so the per-lane trace buffers — registration
    # under the session mutex, single-writer pushes, exit-time export
    # — are exercised under real thread concurrency.
    cmake -B build-tsan -S . "-DBISCUIT_SANITIZE=thread" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build build-tsan -j "$(nproc)"
    ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
        -R "SnapshotFork|LaneRunner|ServeSoak|PlaceLane|PipelineLane|HeteroLane|MatchMemoLane"
    BISCUIT_LANES=2 BISCUIT_TRACE=build-tsan/fig10_trace.json \
        build-tsan/bench/fig10_tpch \
        > build-tsan/fig10_lanes.txt
    diff -q bench/golden/fig10_tpch.txt build-tsan/fig10_lanes.txt
    python3 -c "import json; json.load(open('build-tsan/fig10_trace.json'))"
    # Same under a 4-drive array: each lane forks all four per-drive
    # stacks, so cross-thread hand-off of the whole DriveArray image
    # runs under TSan too.
    BISCUIT_DRIVES=4 BISCUIT_LANES=2 build-tsan/bench/fig10_tpch \
        > build-tsan/fig10_drives4_lanes.txt
    diff -q bench/golden/fig10_tpch_drives4.txt \
        build-tsan/fig10_drives4_lanes.txt
fi

echo
echo "verify: all passes clean"
