#!/usr/bin/env bash
# Flat gprof profile of one perfbench workload.
#
# Builds the benchmark harness from perfbench/CMakeLists.txt (read,
# never changed) into its own build directory with -pg and a static
# link, runs it once with --seconds 0 (one pass plus the set-up samples
# the workload tops up to) and prints gprof's flat profile.
#
# The static link matters: a dynamically linked -pg binary gets no
# samples inside libc, so memmove, memset and memmem time vanishes
# from the profile instead of showing up under its own name.
#
# Usage: scripts/profile.sh <tpch_suite|placed_batch|serve_mix> [build-dir]
#   build-dir defaults to .profile_build (gitignored); it is reused,
#   so later runs rebuild only what changed.
set -euo pipefail

cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/profile.sh <workload> [build-dir]}
build=${2:-.profile_build}

cmake -S perfbench -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-pg "-DCMAKE_EXE_LINKER_FLAGS=-pg -static" \
    >/dev/null
cmake --build "$build" -j "$(nproc)" --target perfbench_harness \
    >/dev/null

# gmon.out lands in the working directory of the profiled process.
harness=$(cd "$build" && pwd)/perfbench_harness
run_dir=$(mktemp -d)
trap 'rm -rf "$run_dir"' EXIT
(cd "$run_dir" &&
    "$harness" --workload "$workload" --seed 1 --seconds 0 --trace 0 \
        >/dev/null)
gprof -b -p "$harness" "$run_dir/gmon.out"
