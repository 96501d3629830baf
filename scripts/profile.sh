#!/usr/bin/env bash
# Profile one perfbench workload, one pass.
#
#   scripts/profile.sh <workload> [build-dir]
#     Flat gprof profile. Builds the benchmark harness from
#     perfbench/CMakeLists.txt (read, never changed) into its own build
#     directory with -pg and a static link, runs it once with
#     --seconds 0 (one pass plus the set-up samples the workload tops
#     up to) and prints the run's user and system CPU seconds and minor
#     page faults (getrusage of the child process), then gprof's flat
#     profile. gprof cannot see system time: first-touch page faults
#     on fresh multi-MB buffers show up only in the rusage line.
#
#     The static link matters: a dynamically linked -pg binary gets no
#     samples inside libc, so memmove and memset time vanishes
#     from the profile instead of showing up under its own name.
#     GCC's clones (.part.N, .isra.N, .cold, ...) get rows of their
#     own: gprof reads a renamed copy of the binary (see below).
#
#   scripts/profile.sh --graph <workload> [build-dir]
#     The same profiled run and flat profile, then gprof's call-graph
#     entry (callers above, callees below) of each of the 10 simulator
#     functions (namespace bisc::) with the most self time in it.
#     Attributes library time the flat profile shows under its own
#     name (std::to_string, _Hash_bytes, ...) to the operator calling
#     it.
#
#   scripts/profile.sh --copies <workload> [build-dir]
#     Bytes copied and filled per call site. gprof shows memmove under
#     its own name but cannot say who called it; this mode links the
#     harness (dynamic, -no-pie, so return addresses are link-time
#     addresses) against scripts/copy_tally.cc through
#     -Wl,--wrap=memcpy,--wrap=memmove,--wrap=memset, runs one pass
#     and prints the per-kind totals and the top sites of calls of at
#     least 256 bytes, then the total over calls of every size and the
#     top sites of calls under 256 bytes (row- and field-sized copies,
#     which the first total cannot see). A site of a large call is the
#     call and the two frames above it, of a small call the calling
#     address alone; both are symbolized with addr2line, and the report
#     names the innermost frames in the simulator's own sources.
#     Copies the compiler inlines (constant-size moves) make no call
#     and are not counted. The report starts with the run's user and
#     system CPU seconds, minor page faults and peak RSS (getrusage of
#     the child process; the shim's two site tables add up to 3 MB to
#     it).
#
#   scripts/profile.sh --rss tpch_suite [build-dir]
#     Peak RSS per query. Builds the simulator's static libraries from
#     perfbench/CMakeLists.txt (the benchmark's own RelWithDebInfo
#     build, .bench_build by default), links scripts/query_rss.cc
#     against them and runs it: fig10's 1-drive SF 0.05 system, then
#     the 22 queries x {Conv, Biscuit} in the harness's order, printing
#     after each query the peak RSS so far and how much that query
#     raised it. tpch_suite only: the other workloads are not a
#     sequence of queries.
#
# Workloads: tpch_suite, placed_batch, serve_mix. build-dir defaults
# to .profile_build (gprof), .copies_build (--copies) or .bench_build
# (--rss); all are gitignored and reused, so later runs rebuild only
# what changed.
set -euo pipefail

cd "$(dirname "$0")/.."

usage="usage: scripts/profile.sh [--copies | --graph | --rss] <workload> [build-dir]"
copies=0
graph=0
rss=0
if [[ "${1:-}" == "--copies" ]]; then
    copies=1
    shift
elif [[ "${1:-}" == "--graph" ]]; then
    graph=1
    shift
elif [[ "${1:-}" == "--rss" ]]; then
    rss=1
    shift
fi
workload=${1:?$usage}

if [[ "$rss" == 1 ]]; then
    if [[ "$workload" != tpch_suite ]]; then
        echo "$usage" >&2
        echo "--rss runs tpch_suite only, not '$workload'" >&2
        exit 2
    fi
    build=${2:-.bench_build}
    cmake -S perfbench -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        >/dev/null
    cmake --build "$build" -j "$(nproc)" --target bisc_serve bisc_tpch \
        >/dev/null
    # The flags of the RelWithDebInfo library build, and its one
    # project-wide definition.
    c++ -std=c++20 -O2 -g -DNDEBUG -DBISCUIT_OBS_ENABLED=1 -Isrc \
        scripts/query_rss.cc -o "$build/query_rss" \
        -Wl,--start-group "$build"/biscuit/*/libbisc_*.a -Wl,--end-group \
        -pthread
    "$build/query_rss"
    exit 0
fi

run_dir=$(mktemp -d)
trap 'rm -rf "$run_dir"' EXIT

if [[ "$copies" == 0 ]]; then
    build=${2:-.profile_build}
    cmake -S perfbench -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS=-pg "-DCMAKE_EXE_LINKER_FLAGS=-pg -static" \
        >/dev/null
    cmake --build "$build" -j "$(nproc)" --target perfbench_harness \
        >/dev/null

    # gmon.out lands in the working directory of the profiled process.
    harness=$(cd "$build" && pwd)/perfbench_harness
    python3 - "$harness" "$run_dir" "$workload" <<'RUSAGE'
import resource
import subprocess
import sys

harness, run_dir, workload = sys.argv[1:4]
subprocess.run([harness, "--workload", workload, "--seed", "1",
                "--seconds", "0", "--trace", "0"],
               cwd=run_dir, stdout=subprocess.DEVNULL, check=True)
ru = resource.getrusage(resource.RUSAGE_CHILDREN)
print(f"{workload}, one profiled run (-pg): user {ru.ru_utime:.2f} s, "
      f"system {ru.ru_stime:.2f} s, {ru.ru_minflt} minor page faults")
print()
RUSAGE
    # gprof 2.40 drops every local symbol whose suffix is not .clone.N
    # or .constprop.N (GCC's .part.N, .isra.N, .cold, ...), and their
    # samples and calls land on the symbol before them. Profile a copy
    # whose dotted symbols are renamed to .clone.K, one K per suffix,
    # then print each K as the suffix it stands for. A dotted alias of
    # an undotted symbol is left alone, so the plain name keeps its row.
    python3 - "$harness" "$run_dir" "$graph" <<'CLONES'
import re
import subprocess
import sys

harness, run_dir, graph = sys.argv[1:4]
syms = [line.split() for line in subprocess.run(
    ["nm", harness], capture_output=True, text=True,
    check=True).stdout.splitlines()]
syms = [(addr, name) for addr, kind, name in
        (f for f in syms if len(f) == 3) if kind in "tTwW"]
plain = {addr for addr, name in syms if "." not in name[1:]}
suffixes = {}
renames = {}
for addr, name in syms:
    cut = name.find(".", 1)
    if cut < 0 or addr in plain:
        continue
    k = suffixes.setdefault(name[cut:], len(suffixes))
    renames[name] = f"{name[:cut]}.clone.{k}"
with open(f"{run_dir}/renames", "w") as f:
    f.writelines(f"{old} {new}\n" for old, new in renames.items())
subprocess.run(["objcopy", f"--redefine-syms={run_dir}/renames",
                harness, f"{run_dir}/harness"], check=True)
suffix_of = {str(k): s for s, k in suffixes.items()}


def gprof(mode):
    out = subprocess.run(["gprof", "-b", mode, f"{run_dir}/harness",
                          f"{run_dir}/gmon.out"], capture_output=True,
                         text=True, check=True).stdout
    return re.sub(r"\.clone\.(\d+)", lambda m: suffix_of[m.group(1)],
                  out)


flat = gprof("-p")
print(flat, end="")
if graph != "1":
    sys.exit(0)

# A flat row is %, cumulative and self seconds, then calls and the
# two per-call times when gprof counted calls, then the name. Keep the
# first 10 of the simulator's own functions.
TOP = 10
ROW = re.compile(r"\s*([\d.]+)\s+[\d.]+\s+[\d.]+\s+"
                 r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
top = []
for line in flat.splitlines():
    m = ROW.fullmatch(line)
    if m and m.group(2).startswith("bisc::"):
        top.append(m.groups())
    if len(top) == TOP:
        break

# A call-graph entry is the block between dashed lines whose primary
# line starts with "[index]".
entries = {}
for block in gprof("-q").split("-----------------------------------------------"):
    for line in block.splitlines():
        m = re.match(r"\[\d+\]\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+(?:[\d+/]+\s+)?(.*?)\s+\[\d+\]$",
                     line)
        if m:
            entries.setdefault(m.group(1), block.strip("\n"))
            break

print()
print(f"call graph of the top {len(top)} simulator functions by self "
      "time (callers above each function, callees below):")
for pct, name in top:
    print()
    print(f"== {pct}% self: {name}")
    print(entries.get(name, "   (no call-graph entry: never called "
                      "through an instrumented call)"))
CLONES
    exit 0
fi

build=${2:-.copies_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
# The shim is compiled before configuring: CMake's own link checks
# run with the same linker flags.
c++ -O2 -fno-builtin -c scripts/copy_tally.cc -o "$build/copy_tally.o"
cmake -S perfbench -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    "-DCMAKE_EXE_LINKER_FLAGS=-no-pie $build/copy_tally.o -Wl,--wrap=memcpy,--wrap=memmove,--wrap=memset" \
    >/dev/null
# CMake does not track the shim object; relink against the fresh one.
rm -f "$build/perfbench_harness"
cmake --build "$build" -j "$(nproc)" --target perfbench_harness \
    >/dev/null

harness=$build/perfbench_harness
BISCUIT_COPIES_OUT="$run_dir/copies.txt" \
    python3 - "$harness" "$workload" <<'RUSAGE'
import resource
import subprocess
import sys

harness, workload = sys.argv[1:3]
subprocess.run([harness, "--workload", workload, "--seed", "1",
                "--seconds", "0", "--trace", "0"],
               stdout=subprocess.DEVNULL, check=True)
ru = resource.getrusage(resource.RUSAGE_CHILDREN)
print(f"{workload}, one run (copy tally): user {ru.ru_utime:.2f} s, "
      f"system {ru.ru_stime:.2f} s, {ru.ru_minflt} minor page faults, "
      f"peak RSS {ru.ru_maxrss / 1024:.1f} MB")
print()
RUSAGE

python3 - "$harness" "$run_dir/copies.txt" "$workload" <<'REPORT'
import subprocess
import sys

harness, tally, workload = sys.argv[1:4]
TOP = 15
TOP_SMALL = 10

sites = []
small = []
totals = {}
small_totals = {}
dropped = 0
with open(tally) as f:
    for line in f:
        fields = line.split()
        into, sums = sites, totals
        if fields[0] == "small":
            into, sums = small, small_totals
            fields = fields[1:]
        kind, calls, nbytes, *stack = fields
        if kind == "dropped":
            dropped = int(calls)
            continue
        into.append((int(nbytes), int(calls), kind,
                     [int(a, 16) for a in stack if a != "(nil)"]))
        sums[kind] = sums.get(kind, 0) + int(nbytes)
sites.sort(key=lambda s: s[:3], reverse=True)
small.sort(key=lambda s: s[:3], reverse=True)
top = sites[:TOP]
top_small = small[:TOP_SMALL]

# A return address points past its call; look up the call itself. -a
# prints each queried address, then a (function, file:line) pair per
# frame inlined at it, innermost first.
addrs = sorted({a for s in top + top_small for a in s[3]})
out = subprocess.run(
    ["addr2line", "-a", "-f", "-C", "-i", "-e", harness]
    + [hex(a - 1) for a in addrs],
    capture_output=True, text=True, check=True).stdout.splitlines()
frames = {}
for line in out:
    if line.startswith("0x"):
        key = int(line, 16) + 1
        frames[key] = []
    else:
        frames[key].append(line)


def brief(func):
    """A C++ name without template arguments or parameters."""
    func = func.replace("(anonymous namespace)", "{anon}")
    kept, depth = [], 0
    for ch in func:
        if ch == "<":
            depth += 1
        elif ch == ">" and depth:
            depth -= 1
        elif depth == 0:
            kept.append(ch)
    name = "".join(kept)
    cut = name.find("(")
    if name[:cut].endswith("operator"):  # operator()(...)
        cut = name.find("(", cut + 2)
    return name[:cut] if cut > 0 else name


def where(path):
    for root in ("/src/", "/perfbench/", "/scripts/"):
        if root in path:
            return path[path.index(root) + 1:]
    return None


def show(rows):
    for nbytes, calls, kind, stack in rows:
        chain = [(f, l) for a in stack for f, l in
                 zip(frames[a][0::2], frames[a][1::2])]
        ours = [(brief(f), where(l)) for f, l in chain if where(l)]
        shown = ours[:3] or [(brief(chain[0][0]), chain[0][1])]
        print(f"{nbytes / 1e9:8.3f} GB {calls:9d} calls  {kind:7s}  "
              + "  <-  ".join(f"{f} ({l})" for f, l in shown))


def gb(sums):
    return sum(sums.values()) / 1e9


print(f"copies and fills of at least 256 bytes, {workload}, one pass:")
for kind in ("memcpy", "memmove", "memset"):
    print(f"  {kind:8s} {totals.get(kind, 0) / 1e9:8.3f} GB")
print(f"  {'total':8s} {gb(totals):8.3f} GB")
print(f"copies and fills of every size: {gb(totals) + gb(small_totals):.3f}"
      f" GB ({gb(small_totals):.3f} GB in "
      f"{sum(s[1] for s in small)} calls under 256 bytes)")
if dropped:
    print(f"  ({dropped} calls not tallied: site table full)")
print()
print(f"top {len(top)} sites of at least 256 bytes "
      "(innermost project frames first):")
show(top)
print()
print(f"top {len(top_small)} call sites under 256 bytes:")
show(top_small)
REPORT
