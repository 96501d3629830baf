#!/usr/bin/env bash
# One golden check: run a bench binary with every BISCUIT_* input
# unset except the assignments given, and compare its stdout byte for
# byte with a golden transcript. Registered per golden as a ctest case
# with label `golden` (bench/CMakeLists.txt).
#
# Usage: scripts/check_golden.sh BENCH GOLDEN OUT [VAR=VALUE...]
#
# OUT receives the transcript; on a mismatch the first lines of the
# diff go to stderr and the exit status is 1.
set -euo pipefail

bench="$1"
golden="$2"
out="$3"
shift 3

while read -r var; do
    unset "$var"
done < <(compgen -e | grep '^BISCUIT_' || true)

mkdir -p "$(dirname "$out")"
env "$@" "$bench" > "$out"
if ! cmp -s "$golden" "$out"; then
    echo "SIMULATED OUTPUT DRIFT: $bench $* (diff $golden $out)" >&2
    diff "$golden" "$out" | head -n 40 >&2 || true
    exit 1
fi
