#!/usr/bin/env bash
# Net lines of code: the .cc + .h line count of src/, src/db, src/tpch,
# tests/ and bench/ at HEAD, and each one's change against a base
# revision (the parent commit by default). Every line of every .cc and
# .h file under a directory counts, the way ROADMAP.md reports net LoC.
#
# Usage: scripts/loc.sh [base-rev]
set -euo pipefail

cd "$(dirname "$0")/.."

base="${1:-HEAD~1}"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null ||
    { echo "loc.sh: unknown revision '$base'" >&2; exit 2; }

# Lines in the .cc and .h files under directory $2 at revision $1.
count() {
    local files
    files=$(git ls-tree -r --name-only "$1" -- "$2" |
                grep -E '\.(cc|h)$' || true)
    if [[ -z "$files" ]]; then
        echo 0
        return
    fi
    # shellcheck disable=SC2086
    git archive "$1" -- $files | tar -xO | wc -l
}

printf '%-10s %8s %8s  (base %s)\n' dir HEAD change \
    "$(git rev-parse --short "$base")"
for dir in src src/db src/tpch tests bench; do
    now=$(count HEAD "$dir")
    was=$(count "$base" "$dir")
    printf '%-10s %8d %+8d\n' "$dir/" "$now" "$((now - was))"
done
