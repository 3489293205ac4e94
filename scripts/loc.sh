#!/bin/sh
# loc.sh — the size the simplicity work is measured by: lines of non-test
# Go outside bench/ (its own module, with its own contract).
#
# Usage:
#   ./scripts/loc.sh          # the total
#   ./scripts/loc.sh -v       # one line per package directory, then the total
#   ./scripts/loc.sh -check   # the total, failing above scripts/loc_ceiling.txt (CI)
#
# The ceiling is one committed number: a change that grows the tree must
# raise it in its own diff, and one that shrinks it should lower it.
set -e
cd "$(dirname "$0")/.."

files() {
    find . -name '*.go' -not -name '*_test.go' -not -path './bench/*'
}

if [ "${1:-}" = "-v" ]; then
    files | xargs wc -l | awk '$2 != "total" {
        dir = $2; sub(/\/[^\/]*$/, "", dir); sum[dir] += $1
    } END { for (d in sum) printf "%7d %s\n", sum[d], d }' | sort -k2
fi
total=$(files | xargs cat | wc -l)
echo "$total non-test Go lines outside bench/"
if [ "${1:-}" = "-check" ]; then
    ceiling=$(cat scripts/loc_ceiling.txt)
    if [ "$total" -gt "$ceiling" ]; then
        echo "over the ceiling of $ceiling in scripts/loc_ceiling.txt:"
        echo "delete as much as the change adds, or raise the ceiling in this diff."
        exit 1
    fi
fi
