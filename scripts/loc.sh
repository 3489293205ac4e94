#!/bin/sh
# loc.sh — the size the simplicity work is measured by: lines of non-test
# Go outside bench/ (its own module, with its own contract).
#
# Usage:
#   ./scripts/loc.sh          # the total
#   ./scripts/loc.sh -v       # one line per package directory, then the total
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
echo "$(files | xargs cat | wc -l) non-test Go lines outside bench/"
