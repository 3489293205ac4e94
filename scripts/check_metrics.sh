#!/bin/sh
# check_metrics.sh — metric-name drift check. Every Prometheus metric
# family the binaries can register (grep for "snaps_… string literals in
# non-test sources) and every label name they render with obs.Label (its
# literal first argument, listed as label:<name>) must appear in
# scripts/metrics_allowlist.txt, and every allowlisted entry must still
# exist in the source. A rename, a typo in a new family or label, or a
# silently dropped metric breaks dashboards and alert rules downstream —
# this turns that into a failing CI step with an explicit allowlist edit in
# the diff.
#
# Usage:
#   ./scripts/check_metrics.sh            # verify (CI)
#   ./scripts/check_metrics.sh --update   # rewrite the allowlist
set -e
cd "$(dirname "$0")/.."

ALLOWLIST=scripts/metrics_allowlist.txt
ACTUAL=$(mktemp)
trap 'rm -f "$ACTUAL"' EXIT

# A Label call, inside internal/obs or through the package name.
LABEL='(obs\.|[^A-Za-z0-9_.])Label\('

# A label named by anything but a literal would escape the list below.
if grep -rnE "$LABEL"'[^"]' --include="*.go" --exclude="*_test.go" internal/ cmd/ \
    | grep -v 'func Label('; then
    echo ""
    echo "the Label calls above name their label with a non-literal; name it with a string literal."
    exit 1
fi

{
    grep -rhoE '"snaps_[a-z0-9_]+' --include="*.go" --exclude="*_test.go" internal/ cmd/ \
        | sed 's/^"//'
    grep -rhoE "$LABEL"'"[A-Za-z_][A-Za-z0-9_]*"' --include="*.go" --exclude="*_test.go" internal/ cmd/ \
        | sed -E 's/.*Label\("([^"]*)"/label:\1/'
} | LC_ALL=C sort -u > "$ACTUAL"

if [ "${1:-}" = "--update" ]; then
    cp "$ACTUAL" "$ALLOWLIST"
    echo "updated $ALLOWLIST ($(wc -l < "$ALLOWLIST") names)"
    exit 0
fi

if ! diff -u "$ALLOWLIST" "$ACTUAL"; then
    echo ""
    echo "metric or label names drifted from $ALLOWLIST."
    echo "lines with '+' are new/renamed names missing from the allowlist;"
    echo "lines with '-' are allowlisted names no longer in the source."
    echo "if the change is intentional, run: ./scripts/check_metrics.sh --update"
    exit 1
fi
echo "metric and label names match $ALLOWLIST ($(wc -l < "$ALLOWLIST") names)"
