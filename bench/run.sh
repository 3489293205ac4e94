#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write (Go build cache, binary, snapshots, traces) lands in .bench_build/
# at the root of the checkout, so nothing outside the checkout is touched.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
# The go command keeps its env file and telemetry counters under the user's
# configuration directory; point that into the checkout as well.
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$here" && go build -o "$out/snapsbench" .)
exec "$out/snapsbench" "$@"
