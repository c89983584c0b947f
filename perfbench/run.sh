#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every flag through, e.g.:
#   bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 10 --trace 0
# Run it from the repository root. The build cache, the binary and every
# file a run writes stay under .bench_build/ in that directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
# The Go command's caches and per-user files (telemetry, go env) go there
# too; nothing is downloaded.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$XDG_CONFIG_HOME"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
