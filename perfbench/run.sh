#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload clean --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary all stay in .bench_build/ under the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
