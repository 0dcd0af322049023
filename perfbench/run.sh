#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ in the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
