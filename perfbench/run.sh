#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write (Go build cache, the binary,
# per-run records and spans) stays under .bench_build in the root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
