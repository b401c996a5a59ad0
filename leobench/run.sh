#!/usr/bin/env bash
# Builds the leobench benchmark from the checkout it runs in and runs it
# with the given arguments, from the root of the checkout:
#
#   bash leobench/run.sh --workload gait-read --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary, the daemon's spools and trace files all
# stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd "$root/leobench" && go build -o "$out/bin/leobench" .)
exec "$out/bin/leobench" "$@"
