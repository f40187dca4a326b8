#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload live-8tag --seed 1 --seconds 30 --trace 0
#
# Everything the build leaves behind (Go build cache, binary, traces) goes
# under .bench_build/ in the checkout, so nothing outside it is touched. The
# build fails, and the script exits non-zero without printing a result, when
# the lf module (the parent directory) is missing.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd benchmark && go build -o "$out/lfbenchmark" .) >&2
exec "$out/lfbenchmark" "$@"
