#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload city-staggered --seed 1 --seconds 12 --trace 0
#
# Every build artifact (binary, Go build cache, toolchain config) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=

go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
