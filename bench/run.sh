#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#
#   bash bench/run.sh --workload paper-transient --seed 1 --seconds 15 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache,
# telemetry) and the binary itself stay under .bench_build/ in the
# checkout. The build needs the simulator's sources one directory up
# (bench/go.mod replaces csmabw with ../), so outside a full checkout it
# fails and the script exits non-zero without running anything.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

(cd bench && go build -o "$out/csmabw-bench" .)
exec "$out/csmabw-bench" "$@"
