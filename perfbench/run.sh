#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build product, cache and report stays under .bench_build/.
#
#   bash perfbench/run.sh --workload paper|campaign|serve --seed N --seconds S --trace 0|1
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config" "$out/cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out" "$@"
