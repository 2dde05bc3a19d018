#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#   bash perfbench/run.sh --workload typing --seed 1 --seconds 10 --trace 0
# Every file it writes (Go build cache, binary, store files) stays under
# .bench_build in the directory it is run from.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local \
	GOFLAGS=-mod=readonly GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --data-dir "$build/data" "$@"
