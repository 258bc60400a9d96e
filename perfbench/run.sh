#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the root of the
# repository. All build state (Go build cache, binary) and all output stay
# under .bench_build/ in the current directory. Arguments are passed on:
#
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOTELEMETRY=off
mkdir -p "$GOTMPDIR"

go build -C "$root/perfbench" -o "$build/perfbench" .

# The checkout may not be a git repository; the commit is then unknown
# unless PERFBENCH_COMMIT names it.
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -d "$root/.git" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)
fi
export PERFBENCH_COMMIT="${PERFBENCH_COMMIT:-unknown}"

exec "$build/perfbench" "$@"
