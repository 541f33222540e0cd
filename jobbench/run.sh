#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments. Everything the build writes stays under
# .bench_build at the repository root.
#
# Usage, from the repository root:
#   bash jobbench/run.sh --workload fleet-pipetune --seed 1 --seconds 34 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
(cd "$root/jobbench" && go build -o "$build/jobbench" .)
cd "$root"
exec "$build/jobbench" "$@"
