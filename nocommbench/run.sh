#!/usr/bin/env bash
# Builds the nocommbench binary from the sources of the checkout it runs
# in, then runs it with the given arguments. Run from the repository root:
#
#   bash nocommbench/run.sh --workload hot-eval --seed 1 --seconds 25 --trace 0
#
# Build caches, temporary files, disk tiers and span dumps all stay under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/nocommbench" && go build -buildvcs=false -o "$build/bin/nocommbench" .)
exec "$build/bin/nocommbench" --out "$build/nocommbench" "$@"
