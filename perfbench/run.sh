#!/usr/bin/env bash
# run.sh — build and run the repository benchmark from a checkout.
#
#   bash perfbench/run.sh --workload deployed-10k --seed 1 --seconds 30 --trace 0
#
# Builds cmd/xrd-server and the benchmark driver into .bench_build/
# (every Go cache and temporary file stays under it), then runs the
# driver, which prints its result as the last line of stdout. Exits
# non-zero when the build fails or a correctness check does.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/xrd-server" ]; then
    echo "run.sh: run from the root of a repository checkout" >&2
    exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
go build -o "$build/xrd-server" ./cmd/xrd-server >&2
(cd "$root/perfbench" && go build -o "$build/xrdbench" .) >&2
exec "$build/xrdbench" -server-bin "$build/xrd-server" -work "$build" "$@"
