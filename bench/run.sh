#!/bin/bash
# Build bpbench from source and run it. Called from the root of a
# checkout as `bash bench/run.sh --workload <name> --seed <n> --seconds
# <s> --trace <0|1>`; everything it writes (build cache, binary, traces)
# goes under .bench_build/ in that checkout.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bpbench" . >&2
exec "$build/bpbench" "$@"
