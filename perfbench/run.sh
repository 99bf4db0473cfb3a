#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ (with its Go build cache there
# too) and runs it with the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload lulesh-s24 --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
