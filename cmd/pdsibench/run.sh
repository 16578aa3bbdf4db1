#!/usr/bin/env bash
# Builds the repository benchmark from source into .bench_build/ (with a
# build cache kept there too) and runs it with the given arguments:
#
#   bash cmd/pdsibench/run.sh --workload ckpt_scale --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off
(cd cmd/pdsibench && go build -o "$out/pdsibench" .)
exec "$out/pdsibench" "$@"
