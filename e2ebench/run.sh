#!/usr/bin/env bash
# Builds the end-to-end benchmark and its reference kernel from source into
# .bench_build/ and runs one workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload serve-light --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off GOTELEMETRY=off

go -C "$root/e2ebench" build -o "$out/e2ebench" .
go -C "$root/e2ebench/refkernel" build -o "$out/refkernel" .
exec "$out/e2ebench" --ref "$out/refkernel" --out "$out/e2ebench-runs" "$@"
