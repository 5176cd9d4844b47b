#!/usr/bin/env bash
# Builds the served-query benchmark from source and runs it with the given
# arguments (see README.md). Run from the repository root:
#
#   bash fdqbench/run.sh --workload oltp-mix --seed 1 --seconds 10 --trace 0
#
# Every build artifact, the Go build cache and temporary files included,
# stays under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C "$root/fdqbench" build -o "$out/fdqbench" .
exec "$out/fdqbench" -out "$out" "$@"
