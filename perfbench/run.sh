#!/usr/bin/env bash
# Builds the service benchmark from source into .bench_build/ at the root
# of the checkout and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload read-mix --seed 1 --seconds 20 --trace 0
#
# The Go build cache also lives under .bench_build/, so the benchmark
# reads and writes nothing outside the checkout besides the toolchain.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/bin/perfbench" . >&2
cd "$root"
exec "$out/bin/perfbench" "$@"
