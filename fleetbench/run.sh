#!/usr/bin/env bash
# Builds the fleet benchmark from the source tree around it and runs it.
# Run from the repository root; every argument is passed to the benchmark:
#
#   bash fleetbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, journals and trace files all live under
# .bench_build/ in the current directory, so nothing outside it is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" TMPDIR="$out/tmp" \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
go -C "$root/fleetbench" build -o "$out/fleetbench" .
exec "$out/fleetbench" "$@"
